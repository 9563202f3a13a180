"""Classical prover strategies and the brute-force classical-value oracle.

A classical pair is two response functions plus a per-round shared-randomness
draw. The halves only ever see their own challenge half and the round's
shared randomness, so no-signaling holds by construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import ColorproofError
from .games import (
    GameKind,
    LabellingDraw,
    RzkpChallenge,
    Transcript,
    labelled_answer_a,
    labelled_answer_b,
)
from .graphs import Edge, Graph, PlantedInstance


class StrategiesError(ColorproofError, ValueError):
    pass


@dataclass(frozen=True)
class ClassicalStrategyPair:
    """Shared-randomness draw plus one response function per prover half."""

    shared: Callable[[GameKind, Graph, random.Random], object]
    answer_a: Callable[[GameKind, object, object], object]
    answer_b: Callable[[GameKind, object, object], object]


def _labelling_pair(colors_a: tuple, colors_b: tuple, permute: bool) -> ClassicalStrategyPair:
    # play_rounds replays exactly this pair in bulk; a pair whose callables are replaced runs its scalar loop
    return ClassicalStrategyPair(LabellingDraw(colors_a, colors_b, permute), labelled_answer_a, labelled_answer_b)


def honest_pair(inst: PlantedInstance) -> ClassicalStrategyPair:
    """Honest provers: fresh color permutation and label split every round."""
    if not inst.witness:
        raise StrategiesError("instance has no witness")
    return _labelling_pair(inst.witness, inst.witness, permute=True)


def fixed_coloring_pair(colors: Sequence[int]) -> ClassicalStrategyPair:
    """Deterministic cheating baseline: both halves answer from one fixed coloring.

    The label split is still drawn fresh from shared randomness (a prover must
    answer something), but there is no per-round permutation, which is exactly
    what the transcript-uniformity negative control needs.
    """
    colors = tuple(colors)
    return _labelling_pair(colors, colors, permute=False)


def mismatched_pair(colors_a: Sequence[int], colors_b: Sequence[int]) -> ClassicalStrategyPair:
    """Provers who agreed on the label split but hold different colorings.

    Mirrors two networked provers configured with the same shared seed but
    different witnesses: the bit-0 labels coincide while bit-1 labels differ
    wherever the colorings do.
    """
    ca, cb = tuple(colors_a), tuple(colors_b)
    if len(ca) != len(cb):
        raise StrategiesError("colorings must have equal length")
    return _labelling_pair(ca, cb, permute=True)


# ---------------------------------------------------------------------------
# Brute-force classical value of the vertex game's edge-verification branch


_BRUTE_CHUNK = 1 << 20


def brute_force_vertex3col_value(g: Graph) -> tuple[Fraction, tuple[int, ...]]:
    """Exact max over all 3^n colorings of (1 - violations/|E|).

    Returns the value as an exact rational together with the lexicographically
    smallest maximizing coloring. Enumerates in chunks with numpy, so n <= 16
    stays within the 3^n <= 4.3e7 envelope.
    """
    if g.n > 16:
        raise StrategiesError(f"3^{g.n} colorings is past the brute-force envelope (n <= 16)")
    if not g.edges:
        raise StrategiesError("graph has no edges")
    total = 3**g.n
    # digit weights chosen so row order is lexicographic in the coloring
    weights = np.array([3 ** (g.n - 1 - v) for v in range(g.n)], dtype=np.int64)
    ei = np.array([e[0] for e in g.edges])
    ej = np.array([e[1] for e in g.edges])
    best_viol = len(g.edges) + 1
    best_idx = -1
    for start in range(0, total, _BRUTE_CHUNK):
        idx = np.arange(start, min(start + _BRUTE_CHUNK, total), dtype=np.int64)
        cols = (idx[:, None] // weights[None, :]) % 3
        viol = (cols[:, ei] == cols[:, ej]).sum(axis=1)
        k = int(viol.argmin())
        if viol[k] < best_viol:
            best_viol = int(viol[k])
            best_idx = int(idx[k])
    digits = tuple(int(best_idx // w % 3) for w in weights)
    return Fraction(len(g.edges) - best_viol, len(g.edges)), digits


# ---------------------------------------------------------------------------
# Transcript uniformity (empirical zero-knowledge surrogate)

ADMISSIBLE_QUADS = tuple(
    q for q in itertools.product((0, 1, 2), repeat=4) if (q[0] + q[1]) % 3 != (q[2] + q[3]) % 3
)


@dataclass(frozen=True)
class UniformityReport:
    edge: Edge
    samples: int
    tv_from_uniform: float
    support: int
    counts: dict


def transcript_uniformity(transcripts: Iterable[Transcript], edge: Edge) -> UniformityReport:
    """TV distance of prover A's quadruple distribution from uniform-over-54.

    Only rounds whose A-challenge equals `edge` contribute. Mass on quadruples
    outside the admissible support (sums equal) counts fully against the
    distance.
    """
    return uniformity_by_edge(transcripts, [edge])[tuple(edge)]


def uniformity_by_edge(transcripts: Iterable[Transcript], edges: Iterable[Edge]) -> dict[Edge, UniformityReport]:
    """`transcript_uniformity` of every edge in `edges`, from one pass over the transcripts."""
    counts: dict[Edge, dict] = {tuple(e): {} for e in edges}
    for t in transcripts:
        ch = t.challenge
        if not isinstance(ch, RzkpChallenge):
            continue
        per_edge = counts.get(ch.edge_a)
        w = t.response_a
        if per_edge is None or not isinstance(w, tuple):
            continue
        per_edge[w] = per_edge.get(w, 0) + 1
    return {e: _uniformity_report(e, c) for e, c in counts.items()}


def _uniformity_report(edge: Edge, counts: dict) -> UniformityReport:
    n = sum(counts.values())
    if n == 0:
        raise StrategiesError(f"no transcripts carry A-challenge {edge}")
    uniform = 1.0 / len(ADMISSIBLE_QUADS)
    tv = 0.0
    for q in ADMISSIBLE_QUADS:
        tv += abs(counts.get(q, 0) / n - uniform)
    for q, c in counts.items():
        if q not in ADMISSIBLE_QUADS:
            tv += c / n
    return UniformityReport(
        edge=edge,
        samples=n,
        tv_from_uniform=tv / 2.0,
        support=len(counts),
        counts={",".join(map(str, q)): c for q, c in sorted(counts.items())},
    )
