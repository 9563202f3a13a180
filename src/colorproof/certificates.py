"""Numerical certificates for the soundness reduction chain.

From a constraint-game strategy we extract prover B's color projectors and
the reduced state, then measure how far the assignment is from an exactly
commuting satisfying one: commutators with sqrt(rho) (tracial defect),
neighbor commutators, edge-coloring products, and gadget-pair commutators.
`check_bounds` evaluates every inequality the reduction proof promises and
returns the violations (an empty list, unless the implementation is wrong --
these are theorems). A strategy of another game raises `quantum.StrategyError`
and one missing a family `quantum.MissingPvmError`, as in every reader of a
strategy; `MissingProjectorError` is for an `Assignment` missing a projector.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .games import BCS, F3, _BITS2, BcsChallenge, BcsResponseA, BcsResponseB, EdgeConstraint, GameType, verdict
from .graphs import ExtendedGraph, Graph
from .quantum import QuantumStrategy, _require_game, _stack_ops


class CertificateError(ValueError):
    pass


class NotVertexCompleteError(CertificateError):
    pass


class MissingProjectorError(CertificateError):
    pass


class NumericalError(CertificateError):
    pass


@dataclass
class Assignment:
    """Prover B's color projectors and reduced state rho = Tr_A |psi><psi|."""

    dim: int
    rho: np.ndarray
    projs: dict  # (vertex, color) -> projector
    vertices: tuple[int, ...]


@dataclass
class EpsTable:
    """Edge-verification failure probabilities per challenge choice.

    `entries[(i, j, alpha, k)]` is the failure probability when prover A is
    asked the disjointness constraint for edge (i, j) at color alpha and
    prover B is asked vertex k in {i, j} at the same color. `observable`
    carries the +-1 observable expectations of the same challenge choices,
    used for the expectation-value certificate.
    """

    entries: dict
    aggregate: float
    observable: dict


@dataclass
class NormReport:
    dim: int
    tracial: dict  # (vertex, alpha) -> ||[B, sqrt(rho)]||_F
    commuting: dict  # (i, j, alpha, beta) -> ||[B^i_a, B^j_b] sqrt(rho)||_F, (i,j) an edge
    edge_coloring: dict  # (i, j, alpha) -> ||B^i_a B^j_a sqrt(rho)||_F
    gadget: dict  # (i, j, alpha, beta) over non-adjacent base pairs


@dataclass(frozen=True)
class Violation:
    family: str
    key: tuple
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


def partial_trace_a(s: QuantumStrategy) -> np.ndarray:
    """Reduce the shared state onto prover B's system."""
    psi_mat = s.psi_matrix()
    return psi_mat.T @ psi_mat.conj()


def sqrt_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root; eigenvalues in [-1e-10, 0) clamp to 0."""
    lam, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    if lam.min() < -1e-10:
        raise NumericalError(f"state eigenvalue {lam.min()} below the PSD floor")
    lam = np.clip(lam, 0.0, None)
    return (v * np.sqrt(lam)) @ v.conj().T


def extract_assignment(s: QuantumStrategy, g: Graph) -> Assignment:
    """Pull B's outcome-1 projectors per (vertex, color) and the reduced state."""
    _require_game(s, GameType.BCS)
    keys = [(v, alpha) for v in range(g.n) for alpha in F3]
    ones = _stack_ops(s.pvm_b, [(key, 1) for key in keys], "B", s.dim_b)
    for v, fams in enumerate(ones.reshape(g.n, 3, s.dim_b, s.dim_b)):
        if np.abs(fams[0] + fams[1] + fams[2] - np.eye(s.dim_b)).max() > 1e-9:
            raise NotVertexCompleteError(f"color projectors at vertex {v} do not sum to identity")
        for a, b in itertools.combinations(fams, 2):
            if np.abs(a @ b - b @ a).max() > 1e-9:
                raise NotVertexCompleteError(f"same-vertex projectors at {v} do not commute")
    rho = partial_trace_a(s)
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"reduced state trace {tr} != 1")
    return Assignment(dim=s.dim_b, rho=rho, projs=dict(zip(keys, ones)), vertices=tuple(range(g.n)))


# [k, (b0, b1), bt]: the +-1 product of A's indicator for endpoint k and B's indicator bt
_OBS = np.array([[[(2.0 * bits[k] - 1.0) * (2.0 * bt - 1.0) for bt in (0, 1)] for bits in _BITS2] for k in (0, 1)])
# [k, (b0, b1), bt]: 1 where verdict() rejects A's bits against B's bit bt at endpoint k of the edge
_LOSSES = np.array(
    [
        [[not verdict(BCS, ch, BcsResponseA(bits), BcsResponseB(bt)).accept for bt in (0, 1)] for bits in _BITS2]
        for ch in (BcsChallenge(EdgeConstraint((0, 1), 0), k, 0) for k in (0, 1))
    ],
    dtype=float,
)


def eps_table(s: QuantumStrategy, g: Graph) -> EpsTable:
    """Failure probability of every edge-verification challenge choice.

    Each pair of A's and B's outcomes gets its mass once, as ||A Psi B^T||_F^2 =
    <psi| A (x) B |psi>. An entry sums the masses of the pairs verdict() rejects,
    an observable all four with signs. As a sum of squares, an exactly losing
    pair weighs rounding squared, not rounding: eps enters the bounds as
    sqrt(eps). The aggregate, mean(entries), is 1 - p_win on the edge-constraint
    branch, which the test suite checks against win_probability.
    """
    _require_game(s, GameType.BCS)
    if not g.edges:
        raise CertificateError("eps table needs a graph with at least one edge")
    a_keys = [EdgeConstraint(e, alpha) for e in g.edges for alpha in F3]
    a_layout = [(key, bits) for key in a_keys for bits in _BITS2]
    b_layout = [((end, key.color), bt) for key in a_keys for end in key.edge for bt in (0, 1)]
    pa = _stack_ops(s.pvm_a, a_layout, "A", s.dim_a).reshape(-1, 4, s.dim_a, s.dim_a)  # (r, bits, d_a, d_a)
    pb = _stack_ops(s.pvm_b, b_layout, "B", s.dim_b).reshape(-1, 2, 2, s.dim_b, s.dim_b)  # (r, end, bit, d_b, d_b)
    amp = (pa[:, :, None, None] @ s.psi_matrix()) @ pb[:, None].swapaxes(-1, -2)  # (r, bits, end, bit, d_a, d_b)
    pairs = (amp.real**2 + amp.imag**2).sum(axis=(-2, -1))
    eps = np.einsum("rakb,kab->rk", pairs, _LOSSES)
    if eps.max() > 1.0 + 1e-9:
        raise NumericalError(f"failure probability {eps.max()} escaped [0,1]")
    keys = [(*key.edge, key.color, end) for key in a_keys for end in key.edge]
    entries = dict(zip(keys, np.minimum(eps, 1.0).ravel().tolist()))
    observable = dict(zip(keys, np.einsum("rakb,kab->rk", pairs, _OBS).ravel().tolist()))
    return EpsTable(entries=entries, aggregate=sum(entries.values()) / len(entries), observable=observable)


def _frob(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(m, axis=(-2, -1))


def _commutator_norms(projs: np.ndarray, pairs, sr: np.ndarray) -> np.ndarray:
    """||[B^i_a, B^j_b] sqrt(rho)||_F for each pair (i, j) and colors a, b, as (pair, a, b)."""
    ij = np.array(pairs, dtype=int).reshape(-1, 2)
    bi, bj = projs[ij[:, 0], :, None], projs[ij[:, 1], None, :]
    return _frob((bi @ bj - bj @ bi) @ sr)


def _keyed(heads, values: np.ndarray) -> dict:
    """values[h, c...] keyed (*heads[h], *c), the colors c running fastest."""
    colors = list(itertools.product(F3, repeat=values.ndim - 1))
    return dict(zip(((*h, *c) for h in heads for c in colors), values.ravel().tolist()))


def assignment_norms(a: Assignment, base: Graph, ext: Optional[ExtendedGraph] = None) -> NormReport:
    """All Frobenius-norm defects of the assignment.

    With `ext` given, the per-edge norms run over the extended graph's edges
    and the gadget commutators over the non-adjacent base pairs; otherwise
    everything runs over `base` alone.
    """
    op_graph = ext.full if ext is not None else base
    missing = [(v, alpha) for v in range(op_graph.n) for alpha in F3 if (v, alpha) not in a.projs]
    if missing:
        raise MissingProjectorError(f"assignment has no projector for {missing[0]}")
    sr = sqrt_psd(a.rho)
    projs = np.array([[a.projs[(v, alpha)] for alpha in F3] for v in range(op_graph.n)])  # (vertex, color, d, d)
    edges = op_graph.edges
    ij = np.array(edges, dtype=int).reshape(-1, 2)
    pairs = [gd.pair for gd in ext.gadgets] if ext is not None else []
    return NormReport(
        dim=a.dim,
        tracial=_keyed([(v,) for v in range(op_graph.n)], _frob(projs @ sr - sr @ projs)),
        commuting=_keyed(edges, _commutator_norms(projs, edges, sr)),
        edge_coloring=_keyed(edges, _frob(projs[ij[:, 0]] @ projs[ij[:, 1]] @ sr)),
        gadget=_keyed(pairs, _commutator_norms(projs, pairs, sr)),
    )


def _s_bound(eps: float) -> float:
    eps = min(1.0, max(0.0, eps))
    return math.sqrt(2.0 * eps * (2.0 - eps))


def evaluate_bounds(
    nr: NormReport,
    et: EpsTable,
    base: Graph,
    ext: Optional[ExtendedGraph] = None,
) -> list[Violation]:
    """Evaluate every certificate inequality instance, violated or not.

    Families, per edge (i, j) of the operative graph and colors:
      * observable -- <Y (x) X> >= 1 - 2*eps for the challenge's observables
      * tracial    -- ||[B^k_a, sqrt(rho)]||_F <= sqrt(2 eps (2 - eps))
      * commuting  -- ||[B^i_a, B^j_b] sqrt(rho)||_F <= s(eps_i) + s(eps_j)
      * edge-coloring -- with the extra sqrt((eps_i + eps_j)/2) term
      * gadget     -- non-adjacent base pairs against the summed gadget-edge
                      budget (only when `ext` is given)
    """
    op_graph = ext.full if ext is not None else base
    out: list[Violation] = []
    push = out.append
    for i, j in op_graph.edges:
        for alpha in F3:
            e_i = et.entries[(i, j, alpha, i)]
            e_j = et.entries[(i, j, alpha, j)]
            for k, e_k in ((i, e_i), (j, e_j)):
                push(Violation("observable", (i, j, alpha, k), 1.0 - 2.0 * e_k, et.observable[(i, j, alpha, k)]))
                push(Violation("tracial", (i, j, alpha, k), nr.tracial[(k, alpha)], _s_bound(e_k)))
            push(
                Violation(
                    "edge-coloring",
                    (i, j, alpha),
                    nr.edge_coloring[(i, j, alpha)],
                    _s_bound(e_i) + _s_bound(e_j) + math.sqrt((e_i + e_j) / 2.0),
                )
            )
            for beta in F3:
                e_bj = et.entries[(i, j, beta, j)]
                push(
                    Violation(
                        "commuting",
                        (i, j, alpha, beta),
                        nr.commuting[(i, j, alpha, beta)],
                        _s_bound(e_i) + _s_bound(e_bj),
                    )
                )
    if ext is not None:
        for gd in ext.gadgets:
            i, j = gd.pair
            budget = 0.0
            for u, v in gd.edges:
                for gamma in F3:
                    e_u = et.entries[(u, v, gamma, u)]
                    e_v = et.entries[(u, v, gamma, v)]
                    budget += 4.0 * math.sqrt((e_u + e_v) / 2.0) + 19.0 * (_s_bound(e_u) + _s_bound(e_v))
            for alpha in F3:
                for beta in F3:
                    push(Violation("gadget", (i, j, alpha, beta), nr.gadget[(i, j, alpha, beta)], budget))
    return out


def check_bounds(nr: NormReport, et: EpsTable, base: Graph, ext: Optional[ExtendedGraph] = None) -> list[Violation]:
    """The violated certificate inequalities (expected empty; see evaluate_bounds)."""
    return [v for v in evaluate_bounds(nr, et, base, ext) if v.lhs > v.rhs + 1e-9]


def sequential_coloring(a: Assignment, order: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """Sample one coloring by measuring each vertex's color family in turn.

    Born rule with state update rho <- B rho B / Tr(B rho B); the probability
    of any outcome string equals Tr(B_m ... B_1 rho B_1 ... B_m).
    """
    if sorted(order) != list(a.vertices):
        raise CertificateError("order must be a permutation of the assignment's vertices")
    rho = a.rho.copy()
    colors = [0] * len(order)
    for v in order:
        probs = [max(0.0, float((a.projs[(v, alpha)] @ rho).trace().real)) for alpha in F3]
        if sum(probs) < 1e-15:
            raise NumericalError(f"all branches vanish at vertex {v}")
        pick = colors[v] = rng.choices(F3, probs)[0]
        b_op = a.projs[(v, pick)]
        rho = b_op @ rho @ b_op
        rho = rho / probs[pick]
    return tuple(colors)


def sequential_distribution(a: Assignment, order: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Exhaustive outcome distribution Tr(B_m ... B_1 rho B_1 ... B_m)."""
    if sorted(order) != list(a.vertices):
        raise CertificateError("order must be a permutation of the assignment's vertices")
    dist: dict[tuple[int, ...], float] = {}

    def walk(pos: int, rho: np.ndarray, picked: list[int]) -> None:
        if pos == len(order):
            colors = [0] * len(order)
            for v, c in zip(order, picked):
                colors[v] = c
            dist[tuple(colors)] = max(0.0, float(rho.trace().real))
            return
        v = order[pos]
        for alpha in F3:
            b_op = a.projs[(v, alpha)]
            walk(pos + 1, b_op @ rho @ b_op, picked + [alpha])

    walk(0, a.rho.copy(), [])
    return dist
