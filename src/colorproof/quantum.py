"""Finite-dimensional two-prover strategies and the constructive reductions.

A strategy is a shared pure state plus one projective measurement family per
challenge half. Winning probabilities are computed exactly:

    p_win = sum_{x,y} p(x,y) sum_{winning (a,b)} <psi| A^x_a (x) B^y_b |psi>

with the winning sets read from `engine.VERDICT_TABLES`, filled from the scalar
verdict and read by the batch round engine too, so the exact evaluator and
the round-by-round simulator can never disagree about what counts as a win.

The two strategy transformers implement the reduction chain:

  * reduce_rzkp_to_edge -- prover A coarse-grains each labelling outcome to
    its color sum; prover B measures the marginal for its challenged vertex
    at a locally random bit, then the complementary bit on the post-measured
    state, and sums the outcomes. B's local randomness (bit and neighbor
    choice) is a uniform slot register, and the two-step measurement is
    dilated by a three-level ancilla inside each register block, keeping
    every family projective.
  * reduce_edge_to_bcs -- colors become indicator bits; A's neighbor choice
    for consistency constraints is a slot register on A's side.

Each side of a strategy is one (n_ops, R, d, d) stack of projector blocks
plus a `Layout`: its families in order, each with its outcomes and rows.
Block r of a projector acts while the side's classical slot register reads
r: the projector is the block diagonal of its R blocks, the side's dimension
is R*d, and the state is uniform over the register. The generators and
`classical_embedding` give R = 1, and so may a hand-built `Side`; only the
reductions write registers, as blocks, never as (R*d)^2 matrices. Readers
take the rows they need in one gather (`_stack_ops`), a slice of the stack
when the rows are evenly spaced, and an outcome its family omits reads as
zero; the first product against the state multiplies each block by the
state's first register block, so no reader multiplies through the zeros off
the block diagonal. Per-family sums (completeness, color-sum
coarse-graining, indicator re-encoding, marginals) are `np.add.at` into a
(family, ...) stack, block by block, which adds each family's operators in
the family's own order, so the sums equal the per-family loops bit for bit;
an omitted outcome is absent from them or adds zero, which leaves them
unchanged. The generators keep a fixed draw order: each family, in key
order, draws its assignment integers and then its Gaussian matrices from
`rng` exactly as a per-family loop would; only after all draws does the side
get one batched `eigh` (or `qr`) and one batched `U diag U^dag` rotation.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from . import ColorproofError
from .engine import VERDICT_TABLES, JointSampler
from .games import (
    F3,
    SPECS,
    _BITS3,
    Challenge,
    GameKind,
    GameSpec,
    GameType,
    Labelled,
    challenge_pmf,
)
from .graphs import Graph, three_color

PROJ_TOL = 1e-9


class StrategyError(ColorproofError, ValueError):
    pass


class Pairs(list):
    """A reader's (key, outcome) list, which keeps its rows in each side layout it is read from (`Layout.gather`)
    for as long as both live: strategies that one generator or reduction builds on one graph share a layout."""

    def __init__(self, pairs: Sequence = ()):
        super().__init__(pairs)
        self.rows = weakref.WeakKeyDictionary()


class Layout:
    """The families of one side of a strategy: family f is keys[f], its outcomes outs[f] on rows
    starts[f]:starts[f + 1] of the side's stack; pairs[r] is row r's (key, outcome)."""

    def __init__(self, keys: Sequence, outs: Sequence):
        self.keys, self.outs = tuple(keys), tuple(map(tuple, outs))
        self.pairs = Pairs((key, out) for key, outs in zip(self.keys, self.outs) for out in outs)
        self.starts = np.cumsum([0, *map(len, self.outs)])
        self.fam = np.repeat(np.arange(len(self.keys)), np.diff(self.starts))  # family of each row
        self.index = {key: f for f, key in enumerate(self.keys)}

    @cached_property
    def out_array(self) -> np.ndarray:
        return np.array([out for _, out in self.pairs])

    def family(self, key, side: str) -> tuple[slice, tuple]:
        """Family `key`'s rows and outcomes; StrategyError ("has no ... measurement") if the side has none."""
        if key not in self.index:
            raise StrategyError(f"strategy has no {side} measurement for {key}")
        f = self.index[key]
        return slice(self.starts[f], self.starts[f + 1]), self.outs[f]

    def gather(self, pairs: Sequence, side: str) -> tuple:
        """(rows, omitted) of the (key, outcome) `pairs`: rows a slice when evenly spaced, else an index;
        omitted None, or a mask of the outcomes their families omit. A missing family raises `family`'s error."""
        kept = pairs.rows if isinstance(pairs, Pairs) else {}
        hit = kept.get(self)
        if hit is None:
            for key, _ in pairs:
                self.family(key, side)
            row = {pair: r for r, pair in enumerate(self.pairs)}
            idx = np.array([row.get(pair, -1) for pair in pairs], dtype=np.intp)
            omitted, step = idx < 0 if (idx < 0).any() else None, int(idx[1] - idx[0]) if len(idx) > 1 else 1
            if omitted is None and len(idx) and step > 0 and (np.diff(idx) == step).all():
                idx = slice(int(idx[0]), int(idx[-1]) + 1, step)
            hit = kept[self] = idx, omitted
        return hit


class Side:
    """One prover's measurements: every projector as its register blocks in one (n_ops, R, d, d) stack, family
    by family per `layout`, row r holding the projector of `layout.pairs[r]`. Block r acts while the side's
    uniform slot register reads r; the projector is their block diagonal, of dimension R*d. R is 1 unless a
    reduction wrote the side. A stack of another shape raises StrategyError; the stack is read-only.
    """

    def __init__(self, ops: np.ndarray, layout: Layout):
        n = len(layout.pairs)
        if ops.ndim != 4 or ops.shape[0] != n or ops.shape[2] != ops.shape[3]:
            raise StrategyError(f"side stack has shape {ops.shape}, want ({n}, R, d, d)")
        self.ops, self.layout = ops, layout
        ops.flags.writeable = False

    @property
    def register(self) -> int:
        return self.ops.shape[1]


@dataclass
class QuantumStrategy:
    """Shared state psi (length dim_a*dim_b, index a*dim_b + b) plus one `Side` of PVMs per prover.

    Side `a` measures prover A's challenge halves, side `b` prover B's. A side's dimension is its register
    size times its block size, register outermost, and psi is uniform over both registers: its register
    blocks are equal. Outcomes follow the game's response payloads (e.g. 4-tuples of labels for the
    labelling game's prover A). An outcome a family omits reads as a zero projector; a missing family
    raises `StrategyError`. A hand-built strategy enters as `Side(ops, Layout(keys, outs))` per prover.
    """

    game: GameType
    dim_a: int
    dim_b: int
    psi: np.ndarray
    a: Side
    b: Side

    def psi_matrix(self) -> np.ndarray:
        return self.psi.reshape(self.dim_a, self.dim_b)


@lru_cache(maxsize=None)
def _spec_layouts(game: GameType, g: Graph) -> tuple[Layout, Layout]:
    """Both sides' layouts of `game` on `g`: each challenge half in key order, with its whole outcome space."""
    spec = SPECS[game]
    a_keys, b_keys = spec.a_keys(g), spec.b_keys(g)
    return Layout(a_keys, map(spec.a_outcomes, a_keys)), Layout(b_keys, map(spec.b_outcomes, b_keys))


# ---------------------------------------------------------------------------
# Winning sets


def _numbered(index: dict, known: dict, key, outs: tuple, picks: np.ndarray) -> np.ndarray:
    """The index of each (key, outs[k]) for k in picks, numbering each new one in order of first sight."""
    at = known.setdefault(key, [-1] * len(outs))  # by k; -1 until numbered
    for k in dict.fromkeys(picks.tolist()):
        if at[k] < 0:
            at[k] = index[key, outs[k]] = len(index)
    return np.array(at)[picks]


@lru_cache(maxsize=None)
def _winning_sets(kind: GameKind, g: Graph) -> tuple[Pairs, Pairs, np.ndarray]:
    """Winning sets as weights: (a_rows, b_cols, weights), from the verdict tables.

    weights[r, c] is the probability of the challenges at which A's (key,
    outcome) a_rows[r] and B's b_cols[c] win together. A challenge's winning
    pairs are its shape's `wins`, B outcome major, so rows, columns and the
    order of the summed probabilities are those of a `verdict` per pair.
    """
    spec, tables = SPECS[kind.game], VERDICT_TABLES[kind.game]
    a_rows, b_cols, a_known, b_known = {}, {}, {}, {}  # row / column index per (key, outcome), and by key
    a_runs, b_runs = {}, {}  # a challenge's row / column per winning pair, by (key, shape)
    rows, cols, probs = [], [], []  # per challenge
    for ch, p in challenge_pmf(kind, g).items():
        a_key, b_key, s = spec.half_a(ch), spec.half_b(ch), tables.of(ch)
        a_outs, b_outs, a_picks, b_picks = tables.wins[s]
        if (a_key, s) not in a_runs:
            a_runs[a_key, s] = _numbered(a_rows, a_known, a_key, a_outs, a_picks)
        if (b_key, s) not in b_runs:
            b_runs[b_key, s] = _numbered(b_cols, b_known, b_key, b_outs, b_picks)
        rows.append(a_runs[a_key, s])
        cols.append(b_runs[b_key, s])
        probs.append(p)
    weights = np.zeros((len(a_rows), len(b_cols)))
    np.add.at(weights, (np.concatenate(rows), np.concatenate(cols)), np.repeat(probs, list(map(len, rows))))
    return Pairs(a_rows), Pairs(b_cols), weights


# ---------------------------------------------------------------------------
# Validation


def _summed(ops: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """(n, R, d, d) stack whose entry t sums the (..., R, d, d) ops with target t, in the order given (np.add.at)."""
    out = np.zeros((n, *ops.shape[-3:]), dtype=complex)
    np.add.at(out, targets, ops)
    return out


def _validate_side(side: Side, dim: int, name: str) -> None:
    """Raise on the first faulty family of one side, its whole stack checked at once, block by block.

    A side whose projectors are not dim x dim fails first, naming its first outcome. Then families are
    scanned in layout order; within a family the first outcome that is non-finite, not Hermitian or not
    idempotent is the fault reported, and a family with none is checked for completeness. A projector is
    all of these exactly when each of its register blocks is.
    """
    lay, stack = side.layout, side.ops
    r, d = stack.shape[1], stack.shape[-1]
    if r * d != dim and lay.pairs:
        (key, out), shape = lay.pairs[0], (r * d, r * d)
        raise StrategyError(f"{name} pvm {key}: projector for {out} has shape {shape}, want {(dim, dim)}")
    per_op = (1, 2, 3)
    finite = np.isfinite(stack).all(axis=per_op)
    if not finite.all():
        stack = np.where(finite[:, None, None, None], stack, 0.0)
    hermitian = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=per_op) <= PROJ_TOL
    idempotent = np.abs(stack @ stack - stack).max(axis=per_op) <= PROJ_TOL
    faulty = ~(finite & hermitian & idempotent)
    sums = _summed(stack, lay.fam, len(lay.keys))
    incomplete = np.abs(sums - np.eye(d)).max(axis=per_op) > PROJ_TOL
    f_op = int(lay.fam[faulty][0]) if faulty.any() else len(lay.keys)
    f_inc = int(incomplete.argmax()) if incomplete.any() else len(lay.keys)
    if f_inc < f_op:
        raise StrategyError(f"{name} pvm {lay.keys[f_inc]}: family does not sum to identity")
    if f_op == len(lay.keys):
        return
    i = int(faulty.argmax())
    what, out = f"{name} pvm {lay.keys[f_op]}", lay.pairs[i][1]
    if not finite[i]:
        raise StrategyError(f"{what}: non-finite entries in projector {out}")
    raise StrategyError(f"{what}: outcome {out} not {'idempotent' if hermitian[i] else 'Hermitian'}")


def validate_strategy(s: QuantumStrategy) -> None:
    """Enforce unit state, projectivity, and completeness of every family (side A's faults first), and a state
    uniform over the sides' slot registers."""
    if s.psi.shape != (s.dim_a * s.dim_b,):
        raise StrategyError(f"state length {s.psi.shape} != dim_a*dim_b = {s.dim_a * s.dim_b}")
    if not np.all(np.isfinite(s.psi)):
        raise StrategyError("state has non-finite amplitudes")
    if abs(np.linalg.norm(s.psi) - 1.0) > PROJ_TOL:
        raise StrategyError(f"state norm {np.linalg.norm(s.psi)} is not 1")
    _validate_side(s.a, s.dim_a, "A")
    _validate_side(s.b, s.dim_b, "B")
    r_a, r_b = s.a.register, s.b.register
    if r_a * r_b > 1:
        blocks = s.psi.reshape(r_a, s.dim_a // r_a, r_b, s.dim_b // r_b)
        if np.abs(blocks - blocks[:1, :, :1]).max() > PROJ_TOL:
            raise StrategyError("state is not uniform over the slot registers")


# ---------------------------------------------------------------------------
# Exact winning probability


def joint_probabilities(psi_mat: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Every <psi| A (x) B |psi> for A's blocks (nA, RA, kA, kA) and B's (nB, RB, kB, kB), as (nA, nB).

    With L = Psi^dag A Psi, <psi| A (x) B |psi> = Tr[L B^T] is the flat dot
    product of L and B, so all pairs are one matmul; the contraction runs over
    the smaller local space (B's, after swapping the provers if need be). As
    psi is uniform over A's register, A Psi's row block r is A_r times the
    state's first row block, which holds the register's 1/sqrt(RA) already;
    and Tr[L B^T] reads only the diagonal blocks of L that B's blocks meet.
    """
    d_a, d_b = psi_mat.shape
    if d_a < d_b:
        return joint_probabilities(psi_mat.T, pb, pa).T
    n, k = len(pa), pa.shape[-1]
    # L for the whole stack in two GEMMs: A Psi with the stack as rows, then Psi^dag from the left
    a_psi = (pa.reshape(-1, k) @ psi_mat[:k]).reshape(n, d_a, d_b).transpose(1, 0, 2).reshape(d_a, n * d_b)
    left = (psi_mat.conj().T @ a_psi).reshape(d_b, n, d_b).transpose(1, 0, 2)
    r_b, k_b = pb.shape[1], pb.shape[-1]
    left = np.diagonal(left.reshape(n, r_b, k_b, r_b, k_b), axis1=1, axis2=3).transpose(0, 3, 1, 2)
    return (left.reshape(n, -1) @ pb.reshape(len(pb), -1).T).real


def _require_game(s: QuantumStrategy, game: GameType) -> None:
    """StrategyError unless the strategy plays `game`: the one wrong-game check of every reader."""
    if s.game is not game:
        raise StrategyError(f"strategy plays {s.game.value}, expected {game.value}")


def _stack_ops(side: Side, pairs: Sequence, name: str) -> np.ndarray:
    """The register blocks of every (key, outcome) of `pairs`, stacked: one gather, or a slice of the side's stack;
    an outcome its family omits reads as zero, and a missing family raises StrategyError naming the first."""
    rows, omitted = side.layout.gather(pairs, name)
    ops = side.ops
    if omitted is None:
        return ops[rows]
    out = np.zeros((len(rows), *ops.shape[1:]), dtype=complex)
    out[~omitted] = ops[rows[~omitted]]
    return out


def win_probability(kind: GameKind, g: Graph, s: QuantumStrategy) -> float:
    """Exact winning probability of a strategy, clamped to [0, 1]."""
    _require_game(s, kind.game)
    a_rows, b_cols, weights = _winning_sets(kind, g)
    pa, pb = _stack_ops(s.a, a_rows, "A"), _stack_ops(s.b, b_cols, "B")
    joint = joint_probabilities(s.psi_matrix(), pa, pb)
    total = float(np.sum(weights * joint))
    if total < -1e-9 or total > 1.0 + 1e-9:
        raise StrategyError(f"winning probability {total} escaped [0,1]")
    return min(1.0, max(0.0, total))


@dataclass
class BornPair(JointSampler):
    """Joint Born-rule sampler, pluggable into games.play_rounds.

    Samples (a, b) from the exact joint outcome distribution of the strategy
    for each round's challenge; distributionally identical to two isolated
    provers measuring their halves. As an `engine.JointSampler` it draws one
    `random()` per round, and `play_rounds` replays it in bulk.
    """

    strategy: QuantumStrategy

    def _distribution(self, kind: GameKind, ch: Challenge):
        """Response pairs with nonzero Born weight, and their cumulative weights."""
        s, spec = self.strategy, SPECS[kind.game]
        (rows_a, outs_a), (rows_b, outs_b) = (
            s.a.layout.family(spec.half_a(ch), "A"), s.b.layout.family(spec.half_b(ch), "B")
        )
        joint = joint_probabilities(s.psi_matrix(), s.a.ops[rows_a], s.b.ops[rows_b])
        responses, probs = [], []
        for pair, p in zip(itertools.product(outs_a, outs_b), joint.ravel().tolist()):
            if p > 1e-15:
                responses.append(pair)
                probs.append(p)
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise StrategyError(f"joint outcome mass {total} != 1 for challenge {ch}")
        cum = list(itertools.accumulate(p / total for p in probs))
        cum[-1] = 1.0
        return responses, cum


# ---------------------------------------------------------------------------
# Reference strategies


def _honest_outcomes(spec: GameSpec, g: Graph, colors: Sequence[int]):
    """Deterministic honest outcome per challenge half under the all-zero split, as (a_map, b_map)."""
    lab = Labelled.split(colors, [0] * g.n)
    a_map = {k: spec.honest_a(lab, k) for k in spec.a_keys(g)}
    b_map = {k: spec.honest_b(lab, k) for k in spec.b_keys(g)}
    return a_map, b_map


def classical_embedding(game: GameType, g: Graph, colors: Sequence[int], dim: int = 1) -> QuantumStrategy:
    """Deterministic strategy from a fixed coloring, embedded at any dimension.

    The honest outcome's projector is the identity; every other outcome gets
    the zero projector. At dim 1 this is the classical strategy verbatim.
    """
    def side(layout: Layout, honest: dict) -> Side:
        ops = np.zeros((len(layout.pairs), 1, dim, dim), dtype=complex)
        rows = [start + outs.index(h) for start, outs, h in zip(layout.starts.tolist(), layout.outs, honest.values())]
        ops[rows] = np.eye(dim)
        return Side(ops, layout)

    psi = np.zeros(dim * dim, dtype=complex)
    psi[0] = 1.0
    honest, layouts = _honest_outcomes(SPECS[game], g, colors), _spec_layouts(game, g)
    return QuantumStrategy(game, dim, dim, psi, *map(side, layouts, honest))


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    """A d x d matrix of standard complex normals, real parts drawn first."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from a stack of Ginibre matrices: Q of z = QR, each column phased by R's diagonal."""
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1) / np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return q * ph[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return _haar(_ginibre(d, rng) / math.sqrt(2.0))


def _rotated_partitions(assign: np.ndarray, u: np.ndarray, k: int) -> np.ndarray:
    """U_f P_fo U_f^dag as (F, k, d, d), P_fo projecting onto the basis vectors j with assign[f, j] == o."""
    f, d = assign.shape
    diag = np.zeros((f, k, d, d), dtype=complex)
    basis = np.arange(d)
    diag[np.arange(f)[:, None], assign, basis, basis] = 1.0
    return u[:, None] @ diag @ u.conj().swapaxes(-1, -2)[:, None]


def _rotated_families(layout: Layout, assigns: list, u: np.ndarray) -> Side:
    """Family f's U_f P U_f^dag over layout.outs[f], basis vector j answering outs[f][assigns[f][j]], as a side.

    One batched rotation at the largest outcome-space size (bcs's A side mixes 4 and 8 outcomes), of
    which each family keeps the rows of its own outcomes.
    """
    assign = np.array(assigns, np.intp).reshape(len(assigns), -1)
    rotated = _rotated_partitions(assign, u, max(map(len, layout.outs), default=0))
    return Side(rotated[layout.fam, np.arange(len(layout.pairs)) - layout.starts[layout.fam], None], layout)


def random_strategy(
    game: GameType,
    g: Graph,
    dim_a: int,
    dim_b: int,
    rng: np.random.Generator,
    jiggle: float = 0.3,
    colors: Optional[Sequence[int]] = None,
) -> QuantumStrategy:
    """Valid random strategy interpolating away from an honest embedding.

    Basis vector 0 answers honestly; higher basis vectors answer at random.
    Every family is then conjugated by its own unitary exp(i*jiggle*H), and
    the state drifts from |0,0> toward a random state as jiggle grows. At
    jiggle 0 the strategy is exactly honest (winning probability 1); around
    jiggle ~0.5 it is thoroughly scrambled. Draws: per family, A's then B's,
    its d - 1 random answers, then H; the state's noise last.
    """
    if colors is None:
        colors = three_color(g)
        if colors is None:
            raise StrategyError("graph is not 3-colorable; pass explicit reference colors")
    (a_map, b_map), (lay_a, lay_b) = _honest_outcomes(SPECS[game], g, colors), _spec_layouts(game, g)

    def side(layout: Layout, honest: dict, d: int) -> Side:
        assigns, zs = [], []
        for space, h in zip(layout.outs, honest.values()):
            assigns.append([space.index(h)] + [rng.integers(len(space)) for _ in range(d - 1)])
            zs.append(_ginibre(d, rng))
        z = np.array(zs).reshape(-1, d, d)
        lam, v = np.linalg.eigh((z + z.conj().swapaxes(-1, -2)) / (2.0 * math.sqrt(d)))
        u = (v * np.exp(1j * (jiggle * math.pi) * lam)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        return _rotated_families(layout, assigns, u)

    side_a = side(lay_a, a_map, dim_a)
    side_b = side(lay_b, b_map, dim_b)
    anchor = np.zeros(dim_a * dim_b, dtype=complex)
    anchor[0] = 1.0
    noise = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = (1.0 - jiggle) * anchor + jiggle * noise / np.linalg.norm(noise)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, side_a, side_b)


def arbitrary_strategy(
    game: GameType,
    g: Graph,
    dim_a: int,
    dim_b: int,
    rng: np.random.Generator,
) -> QuantumStrategy:
    """Valid strategy with no bias toward honesty at all.

    Every family is a Haar-rotated random partition of the basis over the
    full outcome space, and the state is uniformly random. Winning
    probabilities land wherever they land; useful for auditing statements
    that must hold for arbitrary valid strategies. Draws: per family, A's
    then B's, its d answers, then its Ginibre matrix; the state last.
    """

    def side(layout: Layout, d: int) -> Side:
        assigns, zs = [], []
        for space in layout.outs:
            assigns.append([rng.integers(len(space)) for _ in range(d)])
            zs.append(_ginibre(d, rng) / math.sqrt(2.0))
        return _rotated_families(layout, assigns, _haar(np.array(zs).reshape(-1, d, d)))

    lay_a, lay_b = _spec_layouts(game, g)
    side_a = side(lay_a, dim_a)
    side_b = side(lay_b, dim_b)
    psi = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, side_a, side_b)


# ---------------------------------------------------------------------------
# Matrix norms and the operator-norm audits


def matrix_norms(m: np.ndarray) -> tuple[float, float]:
    """(Frobenius norm, operator norm). Operator norm via full SVD."""
    if not np.all(np.isfinite(m)):
        raise StrategyError("matrix has non-finite entries")
    fro = float(np.linalg.norm(m, "fro"))
    op = float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
    return fro, op


def random_pvm(d: int, outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random complete projective family: Haar-rotated diagonal partition."""
    assign = [k % outcomes for k in range(d)]
    rng.shuffle(assign)
    return list(_rotated_partitions(np.array([assign]), haar_unitary(d, rng)[None], outcomes)[0])


def pinching_chain(families: Sequence[Sequence[np.ndarray]], fixed: dict[int, int]) -> np.ndarray:
    """Sum over free outcome indices of P_1 ... P_n ... P_1.

    `families[u]` is the PVM applied at depth u; entries of `fixed` pin the
    outcome at those depths, all other depths are summed. The resulting
    operator has operator norm at most 1.
    """
    n = len(families)
    d = families[0][0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    free = [u for u in range(n) if u not in fixed]
    sizes = [len(families[u]) for u in free]
    for combo in itertools.product(*[range(s) for s in sizes]):
        pick = dict(fixed)
        pick.update({u: c for u, c in zip(free, combo)})
        inner = families[n - 1][pick[n - 1]]
        for u in range(n - 2, -1, -1):
            p = families[u][pick[u]]
            inner = p @ inner @ p
        total += inner
    return total


# ---------------------------------------------------------------------------
# Reduction chain


MAX_REDUCED_DIM = 4096  # a reduced side's full dimension; slot registers grow with lcm of degrees: keep desk-scale


def _lcm_degrees(g: Graph) -> int:
    return math.lcm(*map(g.degree, range(g.n)))  # 0 with an isolated vertex: _reduction_input rejects those first


def _reduction_input(s: QuantumStrategy, g: Graph, game: GameType) -> int:
    """Check a reduction's input (game, validity, no isolated vertex); the slot count."""
    _require_game(s, game)
    validate_strategy(s)
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise StrategyError(f"reduction needs every vertex on an edge; isolated: {isolated}")
    return _lcm_degrees(g)


def _marginals(side: Side, layout: Layout, name: str) -> np.ndarray:
    """(family, pos, value, R, k, k): each family of `layout` (2-tuple outcomes) summed over the outcomes with
    out[pos] == value, block by block, read from `side` (where an omitted outcome adds zero, which leaves
    every sum's bits)."""
    ops = _stack_ops(side, layout.pairs, name)
    targets = layout.fam[:, None] * 6 + [0, 3] + layout.out_array.reshape(-1, 2)  # (op, pos)
    return _summed(ops[:, None], targets, 6 * len(layout.keys)).reshape(-1, 2, 3, *ops.shape[1:])


@lru_cache(maxsize=None)
def _neighbor_slots(g: Graph, slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge, pos, chosen) over the directed edges (v, u), v ascending, u in adjacency order.

    edge and pos: the index of {v, u} in g.edges and v's position in it;
    chosen[v, slot]: the directed edge that slot register value `slot` measures, v's to nbrs[slot % deg].
    Kept per (graph, slots), so every caller gets the same arrays: they are read-only.
    """
    edge_index = {e: k for k, e in enumerate(g.edges)}
    pairs = [(v, u) for v in range(g.n) for u in g.adjacency[v]]
    edge = np.array([edge_index[(min(v, u), max(v, u))] for v, u in pairs], dtype=np.intp)
    pos = np.array([int(v > u) for v, u in pairs], dtype=np.intp)
    degrees = [len(g.adjacency[v]) for v in range(g.n)]
    starts = np.cumsum([0] + degrees[:-1])
    chosen = starts[:, None] + np.arange(slots) % np.array(degrees)[:, None]  # (v, slot)
    for a in (edge, pos, chosen):
        a.flags.writeable = False
    return edge, pos, chosen


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrices of a (..., k, d, d) stack, written by slicing.

    Equal, bit for bit, to sum_s kron(E_ss, blocks[..., s, :, :]): the ancilla
    dilation uses it, and so does the dense matrix of a projector with a slot register.
    """
    *lead, k, d, _ = blocks.shape
    out = np.zeros((*lead, k, d, k, d), dtype=complex)
    diag = np.arange(k)
    out[..., diag, :, diag, :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(*lead, k * d, k * d)


_SHIFTS = (np.arange(3)[:, None] - np.arange(3)) % 3  # [r, t] -> (r - t) mod 3
_ONE_HOT = [_BITS3.index(tuple(int(c == a) for a in F3)) for c in F3]  # color c's indicator triple in _BITS3


def reduce_rzkp_to_edge(s: QuantumStrategy, g: Graph) -> QuantumStrategy:
    """Labelling-game strategy -> edge-game strategy (gentle measurement step).

    Prover A relabels each outcome to its color sums. Prover B's challenged
    vertex v is answered by drawing (bit, neighbor) from a uniform slot
    register of size 2*lcm(degrees), measuring the v-marginal of the chosen
    edge family at that bit, then the opposite-bit marginal, and adding the
    two outcomes mod 3. The sequential measurement is dilated into a single
    projective family via a shift-register ancilla, so an eps-perfect input
    yields an output winning with probability at least 1 - eps - 2*sqrt(eps).

    Every (vertex, neighbor, bit) dilation of B is one batched product
    U^dag sel U: the first measurement `first` (at `bit`) becomes the
    shift-register unitary U = sum_a kron(shift^a, first[a]), whose block
    (r, t) is first[(r - t) mod 3], and color sum c's block is U^dag sel U
    with sel the block diagonal of second[(c - a) mod 3] over the ancilla
    value a. That product is B's block at register value (bit, slot), the
    ancilla and the input's block inside it (register value (bit, slot, r)
    for an input with a B register).
    """
    slots = _reduction_input(s, g, GameType.ALT_RZKP)
    d_a, d_b = s.dim_a, s.dim_b
    d_b2 = 2 * slots * 3 * d_b
    if d_b2 > MAX_REDUCED_DIM:
        raise StrategyError(f"reduced B dimension {d_b2} exceeds {MAX_REDUCED_DIM}")

    lay_a, lay_b = _spec_layouts(GameType.ALT_RZKP, g)  # edges x label 4-tuples; (edge, bit) x label pairs
    w = lay_a.out_array
    targets = lay_a.fam * 9 + (w[:, 0] + w[:, 1]) % 3 * 3 + (w[:, 2] + w[:, 3]) % 3
    sums = _summed(_stack_ops(s.a, lay_a.pairs, "A"), targets, 9 * len(g.edges))

    marg = _marginals(s.b, lay_b, "B")
    r, k = marg.shape[-3], marg.shape[-1]
    marg = marg.reshape(-1, 2, 2, 3, r, k, k)  # (edge, bit, pos, a, r, k, k)
    edge, pos, chosen = _neighbor_slots(g, slots)
    first = marg[edge[:, None], [[0, 1]], pos[:, None]]  # (directed edge, bit, a, r, k, k)
    second = marg[edge[:, None], [[1, 0]], pos[:, None]]
    u_dilate = np.moveaxis(first[:, :, _SHIFTS], 4, 2).swapaxes(-3, -2).reshape(len(edge), 2, r, 3 * k, 3 * k)
    sel = _block_diag(np.moveaxis(second[:, :, _SHIFTS], 4, 2))  # (directed edge, bit, r, c, 3 k, 3 k)
    dilated = u_dilate.conj().swapaxes(-1, -2)[:, :, :, None] @ sel @ u_dilate[:, :, :, None]
    # flat B index = (((bit*slots + slot)*r + block)*3 + anc)*k + core
    blocks = dilated[chosen[:, None, :], np.arange(2)[:, None]]  # (v, bit, slot, r, c, 3 k, 3 k)
    stacked = blocks.transpose(0, 4, 1, 2, 3, 5, 6).reshape(3 * g.n, 2 * slots * r, 3 * k, 3 * k)

    psi2 = np.zeros((d_a, 2 * slots, r, 3, k), dtype=complex)
    psi2[:, :, :, 0, :] = (s.psi_matrix() * (1.0 / math.sqrt(2 * slots))).reshape(d_a, 1, r, k)  # anc = 0
    lay_a, lay_b = _spec_layouts(GameType.ALT_EDGE, g)  # edges x color pairs, vertices x colors
    return QuantumStrategy(GameType.ALT_EDGE, d_a, d_b2, psi2.reshape(-1), Side(sums, lay_a), Side(stacked, lay_b))


def reduce_edge_to_bcs(s: QuantumStrategy, g: Graph) -> QuantumStrategy:
    """Edge-game strategy -> constraint-game strategy over color indicators.

    B's indicator families are B~^{k,beta} = {1: B^k_beta, 0: I - B^k_beta};
    A re-encodes edge outcomes as indicator pairs, and answers consistency
    constraints by measuring a uniformly chosen incident edge (slot register
    on A's side: an edge constraint's family repeats in every slot). Vertex-
    completeness and the same-vertex / same-edge commutation properties hold
    by construction, and the edge-verification winning probability never
    drops below the input's.
    """
    slots = _reduction_input(s, g, GameType.ALT_EDGE)
    d_a, d_b = s.dim_a, s.dim_b
    d_a2 = slots * d_a
    if d_a2 > MAX_REDUCED_DIM:
        raise StrategyError(f"reduced A dimension {d_a2} exceeds {MAX_REDUCED_DIM}")

    edge_a, edge_b = _spec_layouts(GameType.ALT_EDGE, g)  # edges x color pairs, vertices x colors
    c, alpha = edge_a.out_array, np.array(F3)
    targets = (edge_a.fam[:, None] * 3 + alpha) * 4 + 2 * (c[:, :1] == alpha) + (c[:, 1:] == alpha)  # (op, alpha)
    ops = _stack_ops(s.a, edge_a.pairs, "A")
    r, k = ops.shape[1], ops.shape[-1]
    bits = _summed(ops[:, None], targets, 12 * len(g.edges))
    # A's families: each edge constraint's 4 outcomes, then each vertex constraint's 8 (the spec's layout);
    # A's register value is (slot, r), r the input's register value
    lay_a, lay_b = _spec_layouts(GameType.BCS, g)[0], _bcs_b_layout(g)
    ops_a = np.zeros((len(lay_a.pairs), slots, r, k, k), dtype=complex)
    ops_a[: len(bits)] = bits[:, None]

    marg = _marginals(s.a, edge_a, "A")
    edge, pos, chosen = _neighbor_slots(g, slots)
    # slot register value `slot` measures the edge to nbrs[slot % deg]
    by_vertex = ops_a[len(bits) :].reshape(g.n, 8, slots, r, k, k)
    by_vertex[:, _ONE_HOT] = marg[edge[chosen], pos[chosen]].swapaxes(1, 2)

    p = _stack_ops(s.b, edge_b.pairs, "B")  # bcs's B key (v, beta) is the edge game's (key, outcome)
    ops_b = np.stack([p, np.eye(p.shape[-1]) - p], axis=1).reshape(-1, *p.shape[1:])  # outcome 1, then 0

    psi2 = np.tile(s.psi_matrix() * (1.0 / math.sqrt(slots)), (slots, 1))
    side_a = Side(ops_a.reshape(len(lay_a.pairs), slots * r, k, k), lay_a)
    return QuantumStrategy(GameType.BCS, d_a2, d_b, psi2.reshape(-1), side_a, Side(ops_b, lay_b))


@lru_cache(maxsize=None)
def _bcs_b_layout(g: Graph) -> Layout:
    """B's layout of `reduce_edge_to_bcs` on `g`: each (vertex, color) indicator, outcome 1 before 0."""
    keys = _spec_layouts(GameType.ALT_EDGE, g)[1].pairs  # (v, beta): the edge game's B (key, outcome)
    return Layout(keys, [(1, 0)] * len(keys))
