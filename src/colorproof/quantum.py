"""Finite-dimensional two-prover strategies and the constructive reductions.

A strategy is a shared pure state plus one projective measurement family per
challenge half. Winning probabilities are computed exactly:

    p_win = sum_{x,y} p(x,y) sum_{winning (a,b)} <psi| A^x_a (x) B^y_b |psi>

with the winning sets read from `games.VERDICT_TABLES`, filled from the scalar
verdict and read by the batch round engine too, so the exact evaluator and
the round-by-round simulator can never disagree about what counts as a win.

The two strategy transformers implement the reduction chain:

  * reduce_rzkp_to_edge -- prover A coarse-grains each labelling outcome to
    its color sum; prover B measures the marginal for its challenged vertex
    at a locally random bit, then the complementary bit on the post-measured
    state, and sums the outcomes. B's local randomness (bit and neighbor
    choice) and the two-step measurement are realized exactly by enlarging
    B's space with block-diagonal ancilla registers, keeping every family
    projective.
  * reduce_edge_to_bcs -- colors become indicator bits; A's neighbor choice
    for consistency constraints uses the same slot-register construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .games import (
    F3,
    SPECS,
    VERDICT_TABLES,
    Challenge,
    EdgeConstraint,
    GameKind,
    GameSpec,
    GameType,
    JointSampler,
    Labelled,
    VertexConstraint,
    challenge_pmf,
)
from .graphs import Graph, three_color

PROJ_TOL = 1e-9


class StrategyError(ValueError):
    pass


class NotProjectiveError(StrategyError):
    pass


class IncompleteFamilyError(StrategyError):
    pass


class BadStateError(StrategyError):
    pass


class DimensionMismatchError(StrategyError):
    pass


class MissingPvmError(StrategyError):
    pass


class NonFiniteError(StrategyError):
    pass


@dataclass
class QuantumStrategy:
    """Shared state psi (length dim_a*dim_b, index a*dim_b + b) plus PVMs.

    `pvm_a` maps prover A's challenge half to {outcome: projector}, `pvm_b`
    likewise for prover B. Outcome keys follow the game's response payloads
    (e.g. 4-tuples of labels for the labelling game's prover A). An omitted
    outcome reads as a zero projector; a missing family raises `MissingPvmError`.
    """

    game: GameType
    dim_a: int
    dim_b: int
    psi: np.ndarray
    pvm_a: dict
    pvm_b: dict

    def psi_matrix(self) -> np.ndarray:
        return self.psi.reshape(self.dim_a, self.dim_b)


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
def _winning_sets(kind: GameKind, g: Graph) -> tuple[list, list, np.ndarray]:
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
    return list(a_rows), list(b_cols), weights


# ---------------------------------------------------------------------------
# Validation


def _check_family(fam: dict, dim: int, tol: float, what: str) -> None:
    outs, ops = list(fam), list(fam.values())
    # only same-shape operators stack; a fault of an earlier outcome still comes first
    n = next((k for k, p in enumerate(ops) if p.shape != (dim, dim)), len(ops))
    stack = np.array(ops[:n], dtype=complex).reshape(n, dim, dim)
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack[~finite] = 0.0
    hermitian = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= tol
    idempotent = np.abs(stack @ stack - stack).max(axis=(1, 2)) <= tol
    bad = ~(finite & hermitian & idempotent)
    if bad.any():
        k = int(bad.argmax())
        if not finite[k]:
            raise NonFiniteError(f"{what}: non-finite entries in projector {outs[k]}")
        raise NotProjectiveError(f"{what}: outcome {outs[k]} not {'idempotent' if hermitian[k] else 'Hermitian'}")
    if n < len(ops):
        raise DimensionMismatchError(f"{what}: projector for {outs[n]} has shape {ops[n].shape}, want {(dim, dim)}")
    if np.abs(stack.sum(axis=0) - np.eye(dim)).max() > tol:
        raise IncompleteFamilyError(f"{what}: family does not sum to identity")


def validate_strategy(s: QuantumStrategy) -> None:
    """Enforce unit state, projectivity, and completeness of every family."""
    if s.psi.shape != (s.dim_a * s.dim_b,):
        raise DimensionMismatchError(f"state length {s.psi.shape} != dim_a*dim_b = {s.dim_a * s.dim_b}")
    if not np.all(np.isfinite(s.psi)):
        raise NonFiniteError("state has non-finite amplitudes")
    if abs(np.linalg.norm(s.psi) - 1.0) > PROJ_TOL:
        raise BadStateError(f"state norm {np.linalg.norm(s.psi)} is not 1")
    for side, pvms, dim in (("A", s.pvm_a, s.dim_a), ("B", s.pvm_b, s.dim_b)):
        for key, fam in pvms.items():
            _check_family(fam, dim, PROJ_TOL, f"{side} pvm {key}")


# ---------------------------------------------------------------------------
# Exact winning probability


def joint_probabilities(psi_mat: np.ndarray, pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Every <psi| A (x) B |psi> for stacked A (nA, dA, dA) and B (nB, dB, dB), as (nA, nB).

    With L = Psi^dag A Psi, <psi| A (x) B |psi> = Tr[L B^T] is the flat dot
    product of L and B, so all pairs are one matmul; the contraction runs over
    the smaller local space (B's, after swapping the provers if need be).
    """
    d_a, d_b = psi_mat.shape
    if d_a < d_b:
        return joint_probabilities(psi_mat.T, pb, pa).T
    n = len(pa)
    # L for the whole stack in two GEMMs: A Psi with the stack as rows, then Psi^dag from the left
    a_psi = (pa.reshape(n * d_a, d_a) @ psi_mat).reshape(n, d_a, d_b).transpose(1, 0, 2).reshape(d_a, n * d_b)
    left = (psi_mat.conj().T @ a_psi).reshape(d_b, n, d_b).transpose(1, 0, 2)
    return (left.reshape(n, d_b * d_b) @ pb.reshape(len(pb), d_b * d_b).T).real


def _require_families(pvms: dict, keys, side: str) -> None:
    """MissingPvmError naming the first of `keys` that has no measurement family in `pvms`."""
    for key in keys:
        if key not in pvms:
            raise MissingPvmError(f"strategy has no {side} measurement for {key}")


def _stack_ops(pvms: dict, layout: list, side: str, dim: int) -> np.ndarray:
    """pvms[key][out] for every (key, out) of `layout`, stacked; an outcome its family omits reads as zero."""
    _require_families(pvms, (key for key, _ in layout), side)
    zero = np.zeros((dim, dim), dtype=complex)
    return np.stack([pvms[key].get(out, zero) for key, out in layout])


def win_probability(kind: GameKind, g: Graph, s: QuantumStrategy) -> float:
    """Exact winning probability of a strategy, clamped to [0, 1]."""
    if s.game is not kind.game:
        raise StrategyError(f"strategy plays {s.game.value}, expected {kind.game.value}")
    a_rows, b_cols, weights = _winning_sets(kind, g)
    pa, pb = _stack_ops(s.pvm_a, a_rows, "A", s.dim_a), _stack_ops(s.pvm_b, b_cols, "B", s.dim_b)
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
    provers measuring their halves. As a `games.JointSampler` it draws one
    `random()` per round, and `play_rounds` replays it in bulk.
    """

    strategy: QuantumStrategy

    def _distribution(self, kind: GameKind, ch: Challenge):
        """Response pairs with nonzero Born weight, and their cumulative weights."""
        s = self.strategy
        spec = SPECS[kind.game]
        fam_a = s.pvm_a[spec.half_a(ch)]
        fam_b = s.pvm_b[spec.half_b(ch)]
        joint = joint_probabilities(s.psi_matrix(), np.stack(list(fam_a.values())), np.stack(list(fam_b.values())))
        responses, probs = [], []
        for (a_out, b_out), p in zip(itertools.product(fam_a, fam_b), joint.ravel().tolist()):
            if p > 1e-15:
                responses.append((spec.response_a(a_out), spec.response_b(b_out)))
                probs.append(p)
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise StrategyError(f"joint outcome mass {total} != 1 for challenge {ch}")
        cum = list(itertools.accumulate(p / total for p in probs))
        cum[-1] = 1.0
        return responses, cum


def transform_strategy(s: QuantumStrategy, u_a: np.ndarray, u_b: np.ndarray) -> QuantumStrategy:
    """Apply the local basis change U_A (x) U_B to state and all measurements."""
    psi2 = (u_a @ s.psi_matrix() @ u_b.T).reshape(-1)
    pa = {k: {o: u_a @ p @ u_a.conj().T for o, p in fam.items()} for k, fam in s.pvm_a.items()}
    pb = {k: {o: u_b @ p @ u_b.conj().T for o, p in fam.items()} for k, fam in s.pvm_b.items()}
    return QuantumStrategy(s.game, s.dim_a, s.dim_b, psi2, pa, pb)


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
    spec = SPECS[game]
    a_map, b_map = _honest_outcomes(spec, g, colors)
    eye = np.eye(dim, dtype=complex)
    zero = np.zeros((dim, dim), dtype=complex)

    def family(space, honest):
        return {out: (eye if out == honest else zero).copy() for out in space}

    pvm_a = {k: family(spec.a_outcomes(k), h) for k, h in a_map.items()}
    pvm_b = {k: family(spec.b_outcomes(k), h) for k, h in b_map.items()}
    psi = np.zeros(dim * dim, dtype=complex)
    psi[0] = 1.0
    return QuantumStrategy(game, dim, dim, psi, pvm_a, pvm_b)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _expi_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * lam)) @ v.conj().T


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / (2.0 * math.sqrt(d))


def maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def _rotated_partition(space: Sequence, assign: Sequence[int], u: np.ndarray) -> dict:
    """{outcome: U P U^dag}, P projecting onto the basis vectors k with space[assign[k]] == outcome."""
    d = len(assign)
    diag = np.zeros((len(space), d, d), dtype=complex)
    diag[assign, range(d), range(d)] = 1.0
    return dict(zip(space, u @ diag @ u.conj().T))


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
    jiggle ~0.5 it is thoroughly scrambled.
    """
    if colors is None:
        colors = three_color(g)
        if colors is None:
            raise StrategyError("graph is not 3-colorable; pass explicit reference colors")
    spec = SPECS[game]
    a_map, b_map = _honest_outcomes(spec, g, colors)

    def build(space, honest, d):
        assign = [space.index(honest)] + [rng.integers(len(space)) for _ in range(d - 1)]
        u = _expi_hermitian(_random_hermitian(d, rng), jiggle * math.pi)
        return _rotated_partition(space, assign, u)

    pvm_a = {k: build(spec.a_outcomes(k), honest, dim_a) for k, honest in a_map.items()}
    pvm_b = {k: build(spec.b_outcomes(k), honest, dim_b) for k, honest in b_map.items()}
    anchor = np.zeros(dim_a * dim_b, dtype=complex)
    anchor[0] = 1.0
    noise = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = (1.0 - jiggle) * anchor + jiggle * noise / np.linalg.norm(noise)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, pvm_a, pvm_b)


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
    that must hold for arbitrary valid strategies.
    """
    spec = SPECS[game]

    def build(space, d):
        assign = [rng.integers(len(space)) for _ in range(d)]
        return _rotated_partition(space, assign, haar_unitary(d, rng))

    pvm_a = {key: build(spec.a_outcomes(key), dim_a) for key in spec.a_keys(g)}
    pvm_b = {key: build(spec.b_outcomes(key), dim_b) for key in spec.b_keys(g)}
    psi = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, pvm_a, pvm_b)


# ---------------------------------------------------------------------------
# Matrix norms and the operator-norm audits


def matrix_norms(m: np.ndarray) -> tuple[float, float]:
    """(Frobenius norm, operator norm). Operator norm via full SVD."""
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix has non-finite entries")
    fro = float(np.linalg.norm(m, "fro"))
    op = float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
    return fro, op


def random_pvm(d: int, outcomes: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random complete projective family: Haar-rotated diagonal partition."""
    assign = [k % outcomes for k in range(d)]
    rng.shuffle(assign)
    return list(_rotated_partition(range(outcomes), assign, haar_unitary(d, rng)).values())


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


MAX_REDUCED_DIM = 4096  # ancilla registers grow with lcm of degrees; keep desk-scale


def _lcm_degrees(g: Graph) -> int:
    return math.lcm(*map(g.degree, range(g.n)))  # 0 with an isolated vertex: _reduction_input rejects those first


def _reduction_input(s: QuantumStrategy, g: Graph, game: GameType) -> int:
    """Check a reduction's input (game, validity, no isolated vertex, every family present); the slot count."""
    if s.game is not game:
        raise StrategyError(f"strategy plays {s.game.value}, expected {game.value}")
    validate_strategy(s)
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise StrategyError(f"reduction needs every vertex on an edge; isolated: {isolated}")
    _require_families(s.pvm_a, SPECS[game].a_keys(g), "A")
    _require_families(s.pvm_b, SPECS[game].b_keys(g), "B")
    return _lcm_degrees(g)


def _marginal(fam: dict, pos: int, value: int, d: int) -> np.ndarray:
    """Sum the family over the non-`pos` component of its 2-tuple outcomes."""
    return sum((p for out, p in fam.items() if out[pos] == value), np.zeros((d, d), dtype=complex))


def _incident(v: int, u: int) -> tuple[tuple[int, int], int]:
    """The edge {v, u} as the graph stores it, and v's position in it."""
    return ((v, u), 0) if v < u else ((u, v), 1)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrices of a (..., k, d, d) stack, written by slicing.

    Equal, bit for bit, to sum_s kron(E_ss, blocks[..., s, :, :]): the
    ancilla registers of both reductions are built from it.
    """
    *lead, k, d, _ = blocks.shape
    out = np.zeros((*lead, k, d, k, d), dtype=complex)
    diag = np.arange(k)
    out[..., diag, :, diag, :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(*lead, k * d, k * d)


_SHIFTS = (np.arange(3)[:, None] - np.arange(3)) % 3  # [r, t] -> (r - t) mod 3


def _dilated_blocks(pvm_b: dict, v: int, u: int, bit: int, d_b: int) -> np.ndarray:
    """B's three color-sum blocks for vertex v measured through edge {v, u}.

    The first measurement (at `bit`) is dilated into the shift-register
    unitary U = sum_a kron(shift^a, first[a]), whose block (r, t) is
    first[(r - t) mod 3]; block c_sum is U^dag sel U with sel the block
    diagonal of second[(c_sum - a) mod 3] over the register value a.
    """
    e, pos = _incident(v, u)
    first = np.stack([_marginal(pvm_b[(e, bit)], pos, a, d_b) for a in F3])
    second = np.stack([_marginal(pvm_b[(e, 1 - bit)], pos, c, d_b) for c in F3])
    u_dilate = first[_SHIFTS].transpose(0, 2, 1, 3).reshape(3 * d_b, 3 * d_b)
    sels = _block_diag(second[_SHIFTS])
    return u_dilate.conj().T @ sels @ u_dilate


def reduce_rzkp_to_edge(s: QuantumStrategy, g: Graph) -> QuantumStrategy:
    """Labelling-game strategy -> edge-game strategy (gentle measurement step).

    Prover A relabels each outcome to its color sums. Prover B's challenged
    vertex v is answered by drawing (bit, neighbor) from a uniform ancilla
    register of size 2*lcm(degrees), measuring the v-marginal of the chosen
    edge family at that bit, then the opposite-bit marginal, and adding the
    two outcomes mod 3. The sequential measurement is dilated into a single
    projective family via a shift-register ancilla, so an eps-perfect input
    yields an output winning with probability at least 1 - eps - 2*sqrt(eps).
    """
    slots = _reduction_input(s, g, GameType.ALT_RZKP)
    d_a, d_b = s.dim_a, s.dim_b
    d_b2 = 2 * slots * 3 * d_b
    if d_b2 > MAX_REDUCED_DIM:
        raise DimensionMismatchError(f"reduced B dimension {d_b2} exceeds {MAX_REDUCED_DIM}")

    pvm_a: dict = {}
    for e in g.edges:
        out = {(ci, cj): np.zeros((d_a, d_a), dtype=complex) for ci in F3 for cj in F3}
        for w, p in s.pvm_a[e].items():
            out[((w[0] + w[1]) % 3, (w[2] + w[3]) % 3)] += p
        pvm_a[e] = out

    # flat B index = ((bit*slots + slot)*3 + anc)*d_b + core; slot value s measures via nbrs[s % deg]
    pvm_b: dict = {}
    for v in range(g.n):
        nbrs = g.adjacency[v]
        per_nbr = {(bit, u): _dilated_blocks(s.pvm_b, v, u, bit, d_b) for bit in (0, 1) for u in nbrs}
        blocks = [per_nbr[(bit, nbrs[slot % len(nbrs)])] for bit in (0, 1) for slot in range(slots)]
        pvm_b[v] = dict(zip(F3, _block_diag(np.stack(blocks, axis=1))))

    psi2 = np.zeros((d_a, 2 * slots, 3, d_b), dtype=complex)
    psi2[:, :, 0, :] = (s.psi_matrix() * (1.0 / math.sqrt(2 * slots)))[:, None, :]  # anc = 0 in every slot
    return QuantumStrategy(GameType.ALT_EDGE, d_a, d_b2, psi2.reshape(-1), pvm_a, pvm_b)


def reduce_edge_to_bcs(s: QuantumStrategy, g: Graph) -> QuantumStrategy:
    """Edge-game strategy -> constraint-game strategy over color indicators.

    B's indicator families are B~^{k,beta} = {1: B^k_beta, 0: I - B^k_beta};
    A re-encodes edge outcomes as indicator pairs, and answers consistency
    constraints by measuring a uniformly chosen incident edge (slot register
    on A's side). Vertex-completeness and the same-vertex / same-edge
    commutation properties hold by construction, and the edge-verification
    winning probability never drops below the input's.
    """
    slots = _reduction_input(s, g, GameType.ALT_EDGE)
    d_a, d_b = s.dim_a, s.dim_b
    d_a2 = slots * d_a
    if d_a2 > MAX_REDUCED_DIM:
        raise DimensionMismatchError(f"reduced A dimension {d_a2} exceeds {MAX_REDUCED_DIM}")

    pvm_a: dict = {}
    for e in g.edges:
        for alpha in F3:
            out = {bits: np.zeros((d_a, d_a), dtype=complex) for bits in itertools.product((0, 1), repeat=2)}
            for (ci, cj), p in s.pvm_a[e].items():
                out[(int(ci == alpha), int(cj == alpha))] += p
            # every slot register value measures the same family: kron(I_slots, m)
            tiled = np.broadcast_to(np.stack(list(out.values()))[:, None], (4, slots, d_a, d_a))
            pvm_a[EdgeConstraint(e, alpha)] = dict(zip(out, _block_diag(tiled)))
    for v in range(g.n):
        nbrs = g.adjacency[v]
        margs = [[_marginal(s.pvm_a[e], pos, cv, d_a) for cv in F3] for e, pos in (_incident(v, u) for u in nbrs)]
        out = {t: np.zeros((d_a2, d_a2), dtype=complex) for t in itertools.product((0, 1), repeat=3)}
        # slot register value `slot` measures the edge to nbrs[slot % deg]
        by_color = _block_diag(np.array([[margs[slot % len(nbrs)][cv] for slot in range(slots)] for cv in F3]))
        out.update({tuple(int(cv == a) for a in F3): by_color[cv] for cv in F3})
        pvm_a[VertexConstraint(v)] = out

    keys = [(v, beta) for v in range(g.n) for beta in F3]  # bcs's B key (v, beta) is the edge game's (key, outcome)
    pvm_b = {key: {1: p, 0: np.eye(d_b) - p} for key, p in zip(keys, _stack_ops(s.pvm_b, keys, "B", d_b))}

    psi2 = np.tile(s.psi_matrix() * (1.0 / math.sqrt(slots)), (slots, 1))
    return QuantumStrategy(GameType.BCS, d_a2, d_b, psi2.reshape(-1), pvm_a, pvm_b)
