"""Finite-dimensional two-prover strategies and the constructive reductions.

A strategy is a shared pure state plus one projective measurement family per
challenge half. Winning probabilities are computed exactly:

    p_win = sum_{x,y} p(x,y) sum_{winning (a,b)} <psi| A^x_a (x) B^y_b |psi>

with the winning sets taken straight from the game verdict machine, so the
exact evaluator and the round-by-round simulator can never disagree about
what counts as a win.

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

import bisect
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .games import (
    F3,
    SPECS,
    Challenge,
    EdgeConstraint,
    GameKind,
    GameSpec,
    GameType,
    Labelled,
    VertexConstraint,
    challenge_pmf,
    verdict,
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
    (e.g. 4-tuples of labels for the labelling game's prover A).
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


@lru_cache(maxsize=None)
def _winning_sets(kind: GameKind, g: Graph) -> dict:
    """Per challenge: {b_outcome: tuple of winning a_outcomes}, via verdict()."""
    spec = SPECS[kind.game]
    table: dict[Challenge, dict] = {}
    for ch in challenge_pmf(kind, g):
        a_sp = spec.a_outcomes(spec.half_a(ch))
        groups: dict = {}
        for b_out in spec.b_outcomes(spec.half_b(ch)):
            rb = spec.response_b(b_out)
            wins = tuple(a_out for a_out in a_sp if verdict(kind, ch, spec.response_a(a_out), rb).accept)
            if wins:
                groups[b_out] = wins
        table[ch] = groups
    return table


# ---------------------------------------------------------------------------
# Validation


def _check_family(fam: dict, dim: int, tol: float, what: str) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for out, p in fam.items():
        if p.shape != (dim, dim):
            raise DimensionMismatchError(f"{what}: projector for {out} has shape {p.shape}, want {(dim, dim)}")
        if not np.all(np.isfinite(p)):
            raise NonFiniteError(f"{what}: non-finite entries in projector {out}")
        if np.abs(p - p.conj().T).max() > tol:
            raise NotProjectiveError(f"{what}: outcome {out} not Hermitian")
        if np.abs(p @ p - p).max() > tol:
            raise NotProjectiveError(f"{what}: outcome {out} not idempotent")
        total += p
    if np.abs(total - np.eye(dim)).max() > tol:
        raise IncompleteFamilyError(f"{what}: family does not sum to identity")


def validate_strategy(s: QuantumStrategy, tol: float = PROJ_TOL) -> None:
    """Enforce unit state, projectivity, and completeness of every family."""
    if s.psi.shape != (s.dim_a * s.dim_b,):
        raise DimensionMismatchError(f"state length {s.psi.shape} != dim_a*dim_b = {s.dim_a * s.dim_b}")
    if not np.all(np.isfinite(s.psi)):
        raise NonFiniteError("state has non-finite amplitudes")
    if abs(np.linalg.norm(s.psi) - 1.0) > tol:
        raise BadStateError(f"state norm {np.linalg.norm(s.psi)} is not 1")
    for key, fam in s.pvm_a.items():
        _check_family(fam, s.dim_a, tol, f"A pvm {key}")
    for key, fam in s.pvm_b.items():
        _check_family(fam, s.dim_b, tol, f"B pvm {key}")


# ---------------------------------------------------------------------------
# Exact winning probability


def _qform(psi_mat: np.ndarray, a_op: np.ndarray, b_op: np.ndarray) -> float:
    # <psi| A (x) B |psi> = Tr[Psi^dag A Psi B^T]
    return float(np.vdot(psi_mat, a_op @ psi_mat @ b_op.T).real)


def win_probability(kind: GameKind, g: Graph, s: QuantumStrategy) -> float:
    """Exact winning probability of a strategy, clamped to [0, 1]."""
    if s.game is not kind.game:
        raise MissingPvmError(f"strategy plays {s.game}, asked to evaluate {kind.game}")
    spec = SPECS[kind.game]
    pmf = challenge_pmf(kind, g)
    wins = _winning_sets(kind, g)
    psi_mat = s.psi_matrix()
    total = 0.0
    for ch, p in pmf.items():
        a_key, b_key = spec.half_a(ch), spec.half_b(ch)
        if a_key not in s.pvm_a:
            raise MissingPvmError(f"no A measurement for challenge {a_key}")
        if b_key not in s.pvm_b:
            raise MissingPvmError(f"no B measurement for challenge {b_key}")
        fam_a, fam_b = s.pvm_a[a_key], s.pvm_b[b_key]
        for b_out, a_list in wins[ch].items():
            b_op = fam_b[b_out]
            a_sum = None
            for a_out in a_list:
                a_op = fam_a[a_out]
                a_sum = a_op.copy() if a_sum is None else a_sum + a_op
            if a_sum is not None:
                total += p * _qform(psi_mat, a_sum, b_op)
    if total < -1e-9 or total > 1.0 + 1e-9:
        raise StrategyError(f"winning probability {total} escaped [0,1]")
    return min(1.0, max(0.0, total))


@dataclass
class BornPair:
    """Joint Born-rule sampler, pluggable into games.play_rounds.

    Samples (a, b) from the exact joint outcome distribution of the strategy
    for each round's challenge; distributionally identical to two isolated
    provers measuring their halves.
    """

    strategy: QuantumStrategy
    _cache: dict = field(default_factory=dict)

    def respond(self, kind: GameKind, ch: Challenge, rng: random.Random):
        if ch not in self._cache:
            self._cache[ch] = self._distribution(kind, ch)
        responses, cum = self._cache[ch]
        return responses[bisect.bisect_left(cum, rng.random())]

    def _distribution(self, kind: GameKind, ch: Challenge):
        """Response pairs with nonzero Born weight, and their cumulative weights."""
        s = self.strategy
        spec = SPECS[kind.game]
        psi_mat = s.psi_matrix()
        fam_a = s.pvm_a[spec.half_a(ch)]
        fam_b = s.pvm_b[spec.half_b(ch)]
        responses = []
        probs = []
        for a_out, a_op in fam_a.items():
            for b_out, b_op in fam_b.items():
                p = _qform(psi_mat, a_op, b_op)
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


def _honest_outcomes(spec: GameSpec, g: Graph, colors: Sequence[int], w0: Sequence[int]):
    """Deterministic honest outcome per challenge half, as (a_map, b_map)."""
    lab = Labelled.split(colors, w0)
    a_map = {k: spec.honest_a(lab, k) for k in spec.a_keys(g)}
    b_map = {k: spec.honest_b(lab, k) for k in spec.b_keys(g)}
    return a_map, b_map


def classical_embedding(
    game: GameType,
    g: Graph,
    colors: Sequence[int],
    dim: int = 1,
    w0: Optional[Sequence[int]] = None,
) -> QuantumStrategy:
    """Deterministic strategy from a fixed coloring, embedded at any dimension.

    The honest outcome's projector is the identity; every other outcome gets
    the zero projector. At dim 1 this is the classical strategy verbatim.
    """
    if w0 is None:
        w0 = [0] * g.n
    spec = SPECS[game]
    a_map, b_map = _honest_outcomes(spec, g, colors, w0)
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
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        psi[k * d + k] = 1.0 / math.sqrt(d)
    return psi


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
    a_map, b_map = _honest_outcomes(spec, g, colors, [0] * g.n)

    def build(space, honest, d):
        assign = [honest] + [space[rng.integers(len(space))] for _ in range(d - 1)]
        fam = {out: np.zeros((d, d), dtype=complex) for out in space}
        for k, out in enumerate(assign):
            fam[out][k, k] = 1.0
        u = _expi_hermitian(_random_hermitian(d, rng), jiggle * math.pi)
        return {out: u @ p @ u.conj().T for out, p in fam.items()}

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
        fam = {out: np.zeros((d, d), dtype=complex) for out in space}
        for k in range(d):
            out = space[rng.integers(len(space))]
            fam[out][k, k] = 1.0
        u = haar_unitary(d, rng)
        return {out: u @ p @ u.conj().T for out, p in fam.items()}

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
    u = haar_unitary(d, rng)
    fam = []
    for o in range(outcomes):
        p = np.zeros((d, d), dtype=complex)
        for k, a in enumerate(assign):
            if a == o:
                p[k, k] = 1.0
        fam.append(u @ p @ u.conj().T)
    return fam


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
    degs = [g.degree(v) for v in range(g.n) if g.degree(v) > 0]
    if not degs:
        raise StrategyError("graph has no edges")
    return math.lcm(*degs)


def _require_no_isolated(g: Graph) -> None:
    isolated = [v for v in range(g.n) if g.degree(v) == 0]
    if isolated:
        raise StrategyError(f"reduction needs every vertex on an edge; isolated: {isolated}")


def _marginal(fam: dict, pos: int, value: int, d: int) -> np.ndarray:
    """Sum the family over the non-`pos` component of its 2-tuple outcomes."""
    total = np.zeros((d, d), dtype=complex)
    for out, p in fam.items():
        if out[pos] == value:
            total += p
    return total


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
    if s.game is not GameType.ALT_RZKP:
        raise StrategyError(f"expected a labelling-game strategy, got {s.game}")
    validate_strategy(s)
    _require_no_isolated(g)
    d_a, d_b = s.dim_a, s.dim_b
    slots = _lcm_degrees(g)
    d_b2 = 2 * slots * 3 * d_b
    if d_b2 > MAX_REDUCED_DIM:
        raise DimensionMismatchError(f"reduced B dimension {d_b2} exceeds {MAX_REDUCED_DIM}")

    pvm_a: dict = {}
    for e in g.edges:
        fam = s.pvm_a[e]
        out: dict = {}
        for ci in F3:
            for cj in F3:
                m = np.zeros((d_a, d_a), dtype=complex)
                for w, p in fam.items():
                    if (w[0] + w[1]) % 3 == ci and (w[2] + w[3]) % 3 == cj:
                        m += p
                out[(ci, cj)] = m
        pvm_a[e] = out

    # ancilla layout: flat B index = ((bit*slots + slot)*3 + anc)*d_b + core
    shift = np.zeros((3, 3), dtype=complex)
    for t in range(3):
        shift[(t + 1) % 3, t] = 1.0
    shift_pow = [np.eye(3, dtype=complex), shift, shift @ shift]
    block_dim = 3 * d_b

    pvm_b: dict = {}
    for v in range(g.n):
        nbrs = g.adjacency[v]
        fam_out = {c: np.zeros((d_b2, d_b2), dtype=complex) for c in F3}
        for bit in (0, 1):
            for slot in range(slots):
                u = nbrs[slot % len(nbrs)]
                e = (v, u) if v < u else (u, v)
                pos = 0 if v == e[0] else 1
                first = [_marginal(s.pvm_b[(e, bit)], pos, a, d_b) for a in F3]
                second = [_marginal(s.pvm_b[(e, 1 - bit)], pos, c, d_b) for c in F3]
                u_dilate = sum(np.kron(shift_pow[a], first[a]) for a in F3)
                off = (bit * slots + slot) * block_dim
                for c_sum in F3:
                    sel = np.zeros((block_dim, block_dim), dtype=complex)
                    for a in F3:
                        c = (c_sum - a) % 3
                        anc = np.zeros((3, 3), dtype=complex)
                        anc[a, a] = 1.0
                        sel += np.kron(anc, second[c])
                    block = u_dilate.conj().T @ sel @ u_dilate
                    fam_out[c_sum][off : off + block_dim, off : off + block_dim] = block
        pvm_b[v] = fam_out

    psi_mat = s.psi_matrix()
    psi2 = np.zeros((d_a, d_b2), dtype=complex)
    amp = 1.0 / math.sqrt(2 * slots)
    for bit in (0, 1):
        for slot in range(slots):
            off = (bit * slots + slot) * block_dim  # anc = 0 sub-block
            psi2[:, off : off + d_b] = psi_mat * amp
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
    if s.game is not GameType.ALT_EDGE:
        raise StrategyError(f"expected an edge-game strategy, got {s.game}")
    validate_strategy(s)
    _require_no_isolated(g)
    d_a, d_b = s.dim_a, s.dim_b
    slots = _lcm_degrees(g)
    d_a2 = slots * d_a
    if d_a2 > MAX_REDUCED_DIM:
        raise DimensionMismatchError(f"reduced A dimension {d_a2} exceeds {MAX_REDUCED_DIM}")

    eye_slots = np.eye(slots, dtype=complex)
    pvm_a: dict = {}
    for e in g.edges:
        fam = s.pvm_a[e]
        for alpha in F3:
            out: dict = {}
            for b0 in (0, 1):
                for b1 in (0, 1):
                    m = np.zeros((d_a, d_a), dtype=complex)
                    for (ci, cj), p in fam.items():
                        if int(ci == alpha) == b0 and int(cj == alpha) == b1:
                            m += p
                    out[(b0, b1)] = np.kron(eye_slots, m)
            pvm_a[EdgeConstraint(e, alpha)] = out
    for v in range(g.n):
        nbrs = g.adjacency[v]
        out = {t: np.zeros((d_a2, d_a2), dtype=complex) for t in itertools.product((0, 1), repeat=3)}
        for slot in range(slots):
            u = nbrs[slot % len(nbrs)]
            e = (v, u) if v < u else (u, v)
            pos = 0 if v == e[0] else 1
            sel = np.zeros((slots, slots), dtype=complex)
            sel[slot, slot] = 1.0
            for cv in F3:
                t = tuple(int(cv == a) for a in F3)
                out[t] += np.kron(sel, _marginal(s.pvm_a[e], pos, cv, d_a))
        pvm_a[VertexConstraint(v)] = out

    eye_b = np.eye(d_b, dtype=complex)
    pvm_b: dict = {}
    for v in range(g.n):
        for beta in F3:
            proj = s.pvm_b[v][beta]
            pvm_b[(v, beta)] = {1: proj.copy(), 0: eye_b - proj}

    psi2 = np.zeros((d_a2, d_b), dtype=complex)
    psi_mat = s.psi_matrix()
    amp = 1.0 / math.sqrt(slots)
    for slot in range(slots):
        psi2[slot * d_a : (slot + 1) * d_a, :] = psi_mat * amp
    return QuantumStrategy(GameType.BCS, d_a2, d_b, psi2.reshape(-1), pvm_a, pvm_b)
