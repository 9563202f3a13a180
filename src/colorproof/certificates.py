"""Numerical certificates for the soundness reduction chain.

From a constraint-game strategy we extract prover B's color projectors and
the reduced state, then measure how far the assignment is from an exactly
commuting satisfying one: commutators with sqrt(rho) (tracial defect),
neighbor commutators, edge-coloring products, and gadget-pair commutators.
Every number stays in the stacked array it is computed in, indexed by edge
(in `g.edges` order), vertex or gadget, then colors and endpoint.
`evaluate_bounds` gives each inequality family as (lhs, rhs) arrays;
`check_bounds` returns the violated instances keyed by their vertices (an
empty list, unless the implementation is wrong -- these are theorems). A
strategy of another game or one missing a family raises
`quantum.StrategyError`, as in every reader of a strategy; `CertificateError`
is for the certificates' own faults, each named by its message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .games import BCS, F3, _BITS2, BcsChallenge, EdgeConstraint, GameType, verdict
from .graphs import ExtendedGraph, Graph
from .quantum import Pairs, QuantumStrategy, _block_diag, _require_game, _stack_ops


class CertificateError(ValueError):
    pass


@dataclass
class Assignment:
    """Prover B's color projectors and reduced state rho = Tr_A |psi><psi|."""

    rho: np.ndarray
    projs: np.ndarray  # (vertex, color, d, d): [v, alpha] is the outcome-1 projector of v's color-alpha family


@dataclass
class EpsTable:
    """Edge-verification failure probabilities per challenge choice, as (edge, color, end) arrays.

    `eps[e, alpha, end]` is the failure probability when prover A is asked
    the disjointness constraint for edge g.edges[e] = (i, j) at color alpha
    and prover B is asked vertex (i, j)[end] at the same color. `observable`
    holds the +-1 observable expectations of the same choices, for the
    expectation-value certificate; `aggregate` is the mean of `eps`.
    """

    eps: np.ndarray
    aggregate: float
    observable: np.ndarray


@dataclass
class NormReport:
    """Frobenius-norm defects of an assignment over the operative graph, (i, j) its edges[e] or gadget pair p."""

    tracial: np.ndarray  # (vertex, a): ||[B^v_a, sqrt(rho)]||_F
    commuting: np.ndarray  # (edge, a, b): ||[B^i_a, B^j_b] sqrt(rho)||_F
    edge_coloring: np.ndarray  # (edge, a): ||B^i_a B^j_a sqrt(rho)||_F
    gadget: np.ndarray  # (gadget, a, b): commuting's norm at gadget p's non-adjacent base pair; no rows without gadgets


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
        raise CertificateError(f"state eigenvalue {lam.min()} below the PSD floor")
    lam = np.clip(lam, 0.0, None)
    return (v * np.sqrt(lam)) @ v.conj().T


@lru_cache(maxsize=None)
def _layouts(g: Graph) -> tuple[Pairs, Pairs, Pairs]:
    """The (key, outcome) rows the readers take: B's per (vertex, color) for extract_assignment, then A's
    and B's per (edge, color) for eps_table. Kept per graph, so a strategy layout works out each once."""
    a_keys = [EdgeConstraint(e, alpha) for e in g.edges for alpha in F3]
    return (
        Pairs(((v, alpha), 1) for v in range(g.n) for alpha in F3),
        Pairs((key, bits) for key in a_keys for bits in _BITS2),
        Pairs(((end, key.color), bt) for key in a_keys for end in key.edge for bt in (0, 1)),
    )


def extract_assignment(s: QuantumStrategy, g: Graph) -> Assignment:
    """Pull B's outcome-1 projectors per (vertex, color) and the reduced state.

    Every vertex's completeness and same-vertex commutation are checked at once, block by block over
    B's slot register; the first failing vertex is reported, completeness before commutation. The
    projectors are written out densely, since rho is not block diagonal over a register.
    """
    _require_game(s, GameType.BCS)
    projs = _stack_ops(s.b, _layouts(g)[0], "B")
    projs = projs.reshape(g.n, 3, *projs.shape[1:])  # (vertex, color, R, k, k)
    incomplete = np.abs(projs.sum(axis=1) - np.eye(projs.shape[-1])).max(axis=(1, 2, 3)) > 1e-9
    a, b = projs[:, [0, 0, 1]], projs[:, [1, 2, 2]]  # each vertex's color pairs
    noncommuting = np.abs(a @ b - b @ a).max(axis=(1, 2, 3, 4)) > 1e-9
    if (incomplete | noncommuting).any():
        v = int((incomplete | noncommuting).argmax())
        if incomplete[v]:
            raise CertificateError(f"color projectors at vertex {v} do not sum to identity")
        raise CertificateError(f"same-vertex projectors at {v} do not commute")
    rho = partial_trace_a(s)
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > 1e-9:
        raise CertificateError(f"reduced state trace {tr} != 1")
    return Assignment(rho=rho, projs=_block_diag(projs))


# [k, (b0, b1), bt]: the +-1 product of A's indicator for endpoint k and B's indicator bt
_OBS = np.array([[[(2.0 * bits[k] - 1.0) * (2.0 * bt - 1.0) for bt in (0, 1)] for bits in _BITS2] for k in (0, 1)])
# [k, (b0, b1), bt]: 1 where verdict() rejects A's bits against B's bit bt at endpoint k of the edge
_LOSSES = np.array(
    [
        [[not verdict(BCS, ch, bits, bt).accept for bt in (0, 1)] for bits in _BITS2]
        for ch in (BcsChallenge(EdgeConstraint((0, 1), 0), k, 0) for k in (0, 1))
    ],
    dtype=float,
)


def eps_table(s: QuantumStrategy, g: Graph) -> EpsTable:
    """Failure probability of every edge-verification challenge choice.

    Each pair of A's and B's outcomes gets its mass once, as ||A Psi B^T||_F^2 =
    <psi| A (x) B |psi>. An eps sums the masses of the pairs verdict() rejects,
    an observable all four with signs. As a sum of squares, an exactly losing
    pair weighs rounding squared, not rounding: eps enters the bounds as
    sqrt(eps). The aggregate, mean(eps), is 1 - p_win on the edge-constraint
    branch, which the test suite checks against win_probability.
    """
    _require_game(s, GameType.BCS)
    if not g.edges:
        raise CertificateError("eps table needs a graph with at least one edge")
    _, a_layout, b_layout = _layouts(g)
    pa, pb = _stack_ops(s.a, a_layout, "A"), _stack_ops(s.b, b_layout, "B")
    k_a, (r_b, k_b) = pa.shape[-1], pb.shape[1:3]
    # A Psi from A's blocks and the state's first A register block, as (r, bits, B block, d_a, k_b)
    a_psi = (pa.reshape(-1, k_a) @ s.psi_matrix()[:k_a]).reshape(-1, 4, s.dim_a, r_b, k_b).swapaxes(-3, -2)
    amp = a_psi[:, :, None, None] @ pb.reshape(-1, 1, 2, 2, r_b, k_b, k_b).swapaxes(-1, -2)  # (.., end, bit, ..)
    pairs = (amp.real**2 + amp.imag**2).sum(axis=(-3, -2, -1))
    eps = np.einsum("rakb,kab->rk", pairs, _LOSSES).reshape(-1, 3, 2)  # r = (edge, color)
    if eps.max() > 1.0 + 1e-9:
        raise CertificateError(f"failure probability {eps.max()} escaped [0,1]")
    eps = np.minimum(eps, 1.0)
    observable = np.einsum("rakb,kab->rk", pairs, _OBS).reshape(-1, 3, 2)
    return EpsTable(eps=eps, aggregate=sum(eps.ravel().tolist()) / eps.size, observable=observable)


def _frob(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(m, axis=(-2, -1))


def _pairs(pairs) -> np.ndarray:
    """Vertex pairs as an (pair, 2) int array, also when there are none."""
    return np.array(pairs, dtype=int).reshape(-1, 2)


def _commutator_norms(projs: np.ndarray, pairs, sr: np.ndarray) -> np.ndarray:
    """||[B^i_a, B^j_b] sqrt(rho)||_F for each pair (i, j) and colors a, b, as (pair, a, b)."""
    ij = _pairs(pairs)
    bi, bj = projs[ij[:, 0], :, None], projs[ij[:, 1], None, :]
    return _frob((bi @ bj - bj @ bi) @ sr)


def _gadget_pairs(ext: Optional[ExtendedGraph]) -> list:
    return [gd.pair for gd in ext.gadgets] if ext is not None else []


def assignment_norms(a: Assignment, base: Graph, ext: Optional[ExtendedGraph] = None) -> NormReport:
    """All Frobenius-norm defects of the assignment.

    With `ext` given, the per-edge norms run over the extended graph's edges
    and the gadget commutators over the non-adjacent base pairs; otherwise
    everything runs over `base` alone.
    """
    op_graph = ext.full if ext is not None else base
    if len(a.projs) < op_graph.n:
        raise CertificateError(f"assignment has no projector for vertex {len(a.projs)}")
    sr = sqrt_psd(a.rho)
    projs = a.projs[: op_graph.n]
    ij = _pairs(op_graph.edges)
    return NormReport(
        tracial=_frob(projs @ sr - sr @ projs),
        commuting=_commutator_norms(projs, ij, sr),
        edge_coloring=_frob(projs[ij[:, 0]] @ projs[ij[:, 1]] @ sr),
        gadget=_commutator_norms(projs, _gadget_pairs(ext), sr),
    )


def _s_bound(eps: np.ndarray) -> np.ndarray:
    eps = np.clip(eps, 0.0, 1.0)
    return np.sqrt(2.0 * eps * (2.0 - eps))


def evaluate_bounds(nr: NormReport, et: EpsTable, base: Graph, ext: Optional[ExtendedGraph] = None) -> dict:
    """Every certificate inequality instance, violated or not: family -> (lhs, rhs) arrays.

    Families, per edge (i, j) of the operative graph (in its `edges` order) and colors:
      * observable -- <Y (x) X> >= 1 - 2*eps, lhs 1 - 2*eps and rhs <Y (x) X> (edge, alpha, end)
      * tracial    -- ||[B^k_a, sqrt(rho)]||_F <= sqrt(2 eps (2 - eps)) at each end k (edge, alpha, end)
      * edge-coloring -- with the extra sqrt((eps_i + eps_j)/2) term (edge, alpha)
      * commuting  -- ||[B^i_a, B^j_b] sqrt(rho)||_F <= s(eps_i) + s(eps_j) (edge, alpha, beta)
      * gadget     -- non-adjacent base pairs against the summed gadget-edge
                      budget (gadget, alpha, beta); no rows without `ext`
    A table and a report that do not fit the operative graph raise `CertificateError`.
    """
    op_graph = ext.full if ext is not None else base
    gadgets = ext.gadgets if ext is not None else ()
    m = len(op_graph.edges)
    shapes = tuple(x.shape for x in (et.eps, et.observable, nr.tracial, nr.commuting, nr.edge_coloring, nr.gadget))
    if shapes != ((m, 3, 2), (m, 3, 2), (op_graph.n, 3), (m, 3, 3), (m, 3), (len(gadgets), 3, 3)):
        raise CertificateError(f"eps table and norm report shapes {shapes} do not fit the graph")
    eps, s = et.eps, _s_bound(et.eps)
    half = np.sqrt((eps[..., 0] + eps[..., 1]) / 2.0)  # (edge, gamma)
    # np.cumsum adds a gadget's (gadget edge, gamma) terms one after the other, as a scalar loop does
    term = 4.0 * half + 19.0 * (s[..., 0] + s[..., 1])
    index = {e: k for k, e in enumerate(op_graph.edges)}
    budget = np.array([np.cumsum(term[[index[e] for e in gd.edges]])[-1] for gd in gadgets])
    ends = _pairs(op_graph.edges)[:, None, :]
    return {
        "observable": (1.0 - 2.0 * eps, et.observable),
        "tracial": (nr.tracial[ends, np.arange(3)[:, None]], s),
        "edge-coloring": (nr.edge_coloring, s[..., 0] + s[..., 1] + half),
        "commuting": (nr.commuting, s[:, :, None, 0] + s[:, None, :, 1]),
        "gadget": (nr.gadget, np.broadcast_to(budget.reshape(-1, 1, 1), nr.gadget.shape)),
    }


def check_bounds(nr: NormReport, et: EpsTable, base: Graph, ext: Optional[ExtendedGraph] = None) -> list[Violation]:
    """The violated certificate inequalities (expected empty; see evaluate_bounds).

    A violation's key is (i, j, alpha, k) for observable and tracial, with k the
    endpoint B is asked; (i, j, alpha) for edge-coloring; (i, j, alpha, beta)
    for commuting over an edge and gadget over a base pair.
    """
    edges = (ext.full if ext is not None else base).edges
    out = []
    for family, (lhs, rhs) in evaluate_bounds(nr, et, base, ext).items():
        for idx in np.argwhere(lhs > rhs + 1e-9).tolist():
            (i, j), colors = (_gadget_pairs(ext) if family == "gadget" else edges)[idx[0]], idx[1:]
            if family in ("observable", "tracial"):
                colors = [colors[0], (i, j)[colors[1]]]
            out.append(Violation(family, (i, j, *colors), float(lhs[tuple(idx)]), float(rhs[tuple(idx)])))
    return out


def sequential_coloring(a: Assignment, order: Sequence[int], rng: random.Random) -> tuple[int, ...]:
    """Sample one coloring by measuring each vertex's color family in turn.

    Born rule with state update rho <- B rho B / Tr(B rho B); the probability
    of any outcome string equals Tr(B_m ... B_1 rho B_1 ... B_m).
    """
    if sorted(order) != list(range(len(a.projs))):
        raise CertificateError("order must be a permutation of the assignment's vertices")
    rho = a.rho.copy()
    colors = [0] * len(order)
    for v in order:
        probs = [max(0.0, float((b_op @ rho).trace().real)) for b_op in a.projs[v]]
        if sum(probs) < 1e-15:
            raise CertificateError(f"all branches vanish at vertex {v}")
        pick = colors[v] = rng.choices(F3, probs)[0]
        b_op = a.projs[v, pick]
        rho = b_op @ rho @ b_op
        rho = rho / probs[pick]
    return tuple(colors)


def sequential_distribution(a: Assignment, order: Sequence[int]) -> dict[tuple[int, ...], float]:
    """Exhaustive outcome distribution Tr(B_m ... B_1 rho B_1 ... B_m)."""
    if sorted(order) != list(range(len(a.projs))):
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
        for alpha, b_op in enumerate(a.projs[v]):
            walk(pos + 1, b_op @ rho @ b_op, picked + [alpha])

    walk(0, a.rho.copy(), [])
    return dist
