"""Numerical certificates for the soundness reduction chain.

From a constraint-game strategy we extract prover B's color projectors and
the reduced state, then measure how far the assignment is from an exactly
commuting satisfying one: commutators with sqrt(rho) (tracial defect),
neighbor commutators, edge-coloring products, and gadget-pair commutators.
`check_bounds` evaluates every inequality the reduction proof promises and
returns the violations (an empty list, unless the implementation is wrong --
these are theorems).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .games import F3, EdgeConstraint, GameType
from .graphs import ExtendedGraph, Graph
from .quantum import QuantumStrategy, _qform, joint_probabilities


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
    if s.game is not GameType.BCS:
        raise CertificateError(f"expected a constraint-game strategy, got {s.game}")
    projs: dict = {}
    for v in range(g.n):
        fams = []
        for alpha in F3:
            key = (v, alpha)
            if key not in s.pvm_b:
                raise MissingProjectorError(f"strategy has no B measurement for {key}")
            fams.append(s.pvm_b[key][1])
            projs[key] = s.pvm_b[key][1]
        total = fams[0] + fams[1] + fams[2]
        if np.abs(total - np.eye(s.dim_b)).max() > 1e-9:
            raise NotVertexCompleteError(f"color projectors at vertex {v} do not sum to identity")
        for a, b in itertools.combinations(range(3), 2):
            if np.abs(fams[a] @ fams[b] - fams[b] @ fams[a]).max() > 1e-9:
                raise NotVertexCompleteError(f"same-vertex projectors at {v} do not commute")
    rho = partial_trace_a(s)
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"reduced state trace {tr} != 1")
    return Assignment(dim=s.dim_b, rho=rho, projs=projs, vertices=tuple(range(g.n)))


_BITS2 = ((0, 0), (0, 1), (1, 0), (1, 1))
# [k, (b0, b1), bt]: the +-1 product of A's indicator for endpoint k and B's indicator bt
_OBS = np.array([[[(2.0 * bits[k] - 1.0) * (2.0 * bt - 1.0) for bt in (0, 1)] for bits in _BITS2] for k in (0, 1)])


def eps_table(s: QuantumStrategy, g: Graph) -> EpsTable:
    """Failure probability of every edge-verification challenge choice.

    The aggregate satisfies mean(entries) = 1 - p_win restricted to the
    edge-constraint branch; the identity is checked by the test suite against
    an independent computation of that winning probability. Observables come
    from joint_probabilities. Entries keep the scalar _qform sums: a rounding-size
    eps enters the bounds as sqrt(eps), so 1e-16 of reordering moves margins 1e-8.
    """
    if s.game is not GameType.BCS:
        raise CertificateError(f"expected a constraint-game strategy, got {s.game}")
    a_keys = [EdgeConstraint(e, alpha) for e in g.edges for alpha in F3]
    for a_key in a_keys:
        if a_key not in s.pvm_a:
            raise MissingProjectorError(f"strategy has no A measurement for {a_key}")
    psi_mat = s.psi_matrix()
    pa = np.stack([s.pvm_a[key][bits] for key in a_keys for bits in _BITS2])
    pb = np.stack([s.pvm_b[(end, key.color)][bt] for key in a_keys for end in key.edge for bt in (0, 1)])
    n = len(a_keys)
    # block r of the joint: A's family a_keys[r] against B's families at both of its endpoints
    pairs = joint_probabilities(psi_mat, pa, pb).reshape(n, 4, n, 2, 2)[np.arange(n), :, np.arange(n)]
    obs = np.einsum("rakb,kab->rk", pairs, _OBS).tolist()
    entries, observable = {}, {}
    for r, key in enumerate(a_keys):
        fam_a = s.pvm_a[key]
        for k, end in enumerate(key.edge):
            fam_b = s.pvm_b[(end, key.color)]
            # B's 1 wins only with A's `lone` pair; B's 0 wins with (0, 0) and the mirror of `lone`
            lone = (1, 0) if k == 0 else (0, 1)
            win = _qform(psi_mat, fam_a[(0, 0)] + fam_a[lone[::-1]], fam_b[0]) + _qform(psi_mat, fam_a[lone], fam_b[1])
            eps = 1.0 - win
            if eps < -1e-9 or eps > 1.0 + 1e-9:
                raise NumericalError(f"failure probability {eps} escaped [0,1]")
            entries[(*key.edge, key.color, end)] = min(1.0, max(0.0, eps))
            observable[(*key.edge, key.color, end)] = obs[r][k]
    agg = sum(entries.values()) / len(entries)
    return EpsTable(entries=entries, aggregate=agg, observable=observable)


def _frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def assignment_norms(a: Assignment, base: Graph, ext: Optional[ExtendedGraph] = None) -> NormReport:
    """All Frobenius-norm defects of the assignment.

    With `ext` given, the per-edge norms run over the extended graph's edges
    and the gadget commutators over the non-adjacent base pairs; otherwise
    everything runs over `base` alone.
    """
    op_graph = ext.full if ext is not None else base
    for v in range(op_graph.n):
        for alpha in F3:
            if (v, alpha) not in a.projs:
                raise MissingProjectorError(f"assignment has no projector for {(v, alpha)}")
    sr = sqrt_psd(a.rho)
    tracial: dict = {}
    for v in range(op_graph.n):
        for alpha in F3:
            b_op = a.projs[(v, alpha)]
            tracial[(v, alpha)] = _frob(b_op @ sr - sr @ b_op)
    commuting: dict = {}
    edge_coloring: dict = {}
    for i, j in op_graph.edges:
        for alpha in F3:
            bi = a.projs[(i, alpha)]
            edge_coloring[(i, j, alpha)] = _frob(bi @ a.projs[(j, alpha)] @ sr)
            for beta in F3:
                bj = a.projs[(j, beta)]
                commuting[(i, j, alpha, beta)] = _frob((bi @ bj - bj @ bi) @ sr)
    gadget: dict = {}
    if ext is not None:
        for gd in ext.gadgets:
            i, j = gd.pair
            for alpha in F3:
                bi = a.projs[(i, alpha)]
                for beta in F3:
                    bj = a.projs[(j, beta)]
                    gadget[(i, j, alpha, beta)] = _frob((bi @ bj - bj @ bi) @ sr)
    return NormReport(dim=a.dim, tracial=tracial, commuting=commuting, edge_coloring=edge_coloring, gadget=gadget)


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


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def assignment_to_json(a: Assignment) -> dict:
    """JSON-ready form of an assignment; complex entries become [re, im]."""
    return {
        "dim": a.dim,
        "rho": _matrix_to_json(a.rho),
        "projectors": {f"{v},{alpha}": _matrix_to_json(p) for (v, alpha), p in sorted(a.projs.items())},
        "vertices": list(a.vertices),
    }


def norm_report_to_json(nr: NormReport) -> dict:
    def flat(d: dict) -> dict:
        return {",".join(map(str, k)): float(v) for k, v in sorted(d.items())}

    return {
        "dim": nr.dim,
        "tracial": flat(nr.tracial),
        "commuting": flat(nr.commuting),
        "edge_coloring": flat(nr.edge_coloring),
        "gadget": flat(nr.gadget),
    }


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
