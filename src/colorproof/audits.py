"""Batch numerical audits of the reduction-chain theorems.

Every inequality here is a proved statement about valid strategies, so the
expected violation count is zero for any sample size; a nonzero count means
an implementation bug, not bad luck. The sweep drives random strategies on
two fixtures: the triangle K3 and the prism-extension of the 3-path (the
smallest graph with a gadget pair), and mixes in matrix-level spot checks
of the pinching-chain and normal-operator norm facts the proofs lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import assignment_norms, eps_table, evaluate_bounds, extract_assignment, sqrt_psd
from .games import ALT_EDGE, ALT_RZKP, GameKind, GameType
from .graphs import Graph, extend_with_gadgets, make_graph
from .seeds import derive_seed
from .quantum import (
    arbitrary_strategy,
    haar_unitary,
    matrix_norms,
    pinching_chain,
    random_pvm,
    random_strategy,
    reduce_edge_to_bcs,
    reduce_rzkp_to_edge,
    win_probability,
)

BCS_EDGE_ONLY = GameKind(GameType.BCS, 1.0)
TOL = 1e-9


@dataclass
class SweepSummary:
    strategies: int = 0
    checks: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    worst_margin: dict = field(default_factory=dict)
    worst_sample: dict = field(default_factory=dict)  # family -> (seed, index) behind its worst margin
    sample: tuple = (None, None)  # (seed, index) of the sample being audited

    def record(self, family: str, ok: bool, margin: float) -> None:
        self.checks[family] = self.checks.get(family, 0) + 1
        if not ok:
            self.violations[family] = self.violations.get(family, 0) + 1
        prev = self.worst_margin.get(family)
        if prev is None or margin < prev:
            self.worst_margin[family] = margin
            self.worst_sample[family] = self.sample

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "strategies": self.strategies,
            "checks": dict(sorted(self.checks.items())),
            "violations": dict(sorted(self.violations.items())),
            "worst_margin": {k: float(v) for k, v in sorted(self.worst_margin.items())},
            "worst_sample": {k: {"seed": seed, "sample": i} for k, (seed, i) in sorted(self.worst_sample.items())},
            "clean": self.clean,
        }


# the sweep's fixtures: the triangle, and the 3-path extended with its prism gadget
_K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
_EXT = extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)]))


def _make_strategy(game: GameType, g: Graph, dims, jiggle: float, rng, arbitrary: bool):
    if arbitrary:
        return arbitrary_strategy(game, g, dims[0], dims[1], rng)
    return random_strategy(game, g, dims[0], dims[1], rng, jiggle)


def audit_gentle_measurement(
    g: Graph, dims: tuple[int, int], jiggle: float, rng, summary: SweepSummary, arbitrary: bool = False
) -> None:
    """Reduced edge-game win must stay above 1 - eps - 2*sqrt(eps)."""
    s = _make_strategy(GameType.ALT_RZKP, g, dims, jiggle, rng, arbitrary)
    eps = 1.0 - win_probability(ALT_RZKP, g, s)
    reduced = reduce_rzkp_to_edge(s, g)
    got = win_probability(ALT_EDGE, g, reduced)
    floor = 1.0 - eps - 2.0 * math.sqrt(max(0.0, eps))
    summary.record("gentle-measurement", got >= floor - TOL, got - floor)
    summary.strategies += 1


def audit_bcs_chain(
    g: Graph,
    dims: tuple[int, int],
    jiggle: float,
    rng,
    summary: SweepSummary,
    base: Graph = None,
    ext=None,
    arbitrary: bool = False,
) -> None:
    """Edge-game strategy -> constraint game: floor, then all norm bounds."""
    s = _make_strategy(GameType.ALT_EDGE, g, dims, jiggle, rng, arbitrary)
    edge_win = win_probability(ALT_EDGE, g, s)
    bcs = reduce_edge_to_bcs(s, g)
    ev_win = win_probability(BCS_EDGE_ONLY, g, bcs)
    summary.record("edge-to-bcs-floor", ev_win >= edge_win - TOL, ev_win - edge_win)
    table = eps_table(bcs, g)
    agg_check = abs(table.aggregate - (1.0 - ev_win))
    summary.record("eps-aggregate-identity", agg_check <= TOL, TOL - agg_check)
    assignment = extract_assignment(bcs, g)
    norms = assignment_norms(assignment, base if base is not None else g, ext)
    for v in evaluate_bounds(norms, table, base if base is not None else g, ext):
        summary.record(v.family, v.lhs <= v.rhs + TOL, v.margin)
    summary.strategies += 1


def audit_tracial_pair(d: int, rng, summary: SweepSummary) -> None:
    """Hermitian-unitary pair: commutator and transpose bounds sqrt(2e(2-e)).

    The state is written in its Schmidt basis (real nonnegative coefficients)
    so the transpose in the second bound is the literal matrix transpose.
    """
    c = np.abs(rng.standard_normal(d)) + 0.05
    c = c / np.linalg.norm(c)
    sr = np.diag(c.astype(complex))
    x = _random_hermitian_unitary(d, rng)
    y = _random_hermitian_unitary(d, rng)
    ev = float(np.sum(np.outer(c, c) * y * x).real)
    if ev < 0:
        x = -x
        ev = -ev
    eps = 1.0 - ev
    bound = math.sqrt(max(0.0, 2.0 * eps * (2.0 - eps)))
    lhs_comm = float(np.linalg.norm(x @ sr - sr @ x, "fro"))
    lhs_cross = float(np.linalg.norm(x @ sr - sr @ y.T, "fro"))
    summary.record("tracial-commutator", lhs_comm <= bound + TOL, bound - lhs_comm)
    summary.record("tracial-transpose", lhs_cross <= bound + TOL, bound - lhs_cross)


def _random_hermitian_unitary(d: int, rng) -> np.ndarray:
    v = haar_unitary(d, rng)
    signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    return (v * signs) @ v.conj().T


def audit_pinching_chain(d: int, depth: int, rng, summary: SweepSummary) -> None:
    """Operator norm of a projector chain summed over free indices is <= 1."""
    families = [random_pvm(d, int(rng.integers(2, 4)), rng) for _ in range(depth)]
    fixed = {depth - 1: int(rng.integers(len(families[depth - 1])))}
    if depth > 2 and rng.random() < 0.5:
        u = int(rng.integers(0, depth - 1))
        fixed[u] = int(rng.integers(len(families[u])))
    op = pinching_chain(families, fixed)
    _, opnorm = matrix_norms(op)
    summary.record("pinching-chain", opnorm <= 1.0 + TOL, 1.0 + TOL - opnorm)


def audit_normal_trace(d: int, rng, summary: SweepSummary) -> None:
    """|Tr(A sqrt(rho))| <= ||A||_F for normal A and any state rho."""
    u = haar_unitary(d, rng)
    lam = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a = (u * lam) @ u.conj().T
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = w @ w.conj().T
    rho = rho / rho.trace()
    lhs = abs(complex((a @ sqrt_psd(rho)).trace()))
    rhs, _ = matrix_norms(a)
    summary.record("normal-frobenius", lhs <= rhs + TOL, rhs - lhs)


def run_certificate_sweep(samples: int = 1000, seed: int = 0, max_dim: int = 4) -> SweepSummary:
    """The full audit: random strategies on K3 and the extended 3-path.

    K3 samples run the whole chain (labelling game -> gentle measurement ->
    constraint game -> norm certificates); extension samples audit the
    constraint-game bounds including the gadget commutators, with a slice of
    them also paying for the more expensive gentle-measurement reduction.
    Matrix-level spot checks ride along on every sample.
    """
    summary = SweepSummary()
    for i in range(samples):
        audit_sample(seed, i, max_dim, summary)
    return summary


def audit_sample(seed: int, i: int, max_dim: int, summary: SweepSummary) -> None:
    """Sample `i` of the sweep seeded `seed`, recorded into `summary`; replays it alone."""
    summary.sample = (seed, i)
    # independent per-sample substream: samples can run in any order
    rng = np.random.default_rng(derive_seed("audit", seed, i))
    jig = (0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)[i % 7]
    wild = i % 5 == 4  # a slice of fully arbitrary strategies, far from honest
    da = int(rng.integers(2, max_dim + 1))
    db = int(rng.integers(2, max_dim + 1))
    if i % 2 == 0:
        audit_gentle_measurement(_K3, (da, db), jig, rng, summary, arbitrary=wild)
        audit_bcs_chain(_K3, (da, db), jig, rng, summary, arbitrary=wild)
    else:
        if i % 16 == 1:
            audit_gentle_measurement(_EXT.full, (min(da, 3), min(db, 2)), jig, rng, summary, arbitrary=wild)
        audit_bcs_chain(_EXT.full, (da, db), jig, rng, summary, base=_EXT.base, ext=_EXT, arbitrary=wild)
    audit_tracial_pair(int(rng.integers(2, 9)), rng, summary)
    audit_pinching_chain(int(rng.integers(2, 9)), int(rng.integers(2, 5)), rng, summary)
    audit_normal_trace(int(rng.integers(2, 9)), rng, summary)
