import random

import numpy as np
import pytest

from colorproof.audits import SweepSummary, audit_bcs_chain
from colorproof.certificates import (
    CertificateError,
    NumericalError,
    assignment_norms,
    check_bounds,
    eps_table,
    evaluate_bounds,
    extract_assignment,
    sequential_coloring,
    sequential_distribution,
    sqrt_psd,
)
from colorproof.games import GameKind, GameType
from colorproof.graphs import extend_with_gadgets, three_color, validate_coloring
from colorproof.quantum import (
    QuantumStrategy,
    classical_embedding,
    haar_unitary,
    random_strategy,
    reduce_edge_to_bcs,
    reduce_rzkp_to_edge,
    validate_strategy,
    win_probability,
)
from reference_quantum import _qform, basis_changed, dense, maximally_entangled, rebuilt

BCS_EDGE_ONLY = GameKind(GameType.BCS, 1.0)


def bcs_from_random_edge_strategy(g, dims, jiggle, rng):
    s = random_strategy(GameType.ALT_EDGE, g, dims[0], dims[1], rng, jiggle)
    return reduce_edge_to_bcs(s, g)


def test_extract_assignment_honest_diagonal(k3):
    s = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=3)
    a = extract_assignment(s, k3)
    for p in a.projs.reshape(-1, 3, 3):
        assert np.abs(p - np.diag(np.diag(p))).max() == 0
        assert set(np.round(np.diag(p).real).astype(int)) <= {0, 1}
    assert a.rho.trace() == pytest.approx(1.0)


def test_extract_assignment_maximally_entangled_kills_tracial(k3):
    base = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=3)
    s = QuantumStrategy(GameType.BCS, 3, 3, maximally_entangled(3), base.a, base.b)
    a = extract_assignment(s, k3)
    assert np.abs(a.rho - np.eye(3) / 3).max() < 1e-12
    nr = assignment_norms(a, k3)
    assert nr.tracial.max() < 1e-9


def test_extract_assignment_trace_one_random(k3):
    rng = np.random.default_rng(3)
    for _ in range(25):
        bcs = bcs_from_random_edge_strategy(k3, (2, 3), 0.35, rng)
        a = extract_assignment(bcs, k3)
        assert a.rho.trace().real == pytest.approx(1.0, abs=1e-9)
        assert np.abs(a.rho - a.rho.conj().T).max() < 1e-12


def test_eps_table_honest_all_zero(k3):
    s = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=2)
    et = eps_table(s, k3)
    assert et.eps.max() < 1e-12
    assert et.aggregate < 1e-12
    assert et.observable.min() > 1.0 - 1e-12


@pytest.mark.parametrize("graph", ["k3", "ext"])
def test_eps_table_exactly_honest_under_local_unitaries(graph, k3, ext_path3):
    # every losing pair of an honest strategy is exactly zero; a local basis change leaves it
    # rounding-size in each amplitude, so its mass is rounding squared, not rounding
    g = k3 if graph == "k3" else ext_path3.full
    s = classical_embedding(GameType.BCS, g, three_color(g), dim=3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        et = eps_table(basis_changed(s, haar_unitary(3, rng), haar_unitary(3, rng)), g)
        assert et.eps.max() <= 1e-30


def test_eps_table_aggregate_identity(k3):
    rng = np.random.default_rng(8)
    for trial in range(15):
        bcs = bcs_from_random_edge_strategy(k3, (3, 3), 0.1 + 0.03 * trial, rng)
        et = eps_table(bcs, k3)
        ev_win = win_probability(BCS_EDGE_ONLY, k3, bcs)
        assert et.aggregate == pytest.approx(1.0 - ev_win, abs=1e-9)
        assert ((0.0 <= et.eps) & (et.eps <= 1.0)).all()


def test_sqrt_psd_identity_and_floor():
    sr = sqrt_psd(np.eye(4, dtype=complex) / 4)
    assert np.abs(sr - np.eye(4) / 2).max() < 1e-12
    with pytest.raises(NumericalError):
        sqrt_psd(np.diag([1.0, -1e-3]).astype(complex))


def test_norms_on_exactly_commuting_assignment(k3):
    base = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=3)
    s = QuantumStrategy(GameType.BCS, 3, 3, maximally_entangled(3), base.a, base.b)
    a = extract_assignment(s, k3)
    nr = assignment_norms(a, k3)
    assert nr.tracial.max() < 1e-8
    assert nr.commuting.max() < 1e-8
    assert nr.edge_coloring.max() < 1e-8


def test_edge_coloring_norm_two_path_identity(k3):
    # ||B^i B^j sqrt(rho)||^2 equals Tr(sqrt(rho) B^j B^i B^j sqrt(rho))
    rng = np.random.default_rng(14)
    bcs = bcs_from_random_edge_strategy(k3, (2, 4), 0.3, rng)
    a = extract_assignment(bcs, k3)
    nr = assignment_norms(a, k3)
    sr = sqrt_psd(a.rho)
    for (i, j), deltas in zip(k3.edges, nr.edge_coloring):
        for alpha, delta in enumerate(deltas):
            bi, bj = a.projs[i, alpha], a.projs[j, alpha]
            direct = (sr @ bj @ bi @ bj @ sr).trace().real
            assert delta**2 == pytest.approx(direct, abs=1e-9)


def test_check_bounds_clean_and_detector(k3):
    rng = np.random.default_rng(21)
    bcs = bcs_from_random_edge_strategy(k3, (3, 3), 0.25, rng)
    a = extract_assignment(bcs, k3)
    et = eps_table(bcs, k3)
    nr = assignment_norms(a, k3)
    assert check_bounds(nr, et, k3) == []
    inflated = assignment_norms(a, k3)
    inflated.commuting *= 10
    bad = check_bounds(inflated, et, k3)
    assert bad
    assert {v.family for v in bad} <= {"commuting"}
    assert all(v.margin < 0 for v in bad)


def test_check_bounds_multiple_gadgets():
    # the 4-path extension carries three prism gadgets with disjoint
    # interiors; each non-adjacent pair gets its own edge budget
    from colorproof.graphs import extend_with_gadgets, make_graph

    path4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    ext = extend_with_gadgets(path4)
    assert len(ext.gadgets) == 3
    g = ext.full
    rng = np.random.default_rng(62)
    bcs = bcs_from_random_edge_strategy(g, (2, 2), 0.15, rng)
    a = extract_assignment(bcs, g)
    et = eps_table(bcs, g)
    nr = assignment_norms(a, path4, ext)
    assert nr.gadget.size == 3 * 9
    assert check_bounds(nr, et, path4, ext) == []


def test_check_bounds_with_gadgets(ext_path3):
    rng = np.random.default_rng(33)
    g = ext_path3.full
    for jig in (0.0, 0.1, 0.3):
        bcs = bcs_from_random_edge_strategy(g, (2, 3), jig, rng)
        a = extract_assignment(bcs, g)
        et = eps_table(bcs, g)
        nr = assignment_norms(a, ext_path3.base, ext_path3)
        assert [gd.pair for gd in ext_path3.gadgets] == [(0, 2)] and nr.gadget.shape == (1, 3, 3)
        assert check_bounds(nr, et, ext_path3.base, ext_path3) == []


def _honest_certificates(g, base, ext=None):
    s = classical_embedding(GameType.BCS, g, three_color(g), dim=2)
    return assignment_norms(extract_assignment(s, g), base, ext), eps_table(s, g)


@pytest.mark.parametrize("family", ["observable", "tracial", "edge-coloring", "commuting", "gadget"])
def test_check_bounds_keys_each_family_by_its_vertices(ext_path3, family):
    # an honest assignment meets every bound with zero slack: one raised defect (or one lowered
    # observable) comes back as exactly the instances that read it, keyed by their vertices
    nr, et = _honest_certificates(ext_path3.full, ext_path3.base, ext_path3)
    edges = ext_path3.full.edges
    e = edges.index((2, 5))
    if family == "observable":
        et.observable[e, 1, 1] = 0.0
        want = {(2, 5, 1, 5)}
    elif family == "tracial":
        nr.tracial[5, 1] = 1.0
        want = {(i, j, 1, 5) for i, j in edges if 5 in (i, j)}
    elif family == "edge-coloring":
        nr.edge_coloring[e, 2] = 1.0
        want = {(2, 5, 2)}
    elif family == "commuting":
        nr.commuting[e, 0, 2] = 1.0
        want = {(2, 5, 0, 2)}
    else:
        nr.gadget[0, 1, 2] = 1.0
        want = {(0, 2, 1, 2)}
    bad = check_bounds(nr, et, ext_path3.base, ext_path3)
    assert len(want) > 0 and {v.family for v in bad} == {family}
    assert {v.key for v in bad} == want and len(bad) == len(want)
    assert all(v.margin == -1.0 for v in bad)


def test_evaluate_bounds_rejects_a_table_and_report_of_different_graphs(k3, ext_path3):
    nr, _ = _honest_certificates(ext_path3.full, ext_path3.base, ext_path3)
    _, et = _honest_certificates(k3, k3)
    with pytest.raises(CertificateError, match="do not fit the graph"):
        evaluate_bounds(nr, et, ext_path3.base, ext_path3)


def test_sweep_summary_records_a_family_in_one_call():
    summary = SweepSummary()
    summary.sample = (3, 1)
    summary.record("tracial", np.array([True, False, True]), np.array([0.5, -0.25, 0.0]))
    summary.record("tracial", True, 0.125)
    summary.record("gadget", np.ones((0, 3, 3), bool), np.ones((0, 3, 3)))
    assert (summary.checks, summary.violations) == ({"tracial": 4}, {"tracial": 1})
    assert summary.worst_margin == {"tracial": -0.25} and summary.worst_sample == {"tracial": (3, 1)}


def test_sweep_summary_counts_non_vacuous_commutator_instances():
    # a commutator bound can fail only between the noise floor TOL and 1/2
    summary = SweepSummary()
    summary.count_non_vacuous("gadget", np.array([0.0, 1e-10, 1e-3, 0.49, 0.5, 3.0]))
    summary.count_non_vacuous("gadget", 0.25)
    summary.count_non_vacuous("commuting", np.ones((0, 3, 3)))
    assert summary.non_vacuous == {"gadget": 3}
    assert summary.to_dict()["non_vacuous"] == {"gadget": 3}


def test_honest_extended_sample_adds_no_non_vacuous_gadget_instance():
    # sample 7 of a sweep is an exactly honest (jiggle 0) strategy on the extended 3-path: its gadget
    # budgets are rounding-level, below the noise floor
    from colorproof.audits import audit_sample

    summary = SweepSummary()
    audit_sample(0, 7, 4, summary)
    assert summary.checks["gadget"] == 9 and summary.non_vacuous["gadget"] == 0


def test_audit_bcs_chain_records_no_gadget_family_without_gadget_pairs(k3):
    ext = extend_with_gadgets(k3)  # every base pair of the triangle is adjacent
    assert not ext.gadgets
    summary = SweepSummary()
    audit_bcs_chain(ext.full, (2, 2), 0.1, np.random.default_rng(5), summary, base=ext.base, ext=ext)
    assert "gadget" not in summary.checks and "gadget" not in summary.worst_margin
    assert summary.checks["commuting"] == 9 * len(ext.full.edges) and summary.clean


def test_sequential_deterministic_embedding(k3):
    s = classical_embedding(GameType.BCS, k3, (2, 0, 1), dim=2)
    a = extract_assignment(s, k3)
    for seed in range(5):
        assert sequential_coloring(a, [0, 1, 2], random.Random(seed)) == (2, 0, 1)


def test_sequential_proper_for_commuting_assignment(k3):
    base = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=3)
    s = QuantumStrategy(GameType.BCS, 3, 3, maximally_entangled(3), base.a, base.b)
    a = extract_assignment(s, k3)
    rng = random.Random(7)
    for _ in range(2000):
        colors = sequential_coloring(a, [2, 0, 1], rng)
        assert validate_coloring(k3, colors) == []


def test_sequential_distribution_matches_sampler(k3):
    rng_np = np.random.default_rng(40)
    bcs = bcs_from_random_edge_strategy(k3, (2, 3), 0.35, rng_np)
    a = extract_assignment(bcs, k3)
    order = [0, 1, 2]
    dist = sequential_distribution(a, order)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    rng = random.Random(13)
    counts = {}
    n = 30000
    for _ in range(n):
        c = sequential_coloring(a, order, rng)
        counts[c] = counts.get(c, 0) + 1
    tv = sum(abs(counts.get(k, 0) / n - p) for k, p in dist.items()) / 2
    assert tv < 0.02


def test_extract_assignment_rejects_incomplete_vertex(k3):
    from colorproof.certificates import NotVertexCompleteError

    rng = np.random.default_rng(93)
    bcs = bcs_from_random_edge_strategy(k3, (2, 3), 0.2, rng)
    pvm_b = dense(bcs.b)
    pvm_b[(1, 0)] = dict(pvm_b[(1, 1)])
    bcs = rebuilt(bcs, pvm_b=pvm_b)
    with pytest.raises(NotVertexCompleteError):
        extract_assignment(bcs, k3)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({2: "incomplete", 1: "noncommuting"}, "same-vertex projectors at 1 do not commute"),
        ({0: "incomplete", 2: "noncommuting"}, "color projectors at vertex 0 do not sum to identity"),
    ],
    ids=["commutation-before-completeness", "completeness-before-commutation"],
)
def test_extract_assignment_reports_the_lowest_faulty_vertex(k3, faults, message):
    # the checks run over every vertex at once; the lowest faulty vertex is the one reported, with its own fault
    from colorproof.certificates import NotVertexCompleteError

    bcs = bcs_from_random_edge_strategy(k3, (2, 2), 0.2, np.random.default_rng(95))
    pvm_b = dense(bcs.b)
    for v, fault in faults.items():
        if fault == "incomplete":
            pvm_b[(v, 0)] = dict(pvm_b[(v, 1)])
        else:  # complete, but colors 0 and 1 do not commute
            p0, p1 = np.full((2, 2), 0.5, dtype=complex), np.diag([1.0, 0.0]).astype(complex)
            for beta, p in enumerate((p0, p1, np.eye(2) - p0 - p1)):
                pvm_b[(v, beta)] = {1: p, 0: np.eye(2) - p}
    with pytest.raises(NotVertexCompleteError, match=f"^{message}$"):
        extract_assignment(rebuilt(bcs, pvm_b=pvm_b), k3)


def test_eps_table_missing_constraint(k3):
    from colorproof.games import EdgeConstraint
    from colorproof.quantum import MissingPvmError

    rng = np.random.default_rng(94)
    bcs = bcs_from_random_edge_strategy(k3, (2, 3), 0.2, rng)
    pvm_a = dense(bcs.a)
    del pvm_a[EdgeConstraint((0, 1), 0)]
    bcs = rebuilt(bcs, pvm_a=pvm_a)
    with pytest.raises(MissingPvmError):
        eps_table(bcs, k3)


def test_eps_table_missing_b_family(k3):
    from colorproof.quantum import MissingPvmError

    s = classical_embedding(GameType.BCS, k3, (0, 1, 2))
    pvm_b = dense(s.b)
    del pvm_b[(0, 0)]
    s = rebuilt(s, pvm_b=pvm_b)
    for read in (eps_table, extract_assignment):
        with pytest.raises(MissingPvmError, match=r"no B measurement for \(0, 0\)"):
            read(s, k3)


def test_eps_table_edgeless_graph(k3):
    from colorproof.certificates import CertificateError
    from colorproof.graphs import make_graph

    bcs = bcs_from_random_edge_strategy(k3, (2, 3), 0.2, np.random.default_rng(94))
    with pytest.raises(CertificateError):
        eps_table(bcs, make_graph(2, []))


def test_product_state_strategies_flow_through(k3):
    # Schmidt-rank-1 shared state: rho is a pure projector, sqrt(rho) = rho;
    # the whole certificate chain must handle the rank-deficient case
    rng = np.random.default_rng(90)
    s = random_strategy(GameType.ALT_EDGE, k3, 3, 3, rng, 0.25)
    phi_a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi_b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi_a /= np.linalg.norm(phi_a)
    phi_b /= np.linalg.norm(phi_b)
    s.psi = np.kron(phi_a, phi_b)
    bcs = reduce_edge_to_bcs(s, k3)
    a = extract_assignment(bcs, k3)
    lam = np.linalg.eigvalsh(a.rho)
    assert lam[-1] == pytest.approx(1.0, abs=1e-9) and abs(lam[:-1]).max() < 1e-9
    et = eps_table(bcs, k3)
    nr = assignment_norms(a, k3)
    assert check_bounds(nr, et, k3) == []
    sr = sqrt_psd(a.rho)
    assert np.abs(sr - a.rho).max() < 1e-8


def test_sequential_extraction_four_vertices_nontrivial_order():
    from colorproof.graphs import make_graph

    path4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    rng_np = np.random.default_rng(91)
    bcs = bcs_from_random_edge_strategy(path4, (2, 3), 0.3, rng_np)
    a = extract_assignment(bcs, path4)
    order = [2, 0, 3, 1]
    dist = sequential_distribution(a, order)
    assert len(dist) == 81
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    rng = random.Random(9)
    n = 20000
    counts: dict = {}
    for _ in range(n):
        c = sequential_coloring(a, order, rng)
        counts[c] = counts.get(c, 0) + 1
    tv = sum(abs(counts.get(k, 0) / n - p) for k, p in dist.items()) / 2
    assert tv < 0.03


def test_sequential_order_validation(k3):
    s = classical_embedding(GameType.BCS, k3, (0, 1, 2), dim=2)
    a = extract_assignment(s, k3)
    with pytest.raises(CertificateError):
        sequential_coloring(a, [0, 1], random.Random(0))


def test_observable_algebra_identity_and_conflict_mass(k3):
    # for the reduced strategy's constraint families, the +-1 observables obey
    # Y_i + Y_j + Y_i Y_j + I = 4*A_11 exactly, and the both-indicators-set
    # mass is at most the average of the two endpoint failure probabilities
    from colorproof.games import EdgeConstraint

    rng = np.random.default_rng(71)
    for jig in (0.05, 0.3):
        s = random_strategy(GameType.ALT_EDGE, k3, 3, 3, rng, jig)
        bcs = reduce_edge_to_bcs(s, k3)
        et = eps_table(bcs, k3)
        psi_mat, pvm_a = bcs.psi_matrix(), dense(bcs.a)
        eye_b = np.eye(bcs.dim_b)
        for e, (i, j) in enumerate(k3.edges):
            for alpha in range(3):
                fam = pvm_a[EdgeConstraint((i, j), alpha)]
                y_i = sum((1.0 if b0 == 1 else -1.0) * p for (b0, b1), p in fam.items())
                y_j = sum((1.0 if b1 == 1 else -1.0) * p for (b0, b1), p in fam.items())
                lhs = y_i + y_j + y_i @ y_j + np.eye(bcs.dim_a)
                assert np.abs(lhs - 4.0 * fam[(1, 1)]).max() < 1e-10
                mass = _qform(psi_mat, fam[(1, 1)], eye_b)
                e_i, e_j = et.eps[e, alpha]
                assert mass <= (e_i + e_j) / 2.0 + 1e-9


def test_tracial_cross_bound_at_general_states():
    # the transpose-coupled tracial bound, audited at generic entangled
    # states by transforming both operators into the state's Schmidt basis
    import math

    from colorproof.quantum import haar_unitary

    rng = np.random.default_rng(72)
    for trial in range(80):
        d = int(rng.integers(2, 7))
        psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        psi = psi / np.linalg.norm(psi)
        psi_mat = psi.reshape(d, d)

        def herm_unitary():
            v = haar_unitary(d, rng)
            signs = np.where(rng.random(d) < 0.5, -1.0, 1.0)
            return (v * signs) @ v.conj().T

        y_op, x_op = herm_unitary(), herm_unitary()
        ev = _qform(psi_mat, y_op, x_op)
        if ev < 0:
            x_op = -x_op
            ev = -ev
        u, s, vh = np.linalg.svd(psi_mat)
        y_s = u.conj().T @ y_op @ u
        x_s = vh.conj() @ x_op @ vh.T
        sr = np.diag(s.astype(complex))
        # transform self-check: the expectation survives the basis change
        assert np.trace(y_s.T @ sr @ x_s @ sr).real == pytest.approx(ev, abs=1e-10)
        eps = 1.0 - ev
        bound = math.sqrt(max(0.0, 2.0 * eps * (2.0 - eps)))
        assert np.linalg.norm(x_s @ sr - sr @ x_s, "fro") <= bound + 1e-9
        assert np.linalg.norm(x_s @ sr - sr @ y_s.T, "fro") <= bound + 1e-9


def _stripped(s: QuantumStrategy) -> QuantumStrategy:
    """`s` with the zero projectors left out of its families, which `validate_strategy` accepts."""
    strip = lambda pvms: {k: {o: p for o, p in fam.items() if np.any(p)} for k, fam in pvms.items()}  # noqa: E731
    return rebuilt(s, strip(dense(s.a)), strip(dense(s.b)))


def _assert_same_strategy(got: QuantumStrategy, want: QuantumStrategy) -> None:
    assert (got.game, got.dim_a, got.dim_b) == (want.game, want.dim_a, want.dim_b)
    assert np.array_equal(got.psi, want.psi)
    for side in ("a", "b"):
        got_fams, want_fams = dense(getattr(got, side)), dense(getattr(want, side))
        assert got_fams.keys() == want_fams.keys()
        for key, fam in want_fams.items():
            assert got_fams[key].keys() == fam.keys() and all(np.array_equal(got_fams[key][o], p) for o, p in fam.items())


def test_omitted_zero_projectors_read_as_zero(k3):
    colors = (0, 1, 2)
    for game, reduce in ((GameType.ALT_RZKP, reduce_rzkp_to_edge), (GameType.ALT_EDGE, reduce_edge_to_bcs)):
        full = classical_embedding(game, k3, colors, dim=2)
        stripped = _stripped(full)
        validate_strategy(stripped)
        assert len(stripped.b.layout.pairs) < len(full.b.layout.pairs)
        _assert_same_strategy(reduce(stripped, k3), reduce(full, k3))
    full = classical_embedding(GameType.BCS, k3, colors, dim=2)
    stripped = _stripped(full)
    validate_strategy(stripped)
    got, want = extract_assignment(stripped, k3), extract_assignment(full, k3)
    assert np.array_equal(got.projs, want.projs)
    assert np.array_equal(got.rho, want.rho)
    got, want = eps_table(stripped, k3), eps_table(full, k3)
    assert np.array_equal(got.eps, want.eps) and np.array_equal(got.observable, want.observable)
    assert got.aggregate == want.aggregate
