import gc
import math
import random
import re
import weakref

import numpy as np
import pytest

from colorproof import quantum
from colorproof.certificates import eps_table, extract_assignment
from colorproof.games import ALT_EDGE, ALT_RZKP, EdgeConstraint, GameKind, GameType, VERTEX, play_rounds
from colorproof.graphs import make_graph
from colorproof.quantum import (
    BornPair,
    StrategyError,
    classical_embedding,
    haar_unitary,
    matrix_norms,
    pinching_chain,
    random_pvm,
    random_strategy,
    reduce_edge_to_bcs,
    reduce_rzkp_to_edge,
    validate_strategy,
    win_probability,
)
from colorproof.strategies import brute_force_vertex3col_value
from reference_quantum import basis_changed, dense, rebuilt

BCS_EDGE_ONLY = GameKind(GameType.BCS, 1.0)


def test_classical_embedding_vertex_k3(k3):
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2))
    validate_strategy(s)
    assert win_probability(VERTEX, k3, s) == pytest.approx(1.0, abs=1e-12)


def test_classical_embedding_matches_brute_force_on_k4(k4):
    s = classical_embedding(GameType.VERTEX, k4, (0, 1, 2, 0))
    got = win_probability(GameKind(GameType.VERTEX, 0.0), k4, s)
    value, _ = brute_force_vertex3col_value(k4)
    assert got == pytest.approx(float(value), abs=1e-12)


def test_validate_rejects_broken_families(k3):
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    validate_strategy(s)
    pvm_a = dense(s.a)
    pvm_a[0][0] = pvm_a[0][0] * 0.5
    bad = rebuilt(s, pvm_a=pvm_a)
    with pytest.raises(StrategyError, match="^A pvm 0: outcome 0 not idempotent$"):
        validate_strategy(bad)
    bad2 = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    bad2.psi = bad2.psi * 2.0
    with pytest.raises(StrategyError, match=r"^state norm 2\.0 is not 1$"):
        validate_strategy(bad2)
    bad3 = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    bad3.psi = np.ones(3, dtype=complex)
    with pytest.raises(StrategyError, match=re.escape("state length (3,) != dim_a*dim_b = 4")):
        validate_strategy(bad3)
    bad4 = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    bad4.psi = np.full(4, np.nan, dtype=complex)
    with pytest.raises(StrategyError, match="^state has non-finite amplitudes$"):
        validate_strategy(bad4)


def test_strategy_sides_are_read_only(k3):
    # strategies share layouts and a reduction's output its input's stacks: a stack refuses writes,
    # and a changed strategy is built with new sides
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    with pytest.raises(ValueError):
        s.a.ops[0, 0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        s.b.ops[0] = 0.0


def test_a_side_refuses_a_stack_that_does_not_fit_its_layout(k3):
    # a stack short of a row, or without the register axis, is refused when the side is built: past that
    # point it surfaces as an IndexError or a broadcast error from numpy, or as a validation message
    # naming the wrong shape
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2), dim=2)
    n = len(s.b.layout.pairs)
    for ops, shape in ((s.b.ops[:-1], (n - 1, 1, 2, 2)), (s.b.ops[:, 0], (n, 2, 2))):
        want = re.escape(f"side stack has shape {shape}, want ({n}, R, d, d)")
        with pytest.raises(StrategyError, match=want):
            quantum.Side(ops.copy(), s.b.layout)
    # a stack that fits its layout but not the strategy's dimension: the validator names the side's first outcome
    wide = quantum.QuantumStrategy(GameType.VERTEX, 2, 3, np.eye(1, 6, dtype=complex)[0], s.a, s.b)
    want = re.escape("B pvm 0: projector for 0 has shape (2, 2), want (3, 3)")
    with pytest.raises(StrategyError, match=want):
        validate_strategy(wide)


def test_reader_rows_live_as_long_as_their_list(k3):
    # a reader's row list keeps its rows in each shared layout it is read from; a cleared
    # winning-set cache frees the list and those rows instead of leaving them on the layout
    s = classical_embedding(GameType.ALT_EDGE, k3, (0, 1, 2))
    win_probability(ALT_EDGE, k3, s)
    a_rows = weakref.ref(quantum._winning_sets(ALT_EDGE, k3)[0])
    assert a_rows().rows.get(s.a.layout) is not None
    quantum._winning_sets.cache_clear()
    gc.collect()
    assert a_rows() is None


def test_win_probability_missing_pvm(k3):
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2))
    pvm_a = dense(s.a)
    del pvm_a[1]
    s = rebuilt(s, pvm_a=pvm_a)
    with pytest.raises(StrategyError, match="^strategy has no A measurement for 1$"):
        win_probability(VERTEX, k3, s)


def test_win_probability_rejects_another_games_strategy(k3):
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2))
    # the whole message is the wrong-game one, not a missing family's
    with pytest.raises(StrategyError, match="^strategy plays vertex, expected alt-edge$"):
        win_probability(ALT_EDGE, k3, s)


# each reader of a strategy's families, with the game of the strategy it reads
_READERS = {
    "win_probability": (lambda s, g: win_probability(GameKind(GameType.BCS), g, s), GameType.BCS),
    "eps_table": (eps_table, GameType.BCS),
    "extract_assignment": (extract_assignment, GameType.BCS),
    "reduce_rzkp_to_edge": (reduce_rzkp_to_edge, GameType.ALT_RZKP),
    "reduce_edge_to_bcs": (reduce_edge_to_bcs, GameType.ALT_EDGE),
}
# a family of each side that each reader needs
_DELETED = [
    ("win_probability", "A", EdgeConstraint((0, 1), 0)),
    ("win_probability", "B", (0, 0)),
    ("eps_table", "A", EdgeConstraint((0, 1), 0)),
    ("eps_table", "B", (0, 0)),
    ("extract_assignment", "B", (0, 0)),  # reads no A family
    ("reduce_rzkp_to_edge", "A", (0, 1)),
    ("reduce_rzkp_to_edge", "B", ((0, 1), 0)),
    ("reduce_edge_to_bcs", "A", (0, 1)),
    ("reduce_edge_to_bcs", "B", 0),
]


@pytest.mark.parametrize("reader", list(_READERS))
def test_every_reader_rejects_another_games_strategy(k3, reader):
    read, game = _READERS[reader]
    s = classical_embedding(GameType.VERTEX, k3, (0, 1, 2))
    with pytest.raises(StrategyError) as raised:
        read(s, k3)
    assert type(raised.value) is StrategyError
    assert str(raised.value) == f"strategy plays vertex, expected {game.value}"


@pytest.mark.parametrize(("reader", "side", "key"), _DELETED, ids=lambda x: str(x).replace(" ", ""))
def test_every_reader_raises_missing_pvm_for_a_deleted_family(k3, reader, side, key):
    read, game = _READERS[reader]
    s = classical_embedding(game, k3, (0, 1, 2), dim=2)
    pvms = dense(s.a if side == "A" else s.b)
    del pvms[key]
    s = rebuilt(s, **{"pvm_a" if side == "A" else "pvm_b": pvms})
    with pytest.raises(StrategyError, match=re.escape(f"strategy has no {side} measurement for {key}")):
        read(s, k3)


@pytest.mark.parametrize("colors", [(0, 1, 2), (0, 0, 1)])
@pytest.mark.parametrize("game", [GameType.VERTEX, GameType.ALT_RZKP], ids=lambda game: game.value)
def test_omitted_outcomes_read_as_zero_projectors(k3, game, colors):
    full = classical_embedding(game, k3, colors, dim=2)
    pvm_a, pvm_b = dense(full.a), dense(full.b)
    for fam in [*pvm_a.values(), *pvm_b.values()]:
        for out in [out for out, p in fam.items() if not p.any()]:
            del fam[out]
    sparse = rebuilt(full, pvm_a, pvm_b)
    validate_strategy(sparse)
    kind = GameKind(game)
    assert win_probability(kind, k3, sparse) == win_probability(kind, k3, full)


def test_unitary_invariance(k3):
    rng = np.random.default_rng(5)
    s = random_strategy(GameType.ALT_EDGE, k3, 3, 3, rng, 0.25)
    base = win_probability(ALT_EDGE, k3, s)
    for _ in range(10):
        ua = haar_unitary(3, rng)
        ub = haar_unitary(3, rng)
        moved = basis_changed(s, ua, ub)
        validate_strategy(moved)
        assert win_probability(ALT_EDGE, k3, moved) == pytest.approx(base, abs=1e-9)


def test_born_pair_matches_exact_value(k3):
    rng = np.random.default_rng(12)
    s = random_strategy(GameType.VERTEX, k3, 2, 2, rng, 0.3)
    exact = win_probability(VERTEX, k3, s)
    rounds = 200000
    stats, _ = play_rounds(VERTEX, k3, BornPair(s), rounds, seed=77)
    sigma = math.sqrt(exact * (1 - exact) / rounds)
    assert abs(stats.win_rate - exact) < 4 * sigma + 1e-9


def test_reduce_rzkp_honest_is_perfect(k3):
    s = classical_embedding(GameType.ALT_RZKP, k3, (0, 1, 2), dim=2)
    reduced = reduce_rzkp_to_edge(s, k3)
    validate_strategy(reduced)
    assert win_probability(ALT_EDGE, k3, reduced) == pytest.approx(1.0, abs=1e-9)


def test_reduce_rzkp_gentle_bound_random(k3):
    rng = np.random.default_rng(31)
    for trial in range(20):
        jig = [0.0, 0.03, 0.08, 0.15, 0.3][trial % 5]
        s = random_strategy(GameType.ALT_RZKP, k3, 3, 3, rng, jig)
        eps = 1.0 - win_probability(ALT_RZKP, k3, s)
        reduced = reduce_rzkp_to_edge(s, k3)
        got = win_probability(ALT_EDGE, k3, reduced)
        assert got >= 1.0 - eps - 2.0 * math.sqrt(max(eps, 0.0)) - 1e-9


def test_reduce_rzkp_rejects_non_projective(k3):
    s = classical_embedding(GameType.ALT_RZKP, k3, (0, 1, 2), dim=2)
    key = (0, 1)
    pvm_a = dense(s.a)
    out = next(o for o, p in pvm_a[key].items() if p.trace().real > 0)
    pvm_a[key][out] = pvm_a[key][out] * 0.7
    s = rebuilt(s, pvm_a=pvm_a)
    with pytest.raises(StrategyError, match=re.escape(f"A pvm {key}: outcome {out} not idempotent")):
        reduce_rzkp_to_edge(s, k3)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (0, 2)],          # regular
    [(0, 1), (0, 2), (0, 3)],          # star: degree lcm 3, slot wrap matters
])
def test_dilated_sequential_measurement_matches_povm(edges):
    # the ancilla dilation inside the labelling->edge reduction must give the
    # same outcome law as the textbook two-step computation
    # avg over (bit, neighbor) of Tr[Q_c P_a rho P_a Q_c] with a + c = ctilde
    g = make_graph(max(max(e) for e in edges) + 1, edges)
    rng = np.random.default_rng(60)
    s = random_strategy(GameType.ALT_RZKP, g, 2, 3, rng, 0.3)
    reduced = reduce_rzkp_to_edge(s, g)
    psi_mat = s.psi_matrix()
    rho_b = psi_mat.T @ psi_mat.conj()
    red_psi, pvm_b, red_b = reduced.psi_matrix(), dense(s.b), dense(reduced.b)
    for v in range(g.n):
        nbrs = g.adjacency[v]
        for ctilde in range(3):
            got = float(np.vdot(red_psi, red_psi @ red_b[v][ctilde].T).real)
            want = 0.0
            for bit in (0, 1):
                for u in nbrs:
                    e = (v, u) if v < u else (u, v)
                    pos = 0 if v == e[0] else 1
                    for a in range(3):
                        c = (ctilde - a) % 3
                        p_first = sum(p for w, p in pvm_b[(e, bit)].items() if w[pos] == a)
                        q_second = sum(p for w, p in pvm_b[(e, 1 - bit)].items() if w[pos] == c)
                        want += (q_second @ p_first @ rho_b @ p_first @ q_second).trace().real
            want /= 2 * len(nbrs)
            assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "game, reduce, cap, message",
    [
        (GameType.ALT_RZKP, reduce_rzkp_to_edge, 11, "reduced B dimension 12 exceeds 11"),
        (GameType.ALT_EDGE, reduce_edge_to_bcs, 1, "reduced A dimension 2 exceeds 1"),
    ],
    ids=["rzkp-to-edge", "edge-to-bcs"],
)
def test_reductions_refuse_a_side_past_the_dimension_cap(monkeypatch, k3, game, reduce, cap, message):
    # K3 has two slots: rzkp -> edge writes B at 2 * 2 * 3 * d_b, edge -> bcs writes A at 2 * d_a
    monkeypatch.setattr(quantum, "MAX_REDUCED_DIM", cap)
    with pytest.raises(StrategyError, match=f"^{message}$"):
        reduce(classical_embedding(game, k3, (0, 1, 2)), k3)


def test_random_strategy_needs_reference_colors_off_three_colorable_graphs(k4):
    with pytest.raises(StrategyError, match="^graph is not 3-colorable; pass explicit reference colors$"):
        random_strategy(GameType.VERTEX, k4, 2, 2, np.random.default_rng(0))


def test_reduce_edge_to_bcs_structure(k3):
    rng = np.random.default_rng(44)
    s = random_strategy(GameType.ALT_EDGE, k3, 3, 3, rng, 0.2)
    bcs = reduce_edge_to_bcs(s, k3)
    validate_strategy(bcs)
    pvm_b = dense(bcs.b)
    for v in range(3):
        total = sum(pvm_b[(v, beta)][1] for beta in (0, 1, 2))
        assert np.abs(total - np.eye(bcs.dim_b)).max() < 1e-9
    edge_win = win_probability(ALT_EDGE, k3, s)
    ev_win = win_probability(BCS_EDGE_ONLY, k3, bcs)
    assert ev_win >= edge_win - 1e-9


def test_reduce_edge_to_bcs_same_edge_commutation(k3):
    from colorproof.games import EdgeConstraint

    rng = np.random.default_rng(45)
    s = random_strategy(GameType.ALT_EDGE, k3, 3, 2, rng, 0.3)
    pvm_a = dense(reduce_edge_to_bcs(s, k3).a)
    e = (0, 1)
    for alpha in range(3):
        for beta in range(3):
            fa = pvm_a[EdgeConstraint(e, alpha)]
            fb = pvm_a[EdgeConstraint(e, beta)]
            for pa in fa.values():
                for pb in fb.values():
                    assert np.abs(pa @ pb - pb @ pa).max() < 1e-9


def test_full_chain_on_honest_embedding(k3):
    s = classical_embedding(GameType.ALT_RZKP, k3, (0, 1, 2), dim=2)
    edge = reduce_rzkp_to_edge(s, k3)
    bcs = reduce_edge_to_bcs(edge, k3)
    validate_strategy(bcs)
    assert win_probability(BCS_EDGE_ONLY, k3, bcs) == pytest.approx(1.0, abs=1e-9)
    assert win_probability(GameKind(GameType.BCS, 0.5), k3, bcs) == pytest.approx(1.0, abs=1e-9)


def test_full_chain_on_irregular_graph():
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = classical_embedding(GameType.ALT_RZKP, star, (0, 1, 1, 1), dim=2)
    edge = reduce_rzkp_to_edge(s, star)
    validate_strategy(edge)
    assert win_probability(ALT_EDGE, star, edge) == pytest.approx(1.0, abs=1e-9)
    bcs = reduce_edge_to_bcs(edge, star)
    validate_strategy(bcs)
    assert win_probability(GameKind(GameType.BCS, 0.5), star, bcs) == pytest.approx(1.0, abs=1e-9)


def test_matrix_norms_identity():
    assert matrix_norms(np.eye(4, dtype=complex)) == (pytest.approx(2.0), pytest.approx(1.0))


def test_matrix_norms_non_finite():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(StrategyError, match="^matrix has non-finite entries$"):
        matrix_norms(m)


def test_pinching_chain_norm_bound():
    rng = np.random.default_rng(9)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        depth = int(rng.integers(2, 5))
        families = [random_pvm(d, int(rng.integers(2, 4)), rng) for _ in range(depth)]
        fixed = {depth - 1: int(rng.integers(len(families[depth - 1])))}
        _, op = matrix_norms(pinching_chain(families, fixed))
        assert op <= 1.0 + 1e-9


def test_tracial_pair_bounds_quick():
    from colorproof.audits import SweepSummary, audit_tracial_pair

    rng = np.random.default_rng(77)
    summary = SweepSummary()
    for _ in range(60):
        audit_tracial_pair(int(rng.integers(2, 9)), rng, summary)
    assert summary.clean
    assert summary.checks["tracial-commutator"] == 60
    assert summary.checks["tracial-transpose"] == 60


def test_arbitrary_strategy_is_valid_everywhere(k3):
    from colorproof.quantum import arbitrary_strategy

    rng = np.random.default_rng(81)
    for game, kind in ((GameType.ALT_RZKP, ALT_RZKP), (GameType.ALT_EDGE, ALT_EDGE),
                       (GameType.VERTEX, VERTEX)):
        s = arbitrary_strategy(game, k3, 3, 4, rng)
        validate_strategy(s)
        w = win_probability(kind, k3, s)
        assert 0.0 <= w <= 1.0


def test_random_strategy_valid_and_sweeps(k3):
    rng = np.random.default_rng(50)
    wins = []
    for jig in (0.0, 0.1, 0.25, 0.5):
        s = random_strategy(GameType.ALT_RZKP, k3, 2, 3, rng, jig)
        validate_strategy(s)
        wins.append(win_probability(ALT_RZKP, k3, s))
    assert wins[0] == pytest.approx(1.0, abs=1e-12)
    assert min(wins) < 0.9  # the knob really does leave the honest point


def test_bcs_mixture_linearity(k3):
    rng = np.random.default_rng(64)
    s = random_strategy(GameType.ALT_EDGE, k3, 2, 3, rng, 0.3)
    bcs = reduce_edge_to_bcs(s, k3)
    w_edge = win_probability(GameKind(GameType.BCS, 1.0), k3, bcs)
    w_vert = win_probability(GameKind(GameType.BCS, 0.0), k3, bcs)
    for lam in (0.25, 0.5, 0.8):
        mixed = win_probability(GameKind(GameType.BCS, lam), k3, bcs)
        assert mixed == pytest.approx(lam * w_edge + (1 - lam) * w_vert, abs=1e-12)


def test_born_pair_on_labelling_game(k3):
    rng = np.random.default_rng(65)
    s = random_strategy(GameType.ALT_RZKP, k3, 2, 2, rng, 0.2)
    exact = win_probability(ALT_RZKP, k3, s)
    rounds = 40000
    stats, _ = play_rounds(ALT_RZKP, k3, BornPair(s), rounds, seed=66)
    sigma = math.sqrt(exact * (1 - exact) / rounds)
    assert abs(stats.win_rate - exact) < 4 * sigma + 1e-9


def test_certificate_sweep_deterministic():
    from colorproof.audits import run_certificate_sweep

    a = run_certificate_sweep(samples=12, seed=9)
    b = run_certificate_sweep(samples=12, seed=9)
    assert a.checks == b.checks
    assert a.worst_margin == b.worst_margin
    c = run_certificate_sweep(samples=12, seed=10)
    assert c.worst_margin != a.worst_margin


def test_sweep_names_the_sample_behind_each_worst_margin():
    from colorproof.audits import SweepSummary, audit_sample, run_certificate_sweep

    summary = run_certificate_sweep(samples=12, seed=9)
    doc = summary.to_dict()
    assert set(doc["worst_sample"]) == set(doc["worst_margin"])
    for family, where in doc["worst_sample"].items():
        assert where["seed"] == 9 and 0 <= where["sample"] < 12
        # replaying that one sample alone reproduces the family's worst margin
        replay = SweepSummary()
        audit_sample(where["seed"], where["sample"], 4, replay)
        assert replay.worst_margin[family] == summary.worst_margin[family]


def test_reduction_needs_connected_vertices():
    g = make_graph(4, [(0, 1)])  # vertices 2, 3 isolated
    s = classical_embedding(GameType.ALT_RZKP, g, (0, 1, 0, 0), dim=1)
    with pytest.raises(Exception):
        reduce_rzkp_to_edge(s, g)
