"""Fast paths of the quantum core against their scalar references.

The reductions write their slot registers as blocks; the references below
build the dense matrices with np.kron, exactly as the reduction proofs write
them, and a reduced strategy's dense matrices must equal them bit for bit. The
stacked generators must equal the per-family loops of `reference_quantum`
bit for bit, rng included, and the stacked validator must report the fault a
family-by-family scan finds, the same as the dict-form validator of
`reference_quantum`. Every reader's gather from a side's stack, its blocks
written densely, must equal stacking the side's dict form. The stacked
joint-probability kernel behind win_probability, eps_table and BornPair must
agree with a per-challenge sum of the scalar quadratic form _qform.
"""

import itertools
import math
import random
from typing import Optional

import numpy as np
import pytest

from colorproof import certificates, quantum
from colorproof.certificates import eps_table
from colorproof.games import (
    ALT_EDGE,
    ALT_RZKP,
    BCS,
    F3,
    SPECS,
    VERTEX,
    EdgeConstraint,
    GameKind,
    GameType,
    VertexConstraint,
    challenge_pmf,
    verdict,
)
from colorproof.graphs import extend_with_gadgets, make_graph
from colorproof.quantum import (
    BornPair,
    IncompleteFamilyError,
    NonFiniteError,
    NotProjectiveError,
    QuantumStrategy,
    _lcm_degrees,
    arbitrary_strategy,
    random_strategy,
    reduce_edge_to_bcs,
    reduce_rzkp_to_edge,
    validate_strategy,
    win_probability,
)
import reference_quantum
from reference_quantum import _marginal, _qform, dense, strategy_of

K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
EXT = extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)]))
KINDS = (ALT_RZKP, ALT_EDGE, BCS, VERTEX, GameKind(GameType.BCS, 1.0), GameKind(GameType.VERTEX, 0.0))


def _kron_rzkp_to_edge(s: QuantumStrategy, g) -> QuantumStrategy:
    d_a, d_b = s.dim_a, s.dim_b
    slots = _lcm_degrees(g)
    d_b2 = 2 * slots * 3 * d_b
    in_a, in_b = dense(s.a), dense(s.b)
    pvm_a = {}
    for e in g.edges:
        out = {}
        for ci in F3:
            for cj in F3:
                m = np.zeros((d_a, d_a), dtype=complex)
                for w, p in in_a[e].items():
                    if (w[0] + w[1]) % 3 == ci and (w[2] + w[3]) % 3 == cj:
                        m += p
                out[(ci, cj)] = m
        pvm_a[e] = out
    shift = np.zeros((3, 3), dtype=complex)
    for t in range(3):
        shift[(t + 1) % 3, t] = 1.0
    shift_pow = [np.eye(3, dtype=complex), shift, shift @ shift]
    block_dim = 3 * d_b
    pvm_b = {}
    for v in range(g.n):
        nbrs = g.adjacency[v]
        fam_out = {c: np.zeros((d_b2, d_b2), dtype=complex) for c in F3}
        for bit in (0, 1):
            for slot in range(slots):
                u = nbrs[slot % len(nbrs)]
                e = (v, u) if v < u else (u, v)
                pos = 0 if v == e[0] else 1
                first = [_marginal(in_b[(e, bit)], pos, a, d_b) for a in F3]
                second = [_marginal(in_b[(e, 1 - bit)], pos, c, d_b) for c in F3]
                u_dilate = sum(np.kron(shift_pow[a], first[a]) for a in F3)
                off = (bit * slots + slot) * block_dim
                for c_sum in F3:
                    sel = np.zeros((block_dim, block_dim), dtype=complex)
                    for a in F3:
                        anc = np.zeros((3, 3), dtype=complex)
                        anc[a, a] = 1.0
                        sel += np.kron(anc, second[(c_sum - a) % 3])
                    fam_out[c_sum][off : off + block_dim, off : off + block_dim] = u_dilate.conj().T @ sel @ u_dilate
        pvm_b[v] = fam_out
    psi2 = np.zeros((d_a, d_b2), dtype=complex)
    for bit in (0, 1):
        for slot in range(slots):
            off = (bit * slots + slot) * block_dim
            psi2[:, off : off + d_b] = s.psi_matrix() * (1.0 / math.sqrt(2 * slots))
    return strategy_of(GameType.ALT_EDGE, d_a, d_b2, psi2.reshape(-1), pvm_a, pvm_b)


def _kron_edge_to_bcs(s: QuantumStrategy, g) -> QuantumStrategy:
    d_a, d_b = s.dim_a, s.dim_b
    slots = _lcm_degrees(g)
    d_a2 = slots * d_a
    eye_slots = np.eye(slots, dtype=complex)
    in_a, in_b = dense(s.a), dense(s.b)
    pvm_a = {}
    for e in g.edges:
        for alpha in F3:
            out = {}
            for b0 in (0, 1):
                for b1 in (0, 1):
                    m = np.zeros((d_a, d_a), dtype=complex)
                    for (ci, cj), p in in_a[e].items():
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
                out[tuple(int(cv == a) for a in F3)] += np.kron(sel, _marginal(in_a[e], pos, cv, d_a))
        pvm_a[VertexConstraint(v)] = out
    pvm_b = {}
    for v in range(g.n):
        for beta in F3:
            proj = in_b[v].get(beta, np.zeros((d_b, d_b), dtype=complex))
            pvm_b[(v, beta)] = {1: proj.copy(), 0: np.eye(d_b, dtype=complex) - proj}
    psi2 = np.zeros((d_a2, d_b), dtype=complex)
    for slot in range(slots):
        psi2[slot * d_a : (slot + 1) * d_a, :] = s.psi_matrix() * (1.0 / math.sqrt(slots))
    return strategy_of(GameType.BCS, d_a2, d_b, psi2.reshape(-1), pvm_a, pvm_b)


def _assert_identical(got: QuantumStrategy, want: QuantumStrategy) -> None:
    assert (got.game, got.dim_a, got.dim_b) == (want.game, want.dim_a, want.dim_b)
    assert np.array_equal(got.psi, want.psi)
    for side in ("a", "b"):
        g_pvm, w_pvm = dense(getattr(got, side)), dense(getattr(want, side))
        assert list(g_pvm) == list(w_pvm)
        for key in w_pvm:
            assert list(g_pvm[key]) == list(w_pvm[key])
            for out in w_pvm[key]:
                assert np.array_equal(g_pvm[key][out], w_pvm[key][out]), (side, key, out)


def _draw(game, g, dims, rng, arbitrary):
    if arbitrary:
        return arbitrary_strategy(game, g, dims[0], dims[1], rng)
    return random_strategy(game, g, dims[0], dims[1], rng, 0.3)


def _sparse(s: QuantumStrategy) -> QuantumStrategy:
    """The strategy with every exactly-zero projector omitted from its family."""
    def keep(pvm):
        return {key: {out: p for out, p in fam.items() if p.any()} for key, fam in pvm.items()}

    return strategy_of(s.game, s.dim_a, s.dim_b, s.psi, keep(dense(s.a)), keep(dense(s.b)))


@pytest.mark.parametrize("graph", ["k3", "ext"])
@pytest.mark.parametrize("arbitrary", [False, True])
def test_reductions_equal_kron_reference(graph, arbitrary):
    # a family that omits its zero projectors reduces exactly like the full one
    g = K3 if graph == "k3" else EXT.full
    rng = np.random.default_rng(501)
    for dims in ((2, 2), (3, 2)):
        for game, reduce, kron in (
            (GameType.ALT_RZKP, reduce_rzkp_to_edge, _kron_rzkp_to_edge),
            (GameType.ALT_EDGE, reduce_edge_to_bcs, _kron_edge_to_bcs),
        ):
            s = _draw(game, g, dims, rng, arbitrary)
            sparse = _sparse(s)
            assert len(sparse.a.layout.pairs) < len(s.a.layout.pairs)
            want = kron(s, g)
            _assert_identical(reduce(s, g), want)
            _assert_identical(reduce(sparse, g), want)
            _assert_identical(kron(sparse, g), want)


@pytest.mark.parametrize("game", list(GameType), ids=lambda game: game.value)
@pytest.mark.parametrize("graph", ["k3", "ext"])
def test_generators_equal_per_family_reference(game, graph):
    g = K3 if graph == "k3" else EXT.full
    for seed, dims in enumerate(((3, 2), (2, 4), (1, 3))):
        for jiggle in (0.0, 0.4):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = random_strategy(game, g, *dims, got_rng, jiggle)
            _assert_identical(got, reference_quantum.random_strategy(game, g, *dims, want_rng, jiggle))
            assert got_rng.random() == want_rng.random()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = arbitrary_strategy(game, g, *dims, got_rng)
        _assert_identical(got, reference_quantum.arbitrary_strategy(game, g, *dims, want_rng))
        assert got_rng.random() == want_rng.random()


def _scalar_win(kind, g, s) -> float:
    """Per-challenge sum of _qform over the winning pairs, straight from verdict()."""
    spec = SPECS[kind.game]
    psi_mat, pvm_a, pvm_b = s.psi_matrix(), dense(s.a), dense(s.b)
    total = 0.0
    for ch, p in challenge_pmf(kind, g).items():
        fam_a, fam_b = pvm_a[spec.half_a(ch)], pvm_b[spec.half_b(ch)]
        for (a_out, a_op), (b_out, b_op) in itertools.product(fam_a.items(), fam_b.items()):
            if verdict(kind, ch, a_out, b_out).accept:
                total += p * _qform(psi_mat, a_op, b_op)
    return total


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
@pytest.mark.parametrize("arbitrary", [False, True])
def test_win_probability_matches_scalar_sum(kind, arbitrary):
    rng = np.random.default_rng(502)
    for dims in ((2, 3), (3, 2), (1, 4)):
        s = _draw(kind.game, K3, dims, rng, arbitrary)
        assert win_probability(kind, K3, s) == pytest.approx(_scalar_win(kind, K3, s), abs=1e-12)


def test_win_probability_matches_scalar_sum_on_reduced_strategies():
    rng = np.random.default_rng(503)
    for g in (K3, EXT.full):
        s = random_strategy(GameType.ALT_RZKP, g, 2, 2, rng, 0.3)
        edge = reduce_rzkp_to_edge(s, g)
        assert win_probability(ALT_EDGE, g, edge) == pytest.approx(_scalar_win(ALT_EDGE, g, edge), abs=1e-12)
        bcs = reduce_edge_to_bcs(random_strategy(GameType.ALT_EDGE, g, 3, 2, rng, 0.3), g)
        kind = GameKind(GameType.BCS, 1.0)
        assert win_probability(kind, g, bcs) == pytest.approx(_scalar_win(kind, g, bcs), abs=1e-12)


@pytest.mark.parametrize("arbitrary", [False, True])
def test_eps_table_matches_scalar_forms(arbitrary):
    rng = np.random.default_rng(504)
    for g in (K3, EXT.full):
        for dims in ((2, 3), (3, 2)):
            s = _draw(GameType.BCS, g, dims, rng, arbitrary)
            table = eps_table(s, g)
            psi_mat, pvm_a, pvm_b = s.psi_matrix(), dense(s.a), dense(s.b)
            for e, (i, j) in enumerate(g.edges):
                for alpha in F3:
                    fam_a = pvm_a[EdgeConstraint((i, j), alpha)]
                    for side, k in enumerate((i, j)):
                        fam_b = pvm_b[(k, alpha)]
                        win = sum(
                            _qform(psi_mat, p, fam_b[bits[side]]) for bits, p in fam_a.items() if bits[0] * bits[1] == 0
                        )
                        obs = sum(
                            (2 * bits[side] - 1) * (2 * bt - 1) * _qform(psi_mat, p, q)
                            for bits, p in fam_a.items()
                            for bt, q in fam_b.items()
                        )
                        assert table.eps[e, alpha, side] == pytest.approx(1.0 - win, abs=1e-12)
                        assert table.observable[e, alpha, side] == pytest.approx(obs, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS[:4], ids=lambda k: k.game.value)
@pytest.mark.parametrize("arbitrary", [False, True])
def test_born_pair_distribution_matches_scalar_forms(kind, arbitrary):
    rng = np.random.default_rng(505)
    s = _draw(kind.game, K3, (2, 3), rng, arbitrary)
    spec = SPECS[kind.game]
    pair = BornPair(s)
    psi_mat, pvm_a, pvm_b = s.psi_matrix(), dense(s.a), dense(s.b)
    for ch in challenge_pmf(kind, K3):
        responses, cum = pair._distribution(kind, ch)
        got = dict(zip(responses, np.diff([0.0] + cum)))
        fam_a, fam_b = pvm_a[spec.half_a(ch)], pvm_b[spec.half_b(ch)]
        for (a_out, a_op), (b_out, b_op) in itertools.product(fam_a.items(), fam_b.items()):
            want = _qform(psi_mat, a_op, b_op)
            assert got.get((a_out, b_out), 0.0) == pytest.approx(want, abs=1e-12)
        assert pair.respond(kind, ch, random.Random(0)) in got


def _family(dim: int = 2) -> dict:
    p0 = np.diag([1.0, 0.0]).astype(complex)
    return {"x": p0, "y": np.eye(dim, dtype=complex) - p0, "z": np.zeros((dim, dim), dtype=complex)}


def _holding(pvm_a: dict, pvm_b: Optional[dict] = None) -> QuantumStrategy:
    """A valid two-qubit strategy around the given families (B: three copies of _family())."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    pvm_b = {k: _family() for k in range(3)} if pvm_b is None else pvm_b
    return strategy_of(GameType.VERTEX, 2, 2, psi, pvm_a, pvm_b)


@pytest.mark.parametrize(
    "outcome, value, error, words",
    [
        ("y", np.array([[np.nan, 0], [0, 1]], dtype=complex), NonFiniteError, "non-finite entries in projector y"),
        ("y", np.array([[0, 1], [0, 1]], dtype=complex), NotProjectiveError, "outcome y not Hermitian"),
        ("y", np.array([[0, 0], [0, 2]], dtype=complex), NotProjectiveError, "outcome y not idempotent"),
        ("z", np.diag([0.0, 1.0]).astype(complex), IncompleteFamilyError, "does not sum to identity"),
    ],
    ids=["non-finite", "non-hermitian", "non-idempotent", "incomplete"],
)
def test_check_family_names_each_fault(outcome, value, error, words):
    pvm_a = {3: _family(), 7: _family(), 9: _family()}
    validate_strategy(_holding(pvm_a))
    pvm_a[7][outcome] = value
    with pytest.raises(error) as info:
        validate_strategy(_holding(pvm_a))
    assert str(info.value).startswith("A pvm 7: ") and words in str(info.value)


def test_check_family_reports_the_first_faulty_outcome():
    # outcome x is only non-idempotent, outcome y non-Hermitian and non-finite:
    # the scan goes outcome by outcome, so x's fault is the one reported
    fam = _family()
    fam["x"] = np.diag([2.0, 0.0]).astype(complex)
    fam["y"] = np.array([[np.inf, 1], [0, 1]], dtype=complex)
    with pytest.raises(NotProjectiveError, match="^B pvm 0: outcome x not idempotent$"):
        validate_strategy(_holding({0: _family()}, {0: fam}))


def test_validation_reports_the_first_faulty_family():
    def broken(fault: str) -> dict:
        fam = _family()
        if fault == "nan":
            fam["x"] = np.array([[np.nan, 0], [0, 0]], dtype=complex)
        elif fault == "incomplete":
            del fam["y"]
        return fam

    # a fault in a later family of side B
    with pytest.raises(NonFiniteError, match=r"^B pvm 2: non-finite entries in projector x$"):
        validate_strategy(_holding({0: _family()}, {0: _family(), 1: _family(), 2: broken("nan")}))
    # side A's fault comes first, even in a later family than B's
    with pytest.raises(IncompleteFamilyError, match=r"^A pvm 5: family does not sum to identity$"):
        validate_strategy(_holding({4: _family(), 5: broken("incomplete")}, {0: broken("nan"), 1: _family()}))
    # an incomplete family ahead of a faulty outcome in a later family
    with pytest.raises(IncompleteFamilyError, match=r"^B pvm 1: family does not sum to identity$"):
        validate_strategy(_holding({0: _family()}, {0: _family(), 1: broken("incomplete"), 2: broken("nan")}))
    # an empty family sums to zero
    with pytest.raises(IncompleteFamilyError, match=r"^B pvm 1: family does not sum to identity$"):
        validate_strategy(_holding({0: _family()}, {0: _family(), 1: {}, 2: _family()}))
    validate_strategy(_holding({0: _family()}, {}))  # a side with no families has nothing to check


# each corruption of the two-qubit strategy of `_holding`: (side, key, outcome, value), value None omits the outcome
_CORRUPTIONS = {
    "wrong-shape": [("A", 7, "y", np.eye(3, dtype=complex))],
    "non-finite": [("A", 7, "y", np.array([[np.nan, 0], [0, 1]], dtype=complex))],
    "non-hermitian": [("A", 7, "y", np.array([[0, 1], [0, 1]], dtype=complex))],
    "non-idempotent": [("A", 7, "y", np.array([[0, 0], [0, 2]], dtype=complex))],
    "incomplete": [("A", 7, "z", np.diag([0.0, 1.0]).astype(complex))],
    "omitted-zero-outcome": [("A", 7, "z", None), ("B", 1, "z", None)],  # still valid
    "omitted-outcome": [("B", 1, "y", None)],
    "two-families-of-a-side": [("A", 9, "x", np.array([[0, 1], [0, 1]])), ("A", 7, "y", np.diag([np.inf, 0.0]))],
    "incomplete-before-a-fault": [("B", 2, "x", np.diag([1.0, 1.0])), ("B", 1, "z", np.diag([0.0, 1.0]))],
    "side-a-before-side-b": [("B", 0, "y", np.diag([np.nan, 0.0])), ("A", 9, "z", np.array([[0, 1], [0, 0]]))],
}


def _raised(check) -> Optional[tuple[type, str]]:
    try:
        check()
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("fault", list(_CORRUPTIONS))
def test_stacked_validator_equals_dict_form_reference(fault):
    pvms = {"A": {k: _family() for k in (3, 7, 9)}, "B": {k: _family() for k in range(3)}}
    for side, key, outcome, value in _CORRUPTIONS[fault]:
        if value is None:
            del pvms[side][key][outcome]
        else:
            pvms[side][key][outcome] = value
    want = _raised(lambda: [reference_quantum.validate_side(pvms[side], 2, side) for side in "AB"])
    assert (want is None) == (fault == "omitted-zero-outcome")
    assert _raised(lambda: validate_strategy(_holding(pvms["A"], pvms["B"]))) == want


def _reader_layouts(game: GameType, g) -> list:
    """Every reader's (side, (key, outcome) rows) on strategies of `game`: win_probability's, and for bcs
    also extract_assignment's and eps_table's."""
    layouts = []
    for kind in KINDS:
        if kind.game is game:
            a_rows, b_cols, _ = quantum._winning_sets(kind, g)
            layouts += [("A", a_rows), ("B", b_cols)]
    if game is GameType.BCS:
        assignment, eps_a, eps_b = certificates._layouts(g)
        layouts += [("B", assignment), ("A", eps_a), ("B", eps_b)]
    return layouts


@pytest.mark.parametrize("game", list(GameType), ids=lambda game: game.value)
@pytest.mark.parametrize("graph", ["k3", "ext"])
def test_stacked_gather_equals_dict_form_stack(game, graph):
    # the dict form is `dense` of a side; test_generators_equal_per_family_reference
    # and test_reductions_equal_kron_reference check that form against families built one at a time
    g = K3 if graph == "k3" else EXT.full
    rng = np.random.default_rng(506)
    drawn = [_draw(game, g, (2, 3), rng, arbitrary) for arbitrary in (False, True)]
    drawn += [_sparse(s) for s in drawn]
    if game is GameType.BCS:  # a reduced side: B's indicator families hold outcome 1 before 0
        drawn.append(reduce_edge_to_bcs(random_strategy(GameType.ALT_EDGE, g, 2, 2, rng, 0.3), g))
    for s in drawn:
        for side, layout in _reader_layouts(game, g):
            stacked, dim = (s.a, s.dim_a) if side == "A" else (s.b, s.dim_b)
            pvms = dense(stacked)
            want = reference_quantum.stack_ops(pvms, layout, side, dim)
            for _ in range(2):  # the first gather works out the rows, the second reads them as kept
                got = quantum._block_diag(quantum._stack_ops(stacked, layout, side))  # the blocks, written densely
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            first = dense(stacked)
            del first[layout[0][0]]
            less = strategy_of(s.game, dim, dim, s.psi, first, {}).a  # the side without layout[0]'s family
            want = _raised(lambda: reference_quantum.stack_ops(first, layout, side, dim))
            assert want is not None and _raised(lambda: quantum._stack_ops(less, layout, side)) == want
