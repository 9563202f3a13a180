"""Reduced strategies keep their slot registers as blocks; written out densely they must read the same.

Both reductions and the full chain rzkp -> edge -> bcs run on K3 and the extended 3-path, from random and
arbitrary inputs. Each result is rebuilt from its dense {key: {outcome: projector}} form (`reference_quantum`),
which has register 1 on both sides, and every reader must agree on the two forms: the
block form's first product against the state reads only the blocks and the state's first register block.
"""

import numpy as np
import pytest

from colorproof import quantum
from colorproof.certificates import assignment_norms, eps_table, extract_assignment
from colorproof.games import ALT_EDGE, GameKind, GameType, challenge_pmf
from colorproof.graphs import extend_with_gadgets, make_graph
from colorproof.quantum import (
    BadStateError,
    BornPair,
    QuantumStrategy,
    Side,
    arbitrary_strategy,
    random_strategy,
    reduce_edge_to_bcs,
    reduce_rzkp_to_edge,
    validate_strategy,
    win_probability,
)
from reference_quantum import rebuilt

K3 = make_graph(3, [(0, 1), (1, 2), (0, 2)])
EXT = extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)]))
KINDS = {GameType.ALT_EDGE: [ALT_EDGE], GameType.BCS: [GameKind(GameType.BCS, mix) for mix in (0.0, 0.5, 1.0)]}
CHAINS = {
    "rzkp-edge": (GameType.ALT_RZKP, (reduce_rzkp_to_edge,)),
    "edge-bcs": (GameType.ALT_EDGE, (reduce_edge_to_bcs,)),
    "full-chain": (GameType.ALT_RZKP, (reduce_rzkp_to_edge, reduce_edge_to_bcs)),
}


def _reduced(chain: str, graph: str, arbitrary: bool):
    g = K3 if graph == "k3" else EXT.full
    rng = np.random.default_rng(601)
    game, steps = CHAINS[chain]
    s = arbitrary_strategy(game, g, 2, 2, rng) if arbitrary else random_strategy(game, g, 2, 2, rng, 0.3)
    for step in steps:
        s = step(s, g)
    return g, s


def _raised(check):
    try:
        check()
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("arbitrary", [False, True], ids=["random", "arbitrary"])
@pytest.mark.parametrize("graph", ["k3", "ext"])
@pytest.mark.parametrize("chain", list(CHAINS))
def test_block_form_reads_as_its_dense_rebuild(chain, graph, arbitrary):
    g, s = _reduced(chain, graph, arbitrary)
    dense = rebuilt(s)
    registers = (s.a.register, s.b.register)
    assert max(registers) > 1 and (dense.a.register, dense.b.register) == (1, 1)
    assert s.a.ops.shape[-1] * s.a.register == s.dim_a and s.b.ops.shape[-1] * s.b.register == s.dim_b
    validate_strategy(s)
    validate_strategy(dense)
    for kind in KINDS[s.game]:
        assert win_probability(kind, g, s) == pytest.approx(win_probability(kind, g, dense), abs=1e-12)
        pairs = BornPair(s), BornPair(dense)
        for ch in list(challenge_pmf(kind, g))[:40]:
            got, want = (dict(zip(r, np.diff([0.0, *c]))) for r, c in (p._distribution(kind, ch) for p in pairs))
            assert max(abs(got.get(key, 0.0) - want.get(key, 0.0)) for key in {*got, *want}) <= 1e-12
    if s.game is GameType.BCS:
        got, want = eps_table(s, g), eps_table(dense, g)
        np.testing.assert_allclose(got.eps, want.eps, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.observable, want.observable, rtol=0, atol=1e-13)
        assert got.aggregate == pytest.approx(want.aggregate, abs=1e-13)
        got, want = extract_assignment(s, g), extract_assignment(dense, g)
        np.testing.assert_allclose(got.rho, want.rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.projs, want.projs, rtol=0, atol=1e-12)
        base, ext = (K3, None) if graph == "k3" else (EXT.base, EXT)
        for field in ("tracial", "commuting", "edge_coloring", "gadget"):
            np.testing.assert_allclose(
                getattr(assignment_norms(got, base, ext), field), getattr(assignment_norms(want, base, ext), field),
                rtol=0, atol=1e-12,
            )
    # one corrupted block of a register side: the same fault, reported the same way, on both forms
    for name, side in (("a", s.a), ("b", s.b)):
        if side.register == 1:
            continue
        row = int(np.abs(side.ops[:, -1]).max(axis=(1, 2)).argmax())  # a projector whose last block is not zero
        for corrupt in (lambda m: m * 0.5, lambda m: m + np.triu(np.full(m.shape, 0.01), 1)):
            ops = side.ops.copy()
            ops[row, -1] = corrupt(ops[row, -1])
            bad = QuantumStrategy(s.game, s.dim_a, s.dim_b, s.psi, **{"a": s.a, "b": s.b, name: Side(ops, side.layout)})
            want = _raised(lambda: validate_strategy(rebuilt(bad)))
            assert want is not None and _raised(lambda: validate_strategy(bad)) == want


def test_reduced_stacks_hold_register_blocks():
    # the extended 3-path has slot register size lcm(degrees) = 12; a dense side would be (n_ops, 48, 48)
    rng = np.random.default_rng(602)
    bcs = reduce_edge_to_bcs(random_strategy(GameType.ALT_EDGE, EXT.full, 4, 4, rng, 0.3), EXT.full)
    assert bcs.a.ops.shape == (188, 12, 4, 4) and bcs.a.ops.nbytes == 188 * 12 * 4 * 4 * 16
    assert (bcs.dim_a, bcs.b.register) == (48, 1)
    edge = reduce_rzkp_to_edge(random_strategy(GameType.ALT_RZKP, K3, 2, 3, rng, 0.3), K3)
    assert edge.b.ops.shape == (9, 4, 9, 9) and (edge.dim_b, edge.a.register) == (36, 1)
    full = reduce_edge_to_bcs(edge, K3)
    assert (full.a.ops.shape[1:], full.b.ops.shape[1:]) == ((2, 2, 2), (4, 9, 9))


def _with_registers(s: QuantumStrategy, r_a: int, r_b: int) -> QuantumStrategy:
    """`s` with a slot register of size r_a on A and r_b on B that nothing reads: every block repeats."""
    a, b = (Side(np.repeat(side.ops, r, axis=1), side.layout) for side, r in ((s.a, r_a), (s.b, r_b)))
    psi = np.tile(s.psi_matrix() / np.sqrt(r_a * r_b), (r_a, r_b))
    return QuantumStrategy(s.game, r_a * s.dim_a, r_b * s.dim_b, psi.reshape(-1), a, b)


@pytest.mark.parametrize("g", [K3, EXT.full], ids=["k3", "ext"])
def test_reductions_carry_an_input_register(g):
    # a register nothing reads changes no winning probability, before or after either reduction
    rng = np.random.default_rng(605)
    for game, reduce, kind in (
        (GameType.ALT_RZKP, reduce_rzkp_to_edge, ALT_EDGE),
        (GameType.ALT_EDGE, reduce_edge_to_bcs, GameKind(GameType.BCS, 0.5)),
    ):
        s = random_strategy(game, g, 2, 2, rng, 0.3)
        wide = _with_registers(s, 2, 3)
        validate_strategy(wide)
        reduced, want = reduce(wide, g), reduce(s, g)
        validate_strategy(reduced)
        assert reduced.dim_a * reduced.dim_b == 6 * want.dim_a * want.dim_b
        assert win_probability(kind, g, reduced) == pytest.approx(win_probability(kind, g, want), abs=1e-12)
        assert win_probability(kind, g, rebuilt(reduced)) == pytest.approx(win_probability(kind, g, want), abs=1e-12)


def test_validate_rejects_a_state_not_uniform_over_the_register():
    rng = np.random.default_rng(604)
    s = reduce_edge_to_bcs(random_strategy(GameType.ALT_EDGE, K3, 2, 2, rng, 0.3), K3)
    psi = s.psi.copy()
    psi[-1] += 0.1
    bad = QuantumStrategy(s.game, s.dim_a, s.dim_b, psi / np.linalg.norm(psi), s.a, s.b)
    with pytest.raises(BadStateError, match="not uniform over the slot registers"):
        validate_strategy(bad)


@pytest.mark.parametrize("g", [K3, EXT.full], ids=["k3", "ext"])
def test_neighbor_slots_are_kept_read_only(g):
    slots = quantum._lcm_degrees(g)
    kept = quantum._neighbor_slots(g, slots)
    assert all(a is b for a, b in zip(kept, quantum._neighbor_slots(g, slots)))
    for got, want in zip(kept, quantum._neighbor_slots.__wrapped__(g, slots)):
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 1
