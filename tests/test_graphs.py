import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorproof.graphs import (
    Graph,
    GraphError,
    InfeasibleError,
    LengthMismatchError,
    OutOfRangeError,
    SelfLoopError,
    extend_with_gadgets,
    extended_counts,
    gen_planted,
    graph_from_dict,
    make_graph,
    min_extended_degree,
    three_color,
    validate_coloring,
)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return make_graph(n, edges)


def test_make_graph_normalizes(k3):
    g = make_graph(3, [(0, 1), (2, 1), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g == k3


def test_make_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        make_graph(4, [(0, 0)])


def test_make_graph_dedups_after_normalization():
    g = make_graph(2, [(0, 1), (1, 0)])
    assert g.edges == ((0, 1),)


def test_make_graph_range_check():
    with pytest.raises(OutOfRangeError):
        make_graph(3, [(0, 3)])


def test_adjacency_and_degrees(k3):
    assert k3.adjacency == ((1, 2), (0, 2), (0, 1))
    assert k3.max_degree == 2
    assert k3.has_edge(2, 0)


def test_gen_planted_proper_and_exact_count():
    inst = gen_planted(6, 9, seed=1)
    assert len(inst.graph.edges) == 9
    assert validate_coloring(inst.graph, inst.witness) == []


def test_gen_planted_deterministic_bytes():
    a = gen_planted(6, 9, seed=1)
    b = gen_planted(6, 9, seed=1)
    assert a.graph.canonical_bytes(a.witness) == b.graph.canonical_bytes(b.witness)
    c = gen_planted(6, 9, seed=2)
    assert a.graph.canonical_bytes(a.witness) != c.graph.canonical_bytes(c.witness)


def test_gen_planted_k3_when_witness_rainbow():
    # a witness using all three colors on 3 vertices admits exactly 3
    # bichromatic pairs, so asking for 3 edges forces K3
    for seed in range(200):
        try:
            inst = gen_planted(3, 3, seed=seed)
        except InfeasibleError:
            continue
        assert sorted(inst.witness) == [0, 1, 2]
        assert inst.graph.edges == ((0, 1), (0, 2), (1, 2))
        return
    pytest.fail("no seed produced a rainbow witness on 3 vertices")


def test_gen_planted_infeasible_by_pigeonhole():
    with pytest.raises(InfeasibleError):
        gen_planted(4, 7, seed=0)


def test_extended_counts_table_rows():
    assert extended_counts(200, 380) == (78280, 176060)
    assert extended_counts(600, 1122) == (714912, 1608324)
    assert extended_counts(900, 1695) == (1612320, 3627390)


def test_extended_counts_no_overflow_at_large_n():
    n, m = 10**6, 19 * 10**5
    n2, m2 = extended_counts(n, m)
    assert n2 == 2 * n * n - n - 4 * m
    assert m2 == 9 * n * (n - 1) // 2 - 8 * m


def test_extend_k4_no_gadgets(k4):
    ext = extend_with_gadgets(k4)
    assert ext.gadgets == ()
    assert ext.full == k4


def test_extend_path3_closed_form(path3, ext_path3):
    assert ext_path3.full.n == 7
    assert len(ext_path3.full.edges) == 11
    assert extended_counts(3, 2) == (7, 11)
    assert len(ext_path3.gadgets) == 1
    assert ext_path3.gadgets[0].pair == (0, 2)


def test_extend_table_row_by_construction():
    inst = gen_planted(200, 380, seed=0)
    ext = extend_with_gadgets(inst.graph)
    assert (ext.full.n, len(ext.full.edges)) == (78280, 176060)
    assert extended_counts(200, 380) == (78280, 176060)


@pytest.mark.parametrize("seed", range(12))
def test_extension_invariants_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 13)
    g = random_graph(n, rng.random(), seed * 101 + 7)
    ext = extend_with_gadgets(g)
    n2, m2 = extended_counts(g.n, len(g.edges))
    assert ext.full.n == n2
    assert len(ext.full.edges) == m2
    assert len(ext.gadgets) == n * (n - 1) // 2 - len(g.edges)
    seen_interior: set[int] = set()
    for gd in ext.gadgets:
        a, b, c, d, e, f = gd.roles
        assert (a, e) == gd.pair
        assert not ext.full.has_edge(a, e)
        assert len(gd.edges) == 9
        assert len(set(gd.edges)) == 9
        for u, v in gd.edges:
            assert ext.full.has_edge(u, v)
        interior = {b, c, d, f}
        assert interior.isdisjoint(seen_interior)
        assert all(x >= g.n for x in interior)
        seen_interior |= interior
    for v in range(g.n):
        assert ext.full.degree(v) == 3 * g.n - 3 - 2 * g.degree(v)


@pytest.mark.parametrize("seed", range(8))
def test_extension_preserves_three_colorability(seed):
    rng = random.Random(seed + 400)
    n = rng.randrange(2, 6)
    g = random_graph(n, rng.random(), seed * 31 + 5)
    ext = extend_with_gadgets(g)
    assert (three_color(g) is not None) == (three_color(ext.full) is not None)


def test_min_extended_degree_values(path3):
    assert min_extended_degree(200, 4) == 589
    assert min_extended_degree(2, 1) == 1
    # formula vs direct construction on the 3-path (max degree 2 at vertex 1)
    ext = extend_with_gadgets(path3)
    assert min_extended_degree(3, 2) == 2
    assert min(ext.full.degree(v) for v in range(3)) == 2


def test_validate_coloring(k3, k4):
    assert validate_coloring(k3, (0, 1, 2)) == []
    assert validate_coloring(k3, (0, 0, 1)) == [(0, 1)]
    with pytest.raises(LengthMismatchError):
        validate_coloring(k3, (0, 1))
    # K4 is not 3-colorable: every one of the 81 colorings has a violation
    for colors in itertools.product((0, 1, 2), repeat=4):
        assert validate_coloring(k4, colors)


def test_three_color_oracle(k4, c5):
    assert three_color(k4) is None
    cc = three_color(c5)
    assert cc is not None
    assert validate_coloring(c5, cc) == []


def test_three_color_is_not_bounded_by_the_recursion_limit():
    # a search that recursed once per vertex raised RecursionError from about 1000 vertices
    path = make_graph(2000, [(v, v + 1) for v in range(1999)])
    assert three_color(path) == (1, 0) * 1000  # interior vertices first, by the degree order
    ext = extend_with_gadgets(gen_planted(25, 40, seed=1).graph)
    assert ext.full.n > 1000
    colors = three_color(ext.full)
    assert colors is not None and validate_coloring(ext.full, colors) == []


def test_serialization_roundtrip():
    inst = gen_planted(7, 10, seed=3)
    doc = inst.graph.to_dict(inst.witness)
    g2 = graph_from_dict(doc)
    assert g2 == inst.graph
    assert inst.graph.digest() == g2.digest()
    assert len(inst.graph.digest()) == 32
    # witness must not affect the graph identity hash
    assert inst.graph.canonical_bytes() != inst.graph.canonical_bytes(inst.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6))
def test_extension_counts_match_construction(n, seed):
    g = random_graph(n, random.Random(seed).random(), seed)
    ext = extend_with_gadgets(g)
    assert (ext.full.n, len(ext.full.edges)) == extended_counts(g.n, len(g.edges))


def test_make_graph_needs_vertices():
    with pytest.raises(GraphError):
        make_graph(0, [])


def test_instance_from_dict_validation():
    from colorproof.graphs import instance_from_dict

    good = {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "witness": [0, 1, 2]}
    inst = instance_from_dict(good)
    assert inst.witness == (0, 1, 2)
    with pytest.raises(GraphError):
        instance_from_dict({"n": 3, "edges": [[0, 1]]})  # no witness
    with pytest.raises(GraphError):
        instance_from_dict({"n": 3, "edges": [[0, 1]], "witness": [1, 1, 0]})  # monochromatic edge
    with pytest.raises(GraphError):
        instance_from_dict({"n": 2, "edges": [[0, 1]], "witness": [0, 5]})  # bad color value
