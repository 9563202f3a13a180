import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorproof.games import (
    ALT_EDGE,
    ALT_RZKP,
    BCS,
    SPECS,
    VERTEX,
    BcsChallenge,
    EdgeChallenge,
    EdgeConstraint,
    GameKind,
    GamesError,
    GameType,
    Reason,
    RzkpChallenge,
    VertexChallenge,
    VertexConstraint,
    challenge_pmf,
    play_rounds,
    sample_challenge,
    transcript_to_json_line,
    verdict,
    wilson_interval,
)
from colorproof.graphs import gen_planted, make_graph
from colorproof.strategies import fixed_coloring_pair, honest_pair

ALL_KINDS = [ALT_RZKP, ALT_EDGE, BCS, VERTEX, GameKind(GameType.BCS, 1.0), GameKind(GameType.VERTEX, 0.0)]


def empirical_tv(kind, g, samples, seed):
    pmf = challenge_pmf(kind, g)
    counts = {}
    rng = random.Random(seed)
    for _ in range(samples):
        ch = sample_challenge(kind, g, rng)
        counts[ch] = counts.get(ch, 0) + 1
    tv = 0.0
    support = set(pmf) | set(counts)
    for ch in support:
        tv += abs(counts.get(ch, 0) / samples - pmf.get(ch, 0.0))
    return tv / 2.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pmf_sums_to_one(kind, k3, c5):
    for g in (k3, c5):
        total = sum(challenge_pmf(kind, g).values())
        assert abs(total - 1.0) < 1e-12


def test_rzkp_pmf_k3_entry(k3):
    pmf = challenge_pmf(ALT_RZKP, k3)
    assert pmf[RzkpChallenge((0, 1), (0, 2), 0)] == pytest.approx(1 / 24, abs=1e-15)
    assert len(pmf) == 18


def test_rzkp_pmf_matches_operational_decomposition(c5):
    # rebuild the distribution by simulating the sampler's branching exactly
    g = c5
    ne = len(g.edges)
    expect = {}
    for e in g.edges:
        for b in (0, 1):
            for v in e:
                for u in g.adjacency[v]:
                    eb = (v, u) if v < u else (u, v)
                    ch = RzkpChallenge(e, eb, b)
                    w = Fraction(1, ne) * Fraction(1, 2) * Fraction(1, 2) * Fraction(1, g.degree(v))
                    expect[ch] = expect.get(ch, Fraction(0)) + w
    pmf = challenge_pmf(ALT_RZKP, g)
    assert set(pmf) == set(expect)
    for ch, p in expect.items():
        assert pmf[ch] == pytest.approx(float(p), abs=1e-15)


def _quadratic_rzkp_pmf(g) -> dict:
    """The alt-rzkp pmf by walking every pair of edges, the reference for the walk over touching edges."""
    ne = len(g.edges)
    pmf: dict = {}
    for i, j in g.edges:
        for ep in g.edges:
            for b in (0, 1):
                w = 0.0
                w += (int(i == ep[0]) + int(i == ep[1])) / (2 * g.degree(i))
                w += (int(j == ep[1]) + int(j == ep[0])) / (2 * g.degree(j))
                if w:
                    ch = RzkpChallenge(edge_a=(i, j), edge_b=ep, bit=b)
                    pmf[ch] = pmf.get(ch, 0.0) + w / (2 * ne)
    return pmf


@pytest.mark.parametrize("graph", ["k3", "c5", "ext-path3", "planted-20-40", "planted-100-200"])
def test_rzkp_pmf_equals_the_all_pairs_walk(graph, k3, c5, ext_path3):
    # the same keys in the same order with the same float bits: the winning sets' row order
    # and the pinned golden margins depend on all three
    g = {
        "k3": k3,
        "c5": c5,
        "ext-path3": ext_path3.full,
        "planted-20-40": gen_planted(20, 40, 1).graph,
        "planted-100-200": gen_planted(100, 200, 1).graph,
    }[graph]
    got, want = list(challenge_pmf(ALT_RZKP, g).items()), list(_quadratic_rzkp_pmf(g).items())
    assert [ch for ch, _ in got] == [ch for ch, _ in want]
    assert [p.hex() for _, p in got] == [p.hex() for _, p in want]


def test_rzkp_pmf_irregular_degrees_by_hand():
    # star with center 0: deg(0) = 3, leaves have degree 1, so the two
    # degree-weighted terms of the distribution finally differ
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    pmf = challenge_pmf(ALT_RZKP, star)
    assert pmf[RzkpChallenge((0, 1), (0, 2), 0)] == pytest.approx(1 / 36, abs=1e-15)
    assert pmf[RzkpChallenge((0, 1), (0, 1), 1)] == pytest.approx(1 / 9, abs=1e-15)
    per_edge = {}
    for ch, p in pmf.items():
        per_edge[ch.edge_a] = per_edge.get(ch.edge_a, 0.0) + p
    for e in star.edges:
        assert per_edge[e] == pytest.approx(1 / 3, abs=1e-12)
    assert empirical_tv(ALT_RZKP, star, 60000, seed=99) < 0.02


def test_vertex_pmf_mixture(k3):
    pmf = challenge_pmf(GameKind(GameType.VERTEX, 0.5), k3)
    assert pmf[VertexChallenge(0, 0)] == pytest.approx(1 / 6, abs=1e-15)
    assert pmf[VertexChallenge(0, 1)] == pytest.approx(1 / 6, abs=1e-15)


def test_alt_edge_single_edge_support():
    g = make_graph(2, [(0, 1)])
    pmf = challenge_pmf(ALT_EDGE, g)
    assert pmf == {
        EdgeChallenge((0, 1), 0): pytest.approx(0.5),
        EdgeChallenge((0, 1), 1): pytest.approx(0.5),
    }


def test_bcs_edge_branch_invariants(k3):
    rng = random.Random(5)
    kind = GameKind(GameType.BCS, 1.0)
    for _ in range(500):
        ch = sample_challenge(kind, k3, rng)
        assert isinstance(ch.constraint, EdgeConstraint)
        assert ch.vertex_b in ch.constraint.edge
        assert ch.color_b == ch.constraint.color


def test_rzkp_sampler_invariants(c5):
    rng = random.Random(9)
    for _ in range(2000):
        ch = sample_challenge(ALT_RZKP, c5, rng)
        assert ch.edge_a in c5.edge_set
        assert ch.edge_b in c5.edge_set
        assert set(ch.edge_a) & set(ch.edge_b)
        assert ch.bit in (0, 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sampler_matches_pmf_smoke(kind, k3):
    assert empirical_tv(kind, k3, 40000, seed=81) < 0.02


def test_empty_graph_rejected():
    g = make_graph(3, [])
    with pytest.raises(GamesError, match="^game needs a graph with at least one edge$"):
        sample_challenge(ALT_RZKP, g, random.Random(0))
    with pytest.raises(GamesError, match="^game needs a graph with at least one edge$"):
        challenge_pmf(VERTEX, g)


# ---------------------------------------------------------------------------
# Verdicts


def test_rzkp_verdict_accepts_spec_example():
    ch = RzkpChallenge((0, 1), (0, 1), 0)
    v = verdict(ALT_RZKP, ch, (0, 1, 1, 1), (0, 1))
    assert v.accept


def test_rzkp_verdict_edge_verification_reject():
    ch = RzkpChallenge((0, 1), (0, 1), 0)
    v = verdict(ALT_RZKP, ch, (0, 1, 2, 2), (0, 2))
    assert not v.accept and v.reason is Reason.EDGE_VERIFICATION


def test_rzkp_verdict_checks_both_vertices_on_equal_edges():
    ch = RzkpChallenge((0, 1), (0, 1), 1)
    # sums 0+1=1 vs 1+1=2 differ; bit-1 labels are (1, 1); B matches only vertex 0
    v = verdict(ALT_RZKP, ch, (0, 1, 1, 1), (1, 0))
    assert not v.accept and v.reason is Reason.WELL_DEFINITION


def test_rzkp_verdict_single_shared_vertex():
    ch = RzkpChallenge((0, 1), (1, 2), 0)
    # shared vertex 1 sits in slot 0 of B's edge; A's bit-0 label of 1 is w[2]
    ok = verdict(ALT_RZKP, ch, (0, 0, 1, 0), (1, 2))
    assert ok.accept
    bad = verdict(ALT_RZKP, ch, (0, 0, 1, 0), (2, 2))
    assert not bad.accept and bad.reason is Reason.WELL_DEFINITION


def test_rzkp_verdict_shared_vertex_is_first_endpoint():
    # shared vertex 1 = edge_a[0] and edge_b[1]; A's bit-1 label of 1 is w[1]
    ch = RzkpChallenge((1, 2), (0, 1), 1)
    ok = verdict(ALT_RZKP, ch, (0, 2, 0, 0), (1, 2))
    assert ok.accept
    bad = verdict(ALT_RZKP, ch, (0, 2, 0, 0), (1, 0))
    assert not bad.accept and bad.reason is Reason.WELL_DEFINITION


def test_bcs_vertex_constraint_verdict():
    ch = BcsChallenge(VertexConstraint(0), 0, 1)
    v = verdict(BCS, ch, (1, 1, 0), 1)
    assert not v.accept and v.reason is Reason.CONSTRAINT_SATISFACTION
    v2 = verdict(BCS, ch, (0, 1, 0), 1)
    assert v2.accept
    v3 = verdict(BCS, ch, (0, 1, 0), 0)
    assert not v3.accept and v3.reason is Reason.WELL_DEFINITION


def test_bcs_edge_constraint_verdict():
    ch = BcsChallenge(EdgeConstraint((0, 1), 2), 1, 2)
    v = verdict(BCS, ch, (1, 1), 1)
    assert not v.accept and v.reason is Reason.CONSTRAINT_SATISFACTION
    assert verdict(BCS, ch, (0, 1), 1).accept
    v2 = verdict(BCS, ch, (0, 1), 0)
    assert not v2.accept and v2.reason is Reason.WELL_DEFINITION


def test_vertex_verdicts():
    assert verdict(VERTEX, VertexChallenge(1, 1), 2, 2).accept
    v = verdict(VERTEX, VertexChallenge(1, 1), 2, 0)
    assert v.reason is Reason.WELL_DEFINITION
    v2 = verdict(VERTEX, VertexChallenge(0, 1), 2, 2)
    assert v2.reason is Reason.EDGE_VERIFICATION


def test_verdict_malformed_never_raises():
    ch = RzkpChallenge((0, 1), (0, 1), 0)
    assert verdict(ALT_RZKP, ch, 0, (0, 1)).reason is Reason.MALFORMED
    assert verdict(ALT_RZKP, ch, (0, 1, 2, 5), (0, 1)).reason is Reason.MALFORMED
    assert verdict(ALT_RZKP, ch, None, None).reason is Reason.MALFORMED
    ch, three_labels = RzkpChallenge((0, 1), (1, 2), 0), (1, 0, 2)  # B's edge has two ends
    assert verdict(ALT_RZKP, ch, (0, 1, 1, 1), three_labels).reason is Reason.MALFORMED
    assert verdict(BCS, BcsChallenge(VertexConstraint(0), 0, 0), (1, 0), 1).reason is Reason.MALFORMED
    assert verdict(ALT_EDGE, VertexChallenge(0, 1), (0, 1), 0).reason is Reason.MALFORMED  # another variant's challenge
    for kind, (ch, ra, rb) in WELL_FORMED.items():  # a plain tuple equals the challenge but is none
        assert verdict(kind, ch, ra, rb).accept
        assert verdict(kind, tuple(ch), ra, rb).reason is Reason.MALFORMED


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
       st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 1))
def test_verdict_is_pure(wa, wb, b):
    ch = RzkpChallenge((0, 1), (1, 2), b)
    first = verdict(ALT_RZKP, ch, wa, wb)
    for _ in range(3):
        assert verdict(ALT_RZKP, ch, wa, wb) == first


# per variant, a challenge and a well-formed answer pair; each of the answers
# below breaks one side's shape and nothing else
WELL_FORMED = {
    ALT_RZKP: (RzkpChallenge((0, 1), (0, 1), 0), (0, 1, 1, 1), (0, 1)),
    ALT_EDGE: (EdgeChallenge((0, 1), 0), (0, 1), 0),
    BCS: (BcsChallenge(EdgeConstraint((0, 1), 2), 1, 2), (0, 1), 1),
    VERTEX: (VertexChallenge(0, 1), 2, 1),
}


def _wrong_shapes(payload):
    if isinstance(payload, int):  # a tuple where an int is due, and a value off the range
        return [(payload,), (0, 1), None, 3, -1]
    return [payload + (0,), payload[:-1], 0, None, (5,) + payload[1:]]  # one too long or short, an int, off the range


@pytest.mark.parametrize("kind", list(WELL_FORMED), ids=lambda k: k.game.value)
def test_verdict_rejects_wrong_payload_shapes_as_malformed(kind):
    ch, ra, rb = WELL_FORMED[kind]
    assert verdict(kind, ch, ra, rb).accept
    for bad in _wrong_shapes(ra):
        assert verdict(kind, ch, bad, rb).reason is Reason.MALFORMED, ("a", bad)
    for bad in _wrong_shapes(rb):
        assert verdict(kind, ch, ra, bad).reason is Reason.MALFORMED, ("b", bad)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verdict_total_under_response_fuzz(data):
    # arbitrary (possibly garbage) payloads -- ints, tuples of any length up to
    # 5, None -- must yield a verdict, never an exception, for every game kind
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    kind = data.draw(st.sampled_from([ALT_RZKP, ALT_EDGE, BCS, VERTEX]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    ch = sample_challenge(kind, g, rng)
    values = st.integers(-2, 5)
    payloads = st.one_of(values, st.lists(values, max_size=5).map(tuple), st.none())
    v = verdict(kind, ch, data.draw(payloads), data.draw(payloads))
    assert isinstance(v.accept, bool)
    if not v.accept:
        assert v.reason is not None


def test_half_accessors():
    ch = RzkpChallenge((0, 1), (1, 2), 1)
    assert SPECS[GameType.ALT_RZKP].half_a(ch) == (0, 1)
    assert SPECS[GameType.ALT_RZKP].half_b(ch) == ((1, 2), 1)
    bch = BcsChallenge(VertexConstraint(2), 2, 1)
    assert SPECS[GameType.BCS].half_a(bch) == VertexConstraint(2)
    assert SPECS[GameType.BCS].half_b(bch) == (2, 1)


# ---------------------------------------------------------------------------
# Round loop


@pytest.mark.parametrize("kind", [ALT_RZKP, ALT_EDGE, BCS, VERTEX])
def test_honest_pair_always_accepted(kind):
    inst = gen_planted(8, 14, seed=3)
    stats, _ = play_rounds(kind, inst.graph, honest_pair(inst), 3000, seed=4)
    assert stats.win_rate == 1.0


def test_zero_rounds_degenerate(k3):
    inst = gen_planted(3, 3, seed=12)
    stats, log = play_rounds(VERTEX, inst.graph, honest_pair(inst), 0, seed=0)
    assert stats.rounds == 0 and stats.win_rate == 1.0 and stats.degenerate
    with pytest.raises(GamesError, match="^negative round count$"):
        play_rounds(VERTEX, inst.graph, honest_pair(inst), -1, seed=0)


def test_fixed_coloring_on_k4_edge_branch(k4):
    kind = GameKind(GameType.VERTEX, 0.0)
    pair = fixed_coloring_pair((0, 1, 2, 0))
    stats, _ = play_rounds(kind, k4, pair, 30000, seed=11)
    lo, hi = stats.wilson_95
    assert lo <= 5 / 6 <= hi
    assert abs(stats.win_rate - 5 / 6) < 0.01


def test_play_rounds_deterministic(k3):
    inst = gen_planted(3, 3, seed=12)
    s1, _ = play_rounds(ALT_RZKP, inst.graph, honest_pair(inst), 200, seed=3)
    s2, _ = play_rounds(ALT_RZKP, inst.graph, honest_pair(inst), 200, seed=3)
    assert s1 == s2


def test_strategy_errors_become_malformed(k3):
    class Broken:
        def respond(self, kind, ch, rng):
            raise RuntimeError("boom")

    stats, log = play_rounds(VERTEX, k3, Broken(), 50, seed=0, keep_log=True)
    assert stats.accepts == 0
    assert all(t.verdict.reason is Reason.MALFORMED for t in log)


def test_transcript_json_lines(k3):
    inst = gen_planted(3, 3, seed=12)
    _, log = play_rounds(ALT_RZKP, inst.graph, honest_pair(inst), 5, seed=0, keep_log=True)
    for t in log:
        rec = json.loads(transcript_to_json_line(t))
        assert rec["round"] == t.round
        assert rec["verdict"] == "accept"
        assert set(rec) == {"round", "challenge", "responses", "verdict", "reason"}


def test_transcript_verdicts_replayable():
    inst = gen_planted(6, 9, seed=1)
    for kind in (ALT_RZKP, BCS):
        _, log = play_rounds(kind, inst.graph, honest_pair(inst), 300, seed=5, keep_log=True)
        for t in log:
            assert verdict(kind, t.challenge, t.response_a, t.response_b) == t.verdict


def test_wilson_interval_sane():
    lo, hi = wilson_interval(90, 100)
    assert 0.8 < lo < 0.9 < hi < 0.97
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_wilson_interval_endpoints_are_exact():
    for n in range(1, 3000):
        assert wilson_interval(0, n)[0] == 0.0 and wilson_interval(n, n)[1] == 1.0, n
        assert 0.0 < wilson_interval(0, n)[1] and wilson_interval(n, n)[0] < 1.0, n


def test_mix_validation():
    with pytest.raises(ValueError):
        GameKind(GameType.BCS, 1.5)
