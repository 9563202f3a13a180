import itertools
import random
from fractions import Fraction

import pytest

from colorproof.games import (
    ALT_EDGE,
    ALT_RZKP,
    BCS,
    SPECS,
    VERTEX,
    EdgeChallenge,
    GameKind,
    GameType,
    Reason,
    RzkpChallenge,
    Transcript,
    Verdict,
    play_rounds,
    sample_challenge,
)
from colorproof.graphs import PlantedInstance, gen_planted, make_graph, three_color
from colorproof.strategies import (
    ADMISSIBLE_QUADS,
    StrategiesError,
    brute_force_vertex3col_value,
    fixed_coloring_pair,
    honest_pair,
    mismatched_pair,
    transcript_uniformity,
    uniformity_by_edge,
)


def test_admissible_quadruple_count():
    assert len(ADMISSIBLE_QUADS) == 54


def test_honest_accepted_all_kinds():
    inst = gen_planted(10, 18, seed=5)
    for kind in (ALT_RZKP, ALT_EDGE, BCS, VERTEX):
        stats, _ = play_rounds(kind, inst.graph, honest_pair(inst), 2000, seed=9)
        assert stats.win_rate == 1.0, kind


def test_honest_quadruples_uniform_over_54():
    inst = gen_planted(3, 3, seed=12)
    pair = honest_pair(inst)
    _, log = play_rounds(ALT_RZKP, inst.graph, pair, 120000, seed=21, keep_log=True)
    rep = transcript_uniformity(log, (0, 1))
    assert rep.support == 54
    assert rep.tv_from_uniform < 0.03


def test_honest_b_pair_uniform_over_nine():
    inst = gen_planted(3, 3, seed=12)
    pair = honest_pair(inst)
    _, log = play_rounds(ALT_RZKP, inst.graph, pair, 60000, seed=22, keep_log=True)
    counts = {}
    n = 0
    for t in log:
        counts[t.response_b] = counts.get(t.response_b, 0) + 1
        n += 1
    assert len(counts) == 9
    tv = sum(abs(c / n - 1 / 9) for c in counts.values()) / 2
    assert tv < 0.02


def test_fixed_coloring_well_definition_always_accepts(k3):
    pair = fixed_coloring_pair((0, 1, 2))
    kind = GameKind(GameType.VERTEX, 1.0)
    stats, _ = play_rounds(kind, k3, pair, 500, seed=0)
    assert stats.win_rate == 1.0


def test_fixed_coloring_k4_rejected_exactly_on_monochromatic_edge(k4):
    pair = fixed_coloring_pair((0, 1, 2, 0))
    kind = GameKind(GameType.VERTEX, 0.0)
    _, log = play_rounds(kind, k4, pair, 4000, seed=1, keep_log=True)
    for t in log:
        mono = (t.challenge.vertex_a, t.challenge.vertex_b) == (0, 3)
        assert t.verdict.accept == (not mono)


def test_fixed_coloring_proper_k3_wins(k3):
    stats, _ = play_rounds(VERTEX, k3, fixed_coloring_pair((0, 1, 2)), 1000, seed=2)
    assert stats.win_rate == 1.0


def test_brute_force_k4(k4):
    value, argmax = brute_force_vertex3col_value(k4)
    assert value == Fraction(5, 6)
    # the argmax is the lexicographically smallest coloring achieving 5/6
    best = min(
        c
        for c in itertools.product((0, 1, 2), repeat=4)
        if sum(c[i] == c[j] for i, j in k4.edges) == 1
    )
    assert argmax == best


def test_brute_force_three_colorable(k3, c5):
    assert brute_force_vertex3col_value(k3)[0] == 1
    assert brute_force_vertex3col_value(c5)[0] == 1


def test_brute_force_too_large():
    g = make_graph(17, [(0, 1)])
    with pytest.raises(StrategiesError, match=r"^3\^17 colorings is past the brute-force envelope \(n <= 16\)$"):
        brute_force_vertex3col_value(g)
    with pytest.raises(StrategiesError, match="^graph has no edges$"):
        brute_force_vertex3col_value(make_graph(3, []))


@pytest.mark.parametrize("seed", range(10))
def test_brute_force_classical_ceiling(seed):
    rng = random.Random(seed + 900)
    n = rng.randrange(4, 9)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.75]
    if not edges:
        edges = [(0, 1)]
    g = make_graph(n, edges)
    value, argmax = brute_force_vertex3col_value(g)
    colorable = three_color(g) is not None
    assert (value == 1) == colorable
    if not colorable:
        assert value <= 1 - Fraction(1, len(g.edges))


def test_brute_force_chunking_equivalence(monkeypatch):
    # the chunked enumeration must agree with a one-chunk pass, including the
    # lexicographically-smallest argmax across chunk boundaries
    import colorproof.strategies as strategies_mod

    rng = random.Random(1234)
    g = make_graph(7, [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.7])
    whole = brute_force_vertex3col_value(g)
    monkeypatch.setattr(strategies_mod, "_BRUTE_CHUNK", 97)  # tiny, not a power of 3
    assert brute_force_vertex3col_value(g) == whole


def test_no_signaling_challenge_swap():
    inst = gen_planted(6, 9, seed=1)
    pair = honest_pair(inst)
    rng = random.Random(33)
    for kind in (ALT_RZKP, ALT_EDGE, BCS, VERTEX):
        ch1 = sample_challenge(kind, inst.graph, rng)
        ch2 = sample_challenge(kind, inst.graph, rng)
        shared = pair.shared(kind, inst.graph, random.Random(77))
        # A's answer depends only on A's half: swap B's half freely
        spec = SPECS[kind.game]
        a1 = pair.answer_a(kind, spec.half_a(ch1), shared)
        a1_again = pair.answer_a(kind, spec.half_a(ch1), shared)
        assert a1 == a1_again
        b1 = pair.answer_b(kind, spec.half_b(ch2), shared)
        assert pair.answer_b(kind, spec.half_b(ch2), shared) == b1


def test_transcript_uniformity_no_samples(k3):
    inst = gen_planted(3, 3, seed=12)
    _, log = play_rounds(ALT_RZKP, inst.graph, honest_pair(inst), 10, seed=3, keep_log=True)
    with pytest.raises(StrategiesError, match=r"^no transcripts carry A-challenge \(40, 41\)$"):
        transcript_uniformity(log, (40, 41))


def test_uniformity_by_edge_is_one_pass_of_per_edge_reports():
    inst = gen_planted(12, 20, seed=4)
    g = inst.graph
    _, log = play_rounds(ALT_RZKP, g, honest_pair(inst), 3000, seed=5, keep_log=True)
    passes = []

    def once():  # a single-use iterator that counts how often it is started
        passes.append(1)
        yield from log

    reports = uniformity_by_edge(once(), [list(e) for e in g.edges])
    assert len(passes) == 1 and list(reports) == list(g.edges)
    assert reports == {e: transcript_uniformity(log, e) for e in g.edges}
    with pytest.raises(StrategiesError, match=r"^no transcripts carry A-challenge \(40, 41\)$"):
        uniformity_by_edge(log, [g.edges[0], (40, 41)])


def test_uniformity_by_edge_on_hand_built_transcripts():
    ok, timeout = Verdict(True), Verdict(False, Reason.TIMEOUT)
    ch = RzkpChallenge((0, 1), (1, 2), 0)

    def rzkp(w, challenge=ch):
        return Transcript(0, challenge, w, (0, 0), ok)

    log = [
        rzkp((0, 1, 0, 0)),
        rzkp((0, 1, 0, 0)),
        rzkp((1, 1, 0, 0)),
        rzkp((0, 0, 1, 2)),  # inadmissible: both sums are 0 mod 3
        Transcript(0, EdgeChallenge((0, 1), 0), (2, 2, 2, 2), None, ok),  # not alt-rzkp
        rzkp((2, 2, 2, 2), RzkpChallenge((1, 2), (0, 1), 1)),  # another A edge
        Transcript(0, ch, None, None, timeout),  # no answer from A
    ]
    rep = uniformity_by_edge(log, [(0, 1)])[(0, 1)]
    assert (rep.samples, rep.support) == (4, 3)
    assert rep.counts == {"0,0,1,2": 1, "0,1,0,0": 2, "1,1,0,0": 1}
    # TV = 1 - sum over admissible q of min(p(q), 1/54) = 1 - 2/54, the inadmissible 1/4 included in full
    assert rep.tv_from_uniform == pytest.approx(26 / 27, rel=1e-12)


def test_fixed_coloring_transcripts_collapse(k3):
    inst = gen_planted(3, 3, seed=12)
    pair = fixed_coloring_pair(inst.witness)
    _, log = play_rounds(ALT_RZKP, inst.graph, pair, 30000, seed=6, keep_log=True)
    rep = transcript_uniformity(log, (0, 1))
    assert rep.support <= 9
    assert rep.tv_from_uniform > 0.1


def test_uniformity_report_is_json_serializable():
    import dataclasses
    import json

    inst = gen_planted(3, 3, seed=12)
    _, log = play_rounds(ALT_RZKP, inst.graph, honest_pair(inst), 3000, seed=44, keep_log=True)
    rep = transcript_uniformity(log, (0, 1))
    doc = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert doc["samples"] == rep.samples
    assert sum(doc["counts"].values()) == rep.samples


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: honest_pair(PlantedInstance(make_graph(3, [(0, 1)]), ())), "instance has no witness"),
        (lambda: mismatched_pair((0, 1, 2), (0, 1)), "colorings must have equal length"),
    ],
    ids=["no-witness", "unequal-colorings"],
)
def test_pairs_refuse_colorings_they_cannot_answer_from(build, message):
    with pytest.raises(StrategiesError, match=f"^{message}$"):
        build()


def test_mismatched_pair_rejects_only_well_definition():
    inst = gen_planted(6, 9, seed=1)
    other = three_color(inst.graph)
    assert other is not None
    if tuple(other) == inst.witness:
        other = tuple((c + 1) % 3 for c in other)
    pair = mismatched_pair(inst.witness, other)
    stats, log = play_rounds(ALT_RZKP, inst.graph, pair, 5000, seed=8, keep_log=True)
    reasons = {t.verdict.reason for t in log if not t.verdict.accept}
    assert reasons == {Reason.WELL_DEFINITION}
    assert 0 < stats.win_rate < 1
