"""The batch round engine against the scalar round loop and the scalar verdict.

`play_rounds` replays the built-in classical pairs and the Born-rule pairs
from the rng's words in bulk. These tests pin the three things that path
relies on: the word stream reproduces CPython's `random.Random` draw for
draw, the verdict tables it gathers from equal `verdict()` on challenges with
colliding vertex ids, and whole runs equal the scalar loop, which a pair
rebuilt with wrapped callables or a `respond` patched or overridden still
takes, as does a Born pair whose distribution raises on some challenge.
"""

import dataclasses
import random

import numpy as np
import pytest

from colorproof import engine, games
from colorproof.engine import JointSampler, WordStream
from colorproof.games import (
    ALT_EDGE,
    ALT_RZKP,
    BCS,
    SPECS,
    VERDICT_OF_CODE,
    VERTEX,
    BcsChallenge,
    EdgeChallenge,
    EdgeConstraint,
    GameKind,
    GameType,
    LabellingDraw,
    Reason,
    RzkpChallenge,
    VertexChallenge,
    VertexConstraint,
    labelled_answer_a,
    labelled_answer_b,
    play_rounds,
    verdict,
)
from colorproof.graphs import PlantedInstance, gen_planted, make_graph, three_color
from colorproof.quantum import BornPair, arbitrary_strategy, random_strategy
from colorproof.strategies import ClassicalStrategyPair, fixed_coloring_pair, honest_pair, mismatched_pair
from reference_quantum import dense, rebuilt
from reference_stream import ReferenceStream

# ---------------------------------------------------------------------------
# The interpreter contract: WordStream replays random.Random word for word

RANGES = [1, 2, 3, 5, 6, 7, 8, 9, 255, 256, 257, 2**16 - 1, 2**16, 2**16 + 1, 2**20 - 1, 2**20]


def _next_word_agrees(stream: WordStream, ref: random.Random) -> bool:
    """Both sides stand at the same word of the stream (and step past it)."""
    if stream.pos == len(stream.words):
        stream.extend(1)
    stream.pos += 1
    return stream.words[stream.pos - 1] == ref.getrandbits(32)


@pytest.mark.parametrize("n", RANGES)
def test_word_stream_replays_randrange_across_refills(n):
    ref, stream = random.Random(n), ReferenceStream(random.Random(n))
    stream.extend(3)  # a tiny first buffer: the draws below cross many refills
    assert [stream.randrange(n) for _ in range(6000)] == [ref.randrange(n) for _ in range(6000)]
    assert _next_word_agrees(stream, ref)


def test_word_stream_replays_random_and_mixed_draws():
    ref, stream = random.Random(11), ReferenceStream(random.Random(11))
    stream.extend(1)
    mix = random.Random(12)
    for _ in range(20000):
        op = mix.randrange(4)
        if op == 0:
            assert stream.random() == ref.random()
        elif op == 1:
            n = mix.choice(RANGES)
            assert stream.randrange(n) == ref.randrange(n)
        elif op == 2:
            k = mix.randrange(0, 40)
            first = stream.skip_labels(k)
            assert first <= stream.pos
            for _ in range(k):
                ref.randrange(3)
        else:
            stream.drop_consumed()
        assert _next_word_agrees(stream, ref)


def test_word_stream_rejects_an_empty_range():
    stream = ReferenceStream(random.Random(0))
    with pytest.raises(ValueError):
        stream.randrange(0)


def test_permutation_draw_rejects_the_words_a_label_draw_rejects():
    # randrange(6) reads the top 3 bits and randrange(3) the top 2 of a word;
    # the batch engine skips the permutation as one more label draw
    for top in range(256):
        assert ((top >> 5) >= 6) == ((top >> 6) == 3)


# ---------------------------------------------------------------------------
# Verdict tables against the scalar verdict


def _value(rng: random.Random, hi: int) -> int:
    """Mostly in [0, hi], sometimes just outside it."""
    return rng.choice([-1, hi + 1, 7]) if rng.random() < 0.08 else rng.randrange(hi + 1)


def _random_round(game: GameType, rng: random.Random):
    """A challenge with small vertex ids (so that they collide) and int payloads for both provers."""
    v = lambda: rng.randrange(4)  # noqa: E731
    if game is GameType.ALT_RZKP:
        ch = RzkpChallenge((v(), v()), (v(), v()), _value(rng, 1))
        return ch, tuple(_value(rng, 2) for _ in range(4)), tuple(_value(rng, 2) for _ in range(2))
    if game is GameType.ALT_EDGE:
        return EdgeChallenge((v(), v()), v()), (_value(rng, 2), _value(rng, 2)), _value(rng, 2)
    if game is GameType.BCS:
        if rng.random() < 0.5:
            con = EdgeConstraint((v(), v()), rng.randrange(3))
            ch = BcsChallenge(con, rng.choice(con.edge + (v(),)), rng.choice([con.color, rng.randrange(3)]))
            bits = (_value(rng, 1), _value(rng, 1))
        else:
            con = VertexConstraint(v())
            ch = BcsChallenge(con, rng.choice([con.vertex, v()]), rng.randrange(3))
            bits = tuple(_value(rng, 1) for _ in range(3))
        return ch, bits, _value(rng, 1)
    a = v()
    return VertexChallenge(a, rng.choice([a, v()])), _value(rng, 2), _value(rng, 2)


EXPECTED_REASONS = {
    GameType.ALT_RZKP: {None, Reason.MALFORMED, Reason.EDGE_VERIFICATION, Reason.WELL_DEFINITION},
    GameType.ALT_EDGE: {None, Reason.MALFORMED, Reason.EDGE_VERIFICATION, Reason.WELL_DEFINITION},
    GameType.BCS: {None, Reason.MALFORMED, Reason.CONSTRAINT_SATISFACTION, Reason.WELL_DEFINITION},
    GameType.VERTEX: {None, Reason.MALFORMED, Reason.EDGE_VERIFICATION, Reason.WELL_DEFINITION},
}


@pytest.mark.parametrize("game", list(GameType))
def test_table_verdict_equals_scalar_verdict(game):
    """Each challenge's shape slice holds `verdict()` at every well-formed outcome pair, malformed elsewhere."""
    rng = random.Random(f"columns-{game.value}")
    spec, tables = SPECS[game], engine.VERDICT_TABLES[game]
    kind = GameKind(game)
    seen = set()  # (reason, bcs constraint kind)
    for _ in range(300):
        ch = _random_round(game, rng)[0]
        s = tables.of(ch)  # first: a new shape's row is added to `rows`
        table = tables.rows[s]
        well_formed = np.zeros(table.shape, bool)
        for a in spec.a_outcomes(spec.half_a(ch)):
            for b in spec.b_outcomes(spec.half_b(ch)):
                at = engine._payload_code(a), engine._payload_code(b)
                want = verdict(kind, ch, a, b)
                assert VERDICT_OF_CODE[table[at]] == want, (ch, a, b)
                well_formed[at] = True
        assert (table[~well_formed] == games.REASON_CODE[Reason.MALFORMED]).all()
        con = type(ch.constraint) if game is GameType.BCS else None
        seen |= {(VERDICT_OF_CODE[code].reason, con) for code in np.unique(table).tolist()}
    assert {reason for reason, _ in seen} == EXPECTED_REASONS[game]
    if game is GameType.BCS:  # every reason on both constraint kinds
        for con in (VertexConstraint, EdgeConstraint):
            assert {reason for reason, kind_ in seen if kind_ is con} == EXPECTED_REASONS[game]


# ---------------------------------------------------------------------------
# Whole runs: batch path against the scalar loop


def _scalar(pair):
    """The same pair with wrapped callables: play_rounds runs its scalar loop."""
    return dataclasses.replace(
        pair,
        shared=lambda *a: pair.shared(*a),
        answer_a=lambda *a: pair.answer_a(*a),
        answer_b=lambda *a: pair.answer_b(*a),
    )


def _degree_one_instance() -> PlantedInstance:
    # a path with a pendant triangle: vertices 0 and 5 have one neighbour, so rzkp draws randrange(1)
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
    return PlantedInstance(g, (0, 1, 2, 0, 1, 0))


INSTANCES = {
    "k3": PlantedInstance(make_graph(3, [(0, 1), (1, 2), (0, 2)]), (0, 1, 2)),
    "planted-20-40": gen_planted(20, 40, 1),
    "degree-one": _degree_one_instance(),
    "planted-40-300": gen_planted(40, 300, 2),  # more than 256 edges: randrange(|E|) reads 9 bits
}


def _pairs(inst: PlantedInstance) -> dict:
    shifted = tuple((c + 1) % 3 for c in inst.witness)
    return {
        "honest": honest_pair(inst),
        "fixed": fixed_coloring_pair(inst.witness),
        "mismatched": mismatched_pair(inst.witness, shifted),
    }


KINDS = [
    ALT_RZKP, ALT_EDGE, BCS, VERTEX,
    GameKind(GameType.BCS, 0.0), GameKind(GameType.BCS, 1.0),
    GameKind(GameType.VERTEX, 0.0), GameKind(GameType.VERTEX, 1.0),
]


def test_large_graph_needs_nine_bit_edge_draws():
    assert len(INSTANCES["planted-40-300"].graph.edges).bit_length() > 8
    assert 1 in {len(a) for a in INSTANCES["degree-one"].graph.adjacency}


@pytest.mark.parametrize("name", sorted(INSTANCES))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
def test_batch_equals_scalar_loop(name, kind):
    inst = INSTANCES[name]
    g = inst.graph
    for label, pair in _pairs(inst).items():
        assert games._replayable_draw(pair, g) is pair.shared, label
        assert games._replayable_draw(_scalar(pair), g) is None
        for rounds, seed in ((0, 1), (1, 2), (1, 3), (150, 4)):
            for keep_log in (True, False):
                got = play_rounds(kind, g, pair, rounds, seed, keep_log=keep_log)
                want = play_rounds(kind, g, _scalar(pair), rounds, seed, keep_log=keep_log)
                assert got == want, (label, rounds, seed, keep_log)


def test_batch_equals_scalar_across_refills_and_blocks(monkeypatch):
    inst = INSTANCES["planted-20-40"]
    g = inst.graph
    want = {
        (kind, label): play_rounds(kind, g, _scalar(pair), 300, 9, keep_log=True)
        for kind in KINDS[:4]
        for label, pair in _pairs(inst).items()
    }
    extend = WordStream.extend
    monkeypatch.setattr(WordStream, "extend", lambda self, count: extend(self, min(count, 5)))
    # a round's word bound at n = 20 is 31 to 36 words, so blocks are 13 to 16 rounds, each carrying a tail over
    monkeypatch.setattr(engine, "_BLOCK_WORDS", 500)
    for kind in KINDS[:4]:
        for label, pair in _pairs(inst).items():
            assert play_rounds(kind, g, pair, 300, 9, keep_log=True) == want[(kind, label)], (kind, label)


def test_mismatched_batch_rejects_as_scalar():
    inst = INSTANCES["planted-20-40"]
    pair = _pairs(inst)["mismatched"]
    stats, log = play_rounds(ALT_RZKP, inst.graph, pair, 2000, 3, keep_log=True)
    assert 0 < stats.accepts < stats.rounds
    assert {t.verdict.reason for t in log if not t.verdict.accept} == {Reason.WELL_DEFINITION}


# ---------------------------------------------------------------------------
# Pairs the batch path must leave to the scalar loop


FALLBACKS = {
    "short-witness": fixed_coloring_pair((0, 1, 2)),  # 4-vertex graph below
    "color-3-fixed": fixed_coloring_pair((0, 1, 2, 3)),
    "color-3-permuted": mismatched_pair((0, 1, 2, 0), (0, 1, 2, 3)),
    "color-minus-1-fixed": fixed_coloring_pair((0, 1, -1, 0)),
    "color-minus-1-permuted": mismatched_pair((0, 1, -1, 0), (0, 1, 2, 0)),
    "bool-color": fixed_coloring_pair((0, True, 2, 0)),
    "short-colors-a": ClassicalStrategyPair(
        LabellingDraw((0, 1, 2), (0, 1, 2, 0), False), labelled_answer_a, labelled_answer_b
    ),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
@pytest.mark.parametrize("kind", KINDS[:4], ids=lambda k: k.game.value)
def test_fallback_pairs_run_the_scalar_loop(name, kind):
    g = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    pair = FALLBACKS[name]
    assert games._replayable_draw(pair, g) is None
    want = play_rounds(kind, g, _scalar(pair), 200, 7, keep_log=True)
    assert play_rounds(kind, g, pair, 200, 7, keep_log=True) == want


def test_replaced_pair_runs_the_scalar_loop(monkeypatch):
    inst = INSTANCES["k3"]
    pair = honest_pair(inst)
    calls = []
    wrapped = dataclasses.replace(pair, answer_b=lambda *a: calls.append(1) or pair.answer_b(*a))
    stats, _ = play_rounds(ALT_RZKP, inst.graph, wrapped, 50, 1)
    assert stats.accepts == 50 and len(calls) == 50
    monkeypatch.setattr(games, "_play_scalar", None)  # the built-in pair never reaches the scalar loop
    assert play_rounds(ALT_RZKP, inst.graph, pair, 50, 1)[0] == stats


# ---------------------------------------------------------------------------
# Born-rule pairs: the batch path against the scalar loop


def _born(kind: GameKind, g, seed: int, arbitrary: bool = False) -> BornPair:
    rng = np.random.default_rng(seed)
    if arbitrary:
        return BornPair(arbitrary_strategy(kind.game, g, 2, 3, rng))
    return BornPair(random_strategy(kind.game, g, 2, 2, rng, jiggle=0.3, colors=three_color(g)))


def _scalar_born(pair: BornPair) -> BornPair:
    """A fresh pair of the same strategy whose `respond` is patched on the instance: the scalar loop."""
    ref = BornPair(pair.strategy)
    ref.respond = lambda *a: JointSampler.respond(ref, *a)
    return ref


@pytest.mark.parametrize("arbitrary", [False, True], ids=["near-honest", "arbitrary"])
@pytest.mark.parametrize("name", ["k3", "planted-20-40"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
def test_born_batch_equals_scalar_loop(kind, name, arbitrary):
    g = INSTANCES[name].graph
    pair = _born(kind, g, 31, arbitrary)
    assert engine._replays_jointly(pair) and not engine._replays_jointly(_scalar_born(pair))
    for rounds, seed in ((0, 1), (1, 2), (1, 3), (150, 4)):
        for keep_log in (True, False):
            got = play_rounds(kind, g, pair, rounds, seed, keep_log=keep_log)
            want = play_rounds(kind, g, _scalar_born(pair), rounds, seed, keep_log=keep_log)
            assert got == want, (rounds, seed, keep_log)


def test_born_batch_equals_scalar_across_refills_and_blocks(monkeypatch):
    g = INSTANCES["planted-20-40"].graph
    pairs = {kind: _born(kind, g, 32) for kind in KINDS[:4]}
    want = {kind: play_rounds(kind, g, _scalar_born(pair), 300, 9, keep_log=True) for kind, pair in pairs.items()}
    extend = WordStream.extend
    monkeypatch.setattr(WordStream, "extend", lambda self, count: extend(self, min(count, 5)))
    monkeypatch.setattr(engine, "_BLOCK_WORDS", 500)  # a round's word bound is 6 to 10 words: blocks of 50 to 83 rounds
    for kind, pair in pairs.items():
        assert play_rounds(kind, g, pair, 300, 9, keep_log=True) == want[kind], kind


@pytest.mark.parametrize("kind", KINDS[:4], ids=lambda k: k.game.value)
def test_joint_rows_filled_one_at_a_time_equal_one_batch_fill(kind):
    # `respond` meets challenges one at a time and grows the rows' buffers; the batch engine fills many
    # at once: both must leave the same rows, and each grown buffer must keep the rows filled before it
    g = INSTANCES["planted-20-40"].graph
    strategy = _born(kind, g, 37).strategy
    chs = list(games.challenge_pmf(kind, g))
    single, batch = BornPair(strategy), BornPair(strategy)
    for ch in chs:
        single.respond(kind, ch, random.Random(0))
    assert batch._rows.of(kind, batch, chs) == list(range(len(chs)))
    got, want = single._rows, batch._rows
    assert got.index == want.index and got.pairs == want.pairs
    assert np.array_equal(got.cum, want.cum) and np.array_equal(got.codes, want.codes)


@pytest.mark.parametrize("kind", KINDS[:4], ids=lambda k: k.game.value)
def test_joint_rows_find_equal_challenges_by_value(kind):
    # rows are keyed by value: fresh copies of the challenges met find their rows and add none
    g = INSTANCES["planted-20-40"].graph
    pair = _born(kind, g, 37)
    members = list(games.challenge_pmf(kind, g))
    rows = pair._rows.of(kind, pair, members)
    copies = [m._replace() for m in members]
    assert all(c == m and c is not m for c, m in zip(copies, members))
    assert pair._rows.of(kind, pair, copies) == rows
    assert len(pair._rows.pairs) == len(pair._rows.index) == len(members)


def test_born_verdicts_come_from_verdict_once_per_challenge_and_pair(monkeypatch):
    g = INSTANCES["planted-20-40"].graph
    calls = []
    monkeypatch.setattr(games, "verdict", lambda *a: calls.append(a[1:]) or verdict(*a))
    for kind in KINDS[:4]:
        pair = _born(kind, g, 33)
        for seed in (1, 2):
            play_rounds(kind, g, pair, 400, seed)
        pairs = [(ch, *rr) for ch, j in pair._rows.index.items() for rr in pair._rows.pairs[j]]
        assert sorted(map(repr, calls)) == sorted(map(repr, pairs)), kind
        calls.clear()


class _CountingBornPair(BornPair):
    def respond(self, kind, ch, rng):
        self.calls = getattr(self, "calls", 0) + 1
        return super().respond(kind, ch, rng)


def _without(pvms: dict, key) -> dict:
    return {k: fam for k, fam in pvms.items() if k != key}


def _born_fallbacks() -> dict:
    k3 = INSTANCES["k3"].graph
    s = _born(ALT_EDGE, k3, 34).strategy
    v = _born(VERTEX, k3, 35).strategy
    seven = {k: {(7 if out == 2 else out): p for out, p in fam.items()} for k, fam in dense(v.a).items()}
    return {
        "missing-pvm": (ALT_EDGE, rebuilt(s, pvm_a=_without(dense(s.a), (0, 1)))),
        "mass-not-one": (ALT_EDGE, dataclasses.replace(s, psi=1.1 * s.psi)),
        "color-7": (VERTEX, rebuilt(v, pvm_a=seven)),
    }


@pytest.mark.parametrize("name", ["missing-pvm", "mass-not-one", "color-7"])
def test_born_fallbacks_equal_the_scalar_loop(name):
    g = INSTANCES["k3"].graph
    kind, strategy = _born_fallbacks()[name]
    pair = BornPair(strategy)
    want = play_rounds(kind, g, _scalar_born(pair), 200, 5, keep_log=True)
    assert play_rounds(kind, g, pair, 200, 5, keep_log=True) == want
    assert play_rounds(kind, g, pair, 200, 5)[0] == want[0]
    reasons = {t.verdict.reason for t in want[1]}
    assert Reason.MALFORMED in reasons
    if name != "mass-not-one":  # the other challenges still play
        assert None in reasons


def test_patched_born_pairs_run_the_scalar_loop():
    g = INSTANCES["planted-20-40"].graph
    pair = _born(ALT_EDGE, g, 36)
    want = play_rounds(ALT_EDGE, g, pair, 300, 3, keep_log=True)
    patched = BornPair(pair.strategy)
    calls = []
    patched.respond = lambda *a: calls.append(1) or JointSampler.respond(patched, *a)
    subclassed = _CountingBornPair(pair.strategy)
    assert not engine._replays_jointly(patched) and not engine._replays_jointly(subclassed)
    assert play_rounds(ALT_EDGE, g, patched, 300, 3, keep_log=True) == want and len(calls) == 300
    assert play_rounds(ALT_EDGE, g, subclassed, 300, 3, keep_log=True) == want and subclassed.calls == 300


def test_plain_born_pair_never_reaches_the_scalar_loop(monkeypatch):
    g = INSTANCES["planted-20-40"].graph
    pairs = {kind: _born(kind, g, 37) for kind in KINDS[:4]}
    want = {kind: play_rounds(kind, g, _scalar_born(pair), 200, 6, keep_log=True) for kind, pair in pairs.items()}
    monkeypatch.setattr(games, "_play_scalar", None)
    for kind, pair in pairs.items():
        assert play_rounds(kind, g, pair, 200, 6, keep_log=True) == want[kind], kind
