"""The interned challenge tables against the samplers they replaced.

Each variant's replay packs a round's draws into a key, and the table gives
the key's interned challenge. These tests hold `sample_challenge` (one round
of the replay) to `reference_sample`, which builds a fresh challenge per
draw: the same challenges from the same words, the rng left at the same
word, and members that are equal, hash alike and serialise alike. The
`word-stream` case runs the replay one round at a time on a `WordStream`
whose small buffer ends inside many rounds.
"""

import copy
import pickle
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

from colorproof import engine, games
from colorproof.engine import WordStream
from colorproof.games import (
    SPECS,
    GameKind,
    GameType,
    challenge_pmf,
    challenge_table,
    play_rounds,
    sample_challenge,
)
from colorproof.graphs import Graph, gen_planted, make_graph
from colorproof.strategies import fixed_coloring_pair, honest_pair
from reference_stream import reference_sample


def _degree_one() -> Graph:
    # a path with a pendant triangle: vertices 0 and 5 have one neighbour
    return make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])


GRAPHS = {
    "k3": lambda: make_graph(3, [(0, 1), (1, 2), (0, 2)]),
    "degree-one": _degree_one,
    "planted-40-300": lambda: gen_planted(40, 300, 2).graph,  # more than 256 edges: 9-bit edge draws
}
KINDS = [GameKind(game, mix) for game in GameType for mix in (0.0, 0.5, 1.0)]
kind_ids = lambda k: f"{k.game.value}-{k.mix}"  # noqa: E731


def _no_trail(s: WordStream) -> np.ndarray:
    """A stream with no trailing draw: `trail_end[q]` is q."""
    return np.arange(len(s.words) + 1)


def _replayed(t: games.ChallengeTable, stream: WordStream) -> int:
    """One round of `t.spec.replay` on a `_no_trail` stream, drawing more words where the buffer ends."""
    keys, starts = [], []
    while not keys:
        try:
            t.spec.replay(t, stream, 1, keys, starts)
        except IndexError:
            stream.extend(7)
    stream.pos = starts[0]
    return t[keys[0]]


def _next_word(rng) -> int:
    """The rng's next 32-bit word (a WordStream's next unconsumed word)."""
    if isinstance(rng, WordStream):
        if rng.pos == len(rng.words):
            rng.extend(1)
        rng.pos += 1
        return rng.words[rng.pos - 1]
    return rng.getrandbits(32)


def test_graphs_cover_the_draw_widths():
    assert len(GRAPHS["planted-40-300"]().edges).bit_length() > 8
    assert 1 in {len(a) for a in GRAPHS["degree-one"]().adjacency}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind", KINDS, ids=kind_ids)
@pytest.mark.parametrize("stream", [False, True], ids=["random", "word-stream"])
def test_sampler_matches_reference_word_for_word(name, kind, stream):
    g = GRAPHS[name]()
    for seed in (1, 2):
        ref = random.Random(seed)
        rng = WordStream(random.Random(seed), _no_trail) if stream else random.Random(seed)
        if stream:
            rng.extend(7)  # a small buffer: the draws cross many refills
        t = challenge_table(kind, g)
        for _ in range(1500):
            want = reference_sample(kind, g, ref)
            # the replay one round at a time on a WordStream with no trailing draw, else the scalar loop's
            got = t.members[_replayed(t, rng)] if stream else sample_challenge(kind, g, rng)
            assert got == want
        assert _next_word(rng) == ref.getrandbits(32)


@pytest.mark.parametrize("name", ["k3", "degree-one"])
@pytest.mark.parametrize("kind", KINDS, ids=kind_ids)
def test_members_are_plain_challenges(name, kind):
    g = GRAPHS[name]()
    pmf = challenge_pmf(kind, g)
    rng = random.Random(9)
    drawn = [sample_challenge(kind, g, rng) for _ in range(4000)]
    t = challenge_table(kind, g)
    assert set(t.members) == set(pmf)  # the whole support was drawn
    spec = SPECS[kind.game]
    for ch in t.members:
        fresh = replace(ch)
        assert fresh is not ch and type(fresh) is type(ch) is spec.challenge
        assert fresh == ch and ch == fresh and hash(fresh) == hash(ch)
        assert pmf[ch] == pmf[fresh] > 0.0
        assert asdict(ch) == asdict(fresh) and repr(ch) == repr(fresh)
        assert spec.to_json(ch) == spec.to_json(fresh)
    member_ids = {id(ch) for ch in t.members}
    assert all(id(ch) in member_ids for ch in drawn)  # every draw returns a member, never a copy


def test_asdict_of_a_member_is_unchanged():
    g = GRAPHS["k3"]()
    rng = random.Random(3)
    ch = sample_challenge(GameKind(GameType.BCS, 1.0), g, rng)
    want = reference_sample(GameKind(GameType.BCS, 1.0), g, random.Random(3))
    assert asdict(ch) == asdict(want)
    assert asdict(ch) == {
        "constraint": {"edge": want.constraint.edge, "color": want.constraint.color},
        "vertex_b": want.vertex_b,
        "color_b": want.color_b,
    }


@pytest.mark.parametrize("kind", [GameKind(game) for game in GameType], ids=kind_ids)
def test_large_graph_builds_only_what_is_drawn(kind):
    g = gen_planted(900, 1695, 3).graph
    ref, rng = random.Random(44), random.Random(44)
    for _ in range(2000):
        assert sample_challenge(kind, g, rng) == reference_sample(kind, g, ref)
    assert rng.getrandbits(32) == ref.getrandbits(32)
    t = challenge_table(kind, g)
    keys = {
        GameType.ALT_RZKP: 2 * sum(g.degree(i) + g.degree(j) for i, j in g.edges),
        GameType.ALT_EDGE: 2 * len(g.edges),
        GameType.BCS: 6 * len(g.edges) + 3 * g.n,
        GameType.VERTEX: g.n + len(g.edges),
    }[kind.game]
    assert len(t) == len(t.members) <= 2000 < keys
    assert len(engine.batch_rows(t, np.arange(len(t.members)))) == len(t.members)


def test_batch_rows_are_members_shapes_and_honest_reads_as_the_table_grows():
    g = GRAPHS["planted-40-300"]()
    for kind in KINDS:
        t, spec = challenge_table(kind, g), SPECS[kind.game]
        verdicts, (honest_a, honest_b) = engine.VERDICT_TABLES[kind.game], engine.HONEST_TABLES[kind.game]
        rng = random.Random(2)
        for draws in (1, 10, 300):
            for _ in range(draws):
                sample_challenge(kind, g, rng)
            want = []
            for ch in t.members:
                h_a, h_b = honest_a[spec.half_a(ch)], honest_b[spec.half_b(ch)]
                want.append([verdicts.of(ch), h_a, h_b, *honest_a.reads[h_a], *honest_b.reads[h_b]])
            assert engine.batch_rows(t, np.arange(len(t.members))).tolist() == want


def test_sampling_fills_no_verdict_or_honest_table(monkeypatch):
    verdicts = {game: engine.VerdictTable(spec) for game, spec in SPECS.items()}
    honest = {game: tuple(map(engine.HonestTable, (spec.honest_a, spec.honest_b))) for game, spec in SPECS.items()}
    monkeypatch.setattr(engine, "VERDICT_TABLES", verdicts)
    monkeypatch.setattr(engine, "HONEST_TABLES", honest)
    inst = gen_planted(20, 40, 1)
    for kind in KINDS:
        rng = random.Random(5)
        for _ in range(2000):
            sample_challenge(kind, inst.graph, rng)
    assert not any(len(t) for t in [*verdicts.values(), *(t for pair in honest.values() for t in pair)])
    play_rounds(games.VERTEX, inst.graph, honest_pair(inst), 50, 1)  # the batch engine makes its tables' rows
    assert len(verdicts[GameType.VERTEX]) and all(map(len, honest[GameType.VERTEX]))


def test_threads_sharing_a_table_get_one_index_per_key(race):
    g = gen_planted(60, 150, 4).graph
    kind = games.ALT_RZKP
    t = challenge_table(kind, g)

    def draw(seed):
        rng = random.Random(seed)
        for _ in range(3000):
            sample_challenge(kind, g, rng)

    race(draw, timeout=60)
    assert sorted(t.values()) == list(range(len(t.members)))
    for key, idx in t.items():
        assert t.members[idx] == SPECS[kind.game].member(t, key)


def test_tables_live_on_the_graph():
    g = GRAPHS["k3"]()
    t = challenge_table(games.BCS, g)
    assert challenge_table(GameKind(GameType.BCS, 0.5), g) is t
    assert challenge_table(GameKind(GameType.BCS, 0.25), g) is not t
    assert challenge_table(games.BCS, GRAPHS["k3"]()) is not t  # an equal graph has its own tables
    with pytest.raises(games.GamesError, match="^game needs a graph with at least one edge$"):
        challenge_table(games.BCS, make_graph(2, []))


def test_graph_with_tables_still_pickles_and_copies():
    g = GRAPHS["degree-one"]()
    want = [sample_challenge(kind, g, random.Random(6)) for kind in KINDS]
    for other in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert other == g and "challenge_tables" not in vars(other)
        assert [sample_challenge(kind, other, random.Random(6)) for kind in KINDS] == want


@pytest.mark.parametrize("game", list(GameType))
def test_logged_batch_rounds_share_response_objects(game):
    inst = gen_planted(20, 40, 1)
    kind = GameKind(game)
    for pair in (honest_pair(inst), fixed_coloring_pair(inst.witness)):
        _, log = play_rounds(kind, inst.graph, pair, 600, 8, keep_log=True)
        _, again = play_rounds(kind, inst.graph, pair, 600, 9, keep_log=True)
        for side in ("response_a", "response_b"):
            values = {getattr(t, side) for t in log + again}
            assert len({id(getattr(t, side)) for t in log + again}) == len(values)
