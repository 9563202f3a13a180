"""Each variant's fused block replay against a per-draw reference, word for word.

`GameSpec.replay` is each variant's one draw order: it plays a block of
rounds (the challenge's draws, then the stream's trailing draw: a labelling,
or one `random()`) in one loop over a `WordStream`'s words. These tests play
the same rounds with `reference_sample` and `draw_labellings` or `random()`
on a plain `random.Random` that counts the words it reads, and ask for the
same challenges, the same trailing draw starts, the same labels or
`random()` values and the same end position, also when the buffer ends
inside a round and the replay resumes from that round after a refill.
"""

import random

import pytest

from colorproof.engine import WordStream, label_trail, random_trail
from colorproof.games import (
    DRAW_DIGITS,
    PERMS3,
    SPECS,
    GameKind,
    GameType,
    challenge_table,
    draw_labellings,
)
from colorproof.graphs import gen_planted, make_graph
from reference_stream import reference_sample


class CountingRandom(random.Random):
    """`random.Random` that counts the 32-bit words it reads (`randrange` reads them through `getrandbits`)."""

    def seed(self, *args, **kwargs):
        self.words = 0
        super().seed(*args, **kwargs)

    def getrandbits(self, k: int) -> int:
        self.words += -(-k // 32)
        return super().getrandbits(k)

    def random(self) -> float:
        self.words += 2
        return super().random()


GRAPHS = {
    "k3": lambda: make_graph(3, [(0, 1), (1, 2), (0, 2)]),
    "planted-20-40": lambda: gen_planted(20, 40, 1).graph,
    # a path with a pendant triangle: vertices 0 and 5 have one neighbour, so rzkp draws randrange(1)
    "degree-one": lambda: make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]),
    "planted-40-300": lambda: gen_planted(40, 300, 2).graph,  # more than 256 edges: randrange(|E|) reads 9 bits
}
KINDS = [GameKind(GameType.ALT_RZKP), GameKind(GameType.ALT_EDGE)] + [
    GameKind(game, mix) for game in (GameType.BCS, GameType.VERTEX) for mix in (0.0, 0.5, 1.0)
]
ROUNDS = 300


def test_graphs_cover_the_draw_widths():
    assert len(GRAPHS["planted-40-300"]().edges) >= 256
    assert 1 in {len(a) for a in GRAPHS["degree-one"]().adjacency}


def _reference(kind: GameKind, g, trailing, seed: int):
    """Per round: the challenge, the trailing draw's first word and its value, the words read so far."""
    rng = CountingRandom(seed)
    rounds = []
    for _ in range(ROUNDS):
        ch = reference_sample(kind, g, rng)
        first = rng.words
        rounds.append((ch, first, trailing(rng), rng.words))
    return rounds


def _accepted_before(seed: int, words: int) -> list:
    """`rank[p]` for p <= words: how many words before p `randrange(3)` accepts, read one at a time."""
    rng = random.Random(seed)
    rank = [0]
    for _ in range(words):
        rank.append(rank[-1] + (rng.getrandbits(32) >> 30 != 3))
    return rank


def _replay(kind: GameKind, g, stream: WordStream, want: list, buffer) -> tuple[list, list]:
    """`spec.replay` of the rounds of `want`, resuming after each refill as the engine does."""
    t = challenge_table(kind, g)
    end_of = [0] + [end for _, _, _, end in want]
    stream.extend(buffer or end_of[-1] + 64)
    keys, starts = [], []
    for _ in range(end_of[-1]):  # refills of 29 words: some rounds fit, some resume after one or two more
        # after the last whole round, as the engine resumes
        stream.pos = stream.trail_end[starts[-1]] if starts else 0
        assert stream.pos == end_of[len(keys)]
        try:
            SPECS[kind.game].replay(t, stream, ROUNDS - len(keys), keys, starts)
            break
        except IndexError:  # the buffer ended inside a round
            assert buffer and len(keys) == len(starts) < ROUNDS
            stream.extend(29)
    assert stream.trail_end[starts[-1]] == end_of[-1]
    assert [t.members[t[key]] for key in keys] == [ch for ch, _, _, _ in want]
    assert starts == [first for _, first, _, _ in want]
    return keys, starts


@pytest.mark.parametrize("buffer", [None, 3], ids=["one-buffer", "tiny-refills"])
@pytest.mark.parametrize("permute", [True, False], ids=["permute", "fixed"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
def test_replay_matches_sample_word_for_word(kind, name, permute, buffer):
    g = GRAPHS[name]()
    seed = 7
    colors = [v % 3 for v in range(g.n)]
    want = _reference(kind, g, lambda rng: draw_labellings(colors, colors, permute, rng)[0], seed)
    draws = g.n + 1 if permute else g.n
    stream = WordStream(random.Random(seed), label_trail(draws))
    _, starts = _replay(kind, g, stream, want, buffer)
    rank = _accepted_before(seed, want[-1][-1])
    assert [stream.rank[start] for start in starts] == [rank[first] for _, first, _, _ in want]
    # the accepted words from each start decode to the round's labelling
    words, accepted = stream.words, stream.accepted
    for start, (_, _, lab, _) in zip(starts, want):
        digits = [DRAW_DIGITS[words[accepted[stream.rank[start] + k]] >> 24] for k in range(draws)]
        if permute:
            perm = PERMS3[digits.pop(0)]
            assert lab.colors == tuple(perm[c] for c in colors)
        assert lab.w0 == tuple(d >> 1 for d in digits)


@pytest.mark.parametrize("buffer", [None, 3], ids=["one-buffer", "tiny-refills"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
def test_replay_with_a_random_trail_matches_sample(kind, name, buffer):
    """A joint sampler's round: the challenge's draws, then one `random()` from the two words at the start."""
    g = GRAPHS[name]()
    want = _reference(kind, g, lambda rng: rng.random(), 8)
    stream = WordStream(random.Random(8), random_trail)
    _, starts = _replay(kind, g, stream, want, buffer)
    words = stream.words
    for start, (_, _, u, _) in zip(starts, want):
        assert ((words[start] >> 5) * 67108864.0 + (words[start + 1] >> 6)) * (1.0 / 9007199254740992.0) == u


def test_replay_stops_at_the_buffer_end():
    g = GRAPHS["planted-20-40"]()
    # 50 words are not enough for two rounds of 21 labels, 7 not for two rounds of at least 4 words
    for trail, words in ((label_trail(g.n + 1), 50), (random_trail, 7)):
        for kind in KINDS:
            stream = WordStream(random.Random(3), trail)
            stream.extend(words)
            keys, starts = [], []
            with pytest.raises(IndexError):
                SPECS[kind.game].replay(challenge_table(kind, g), stream, 10, keys, starts)
            assert len(keys) == len(starts) < 2
