"""Per-draw references: CPython's draws replayed one call at a time.

Each variant's draw order is written once, as its fused replay loop
(`GameSpec.replay`). `reference_sample` builds a challenge from
`random.Random`'s own `randrange` and `random()` calls instead, as the
reference the tests hold each replay to. `ReferenceStream` keeps the
draw-at-a-time reading of a `WordStream`'s words, as the reference the tests
hold the stream to. `round_labelling` is a wire prover's whole labelling of a
round, drawn with `draw_labellings`, which the prover's partial decode must
match.
"""

from colorproof.engine import WordStream, random_trail
from colorproof.games import (
    BcsChallenge,
    Challenge,
    EdgeChallenge,
    EdgeConstraint,
    GameKind,
    GameType,
    Labelled,
    RzkpChallenge,
    VertexChallenge,
    VertexConstraint,
    draw_labellings,
)
from colorproof.graphs import Graph
from colorproof.seeds import substream


def reference_sample(kind: GameKind, g: Graph, rng) -> Challenge:
    """One challenge built from `rng`'s `randrange` and `random()` draws, in each variant's draw order."""
    if kind.game is GameType.ALT_RZKP:
        i, j = g.edges[rng.randrange(len(g.edges))]
        b = rng.randrange(2)
        v = i if rng.randrange(2) == 0 else j
        nbrs = g.adjacency[v]
        u = nbrs[rng.randrange(len(nbrs))]
        return RzkpChallenge(edge_a=(i, j), edge_b=(v, u) if v < u else (u, v), bit=b)
    if kind.game is GameType.ALT_EDGE:
        i, j = g.edges[rng.randrange(len(g.edges))]
        return EdgeChallenge(edge_a=(i, j), vertex_b=i if rng.randrange(2) == 0 else j)
    if kind.game is GameType.BCS:
        if rng.random() < kind.mix:
            e = g.edges[rng.randrange(len(g.edges))]
            alpha = rng.randrange(3)
            return BcsChallenge(EdgeConstraint(edge=e, color=alpha), vertex_b=e[rng.randrange(2)], color_b=alpha)
        i = rng.randrange(g.n)
        return BcsChallenge(VertexConstraint(vertex=i), vertex_b=i, color_b=rng.randrange(3))
    if rng.random() < kind.mix:
        i = rng.randrange(g.n)
        return VertexChallenge(i, i)
    i, j = g.edges[rng.randrange(len(g.edges))]
    return VertexChallenge(i, j)


_REFILL_WORDS = 1 << 12


class ReferenceStream(WordStream):
    """A `WordStream` with `random.Random`'s `randrange(n)` and `random()`, one word read at a time."""

    def __init__(self, rng):
        super().__init__(rng, random_trail)
        self.extend(0)

    def _refill(self) -> None:
        # an eighth of the buffer at least, so that copying it on each refill costs O(1) per word
        self.extend(max(_REFILL_WORDS, len(self.words) // 8))

    def randrange(self, n: int) -> int:
        words, pos = self.words, self.pos
        shift = 32 - n.bit_length()
        try:
            r = words[pos] >> shift
            while r >= n:  # never false for n <= 0, which ends at the buffer's end
                pos += 1
                r = words[pos] >> shift
        except IndexError:  # the words read so far were rejected: go on after them
            if n <= 0:
                raise ValueError(f"empty range for randrange({n})") from None
            self.pos = pos
            self._refill()
            return self.randrange(n)
        self.pos = pos + 1
        return r

    def random(self) -> float:
        words, pos = self.words, self.pos
        try:
            a, b = words[pos] >> 5, words[pos + 1] >> 6
        except IndexError:
            self._refill()
            return self.random()
        self.pos = pos + 2
        return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)

    def skip_labels(self, n: int) -> int:
        """Consume n draws of `randrange(3)`; returns the position of their first word."""
        first = self.pos
        for _ in range(n):
            self.randrange(3)
        return first


def round_labelling(witness: tuple[int, ...], shared_seed: int, round_index: int) -> Labelled:
    """The honest per-round coloring permutation and label split.

    Both provers draw it from the same shared seed, so their labellings
    agree without any communication.
    """
    rng = substream("label", shared_seed, round_index)
    return draw_labellings(witness, witness, True, rng)[0]
