"""Per-draw references: CPython's draws replayed one call at a time.

The batch round engine replays each block's draws in one fused loop per
variant (`GameSpec.replay`). `ReferenceStream` keeps the draw-at-a-time
reading of the same words, as the reference the tests hold that loop and the
stream to. `round_labelling` is a wire prover's whole labelling of a round,
drawn with `draw_labellings`, which the prover's partial decode must match.
"""

from colorproof.games import Labelled, WordStream, draw_labellings, random_trail
from colorproof.seeds import substream

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
