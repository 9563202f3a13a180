"""The batch round engine: `games.play_rounds` in bulk, and the numpy tables it reads.

`play_rounds` imports it only for the batch path, so a wire prover or verifier never loads numpy. The tables
are filled from the scalar functions; `verdict` is called through `games`, so that patching it there reaches them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import games
from .games import DRAW_DIGITS, F3, PERMS3, REASON_CODE, SPECS, VERDICT_OF_CODE, Challenge, ChallengeTable, GameKind
from .games import GameSpec, Labelled, LabellingDraw, Reason, Response, Transcript, challenge_table
from .graphs import Graph


class InternTable(dict):
    """A dict from key to dense index, whose row is made on the key's first look-up.

    A look-up of a new key (`self[key]`, or `intern(key, source)`) calls `_make(source)` under the table's
    one lock, so threads sharing a table make each row once. The row goes into `rows`, one numpy buffer
    that doubles when full, at the key's index, and the index is published last: whoever finds the key
    finds its row. Rows not made yet read -1.
    """

    def __init__(self, row: tuple, dtype):
        super().__init__()
        self.rows = np.full((1, *row), -1, dtype)
        self._lock = threading.Lock()

    def __missing__(self, key) -> int:
        return self.intern(key, key)

    def intern(self, key, source) -> int:
        with self._lock:
            if key not in self:  # another thread may have made it while this one waited
                h = len(self)
                if h == len(self.rows):  # double the rows, so that making H rows copies O(H) rows
                    self.rows = np.concatenate([self.rows, np.full_like(self.rows, -1)])
                self.rows[h] = self._make(source)
                self[key] = h  # last: whoever finds the key finds its row
            return self[key]


_CODES = 4**4  # payload codes of up to four columns


@functools.lru_cache(maxsize=None)  # few payloads, each coded many times by the table fills
def _payload_code(payload) -> int:
    """A payload's code: an int payload's is the int. A tuple's has one base-4 digit per column, the first
    column least significant, each the value plus 1, so a 2-tuple and a 3-tuple never share a code."""
    return payload if isinstance(payload, int) else sum((x + 1) << 2 * k for k, x in enumerate(payload))


class VerdictTable(InternTable):
    """`verdict()` of one variant by challenge shape: maps `spec.shape(ch)` to an index s.

    `rows[s, code_a, code_b]` is the `REASON_CODE` of the verdict at every challenge of shape s, on the
    answers of payload codes code_a and code_b (see `_payload_code`). `of(ch)`, called before reading `rows`,
    makes row s on the first challenge of its shape, calling `verdict` on it and every well-formed outcome
    pair; every other code reads malformed. `wins[s]` is (a_outs, b_outs, a_picks, b_picks): the outcome
    spaces, and the winning pairs as indices into them, B outcome major, each in outcome order. `responses`
    holds one payload per well-formed code of each side, which the batch log shares.
    """

    def __init__(self, spec: GameSpec):
        super().__init__((_CODES, _CODES), np.int8)
        self.spec, self.kind, self.wins, self.responses = spec, GameKind(spec.game), [], ({}, {})

    def of(self, ch: Challenge) -> int:
        shape = self.spec.shape(ch)
        return self[shape] if shape in self else self.intern(shape, ch)

    def _make(self, ch: Challenge) -> np.ndarray:
        spec = self.spec
        a_outs, b_outs = spec.a_outcomes(spec.half_a(ch)), spec.b_outcomes(spec.half_b(ch))
        ca, cb = (list(map(_payload_code, outs)) for outs in (a_outs, b_outs))
        t = np.full(self.rows.shape[1:], REASON_CODE[Reason.MALFORMED], np.int8)
        ra = [self.responses[0].setdefault(c, x) for c, x in zip(ca, a_outs)]
        rb = [self.responses[1].setdefault(c, x) for c, x in zip(cb, b_outs)]
        for j, b in zip(cb, rb):
            t[ca, j] = [REASON_CODE[games.verdict(self.kind, ch, a, b).reason] for a in ra]
        b_picks, a_picks = np.nonzero(t[np.ix_(ca, cb)].T == 0)  # B outcome major
        self.wins.append((a_outs, b_outs, a_picks, b_picks))
        return t


VERDICT_TABLES = {game: VerdictTable(spec) for game, spec in SPECS.items()}


# color c_k, bit-0 label u_k and bit-1 label t_k at two vertices, (c1, u1, t1, c0, u0, t0), at d0 + 9 * d1
_LABEL_PAIRS = [(c1, u1, (c1 - u1) % 3, c0, u0, (c0 - u0) % 3) for c1, u1, c0, u0 in itertools.product(F3, repeat=4)]


class HonestTable(InternTable):
    """One side's honest answer of one variant, by challenge half: maps a half to an index h.

    `reads[h]` is the pair of vertices whose labels the half's honest answer reads (a half that reads one
    vertex lists it twice). `rows[h, d0 + 9 * d1]` is the `_payload_code` of `honest(lab, half)` on a
    labelling with color c_k and bit-0 label u_k at `reads[h][k]`, where d_k = 3 * c_k + u_k. `self[half]`
    makes row h on the first look-up of its half.
    """

    def __init__(self, honest: Callable[[Labelled, object], object]):
        super().__init__((81,), np.int16)
        self.honest, self.reads = honest, []

    def _make(self, half) -> list:
        seen = defaultdict(int)  # reads 0 at every vertex and keeps the vertices read, in read order
        self.honest(Labelled(seen, seen, seen), half)
        v0, v1 = reads = (*seen, *seen)[:2]
        colors, w0, w1 = {}, {}, {}
        lab, row = Labelled(colors, w0, w1), []
        for c1, u1, t1, c0, u0, t0 in _LABEL_PAIRS[: 9 if v0 == v1 else 81]:  # at v0 == v1, v0's labels win
            colors[v1], w0[v1], w1[v1] = c1, u1, t1
            colors[v0], w0[v0], w1[v0] = c0, u0, t0
            row.append(_payload_code(self.honest(lab, half)))
        self.reads.append(reads)
        return row * (81 // len(row))  # a one-vertex row depends on d0 only


HONEST_TABLES = {game: (HonestTable(spec.honest_a), HonestTable(spec.honest_b)) for game, spec in SPECS.items()}


def batch_rows(table: ChallengeTable, idx: np.ndarray) -> np.ndarray:
    """The rows (s, h_a, h_b, a0, a1, b0, b1) of members `idx`: the shape index in `VERDICT_TABLES`, the halves'
    indices in `HONEST_TABLES` and the vertices they read. Only this makes rows, under the table's lock, into
    `table.rows`, one buffer that doubles when full, published last; a row not made yet reads -1."""
    rows = table.rows
    if rows is None or len(rows) < len(table.members) or (rows[idx, 0] < 0).any():
        spec, (honest_a, honest_b) = table.spec, HONEST_TABLES[table.spec.game]
        with table._lock:
            rows, n = np.empty((0, 7), np.int64) if table.rows is None else table.rows, len(table.members)
            if len(rows) < n:  # double the rows, so that making H rows copies O(H) rows
                rows = np.concatenate([rows, np.full((max(n - len(rows), len(rows)), 7), -1, np.int64)])
            for k in np.unique(idx[rows[idx, 0] < 0]).tolist():
                h_a, h_b = honest_a[spec.half_a(ch := table.members[k])], honest_b[spec.half_b(ch)]
                rows[k] = (VERDICT_TABLES[spec.game].of(ch), h_a, h_b, *honest_a.reads[h_a], *honest_b.reads[h_b])
            table.rows = rows
    return rows[idx]


class JointRows:
    """A joint sampler's distributions as padded rows, for its `respond` and the batch engine.

    `of(kind, sampler, chs)` gives each challenge's row j, adding the rows of new ones. `cum[j]` is the
    challenge's cumulative weights, padded with 2.0 (above every `random()`), `pairs[j]` its response pairs,
    and `codes[j]` the `REASON_CODE` of `verdict()` on each pair, called once per challenge and pair. Both
    are views of buffers that double when full, so meeting k challenges one at a time copies O(k) rows.
    """

    def __init__(self):
        self.index: dict = {}
        self.pairs: list = []
        self.cum, self.codes = self._cum, self._codes = np.full((0, 1), 2.0), np.zeros((0, 1), np.int8)
        self._lock = threading.Lock()

    def of(self, kind: GameKind, sampler: JointSampler, chs: list) -> list:
        js = list(map(self.index.get, chs))
        if None not in js:
            return js
        with self._lock:
            new = list(dict.fromkeys(ch for ch in chs if ch not in self.index))  # two keys may be one challenge
            dists = [sampler._distribution(kind, ch) for ch in new]  # raises before anything is added
            j0, width = len(self.pairs), max([self.cum.shape[1]] + [len(cum) for _, cum in dists])
            cum, codes = self._cum, self._codes  # readers see rows below j0 only, so the rows past it are free
            if j0 + len(new) > len(cum) or width > cum.shape[1]:
                cum = np.full((max(j0 + len(new), 2 * len(cum)), width), 2.0)
                codes = np.zeros(cum.shape, np.int8)
                cum[:j0, : self.cum.shape[1]], codes[:j0, : self.cum.shape[1]] = self.cum, self.codes
            for j, ch, (pairs, c) in zip(itertools.count(j0), new, dists):
                cum[j, : len(c)] = c
                codes[j, : len(c)] = [REASON_CODE[games.verdict(kind, ch, ra, rb).reason] for ra, rb in pairs]
                self.pairs.append(pairs)
            self._cum, self._codes = cum, codes
            self.cum, self.codes = cum[: len(self.pairs)], codes[: len(self.pairs)]
            self.index.update(zip(new, itertools.count(j0)))  # last: whoever finds a challenge finds its row
        return list(map(self.index.__getitem__, chs))


@dataclass
class JointSampler:
    """A pair that answers both halves of a challenge at once, through `respond` (see `play_rounds`).

    `_distribution(kind, ch)` is the response pairs a challenge can get and their cumulative weights, the
    last exactly 1.0. `respond` draws pair `bisect_left(cum, rng.random())` from the challenge's row in
    `_rows`, the one place a challenge's distribution is kept: one `random()` per round.
    `quantum.BornPair` is one.
    """

    _rows: JointRows = field(default_factory=JointRows, kw_only=True, repr=False, compare=False)

    def _distribution(self, kind: GameKind, ch: Challenge) -> tuple[list, list]:
        raise NotImplementedError

    def respond(self, kind: GameKind, ch: Challenge, rng: random.Random) -> tuple[Response, Response]:
        rows = self._rows
        j = rows.index[ch] if ch in rows.index else rows.of(kind, self, [ch])[0]
        return rows.pairs[j][bisect.bisect_left(rows.cum[j], rng.random())]


def _replays_jointly(pair) -> bool:
    """Whether the batch engine replays `pair`: a `JointSampler` whose `respond` is neither overridden by
    its class nor patched on the instance."""
    return isinstance(pair, JointSampler) and type(pair).respond is JointSampler.respond and "respond" not in vars(pair)


# ---------------------------------------------------------------------------
# The round stream in bulk

_BLOCK_WORDS = 1 << 20  # about the words one block of rounds draws, which bounds the buffer


class WordStream:
    """A `random.Random` stream drawn in bulk as 32-bit words, for `GameSpec.replay`.

    Each word is one output of the generator (MT19937's `genrand_uint32`).
    `rng.randbytes(4 * W)` is `getrandbits(32 * W)` in little-endian order:
    the next W words, in draw order, read as `'<u4'` on any platform.

    Each round ends with the pair's draw after the challenge's, its trailing
    draw; `trail(stream)` (`label_trail(draws)` or `random_trail`) gives
    `trail_end[q]`, the position just past a trailing draw that starts at
    word q. It stops where that draw would run past the buffer, so reading
    past its end raises IndexError, as reading past `words` does. Only a
    labelling stream indexes its accepted words: `label_trail` keeps the
    positions of the words that `randrange(3)` accepts (`accepted`) and each
    position's rank among them (`rank[p]`, the number of accepted words
    before p).
    """

    __slots__ = ("_rng", "_raw", "_trail", "words", "accepted", "rank", "trail_end", "pos")

    def __init__(self, rng: random.Random, trail: Callable[[WordStream], np.ndarray]):
        self._rng, self._raw, self._trail = rng, b"", trail  # the words and their index come with the first `extend`
        self.pos = 0  # the next word to consume

    def _reset(self, raw: bytes) -> None:
        self._raw = raw
        self.words = memoryview(np.frombuffer(raw, "<u4").astype(np.uint32, copy=False))
        self.trail_end = memoryview(self._trail(self))

    def extend(self, count: int) -> None:
        """Draw `count` more words from the rng, which continues its stream exactly."""
        self._reset(self._raw + self._rng.randbytes(4 * count))

    def drop_consumed(self) -> None:
        """Forget the words before `pos` (positions restart at 0)."""
        self._reset(self._raw[4 * self.pos :])
        self.pos = 0


def label_trail(draws: int) -> Callable[[WordStream], np.ndarray]:
    """A labelling's trailing draw: the next `draws` words that `randrange(3)` accepts (indexed on the stream
    as `accepted` and `rank`, see `WordStream`)."""

    def trail(s: WordStream) -> np.ndarray:
        accepted = np.concatenate(([False], np.asarray(s.words) < 3 << 30))  # top bits not 11 (see DRAW_DIGITS)
        s.accepted, s.rank = np.flatnonzero(accepted[1:]), np.cumsum(accepted)
        fits = np.searchsorted(s.rank, len(s.accepted) - draws, "right")  # the starts whose last word is drawn
        return (s.accepted[draws - 1 :] + 1)[s.rank[:fits]]  # accepted[rank[q] + draws - 1] + 1

    return trail


def random_trail(s: WordStream) -> np.ndarray:
    """One `random()`'s trailing draw: the next two words."""
    return np.arange(2, len(s.words) + 1)


def _replayed_blocks(table: ChallengeTable, stream: WordStream, rounds: int, per_round: float):
    """`rounds` rounds replayed by `table.spec.replay`, in blocks of about `_BLOCK_WORDS` words: yields each
    block's first round, round count, member indices in `table` and trailing-draw starts (see `GameSpec`).
    `per_round` bounds a round's expected words; a block that runs short draws more and replays on."""
    block = max(1, int(_BLOCK_WORDS / per_round))
    for start in range(0, rounds, block):
        count = min(block, rounds - start)
        if start:
            stream.drop_consumed()
        stream.extend(int(count * per_round + math.sqrt(count * per_round)))  # margin: about 1.5 standard deviations
        keys, starts = [], []
        while len(keys) < count:
            try:
                table.spec.replay(table, stream, count - len(keys), keys, starts)
            except IndexError:  # the buffer ended inside a round: draw more words and replay from that round
                stream.extend(int((count - len(keys)) * per_round))
            stream.pos = stream.trail_end[starts[-1]] if starts else 0  # past the last round
        yield start, count, np.fromiter(map(table.__getitem__, keys), np.intp, count), np.array(starts)


# ---------------------------------------------------------------------------
# The batch loops

_PERM_TABLE = np.array(PERMS3)
_DIGITS = np.frombuffer(DRAW_DIGITS, np.uint8)


def _play_labelled(kind: GameKind, g: Graph, draw: LabellingDraw, rounds: int, rng: random.Random, keep_log: bool):
    """The scalar loop's accept count and log for a `LabellingDraw` pair, from the same rng words.

    `spec.replay` gives a block's challenge keys and label starts. A permuting round's first accepted
    word is its permutation and the next n accepted words are its bit-0 labels, each read from its
    word's top byte (see DRAW_DIGITS). Only the labels at the vertices a round's honest answers read
    (its `batch_rows` row) are decoded, in one gather, and the answers' payload codes come
    from `HONEST_TABLES`. Each round's verdict is one gather from its shape's row of `VERDICT_TABLES`,
    at those codes.
    """
    table = challenge_table(kind, g)
    verdicts, (honest_a, honest_b) = VERDICT_TABLES[kind.game], HONEST_TABLES[kind.game]
    colors = 3 * _PERM_TABLE[:, list(draw.colors_a + draw.colors_b)]  # 3 * color, B's color of v at n + v
    side = np.array([0, 0, g.n, g.n])  # A's two reads, then B's
    draws = g.n + 1 if draw.permute else g.n
    stream = WordStream(rng, label_trail(draws))
    accepts = 0
    log: Optional[list[Transcript]] = [] if keep_log else None
    for start, count, idx, starts in _replayed_blocks(table, stream, rounds, 4 * draws / 3 + table.spec.sample_words):
        rows = batch_rows(table, idx)  # makes any new shape's and half's rows too
        words, first, perm = np.asarray(stream.words), stream.rank[starts][:, None], 0
        if draw.permute:
            perm = _DIGITS[words[stream.accepted[first]] >> 24]
            first = first + 1
        v = rows[:, 3:]
        d = colors[perm, v + side] + (_DIGITS[words[stream.accepted[first + v]] >> 24] >> 1)
        d = d[:, ::2] + 9 * d[:, 1::2]  # d0 + 9 * d1 of A's reads, then of B's
        A, B = honest_a.rows[rows[:, 1], d[:, 0]], honest_b.rows[rows[:, 2], d[:, 1]]
        codes = verdicts.rows[rows[:, 0], A, B]
        accepts += count - int(np.count_nonzero(codes))
        if log is not None:
            chs = map(table.members.__getitem__, idx.tolist())
            ra, rb = (map(r.__getitem__, x.tolist()) for r, x in zip(verdicts.responses, (A, B)))
            verdicts_of = map(VERDICT_OF_CODE.__getitem__, codes.tolist())
            log.extend(map(Transcript, range(start, start + count), chs, ra, rb, verdicts_of))
    return accepts, log


def _play_joint(kind: GameKind, g: Graph, pair: JointSampler, rounds: int, rng: random.Random, keep_log: bool):
    """The scalar loop's accept count and log for a `JointSampler`, from the same rng words; None if a
    challenge's distribution raises (the scalar loop rejects such a round as malformed, drawing no `random()`).

    `spec.replay` gives a block's challenge keys and where each round's `random()` u starts; u is decoded
    as CPython does. A round's response pair is the number of its challenge's cumulative weights below u
    (`bisect_left`), and its verdict is that pair's code in `JointRows`.
    """
    table, rows, stream = challenge_table(kind, g), pair._rows, WordStream(rng, random_trail)
    accepts = 0
    log: Optional[list[Transcript]] = [] if keep_log else None
    for start, count, idx, starts in _replayed_blocks(table, stream, rounds, table.spec.sample_words + 2):
        members, at = np.unique(idx, return_inverse=True)
        try:
            j = np.array(rows.of(kind, pair, list(map(table.members.__getitem__, members.tolist()))))[at]
        except Exception:  # as `respond` raising in the scalar loop
            return None
        words = np.asarray(stream.words)
        u = ((words[starts] >> 5) * 67108864.0 + (words[starts + 1] >> 6)) * (1.0 / 9007199254740992.0)
        picks = np.count_nonzero(rows.cum[j] < u[:, None], axis=1)
        codes = rows.codes[j, picks]
        accepts += count - int(np.count_nonzero(codes))
        if log is not None:
            chs = map(table.members.__getitem__, idx.tolist())
            ra, rb = zip(*map(lambda r, k: rows.pairs[r][k], j.tolist(), picks.tolist()))
            verdicts_of = map(VERDICT_OF_CODE.__getitem__, codes.tolist())
            log.extend(map(Transcript, range(start, start + count), chs, ra, rb, verdicts_of))
    return accepts, log
