"""The four two-prover 3-coloring games: challenge draws, exact pmfs, verdicts.

Game variants:
  * alt-rzkp  -- prover A gets an edge (i, j) and answers two labellings per
                 endpoint; prover B gets an adjacent edge (i', j') plus a bit
                 b and answers the bit-b labels of its endpoints.
  * alt-edge  -- A gets an edge and answers both colors; B gets a vertex and
                 answers its color.
  * bcs       -- binary constraint system over color indicators: A gets a
                 constraint (vertex consistency or edge disjointness), B gets
                 one (vertex, color) indicator query.
  * vertex    -- both provers get one vertex each; equal answers required on
                 the diagonal, distinct answers across an edge.

Each variant is defined once, by its `GameSpec` in `SPECS`; everything else
(the round loop, the quantum evaluator, the wire prover) reads the spec.
Edge challenges always carry i < j. A variant's `replay` is its one draw
order: it reads a round's challenge draws from a stream of 32-bit words and
packs them into a key of the graph's `ChallengeTable` of interned
challenges. `sample_challenge` is its one-round run on an explicit
`random.Random` stream, and matches `challenge_pmf` exactly.

`play_rounds` replays the round stream of the built-in classical pairs and
of the joint (Born-rule) samplers in bulk (see its docstring). The scalar
`verdict` is each variant's one verdict: the batch engine and the quantum
winning sets read it through `VERDICT_TABLES`, filled from it per challenge
shape, and a joint sampler's batch rounds through `JointRows`, filled from
it per challenge and response pair. Likewise `honest_a` and `honest_b` are
the one honest answer: the batch engine reads them through `HONEST_TABLES`,
filled from them per challenge half.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import json
import math
import random
import sys
import threading
from collections import defaultdict
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Optional, Union

import numpy as np

from .graphs import Edge, Graph
from .seeds import substream

F3 = (0, 1, 2)
PERMS3 = tuple(itertools.permutations(F3))


class GameType(enum.Enum):
    ALT_RZKP = "alt-rzkp"
    ALT_EDGE = "alt-edge"
    BCS = "bcs"
    VERTEX = "vertex"

    # members are singletons, so identity hashing is exact, and it keeps the
    # per-round SPECS lookup off Enum's Python-level __hash__
    __hash__ = object.__hash__


@dataclass(frozen=True, slots=True)
class GameKind:
    """Game variant plus the mixture weight for the two-branch variants.

    For bcs, `mix` is the probability of an edge-disjointness constraint; for
    vertex, the probability of a well-definition (diagonal) challenge. The
    weight is a simulation knob only; the soundness bounds use nothing but
    the edge-verification branch.
    """

    game: GameType
    mix: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix <= 1.0:
            raise GamesError(f"mixture weight {self.mix} outside [0,1]")


ALT_RZKP = GameKind(GameType.ALT_RZKP)
ALT_EDGE = GameKind(GameType.ALT_EDGE)
BCS = GameKind(GameType.BCS)
VERTEX = GameKind(GameType.VERTEX)


class GamesError(ValueError):
    pass


class EmptyGraphError(GamesError):
    pass


# ---------------------------------------------------------------------------
# Challenges


class _HashedOnce:
    """Keeps its hash after the first call: challenges key a count or cache dict every round."""

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(map(self.__getattribute__, self.__slots__)))  # the dataclass fields
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True, slots=True)
class RzkpChallenge(_HashedOnce):
    edge_a: Edge
    edge_b: Edge
    bit: int
    __hash__ = _HashedOnce.__hash__


@dataclass(frozen=True, slots=True)
class EdgeChallenge(_HashedOnce):
    edge_a: Edge
    vertex_b: int
    __hash__ = _HashedOnce.__hash__


@dataclass(frozen=True, slots=True)
class VertexConstraint:
    vertex: int


@dataclass(frozen=True, slots=True)
class EdgeConstraint:
    edge: Edge
    color: int


@dataclass(frozen=True, slots=True)
class BcsChallenge(_HashedOnce):
    constraint: Union[VertexConstraint, EdgeConstraint]
    vertex_b: int
    color_b: int
    __hash__ = _HashedOnce.__hash__


@dataclass(frozen=True, slots=True)
class VertexChallenge(_HashedOnce):
    vertex_a: int
    vertex_b: int
    __hash__ = _HashedOnce.__hash__


Challenge = Union[RzkpChallenge, EdgeChallenge, BcsChallenge, VertexChallenge]


# ---------------------------------------------------------------------------
# Responses: each wraps one payload, the outcome of that prover's measurement


@dataclass(frozen=True, slots=True)
class RzkpResponseA:
    w: tuple[int, int, int, int]  # (w_i^0, w_i^1, w_j^0, w_j^1)


@dataclass(frozen=True, slots=True)
class RzkpResponseB:
    w: tuple[int, int]  # bit-b labels of (i', j')


@dataclass(frozen=True, slots=True)
class EdgeResponseA:
    colors: tuple[int, int]


@dataclass(frozen=True, slots=True)
class EdgeResponseB:
    color: int


@dataclass(frozen=True, slots=True)
class BcsResponseA:
    bits: tuple[int, ...]  # 3 bits for a vertex constraint, 2 for an edge constraint


@dataclass(frozen=True, slots=True)
class BcsResponseB:
    bit: int


@dataclass(frozen=True, slots=True)
class VertexResponse:
    color: int


Response = Union[
    RzkpResponseA, RzkpResponseB, EdgeResponseA, EdgeResponseB, BcsResponseA, BcsResponseB, VertexResponse
]


def _payload(r: Response):
    return getattr(r, fields(r)[0].name)


@dataclass(frozen=True)
class Labelled:
    """Per-round coloring and its additive label split (w0 + w1 = c mod 3)."""

    colors: tuple[int, ...]
    w0: tuple[int, ...]
    w1: tuple[int, ...]

    @classmethod
    def split(cls, colors, w0) -> "Labelled":
        """The labelling of `colors` whose bit-0 labels are `w0`."""
        return cls(tuple(colors), tuple(w0), tuple((c - w) % 3 for c, w in zip(colors, w0)))


def draw_labellings(colors_a, colors_b, permute: bool, rng: random.Random) -> tuple[Labelled, Labelled]:
    """One round of the shared randomness of the built-in classical pairs.

    Draws one color permutation (`randrange(6)`, only when `permute`) and
    then one bit-0 label per vertex (`len(colors_a)` draws of
    `randrange(3)`). Returns the labellings of `colors_a` (prover A's) and of
    `colors_b` (prover B's), both under that permutation and those bit-0
    labels.
    """
    perm = PERMS3[rng.randrange(6)] if permute else None
    ca = colors_a if perm is None else [perm[c] for c in colors_a]
    w0 = [rng.randrange(3) for _ in colors_a]
    lab_a = Labelled.split(ca, w0)
    if colors_b is colors_a:
        return lab_a, lab_a
    return lab_a, Labelled.split(colors_b if perm is None else [perm[c] for c in colors_b], w0)


@dataclass(frozen=True)
class LabellingDraw:
    """`draw_labellings` of fixed colorings, as a classical pair's `shared` draw."""

    colors_a: tuple
    colors_b: tuple
    permute: bool

    def __call__(self, kind: GameKind, g: Graph, rng: random.Random) -> tuple[Labelled, Labelled]:
        return draw_labellings(self.colors_a, self.colors_b, self.permute, rng)


class JointRows:
    """A joint sampler's distributions as padded rows, for the batch engine.

    `of(kind, sampler, chs)` gives each challenge's row j, adding the rows of new ones. `cum[j]` is the
    challenge's cumulative weights, padded with 2.0 (above every `random()`), `pairs[j]` its response pairs,
    and `codes[j]` the `REASON_CODE` of `verdict()` on each pair, called once per challenge and pair.
    """

    def __init__(self):
        self.index: dict = {}
        self.pairs: list = []
        self.cum, self.codes = np.ones((0, 1)), np.zeros((0, 1), np.int8)
        self._lock = threading.Lock()

    def of(self, kind: GameKind, sampler: JointSampler, chs: list) -> list:
        if not all(map(self.index.__contains__, chs)):
            with self._lock:
                new = list(dict.fromkeys(ch for ch in chs if ch not in self.index))  # two keys may be one challenge
                dists = [sampler.distribution(kind, ch) for ch in new]  # raises before anything is added
                j0, width = len(self.pairs), max([self.cum.shape[1]] + [len(cum) for _, cum in dists])
                cum = np.full((j0 + len(new), width), 2.0)
                codes = np.zeros(cum.shape, np.int8)
                cum[:j0, : self.cum.shape[1]], codes[:j0, : self.cum.shape[1]] = self.cum, self.codes
                for j, ch, (pairs, c) in zip(itertools.count(j0), new, dists):
                    cum[j, : len(c)] = c
                    codes[j, : len(c)] = [REASON_CODE[verdict(kind, ch, ra, rb).reason] for ra, rb in pairs]
                    self.pairs.append(pairs)
                self.cum, self.codes = cum, codes
                self.index.update(zip(new, itertools.count(j0)))  # last: whoever finds a challenge finds its row
        return list(map(self.index.__getitem__, chs))


@dataclass
class JointSampler:
    """A pair that answers both halves of a challenge at once, through `respond` (see `play_rounds`).

    `_distribution(kind, ch)` is the response pairs a challenge can get and their cumulative weights, the
    last exactly 1.0. `respond` draws pair `bisect_left(cum, rng.random())`: one `random()` per round.
    `distribution` keeps each challenge's in `_cache`, and the batch engine keeps its rows in `_rows`.
    `quantum.BornPair` is one.
    """

    _cache: dict = field(default_factory=dict, kw_only=True, repr=False)
    _rows: JointRows = field(default_factory=JointRows, kw_only=True, repr=False, compare=False)

    def _distribution(self, kind: GameKind, ch: Challenge) -> tuple[list, list]:
        raise NotImplementedError

    def distribution(self, kind: GameKind, ch: Challenge) -> tuple[list, list]:
        dist = self._cache.get(ch)
        if dist is None:
            dist = self._cache[ch] = self._distribution(kind, ch)
        return dist

    def respond(self, kind: GameKind, ch: Challenge, rng: random.Random) -> tuple[Response, Response]:
        responses, cum = self.distribution(kind, ch)
        return responses[bisect.bisect_left(cum, rng.random())]


def labelled_answer_a(kind: GameKind, half, labs: tuple[Labelled, Labelled]) -> Response:
    """Prover A's honest answer from the first labelling of a `LabellingDraw`."""
    spec = SPECS[kind.game]
    return spec.response_a(spec.honest_a(labs[0], half))


def labelled_answer_b(kind: GameKind, half, labs: tuple[Labelled, Labelled]) -> Response:
    """Prover B's honest answer from the second labelling of a `LabellingDraw`."""
    spec = SPECS[kind.game]
    return spec.response_b(spec.honest_b(labs[1], half))


# ---------------------------------------------------------------------------
# Verdicts


class Reason(enum.Enum):
    EDGE_VERIFICATION = "edge-verification"
    WELL_DEFINITION = "well-definition"
    CONSTRAINT_SATISFACTION = "constraint-satisfaction"
    MALFORMED = "malformed"
    TIMEOUT = "timeout"


@dataclass(frozen=True, slots=True)
class Verdict:
    accept: bool
    reason: Optional[Reason] = None


ACCEPT = Verdict(True)


def _reject(reason: Reason) -> Verdict:
    return Verdict(False, reason)


# one code per verdict: 0 accepts, k rejects with the k-th Reason; the verdict tables
# hold these codes, and net's Result frames carry them
REASON_CODE = {None: 0, **{r: code for code, r in enumerate(Reason, 1)}}
VERDICT_OF_CODE = (ACCEPT, *(_reject(r) for r in Reason))


@dataclass(frozen=True, slots=True)
class Transcript:
    round: int
    challenge: Challenge
    response_a: Optional[Response]
    response_b: Optional[Response]
    verdict: Verdict


@dataclass(frozen=True, slots=True)
class WinStats:
    rounds: int
    accepts: int
    win_rate: float
    wilson_95: tuple[float, float]
    degenerate: bool = False


def _colors_ok(*vals: int) -> bool:
    return all(map(F3.__contains__, vals))


def _bits_ok(*vals: int) -> bool:
    return all(map((0, 1).__contains__, vals))


# ---------------------------------------------------------------------------
# Per-variant definitions, collected into one GameSpec each below


# Each replay makes its variant's challenge draws, then steps past the trailing draw, `count` times (see `GameSpec`).
# `while (x := words[(p := p + 1)] >> shift) >= n: pass` is CPython's `x = randrange(n)`, shift = 32 - n.bit_length();
# `random() < mix` is `(a >> 5 << 26 | b >> 6) < mix * 2**53` on the next two words a and b.


# alt-rzkp: draws edge e, bit b, side s (endpoint s of e is v) and neighbour k of v
def _rzkp_replay(t: ChallengeTable, s: WordStream, count: int, keys: list, starts: list) -> None:
    words, past, pos = s.words, s.trail_end, s.pos
    ne, se, ends, radix = t.ne, 32 - t.ne.bit_length(), t.ends, t.radix
    for _ in range(count):
        p = pos - 1
        while (e := words[(p := p + 1)] >> se) >= ne: pass
        while (b := words[(p := p + 1)] >> 30) >= 2: pass
        while (side := words[(p := p + 1)] >> 30) >= 2: pass
        d, sd = ends[2 * e + side]
        while (k := words[(p := p + 1)] >> sd) >= d: pass
        pos = past[(q := p + 1)]  # past the trailing draw
        keys.append(((e * 2 + b) * 2 + side) * radix + k)
        starts.append(q)


def _rzkp_member(t: ChallengeTable, key: int) -> RzkpChallenge:
    ebs, k = divmod(key, t.radix)
    i, j = t.edges[ebs >> 2]
    v = (i, j)[ebs & 1]
    u = t.adjacency[v][k]
    return RzkpChallenge(edge_a=(i, j), edge_b=(v, u) if v < u else (u, v), bit=ebs >> 1 & 1)


def _rzkp_pmf(g: Graph, mix: float) -> dict:
    # (1/2|E|) * [ (d_ii' + d_ij') / 2|N(i)| + (d_jj' + d_ji') / 2|N(j)| ], nonzero on the edges at i or j
    ne = len(g.edges)
    pmf: dict = {}
    for i, j in g.edges:
        for ep in sorted({(min(v, u), max(v, u)) for v in (i, j) for u in g.adjacency[v]}):  # in `g.edges` order
            for b in (0, 1):
                w = 0.0
                w += (int(i == ep[0]) + int(i == ep[1])) / (2 * g.degree(i))
                w += (int(j == ep[1]) + int(j == ep[0])) / (2 * g.degree(j))
                pmf[RzkpChallenge(edge_a=(i, j), edge_b=ep, bit=b)] = w / (2 * ne)
    return pmf


def _rzkp_check(ch: RzkpChallenge, ra: RzkpResponseA, rb: RzkpResponseB) -> Verdict:
    wi0, wi1, wj0, wj1 = ra.w
    if not (_colors_ok(wi0, wi1, wj0, wj1) and len(rb.w) == 2 and _colors_ok(*rb.w) and ch.bit in (0, 1)):
        return _reject(Reason.MALFORMED)
    if (wi0 + wi1) % 3 == (wj0 + wj1) % 3:
        return _reject(Reason.EDGE_VERIFICATION)
    i, j = ch.edge_a
    b = ch.bit
    a_label = {i: ra.w[b], j: ra.w[2 + b]}
    b_label = {ch.edge_b[0]: rb.w[0], ch.edge_b[1]: rb.w[1]}
    for v in (i, j):
        if v in b_label and a_label[v] != b_label[v]:
            return _reject(Reason.WELL_DEFINITION)
    return ACCEPT


def _rzkp_honest_b(lab: Labelled, half) -> tuple:
    (i, j), b = half
    w = lab.w0 if b == 0 else lab.w1
    return (w[i], w[j])


# alt-edge: draws edge e and side s
def _edge_replay(t: ChallengeTable, s: WordStream, count: int, keys: list, starts: list) -> None:
    words, past, pos = s.words, s.trail_end, s.pos
    ne, se = t.ne, 32 - t.ne.bit_length()
    for _ in range(count):
        p = pos - 1
        while (e := words[(p := p + 1)] >> se) >= ne: pass
        while (side := words[(p := p + 1)] >> 30) >= 2: pass
        pos = past[(q := p + 1)]
        keys.append(2 * e + side)
        starts.append(q)


def _edge_member(t: ChallengeTable, key: int) -> EdgeChallenge:
    edge = t.edges[key >> 1]
    return EdgeChallenge(edge_a=edge, vertex_b=edge[key & 1])


def _edge_pmf(g: Graph, mix: float) -> dict:
    ne = len(g.edges)
    pmf: dict = {}
    for i, j in g.edges:
        pmf[EdgeChallenge((i, j), i)] = 1.0 / (2 * ne)
        pmf[EdgeChallenge((i, j), j)] = 1.0 / (2 * ne)
    return pmf


def _edge_check(ch: EdgeChallenge, ra: EdgeResponseA, rb: EdgeResponseB) -> Verdict:
    ci, cj = ra.colors
    if not _colors_ok(ci, cj, rb.color):
        return _reject(Reason.MALFORMED)
    if ci == cj:
        return _reject(Reason.EDGE_VERIFICATION)
    i, j = ch.edge_a
    if ch.vertex_b == i and ci != rb.color:
        return _reject(Reason.WELL_DEFINITION)
    if ch.vertex_b == j and cj != rb.color:
        return _reject(Reason.WELL_DEFINITION)
    return ACCEPT


# bcs: draws the branch, then edge e, color alpha and side s, or vertex i and color beta
def _bcs_replay(t: ChallengeTable, s: WordStream, count: int, keys: list, starts: list) -> None:
    words, past, pos = s.words, s.trail_end, s.pos
    n, ne, sn, se, cut = t.n, t.ne, 32 - t.n.bit_length(), 32 - t.ne.bit_length(), t.mix * 2**53
    for _ in range(count):
        p = pos + 1
        if (words[pos] >> 5 << 26 | words[p] >> 6) < cut:
            while (e := words[(p := p + 1)] >> se) >= ne: pass
            while (alpha := words[(p := p + 1)] >> 30) >= 3: pass
            while (side := words[(p := p + 1)] >> 30) >= 2: pass
            key = (e * 3 + alpha) * 2 + side
        else:
            while (i := words[(p := p + 1)] >> sn) >= n: pass
            while (beta := words[(p := p + 1)] >> 30) >= 3: pass
            key = -1 - (i * 3 + beta)
        pos = past[(q := p + 1)]
        keys.append(key)
        starts.append(q)


def _bcs_member(t: ChallengeTable, key: int) -> BcsChallenge:
    if key < 0:
        i, beta = divmod(-1 - key, 3)
        return BcsChallenge(VertexConstraint(vertex=i), vertex_b=i, color_b=beta)
    e, alpha = divmod(key >> 1, 3)
    edge = t.edges[e]
    return BcsChallenge(EdgeConstraint(edge=edge, color=alpha), vertex_b=edge[key & 1], color_b=alpha)


def _bcs_pmf(g: Graph, mix: float) -> dict:
    ne = len(g.edges)
    pmf: dict = {}
    if mix > 0.0:
        for e in g.edges:
            for alpha in F3:
                for k in e:
                    ch = BcsChallenge(EdgeConstraint(e, alpha), k, alpha)
                    pmf[ch] = pmf.get(ch, 0.0) + mix / (6 * ne)
    if mix < 1.0:
        for i in range(g.n):
            for beta in F3:
                ch = BcsChallenge(VertexConstraint(i), i, beta)
                pmf[ch] = pmf.get(ch, 0.0) + (1.0 - mix) / (3 * g.n)
    return pmf


def _bcs_check(ch: BcsChallenge, ra: BcsResponseA, rb: BcsResponseB) -> Verdict:
    if not _bits_ok(*ra.bits, rb.bit):
        return _reject(Reason.MALFORMED)
    con = ch.constraint
    if isinstance(con, VertexConstraint):
        if len(ra.bits) != 3:
            return _reject(Reason.MALFORMED)
        if sum(ra.bits) != 1:
            return _reject(Reason.CONSTRAINT_SATISFACTION)
        if ch.vertex_b == con.vertex and ra.bits[ch.color_b] != rb.bit:
            return _reject(Reason.WELL_DEFINITION)
        return ACCEPT
    if len(ra.bits) != 2:
        return _reject(Reason.MALFORMED)
    if ra.bits[0] * ra.bits[1] != 0:
        return _reject(Reason.CONSTRAINT_SATISFACTION)
    if ch.color_b == con.color:
        i, j = con.edge
        if ch.vertex_b == i and ra.bits[0] != rb.bit:
            return _reject(Reason.WELL_DEFINITION)
        if ch.vertex_b == j and ra.bits[1] != rb.bit:
            return _reject(Reason.WELL_DEFINITION)
    return ACCEPT


def _bcs_shape(ch: BcsChallenge) -> tuple:
    con = ch.constraint
    if isinstance(con, VertexConstraint):  # the verdict reads A's bit at color_b
        return (0, ch.vertex_b == con.vertex, ch.color_b)
    return (1, ch.vertex_b == con.edge[0], ch.vertex_b == con.edge[1], ch.color_b == con.color)


def _bcs_honest_a(lab: Labelled, con) -> tuple:
    if isinstance(con, VertexConstraint):
        c = lab.colors[con.vertex]
        return tuple(int(c == a) for a in F3)
    i, j = con.edge
    return (int(lab.colors[i] == con.color), int(lab.colors[j] == con.color))


def _bcs_a_keys(g: Graph) -> list:
    return [EdgeConstraint(e, a) for e in g.edges for a in F3] + [VertexConstraint(v) for v in range(g.n)]


def _bcs_json(ch: BcsChallenge) -> dict:
    con = ch.constraint
    if isinstance(con, VertexConstraint):
        c = {"type": "vertex", "vertex": con.vertex}
    else:
        c = {"type": "edge", "edge": list(con.edge), "color": con.color}
    return {"constraint": c, "vertex_b": ch.vertex_b, "color_b": ch.color_b}


# vertex: draws the branch, then vertex i or edge e
def _vertex_replay(t: ChallengeTable, s: WordStream, count: int, keys: list, starts: list) -> None:
    words, past, pos = s.words, s.trail_end, s.pos
    n, ne, sn, se, cut = t.n, t.ne, 32 - t.n.bit_length(), 32 - t.ne.bit_length(), t.mix * 2**53
    for _ in range(count):
        p = pos + 1
        if (words[pos] >> 5 << 26 | words[p] >> 6) < cut:
            while (i := words[(p := p + 1)] >> sn) >= n: pass
            key = -1 - i
        else:
            while (key := words[(p := p + 1)] >> se) >= ne: pass
        pos = past[(q := p + 1)]
        keys.append(key)
        starts.append(q)


def _vertex_member(t: ChallengeTable, key: int) -> VertexChallenge:
    i, j = (-1 - key,) * 2 if key < 0 else t.edges[key]
    return VertexChallenge(i, j)


def _vertex_pmf(g: Graph, mix: float) -> dict:
    pmf: dict = {}
    if mix > 0.0:
        pmf.update((VertexChallenge(i, i), mix / g.n) for i in range(g.n))
    if mix < 1.0:
        pmf.update((VertexChallenge(i, j), (1.0 - mix) / len(g.edges)) for i, j in g.edges)
    return pmf


def _vertex_check(ch: VertexChallenge, ra: VertexResponse, rb: VertexResponse) -> Verdict:
    if not _colors_ok(ra.color, rb.color):
        return _reject(Reason.MALFORMED)
    if ch.vertex_a == ch.vertex_b:
        if ra.color != rb.color:
            return _reject(Reason.WELL_DEFINITION)
        return ACCEPT
    if ra.color == rb.color:
        return _reject(Reason.EDGE_VERIFICATION)
    return ACCEPT


# ---------------------------------------------------------------------------
# The spec table


@dataclass(frozen=True)
class GameSpec:
    """Everything that defines one game variant.

    `replay(t, stream, count, keys, starts)` is the variant's one draw order.
    It plays `count` rounds of a `WordStream` from `stream.pos` in one loop,
    each the challenge's `randrange` and `random()` draws in a fixed order
    (see `play_rounds`) and then the stream's trailing draw (the pair's
    labelling or `random()`). It packs a round's challenge draws into one int
    key and appends it to `keys`, appends the position of the trailing draw's
    first word to `starts`, steps past that draw through `stream.trail_end`,
    and raises IndexError where the buffer ends. `sample_challenge` is its
    one-round run, with no trailing draw. A key is looked up in a
    `ChallengeTable` `t` of this variant, and `member(t, key)` builds the
    challenge it stands for, once per key and table. `sample_words` bounds
    the words one round's challenge draws are expected to read (2 per
    `randrange` and per `random()`).

    Outcomes are the payloads of the response classes (`response_a(outcome)`
    builds prover A's response). Keys are challenge halves; `a_keys(g)` and
    `b_keys(g)` enumerate every half of a graph in the order the PVM dicts of
    a quantum strategy hold them, which seeded strategy draws depend on.
    `honest_a(lab, half)` is the honest outcome for one labelling. An honest
    function reads the labelling (its `colors`, `w0` and `w1`) at the same
    one or two vertices of its half, whatever the labels are: `HONEST_TABLES`
    finds those vertices by calling it once and tabulates its outcome on
    every label they can carry.

    `shape(ch)` is a small tuple of what `check` reads of a challenge besides
    the answers, with no vertex names: challenges of one shape get one verdict
    on every answer pair, so `VERDICT_TABLES` keeps one table per shape.
    """

    game: GameType
    replay: Callable[[ChallengeTable, WordStream, int, list, list], None]
    sample_words: int
    member: Callable[[ChallengeTable, int], Challenge]
    pmf: Callable[[Graph, float], dict]
    half_a: Callable[[Challenge], object]
    half_b: Callable[[Challenge], object]
    challenge: type
    response_a: type
    response_b: type
    a_outcomes: Callable[[object], tuple]
    b_outcomes: Callable[[object], tuple]
    a_keys: Callable[[Graph], list]
    b_keys: Callable[[Graph], list]
    honest_a: Callable[[Labelled, object], object]
    honest_b: Callable[[Labelled, object], object]
    check: Callable[[Challenge, Response, Response], Verdict]
    to_json: Callable[[Challenge], dict]
    shape: Callable[[Challenge], tuple]


_LABELS4 = tuple(itertools.product(F3, repeat=4))
_LABELS2 = tuple(itertools.product(F3, repeat=2))
_BITS3 = tuple(itertools.product((0, 1), repeat=3))
_BITS2 = tuple(itertools.product((0, 1), repeat=2))

SPECS = {
    GameType.ALT_RZKP: GameSpec(
        game=GameType.ALT_RZKP,
        replay=_rzkp_replay,
        sample_words=8,
        member=_rzkp_member,
        pmf=_rzkp_pmf,
        half_a=lambda ch: ch.edge_a,
        half_b=lambda ch: (ch.edge_b, ch.bit),
        challenge=RzkpChallenge,
        response_a=RzkpResponseA,
        response_b=RzkpResponseB,
        a_outcomes=lambda key: _LABELS4,
        b_outcomes=lambda key: _LABELS2,
        a_keys=lambda g: list(g.edges),
        b_keys=lambda g: [(e, b) for e in g.edges for b in (0, 1)],
        honest_a=lambda lab, e: (lab.w0[e[0]], lab.w1[e[0]], lab.w0[e[1]], lab.w1[e[1]]),
        honest_b=_rzkp_honest_b,
        check=_rzkp_check,
        to_json=asdict,
        shape=lambda ch: (ch.bit, *map((ch.edge_a + ch.edge_b).index, ch.edge_a + ch.edge_b)),  # which ends are equal
    ),
    GameType.ALT_EDGE: GameSpec(
        game=GameType.ALT_EDGE,
        replay=_edge_replay,
        sample_words=4,
        member=_edge_member,
        pmf=_edge_pmf,
        half_a=lambda ch: ch.edge_a,
        half_b=lambda ch: ch.vertex_b,
        challenge=EdgeChallenge,
        response_a=EdgeResponseA,
        response_b=EdgeResponseB,
        a_outcomes=lambda key: _LABELS2,
        b_outcomes=lambda key: F3,
        a_keys=lambda g: list(g.edges),
        b_keys=lambda g: [v for v in range(g.n) if g.degree(v) > 0],
        honest_a=lambda lab, edge: (lab.colors[edge[0]], lab.colors[edge[1]]),
        honest_b=lambda lab, v: lab.colors[v],
        check=_edge_check,
        to_json=asdict,
        shape=lambda ch: (ch.vertex_b == ch.edge_a[0], ch.vertex_b == ch.edge_a[1]),
    ),
    GameType.BCS: GameSpec(
        game=GameType.BCS,
        replay=_bcs_replay,
        sample_words=8,
        member=_bcs_member,
        pmf=_bcs_pmf,
        half_a=lambda ch: ch.constraint,
        half_b=lambda ch: (ch.vertex_b, ch.color_b),
        challenge=BcsChallenge,
        response_a=BcsResponseA,
        response_b=BcsResponseB,
        a_outcomes=lambda con: _BITS3 if isinstance(con, VertexConstraint) else _BITS2,
        b_outcomes=lambda key: (0, 1),
        a_keys=_bcs_a_keys,
        b_keys=lambda g: [(v, beta) for v in range(g.n) for beta in F3],
        honest_a=_bcs_honest_a,
        honest_b=lambda lab, half: int(lab.colors[half[0]] == half[1]),
        check=_bcs_check,
        to_json=_bcs_json,
        shape=_bcs_shape,
    ),
    GameType.VERTEX: GameSpec(
        game=GameType.VERTEX,
        replay=_vertex_replay,
        sample_words=4,
        member=_vertex_member,
        pmf=_vertex_pmf,
        half_a=lambda ch: ch.vertex_a,
        half_b=lambda ch: ch.vertex_b,
        challenge=VertexChallenge,
        response_a=VertexResponse,
        response_b=VertexResponse,
        a_outcomes=lambda key: F3,
        b_outcomes=lambda key: F3,
        a_keys=lambda g: list(range(g.n)),
        b_keys=lambda g: list(range(g.n)),
        honest_a=lambda lab, v: lab.colors[v],
        honest_b=lambda lab, v: lab.colors[v],
        check=_vertex_check,
        to_json=asdict,
        shape=lambda ch: (ch.vertex_a == ch.vertex_b,),
    ),
}

_SPEC_OF_CHALLENGE = {spec.challenge: spec for spec in SPECS.values()}


# ---------------------------------------------------------------------------
# Sampling, exact pmfs and the verdict machine


def _require_edges(g: Graph) -> None:
    if not g.edges:
        raise EmptyGraphError("game needs a graph with at least one edge")


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


class ChallengeTable(InternTable):
    """One variant's challenges on one graph and mix, interned by the draws that pick them.

    Maps a replay's draw key to an index in `members`. A key's challenge is
    built by `spec.member` the first time the key is drawn, so the table
    holds only what has been drawn so far, never the whole support up front.
    Members are ordinary challenge objects: equal by value, with an equal
    hash, to freshly built ones (two keys may stand for equal challenges).

    A member's row is the batch engine's: (s, h_a, h_b, a0, a1, b0, b1), its shape index in its variant's
    `VERDICT_TABLES`, its halves' indices in `HONEST_TABLES`, and the vertices A's and B's honest answers
    read (`HonestTable.reads`). Only `batch_rows` makes it, so sampling fills no verdict or honest table.
    """

    def __init__(self, spec: GameSpec, g: Graph, mix: float):
        super().__init__((7,), np.int64)
        self.spec, self.mix, self.n, self.edges, self.adjacency = spec, mix, g.n, g.edges, g.adjacency
        self.ne = len(g.edges)
        self.radix = g.max_degree  # rzkp's neighbour draw is the key's lowest digit
        self.ends = [(d, 32 - d.bit_length()) for e in g.edges for d in map(g.degree, e)]  # at 2e + s, for rzkp
        self.members: list = []

    def _make(self, key: int) -> int:
        self.members.append(self.spec.member(self, key))
        return -1  # the row waits for `batch_rows`

    def batch_rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of members `idx`, making those not made yet under the table's lock."""
        new = idx[self.rows[idx, 0] < 0]
        if len(new):
            spec, (honest_a, honest_b) = self.spec, HONEST_TABLES[self.spec.game]
            with self._lock:
                for k in np.unique(new).tolist():
                    ch = self.members[k]
                    h_a, h_b = honest_a[spec.half_a(ch)], honest_b[spec.half_b(ch)]
                    s = VERDICT_TABLES[spec.game].of(ch)
                    self.rows[k] = (s, h_a, h_b, *honest_a.reads[h_a], *honest_b.reads[h_b])
        return self.rows[idx]


def challenge_table(kind: GameKind, g: Graph) -> ChallengeTable:
    """The `ChallengeTable` of `kind` on `g`, kept on the graph (as its adjacency is)."""
    key = (kind.game, kind.mix)
    try:
        return g.challenge_tables[key]
    except KeyError:
        _require_edges(g)
        return g.challenge_tables.setdefault(key, ChallengeTable(SPECS[kind.game], g, kind.mix))


class _DrawnWords:
    """One round's words for `sample_challenge`: reading `words[p]` draws `rng`'s next word (`getrandbits(32)`).

    A replay reads each position once and in order, so `rng` draws exactly the words of the variant's
    `randrange` and `random()` calls. There is no trailing draw: `trail_end[q]` is q.
    """

    __slots__ = ("_draw",)
    trail_end, pos = range(sys.maxsize), 0

    def __init__(self, rng: random.Random):
        self._draw = rng.getrandbits

    @property
    def words(self) -> _DrawnWords:
        return self

    def __getitem__(self, p: int) -> int:
        return self._draw(32)


def sample_challenge(kind: GameKind, g: Graph, rng: random.Random) -> Challenge:
    """Draw one challenge from the game's exact distribution: one round of the variant's `replay` on `rng`."""
    t, keys = challenge_table(kind, g), []
    t.spec.replay(t, _DrawnWords(rng), 1, keys, [])
    return t.members[t[keys[0]]]


def challenge_pmf(kind: GameKind, g: Graph) -> dict[Challenge, float]:
    """Exact challenge distribution as a finite map (probabilities sum to 1)."""
    _require_edges(g)
    return SPECS[kind.game].pmf(g, kind.mix)


def verdict(kind: GameKind, ch: Challenge, ra: Response, rb: Response) -> Verdict:
    """Apply the game's checks; total (malformed input rejects, never raises)."""
    try:
        spec = SPECS[kind.game]
        if not (
            isinstance(ch, spec.challenge) and isinstance(ra, spec.response_a) and isinstance(rb, spec.response_b)
        ):
            return _reject(Reason.MALFORMED)
        return spec.check(ch, ra, rb)
    except Exception:
        return _reject(Reason.MALFORMED)


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
    holds one response object per well-formed code of each side, which the batch log shares.
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
        ra = [self.responses[0].setdefault(c, spec.response_a(x)) for c, x in zip(ca, a_outs)]
        rb = [self.responses[1].setdefault(c, spec.response_b(x)) for c, x in zip(cb, b_outs)]
        for j, b in zip(cb, rb):
            t[ca, j] = [REASON_CODE[verdict(self.kind, ch, a, b).reason] for a in ra]
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


# ---------------------------------------------------------------------------
# Round loop


def wilson_interval(accepts: int, rounds: int) -> tuple[float, float]:
    z = 1.959963984540054  # the two-sided 95 % normal quantile
    if rounds == 0:
        return (0.0, 1.0)
    p = accepts / rounds
    denom = 1.0 + z * z / rounds
    center = (p + z * z / (2 * rounds)) / denom
    half = z * math.sqrt(p * (1.0 - p) / rounds + z * z / (4.0 * rounds * rounds)) / denom
    return (0.0 if accepts == 0 else max(0.0, center - half), 1.0 if accepts == rounds else min(1.0, center + half))


def play_rounds(
    kind: GameKind, g: Graph, pair, rounds: int, seed: int, keep_log: bool = False
) -> tuple[WinStats, Optional[list[Transcript]]]:
    """Play independent rounds against a strategy pair.

    Deterministic given the seed: all randomness comes from one substream
    derived from it, consumed in round order. Callers wanting parallelism
    split the work into chunks with distinct derived seeds. The pair either
    exposes split halves (`shared`/`answer_a`/`answer_b`, no cross-talk
    possible) or a joint sampler `respond` (used for Born-rule simulation of
    quantum strategies). Strategy exceptions count as Reject(malformed).

    Stream contract: round r draws its challenge (`sample_challenge`, one
    round of the variant's one draw order `spec.replay`: `randrange` and, for
    bcs and vertex, one `random()` first), then the pair's `shared` draw or
    `respond` draw, before round r + 1 draws anything. A `LabellingDraw`
    draws `randrange(6)` for the permutation when it permutes, then one
    `randrange(3)` per vertex of `colors_a`; a `JointSampler` draws one
    `random()`. Challenges come from the graph's `ChallengeTable`, whose
    members equal freshly built ones.

    Two kinds of pair are replayed in bulk, from the same words of the same
    stream, so they return equal stats and transcripts:
      * the built-in classical pairs (`honest_pair`, `fixed_coloring_pair`,
        `mismatched_pair`), when `_replayable_draw` takes them
        (`_play_labelled`);
      * a `JointSampler` such as `quantum.BornPair` whose `respond` is
        neither patched on the instance nor overridden (`_play_joint`). If
        a challenge's distribution raises, the call reruns in the scalar
        loop on a fresh stream, which rejects those rounds as malformed.
    Every other pair, a pair rebuilt with other callables included, runs
    the scalar loop.
    """
    if rounds < 0:
        raise GamesError("negative round count")
    if rounds == 0:
        return WinStats(0, 0, 1.0, (0.0, 1.0), degenerate=True), ([] if keep_log else None)
    played, draw = None, _replayable_draw(pair, g)
    if draw is not None:
        played = _play_labelled(kind, g, draw, rounds, substream("rounds", seed), keep_log)
    elif _replays_jointly(pair):
        played = _play_joint(kind, g, pair, rounds, substream("rounds", seed), keep_log)
    accepts, log = played or _play_scalar(kind, g, pair, rounds, substream("rounds", seed), keep_log)
    stats = WinStats(rounds, accepts, accepts / rounds, wilson_interval(accepts, rounds))
    return stats, log


def _play_scalar(kind: GameKind, g: Graph, pair, rounds: int, rng: random.Random, keep_log: bool):
    log: Optional[list[Transcript]] = [] if keep_log else None
    accepts = 0
    spec = SPECS[kind.game]
    split = hasattr(pair, "answer_a")
    for r in range(rounds):
        ch = sample_challenge(kind, g, rng)
        ra = rb = None
        try:
            if split:
                shared = pair.shared(kind, g, rng)
                ra = pair.answer_a(kind, spec.half_a(ch), shared)
                rb = pair.answer_b(kind, spec.half_b(ch), shared)
            else:
                ra, rb = pair.respond(kind, ch, rng)
            v = verdict(kind, ch, ra, rb)
        except Exception:
            v = _reject(Reason.MALFORMED)
        if v.accept:
            accepts += 1
        if log is not None:
            log.append(Transcript(r, ch, ra, rb, v))
    return accepts, log


# ---------------------------------------------------------------------------
# Batch round engine for the built-in classical pairs and the joint samplers


def _replayable_draw(pair, g: Graph) -> Optional[LabellingDraw]:
    """The pair's `LabellingDraw` when the batch engine can replay the pair, else None: its answers must be
    `labelled_answer_a`/`_b`, and both colorings must have `g.n` entries, each an int in {0, 1, 2}."""
    draw = getattr(pair, "shared", None)
    if (
        type(draw) is not LabellingDraw
        or getattr(pair, "answer_a", None) is not labelled_answer_a
        or getattr(pair, "answer_b", None) is not labelled_answer_b
        or len(draw.colors_a) != g.n
        or len(draw.colors_b) != g.n
    ):
        return None
    if not all(type(c) is int and 0 <= c <= 2 for c in draw.colors_a + draw.colors_b):
        return None
    return draw


def _replays_jointly(pair) -> bool:
    """Whether the batch engine replays `pair`: a `JointSampler` whose `respond` is neither overridden by
    its class nor patched on the instance."""
    return isinstance(pair, JointSampler) and type(pair).respond is JointSampler.respond and "respond" not in vars(pair)


# A word's digit, read from its top byte: `randrange(6)` takes the top three bits and
# `randrange(3)` the top two, and both reject the words whose top two bits are 11 (REJECTED).
# So digits 0-5 are `randrange(6)` values and `digit >> 1` is `randrange(3)`'s.
REJECTED = 6
DRAW_DIGITS = bytes(min(b >> 5, REJECTED) for b in range(256))
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


def accepted_draws(rng: random.Random, need: int) -> bytes:
    """The digits of (at least) the next `need` words of `rng` that `randrange(3)` accepts.

    `randbytes` yields the words little-endian, so every fourth byte is a
    word's top byte. A first draw with too few accepted words is topped up
    from the same rng, which continues its stream.
    """
    count = need + need // 2 + 8
    digits = b""
    while len(digits) < need:
        digits += rng.randbytes(4 * count)[3::4].translate(DRAW_DIGITS).replace(bytes([REJECTED]), b"")
        count = 2 * (need - len(digits))
    return digits


def labelling_at(colors, draws: bytes, vertices) -> Labelled:
    """`draw_labellings(colors, colors, True, rng)[0]` at `vertices` only, as dicts over them.

    `draws` is `accepted_draws(rng, len(colors) + 1)`: digit 0 picks the permutation, digit v + 1 gives w0[v].
    """
    perm = PERMS3[draws[0]]
    permuted = {v: perm[colors[v]] for v in vertices}
    w0 = {v: draws[v + 1] >> 1 for v in vertices}
    return Labelled(permuted, w0, {v: (permuted[v] - w0[v]) % 3 for v in vertices})


_PERM_TABLE = np.array(PERMS3)
_DIGITS = np.frombuffer(DRAW_DIGITS, np.uint8)


def _play_labelled(kind: GameKind, g: Graph, draw: LabellingDraw, rounds: int, rng: random.Random, keep_log: bool):
    """The scalar loop's accept count and log for a `LabellingDraw` pair, from the same rng words.

    `spec.replay` gives a block's challenge keys and label starts. A permuting round's first accepted
    word is its permutation and the next n accepted words are its bit-0 labels, each read from its
    word's top byte (see DRAW_DIGITS). Only the labels at the vertices a round's honest answers read
    (its `ChallengeTable.batch_rows` row) are decoded, in one gather, and the answers' payload codes come
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
        rows = table.batch_rows(idx)  # makes any new shape's and half's rows too
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


# ---------------------------------------------------------------------------
# Transcript logs (JSON lines)


def transcript_to_json_line(t: Transcript) -> str:
    spec = _SPEC_OF_CHALLENGE[type(t.challenge)]
    rec = {
        "round": t.round,
        "challenge": {"kind": spec.game.value, **spec.to_json(t.challenge)},
        "responses": [None if r is None else _payload(r) for r in (t.response_a, t.response_b)],
        "verdict": "accept" if t.verdict.accept else "reject",
        "reason": t.verdict.reason.value if t.verdict.reason else None,
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))
