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
of the joint (Born-rule) samplers in bulk (see its docstring), through the
batch round engine in `engine`, which it imports only then: this module
loads no numpy. The scalar `verdict` is each variant's one verdict and
`honest_a` and `honest_b` the one honest answer; the engine's tables are
filled from them.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import random
import sys
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

from . import ColorproofError, GameType
from .graphs import Edge, Graph
from .seeds import substream

if TYPE_CHECKING:
    from .engine import WordStream

F3 = (0, 1, 2)
PERMS3 = tuple(itertools.permutations(F3))


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


class GamesError(ColorproofError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Challenges


# Challenges are named tuples: they key a count or cache dict every round, and a tuple hashes and compares in C.
# A plain tuple of the same fields is equal to one, so `verdict`'s type check is what rejects it.
class RzkpChallenge(NamedTuple):
    edge_a: Edge
    edge_b: Edge
    bit: int


class EdgeChallenge(NamedTuple):
    edge_a: Edge
    vertex_b: int


class VertexConstraint(NamedTuple):
    vertex: int


class EdgeConstraint(NamedTuple):
    edge: Edge
    color: int


class BcsChallenge(NamedTuple):
    constraint: Union[VertexConstraint, EdgeConstraint]
    vertex_b: int
    color_b: int


class VertexChallenge(NamedTuple):
    vertex_a: int
    vertex_b: int


Challenge = Union[RzkpChallenge, EdgeChallenge, BcsChallenge, VertexChallenge]


# A response is the outcome of that prover's measurement. alt-rzkp: A's (w_i^0, w_i^1, w_j^0, w_j^1) and B's
# bit-b labels of (i', j'); alt-edge: A's two colors and B's one; bcs: A's 3 bits for a vertex constraint or 2 for
# an edge constraint, and B's one bit; vertex: one color each
Response = object


class Labelled(NamedTuple):
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


def labelled_answer_a(kind: GameKind, half, labs: tuple[Labelled, Labelled]) -> Response:
    """Prover A's honest answer from the first labelling of a `LabellingDraw`."""
    return SPECS[kind.game].honest_a(labs[0], half)


def labelled_answer_b(kind: GameKind, half, labs: tuple[Labelled, Labelled]) -> Response:
    """Prover B's honest answer from the second labelling of a `LabellingDraw`."""
    return SPECS[kind.game].honest_b(labs[1], half)


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


class Transcript(NamedTuple):
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


def _rzkp_check(ch: RzkpChallenge, ra: tuple, rb: tuple) -> Verdict:
    wi0, wi1, wj0, wj1 = ra
    if not (_colors_ok(wi0, wi1, wj0, wj1) and len(rb) == 2 and _colors_ok(*rb) and ch.bit in (0, 1)):
        return _reject(Reason.MALFORMED)
    if (wi0 + wi1) % 3 == (wj0 + wj1) % 3:
        return _reject(Reason.EDGE_VERIFICATION)
    i, j = ch.edge_a
    b = ch.bit
    a_label = {i: ra[b], j: ra[2 + b]}
    b_label = {ch.edge_b[0]: rb[0], ch.edge_b[1]: rb[1]}
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


def _edge_check(ch: EdgeChallenge, ra: tuple, rb: int) -> Verdict:
    ci, cj = ra
    if not _colors_ok(ci, cj, rb):
        return _reject(Reason.MALFORMED)
    if ci == cj:
        return _reject(Reason.EDGE_VERIFICATION)
    i, j = ch.edge_a
    if ch.vertex_b == i and ci != rb:
        return _reject(Reason.WELL_DEFINITION)
    if ch.vertex_b == j and cj != rb:
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


def _bcs_check(ch: BcsChallenge, ra: tuple, rb: int) -> Verdict:
    if not _bits_ok(*ra, rb):
        return _reject(Reason.MALFORMED)
    con = ch.constraint
    if isinstance(con, VertexConstraint):
        if len(ra) != 3:
            return _reject(Reason.MALFORMED)
        if sum(ra) != 1:
            return _reject(Reason.CONSTRAINT_SATISFACTION)
        if ch.vertex_b == con.vertex and ra[ch.color_b] != rb:
            return _reject(Reason.WELL_DEFINITION)
        return ACCEPT
    if len(ra) != 2:
        return _reject(Reason.MALFORMED)
    if ra[0] * ra[1] != 0:
        return _reject(Reason.CONSTRAINT_SATISFACTION)
    if ch.color_b == con.color:
        i, j = con.edge
        if ch.vertex_b == i and ra[0] != rb:
            return _reject(Reason.WELL_DEFINITION)
        if ch.vertex_b == j and ra[1] != rb:
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


def _vertex_check(ch: VertexChallenge, ra: int, rb: int) -> Verdict:
    if not _colors_ok(ra, rb):
        return _reject(Reason.MALFORMED)
    if ch.vertex_a == ch.vertex_b:
        if ra != rb:
            return _reject(Reason.WELL_DEFINITION)
        return ACCEPT
    if ra == rb:
        return _reject(Reason.EDGE_VERIFICATION)
    return ACCEPT


# ---------------------------------------------------------------------------
# The spec table


@dataclass(frozen=True)
class GameSpec:
    """Everything that defines one game variant.

    `replay(t, stream, count, keys, starts)` is the variant's one draw order.
    It plays `count` rounds of an `engine.WordStream` from `stream.pos` in one loop,
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

    A prover's outcome is its response, the tuple or int that `check` reads.
    Keys are challenge halves; `a_keys(g)` and
    `b_keys(g)` enumerate every half of a graph in the order the layout of a
    generated quantum strategy holds them, which seeded strategy draws depend on.
    `honest_a(lab, half)` is the honest outcome for one labelling. An honest
    function reads the labelling (its `colors`, `w0` and `w1`) at the same
    one or two vertices of its half, whatever the labels are: `engine.HONEST_TABLES`
    finds those vertices by calling it once and tabulates its outcome on
    every label they can carry.

    `shape(ch)` is a small tuple of what `check` reads of a challenge besides
    the answers, with no vertex names: challenges of one shape get one verdict
    on every answer pair, so `engine.VERDICT_TABLES` keeps one table per shape.
    """

    game: GameType
    replay: Callable[[ChallengeTable, WordStream, int, list, list], None]
    sample_words: int
    member: Callable[[ChallengeTable, int], Challenge]
    pmf: Callable[[Graph, float], dict]
    half_a: Callable[[Challenge], object]
    half_b: Callable[[Challenge], object]
    challenge: type
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
        a_outcomes=lambda key: _LABELS4,
        b_outcomes=lambda key: _LABELS2,
        a_keys=lambda g: list(g.edges),
        b_keys=lambda g: [(e, b) for e in g.edges for b in (0, 1)],
        honest_a=lambda lab, e: (lab.w0[e[0]], lab.w1[e[0]], lab.w0[e[1]], lab.w1[e[1]]),
        honest_b=_rzkp_honest_b,
        check=_rzkp_check,
        to_json=RzkpChallenge._asdict,
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
        a_outcomes=lambda key: _LABELS2,
        b_outcomes=lambda key: F3,
        a_keys=lambda g: list(g.edges),
        b_keys=lambda g: [v for v in range(g.n) if g.degree(v) > 0],
        honest_a=lambda lab, edge: (lab.colors[edge[0]], lab.colors[edge[1]]),
        honest_b=lambda lab, v: lab.colors[v],
        check=_edge_check,
        to_json=EdgeChallenge._asdict,
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
        a_outcomes=lambda key: F3,
        b_outcomes=lambda key: F3,
        a_keys=lambda g: list(range(g.n)),
        b_keys=lambda g: list(range(g.n)),
        honest_a=lambda lab, v: lab.colors[v],
        honest_b=lambda lab, v: lab.colors[v],
        check=_vertex_check,
        to_json=VertexChallenge._asdict,
        shape=lambda ch: (ch.vertex_a == ch.vertex_b,),
    ),
}

_SPEC_OF_CHALLENGE = {spec.challenge: spec for spec in SPECS.values()}


# ---------------------------------------------------------------------------
# Sampling, exact pmfs and the verdict machine


def _require_edges(g: Graph) -> None:
    if not g.edges:
        raise GamesError("game needs a graph with at least one edge")


class ChallengeTable(dict):
    """One variant's challenges on one graph and mix, interned by the draws that pick them.

    Maps a replay's draw key to an index in `members`. A key's challenge is
    built by `spec.member` the first time the key is drawn, so the table
    holds only what has been drawn so far, never the whole support up front.
    Members are ordinary challenges, equal to freshly built ones (two keys
    may stand for equal challenges).
    A new key's member is built under the table's one lock and its index
    published last, so whoever finds the key finds its member. `rows` is the
    batch engine's, made under the same lock by `engine.batch_rows`.
    """

    def __init__(self, spec: GameSpec, g: Graph, mix: float):
        super().__init__()
        self.spec, self.mix, self.n, self.edges, self.adjacency = spec, mix, g.n, g.edges, g.adjacency
        self.ne = len(g.edges)
        self.radix = g.max_degree  # rzkp's neighbour draw is the key's lowest digit
        self.ends = [(d, 32 - d.bit_length()) for e in g.edges for d in map(g.degree, e)]  # at 2e + s, for rzkp
        self.members: list = []
        self.rows = None
        self._lock = threading.Lock()

    def __missing__(self, key: int) -> int:
        with self._lock:
            if key not in self:  # another thread may have made it while this one waited
                self.members.append(self.spec.member(self, key))
                self[key] = len(self.members) - 1  # last: whoever finds the key finds its member
            return self[key]


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
        if not isinstance(ch, spec.challenge):
            return _reject(Reason.MALFORMED)
        return spec.check(ch, ra, rb)
    except Exception:
        return _reject(Reason.MALFORMED)


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
    `randrange(3)` per vertex of `colors_a`; an `engine.JointSampler` draws one
    `random()`. Challenges come from the graph's `ChallengeTable`, whose
    members equal freshly built ones.

    Two kinds of pair are replayed in bulk, from the same words of the same
    stream, so they return equal stats and transcripts:
      * the built-in classical pairs (`honest_pair`, `fixed_coloring_pair`,
        `mismatched_pair`), when `_replayable_draw` takes them
        (`engine._play_labelled`);
      * an `engine.JointSampler` such as `quantum.BornPair` whose `respond` is
        neither patched on the instance nor overridden (`engine._play_joint`). If
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
    if draw is not None or not hasattr(pair, "answer_a"):  # the engine may take it: load it, and numpy, only now
        from . import engine
        if draw is not None:
            played = engine._play_labelled(kind, g, draw, rounds, substream("rounds", seed), keep_log)
        elif engine._replays_jointly(pair):
            played = engine._play_joint(kind, g, pair, rounds, substream("rounds", seed), keep_log)
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
# The batch path's way in, and the labelling draw's digits, which the wire prover reads too


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
        or not all(type(c) is int and 0 <= c <= 2 for c in draw.colors_a + draw.colors_b)
    ):
        return None
    return draw


# A word's digit, read from its top byte: `randrange(6)` takes the top three bits and
# `randrange(3)` the top two, and both reject the words whose top two bits are 11 (REJECTED).
# So digits 0-5 are `randrange(6)` values and `digit >> 1` is `randrange(3)`'s.
REJECTED = 6
DRAW_DIGITS = bytes(min(b >> 5, REJECTED) for b in range(256))


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


# ---------------------------------------------------------------------------
# Transcript logs (JSON lines)


def transcript_to_json_line(t: Transcript) -> str:
    spec = _SPEC_OF_CHALLENGE[type(t.challenge)]
    rec = {
        "round": t.round,
        "challenge": {"kind": spec.game.value, **spec.to_json(t.challenge)},
        "responses": [t.response_a, t.response_b],
        "verdict": "accept" if t.verdict.accept else "reject",
        "reason": t.verdict.reason.value if t.verdict.reason else None,
    }
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))
