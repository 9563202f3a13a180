"""The four two-prover 3-coloring games: samplers, exact pmfs, verdicts.

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
Edge challenges always carry i < j. All samplers draw from an explicit
`random.Random` stream, return an index into the graph's `ChallengeTable`
of interned challenges, and match `challenge_pmf` exactly.

`play_rounds` replays the round stream of the built-in classical pairs in
bulk (see its docstring); the scalar `verdict` stays the oracle that the
column verdicts are tested against.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import random
import threading
from dataclasses import asdict, dataclass, fields
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


# the column verdicts return one code per round: 0 accepts, k rejects with the k-th Reason
VERDICT_OF_CODE = (ACCEPT, *(_reject(r) for r in Reason))
_MALFORMED, _EDGE, _WELL, _CONSTRAINT = (
    list(Reason).index(r) + 1
    for r in (Reason.MALFORMED, Reason.EDGE_VERIFICATION, Reason.WELL_DEFINITION, Reason.CONSTRAINT_SATISFACTION)
)
_PAD = -1  # fills a payload column past the row's arity (bcs A answers two bits to an edge constraint)


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
    return all(v in (0, 1, 2) for v in vals)


def _bits_ok(*vals: int) -> bool:
    return all(v in (0, 1) for v in vals)


def _colors_ok_columns(*cols: np.ndarray) -> np.ndarray:
    return np.logical_and.reduce([(c >= 0) & (c <= 2) for c in cols])


def _bits_ok_columns(*cols: np.ndarray) -> np.ndarray:
    return np.logical_and.reduce([(c == 0) | (c == 1) for c in cols])


# ---------------------------------------------------------------------------
# Per-variant definitions, collected into one GameSpec each below


# alt-rzkp: draws edge e, bit b, side s (endpoint s of e is v) and neighbour k of v
def _rzkp_sample(t: ChallengeTable, rng: random.Random) -> int:
    e = rng.randrange(t.ne)
    b = rng.randrange(2)
    s = rng.randrange(2)
    k = rng.randrange(len(t.adjacency[t.edges[e][s]]))
    return t[((e * 2 + b) * 2 + s) * t.radix + k]


def _rzkp_member(t: ChallengeTable, key: int) -> RzkpChallenge:
    ebs, k = divmod(key, t.radix)
    i, j = t.edges[ebs >> 2]
    v = (i, j)[ebs & 1]
    u = t.adjacency[v][k]
    return RzkpChallenge(edge_a=(i, j), edge_b=(v, u) if v < u else (u, v), bit=ebs >> 1 & 1)


def _rzkp_pmf(g: Graph, mix: float) -> dict:
    # (1/2|E|) * [ (d_ii' + d_ij') / 2|N(i)| + (d_jj' + d_ji') / 2|N(j)| ]
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


def _rzkp_check(ch: RzkpChallenge, ra: RzkpResponseA, rb: RzkpResponseB) -> Verdict:
    wi0, wi1, wj0, wj1 = ra.w
    if not (_colors_ok(wi0, wi1, wj0, wj1) and _colors_ok(*rb.w) and ch.bit in (0, 1)):
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


def _rzkp_check_columns(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    i, j, i2, j2, b = C.T
    wi0, wi1, wj0, wj1 = A.T
    bi, bj = B.T
    malformed = ~(_colors_ok_columns(wi0, wi1, wj0, wj1, bi, bj) & ((b == 0) | (b == 1)))
    a_j = np.where(b == 0, wj0, wj1)
    a_i = np.where(i == j, a_j, np.where(b == 0, wi0, wi1))

    def disagree(v, a):  # as the scalar dicts: B's second endpoint wins when i' == j'
        return ((v == i2) & (v != j2) & (a != bi)) | ((v == j2) & (a != bj))

    edge = (wi0 + wi1) % 3 == (wj0 + wj1) % 3
    return np.select([malformed, edge, disagree(i, a_i) | disagree(j, a_j)], [_MALFORMED, _EDGE, _WELL], 0)


def _rzkp_honest_columns(C: np.ndarray, lab: LabelColumns) -> tuple:
    i, j, i2, j2, b = C.T
    wi, wj = lab.w0(i), lab.w0(j)
    a = np.stack([wi, (lab.colors_a(i) - wi) % 3, wj, (lab.colors_a(j) - wj) % 3], axis=1)

    def label_b(v):
        w = lab.w0(v)
        return np.where(b == 0, w, (lab.colors_b(v) - w) % 3)

    return a, np.stack([label_b(i2), label_b(j2)], axis=1)


# alt-edge: draws edge e and side s
def _edge_sample(t: ChallengeTable, rng: random.Random) -> int:
    e = rng.randrange(t.ne)
    return t[2 * e + rng.randrange(2)]


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


def _edge_check_columns(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    i, j, v = C.T
    ci, cj = A.T
    well = ((v == i) & (ci != B)) | ((v == j) & (cj != B))
    return np.select([~_colors_ok_columns(ci, cj, B), ci == cj, well], [_MALFORMED, _EDGE, _WELL], 0)


def _edge_honest_columns(C: np.ndarray, lab: LabelColumns) -> tuple:
    i, j, v = C.T
    return np.stack([lab.colors_a(i), lab.colors_a(j)], axis=1), lab.colors_b(v)


# bcs: draws the branch, then edge e, color alpha and side s, or vertex i and color beta
def _bcs_sample(t: ChallengeTable, rng: random.Random) -> int:
    if rng.random() < t.mix:
        e = rng.randrange(t.ne)
        alpha = rng.randrange(3)
        return t[(e * 3 + alpha) * 2 + rng.randrange(2)]
    i = rng.randrange(t.n)
    return t[-1 - (i * 3 + rng.randrange(3))]


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


def _bcs_flat(ch: BcsChallenge) -> tuple:
    con = ch.constraint
    if isinstance(con, VertexConstraint):
        return (0, con.vertex, con.vertex, 0, ch.vertex_b, ch.color_b)
    return (1, *con.edge, con.color, ch.vertex_b, ch.color_b)


def _bcs_check_columns(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column `bcs` verdict; A's third column is read on vertex constraints only."""
    edge, x, y, alpha, vb, cb = C.T
    edge = edge == 1
    a0, a1, a2 = A.T
    malformed = ~(_bits_ok_columns(a0, a1, B) & (edge | _bits_ok_columns(a2)))
    unsatisfied = np.where(edge, a0 * a1 != 0, a0 + a1 + a2 != 1)
    well_vertex = (vb == x) & (np.choose(cb.clip(0, 2), (a0, a1, a2)) != B)
    well_edge = (cb == alpha) & (((vb == x) & (a0 != B)) | ((vb == y) & (a1 != B)))
    well = np.where(edge, well_edge, well_vertex)
    return np.select([malformed, unsatisfied, well], [_MALFORMED, _CONSTRAINT, _WELL], 0)


def _bcs_honest_columns(C: np.ndarray, lab: LabelColumns) -> tuple:
    edge, x, y, alpha, vb, cb = C.T
    edge = edge == 1
    cx, cy = lab.colors_a(x), lab.colors_a(y)
    a = np.stack(
        [np.where(edge, cx == alpha, cx == 0), np.where(edge, cy == alpha, cx == 1), np.where(edge, _PAD, cx == 2)],
        axis=1,
    )
    return a, (lab.colors_b(vb) == cb).astype(np.int64)


# vertex: draws the branch, then vertex i or edge e
def _vertex_sample(t: ChallengeTable, rng: random.Random) -> int:
    if rng.random() < t.mix:
        return t[-1 - rng.randrange(t.n)]
    return t[rng.randrange(t.ne)]


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


def _vertex_check_columns(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    diagonal = C[:, 0] == C[:, 1]
    return np.select(
        [~_colors_ok_columns(A, B), diagonal & (A != B), ~diagonal & (A == B)], [_MALFORMED, _WELL, _EDGE], 0
    )


# ---------------------------------------------------------------------------
# The spec table


@dataclass(frozen=True)
class GameSpec:
    """Everything that defines one game variant.

    `sample(t, rng)` draws one challenge from a `ChallengeTable` `t` of this
    variant and returns its index in `t.members`. It makes the variant's
    `randrange` and `random()` draws in a fixed order (see `play_rounds`),
    packs them into one int key and looks the key up in `t`. `member(t, key)`
    builds the challenge a key stands for, once per key and table.

    Outcomes are the payloads of the response classes (`response_a(outcome)`
    builds prover A's response). Keys are challenge halves; `a_keys(g)` and
    `b_keys(g)` enumerate every half of a graph in the order the PVM dicts of
    a quantum strategy hold them, which seeded strategy draws depend on.
    `honest_a(lab, key)` is the honest outcome for one labelling.

    The batch round engine reads three more entries. `flat(ch)` writes a
    challenge as a fixed-width int row (`ChallengeTable.rows` holds them).
    `honest_columns(C, lab)` gives the honest A and B payloads of a block of
    such rows as int columns (a 2-D array for tuple payloads, padded with -1
    past a row's arity, a 1-D one for int payloads). `check_columns(C, A, B)` is `check` on columns: one
    code per round, indexing `VERDICT_OF_CODE`.
    """

    game: GameType
    sample: Callable[[ChallengeTable, random.Random], int]
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
    flat: Callable[[Challenge], tuple]
    honest_columns: Callable[[np.ndarray, LabelColumns], tuple]
    check_columns: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


_LABELS4 = tuple(itertools.product(F3, repeat=4))
_LABELS2 = tuple(itertools.product(F3, repeat=2))
_BITS3 = tuple(itertools.product((0, 1), repeat=3))
_BITS2 = tuple(itertools.product((0, 1), repeat=2))

SPECS = {
    GameType.ALT_RZKP: GameSpec(
        game=GameType.ALT_RZKP,
        sample=_rzkp_sample,
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
        flat=lambda ch: (*ch.edge_a, *ch.edge_b, ch.bit),
        honest_columns=_rzkp_honest_columns,
        check_columns=_rzkp_check_columns,
    ),
    GameType.ALT_EDGE: GameSpec(
        game=GameType.ALT_EDGE,
        sample=_edge_sample,
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
        flat=lambda ch: (*ch.edge_a, ch.vertex_b),
        honest_columns=_edge_honest_columns,
        check_columns=_edge_check_columns,
    ),
    GameType.BCS: GameSpec(
        game=GameType.BCS,
        sample=_bcs_sample,
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
        flat=_bcs_flat,
        honest_columns=_bcs_honest_columns,
        check_columns=_bcs_check_columns,
    ),
    GameType.VERTEX: GameSpec(
        game=GameType.VERTEX,
        sample=_vertex_sample,
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
        flat=lambda ch: (ch.vertex_a, ch.vertex_b),
        honest_columns=lambda C, lab: (lab.colors_a(C[:, 0]), lab.colors_b(C[:, 1])),
        check_columns=_vertex_check_columns,
    ),
}

_SPEC_OF_CHALLENGE = {spec.challenge: spec for spec in SPECS.values()}


def half_a(ch: Challenge):
    """The part of a challenge that prover A is allowed to see."""
    return _SPEC_OF_CHALLENGE[type(ch)].half_a(ch)


def half_b(ch: Challenge):
    """The part of a challenge that prover B is allowed to see."""
    return _SPEC_OF_CHALLENGE[type(ch)].half_b(ch)


# ---------------------------------------------------------------------------
# Sampling, exact pmfs and the verdict machine


def _require_edges(g: Graph) -> None:
    if not g.edges:
        raise EmptyGraphError("game needs a graph with at least one edge")


class ChallengeTable(dict):
    """One variant's challenges on one graph and mix, interned by the draws that pick them.

    Maps a sampler's draw key to an index in `members`. A key's challenge is
    built by `spec.member` the first time the key is drawn, so the table
    holds only what has been drawn so far, never the whole support up front.
    Members are ordinary challenge objects: equal by value, with an equal
    hash, to freshly built ones (two keys may stand for equal challenges).
    """

    def __init__(self, spec: GameSpec, g: Graph, mix: float):
        super().__init__()
        self.spec, self.mix, self.n, self.edges, self.adjacency = spec, mix, g.n, g.edges, g.adjacency
        self.ne = len(g.edges)
        self.radix = g.max_degree  # rzkp's neighbour draw is the key's lowest digit
        self.members: list = []
        self._rows = np.empty((0, 0), np.int64)
        self.responses = (_Responses(spec.response_a), _Responses(spec.response_b))  # for the batch log
        self._lock = threading.Lock()

    def __missing__(self, key: int) -> int:
        with self._lock:  # one index per key when threads share a graph
            if key not in self:
                self.members.append(self.spec.member(self, key))
                self[key] = len(self.members) - 1
            return self[key]

    def rows(self) -> np.ndarray:
        """`spec.flat` of every member so far, as int rows indexed like `members`."""
        rows = self._rows
        if len(rows) < len(self.members):
            new = np.array(list(map(self.spec.flat, self.members[len(rows) :])), np.int64)
            rows = self._rows = np.concatenate([rows, new]) if len(rows) else new
        return rows


def challenge_table(kind: GameKind, g: Graph) -> ChallengeTable:
    """The `ChallengeTable` of `kind` on `g`, kept on the graph (as its adjacency is)."""
    key = (kind.game, kind.mix)
    try:
        return g.challenge_tables[key]
    except KeyError:
        _require_edges(g)
        return g.challenge_tables.setdefault(key, ChallengeTable(SPECS[kind.game], g, kind.mix))


def sample_challenge(kind: GameKind, g: Graph, rng: random.Random) -> Challenge:
    """Draw one challenge from the game's exact distribution."""
    t = challenge_table(kind, g)
    return t.members[t.spec.sample(t, rng)]


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
    return (max(0.0, center - half), min(1.0, center + half))


def play_rounds(
    kind: GameKind,
    g: Graph,
    pair,
    rounds: int,
    seed: int,
    keep_log: bool = False,
) -> tuple[WinStats, Optional[list[Transcript]]]:
    """Play independent rounds against a strategy pair.

    Deterministic given the seed: all randomness comes from one substream
    derived from it, consumed in round order. Callers wanting parallelism
    split the work into chunks with distinct derived seeds. The pair either
    exposes split halves (`shared`/`answer_a`/`answer_b`, no cross-talk
    possible) or a joint sampler `respond` (used for Born-rule simulation of
    quantum strategies). Strategy exceptions count as Reject(malformed).

    Stream contract: round r draws its challenge (`spec.sample`: `randrange`
    and, for bcs and vertex, one `random()` first), then the pair's
    `shared` draw or `respond` draw, before round r + 1 draws anything. A
    `LabellingDraw` draws `randrange(6)` for the permutation when it permutes,
    then one `randrange(3)` per vertex of `colors_a`.

    Challenges come from the graph's `ChallengeTable`: the sampler's draws
    index a member built once, which is equal by value to a fresh challenge,
    so the contract and the transcripts are those of building it per round.

    The built-in classical pairs (`honest_pair`, `fixed_coloring_pair`,
    `mismatched_pair`) are replayed in bulk when their `shared` is a
    `LabellingDraw` and their answers are `labelled_answer_a`/`_b`, both
    colorings have `g.n` entries and every color is an int in {0, 1, 2}.
    That path consumes the same words of the same stream and returns equal
    stats and transcripts, reading challenge rows from the table by index and
    logging interned responses; every other pair, a pair rebuilt with other
    callables included, runs the scalar loop.
    """
    if rounds < 0:
        raise GamesError("negative round count")
    if rounds == 0:
        return WinStats(0, 0, 1.0, (0.0, 1.0), degenerate=True), ([] if keep_log else None)
    rng = substream("rounds", seed)
    draw = _replayable_draw(pair, g)
    if draw is not None:
        accepts, log = _play_labelled(kind, g, draw, rounds, rng, keep_log)
    else:
        accepts, log = _play_scalar(kind, g, pair, rounds, rng, keep_log)
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
# Batch round engine for the built-in classical pairs


def _replayable_draw(pair, g: Graph) -> Optional[LabellingDraw]:
    """The pair's `LabellingDraw` when the batch engine can replay the pair, else None."""
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


# A word's digit, read from its top byte: `randrange(6)` takes the top three bits and
# `randrange(3)` the top two, and both reject the words whose top two bits are 11 (REJECTED).
# So digits 0-5 are `randrange(6)` values and `digit >> 1` is `randrange(3)`'s.
REJECTED = 6
DRAW_DIGITS = bytes(min(b >> 5, REJECTED) for b in range(256))
_REFILL_WORDS = 1 << 12
_BLOCK_WORDS = 1 << 20  # about the words one block of rounds draws, which bounds the buffer


class WordStream:
    """A `random.Random` stream drawn in bulk as 32-bit words and replayed.

    Each word is one output of the generator (MT19937's `genrand_uint32`).
    `rng.randbytes(4 * W)` is `getrandbits(32 * W)` in little-endian order:
    the next W words, in draw order, read as `'<u4'` on any platform. The
    methods consume words as CPython's `random.Random` does: `randrange(n)`
    takes the top `n.bit_length()` bits of a word and draws again while the
    value is >= n; `random()` takes two words a, b and returns
    ((a >> 5) * 2**26 + (b >> 6)) / 2**53. Reading past the buffer draws
    more words from the same rng, which continues the stream exactly.
    """

    __slots__ = ("_rng", "_raw", "words", "digits", "pos")

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._reset(b"")
        self.pos = 0  # the next word to consume

    def _reset(self, raw: bytes) -> None:
        # `digits` holds each word's digit (see DRAW_DIGITS)
        self._raw = raw
        self.words = memoryview(np.frombuffer(raw, "<u4").astype(np.uint32, copy=False))
        self.digits = raw[3::4].translate(DRAW_DIGITS)

    def extend(self, count: int) -> None:
        """Draw `count` more words from the rng."""
        self._reset(self._raw + self._rng.randbytes(4 * count))

    def _refill(self) -> None:
        # an eighth of the buffer at least, so that copying it on each refill costs O(1) per word
        self.extend(max(_REFILL_WORDS, len(self.digits) // 8))

    def drop_consumed(self) -> None:
        """Forget the words before `pos` (positions restart at 0)."""
        self._reset(self._raw[4 * self.pos :])
        self.pos = 0

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
        first = p = self.pos
        q = p + n
        digits = self.digits
        rejected = digits.count(REJECTED, p, q)
        while rejected:
            p = q
            q += rejected
            rejected = digits.count(REJECTED, p, q)
        if q > len(digits):  # counted past the buffer: draw more and count again
            self._refill()
            return self.skip_labels(n)
        self.pos = q
        return first


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


class LabelColumns:
    """The labellings of a block of rounds, read at one vertex per round.

    `firsts` holds where each round's `LabellingDraw` starts in the
    stream's buffer. A permuting round's first accepted word is its
    permutation and the next n accepted words are its bit-0 labels, all read
    from the stream's digits (see DRAW_DIGITS).
    """

    def __init__(self, draw: LabellingDraw, stream: WordStream, firsts: list):
        self._colors_a = _PERM_TABLE[:, list(draw.colors_a)]
        self._colors_b = _PERM_TABLE[:, list(draw.colors_b)]
        self._digits = np.frombuffer(stream.digits, np.uint8)
        self._accepted = np.flatnonzero(self._digits != REJECTED)
        self._first = np.searchsorted(self._accepted, firsts)
        self._perms = 0
        if draw.permute:
            self._perms = self._digits[self._accepted[self._first]]
            self._first += 1

    def colors_a(self, v: np.ndarray) -> np.ndarray:
        return self._colors_a[self._perms, v]

    def colors_b(self, v: np.ndarray) -> np.ndarray:
        return self._colors_b[self._perms, v]

    def w0(self, v: np.ndarray) -> np.ndarray:
        return (self._digits[self._accepted[self._first + v]] >> 1).astype(np.int64)


class _Responses(dict):
    """One response class's objects by payload code, each built on first use.

    An int payload's code is the int. A tuple payload's code has one base-4
    digit per column, the first column most significant, each the value plus
    1, so the -1 padding is a 0 digit and drops out when decoded.
    """

    def __init__(self, cls: type):
        super().__init__()
        self.cls = cls
        self.tuples = False

    def __missing__(self, code: int) -> Response:
        payload = tuple(int(d) - 1 for d in np.base_repr(code, 4) if d != "0") if self.tuples else code
        r = self[code] = self.cls(payload)
        return r

    def of(self, x: np.ndarray):
        """The response to each round of a column of honest payloads."""
        self.tuples = x.ndim == 2  # a variant's payloads of one side are all ints or all tuples
        if not self.tuples:
            return map(self.__getitem__, x.tolist())
        return map(self.__getitem__, ((x + 1) @ (4 ** np.arange(x.shape[1] - 1, -1, -1))).tolist())


def _play_labelled(kind: GameKind, g: Graph, draw: LabellingDraw, rounds: int, rng: random.Random, keep_log: bool):
    """The scalar loop's accept count and log for a `LabellingDraw` pair, from the same rng words.

    Python runs the sampler per round, which yields a table index; the
    labelling draw is skipped in C, and only the labels the round reads are
    decoded afterwards, with the answers and the verdicts, as numpy columns.
    """
    spec = SPECS[kind.game]
    table = challenge_table(kind, g)
    sample, n, permute = spec.sample, g.n, draw.permute
    per_round = 4 * n // 3 + 16  # about the words of one round: n labels, the permutation, the challenge
    block = max(1, _BLOCK_WORDS // per_round)
    draws = n + 1 if permute else n  # see LabelColumns
    stream = WordStream(rng)
    skip_labels = stream.skip_labels
    accepts = 0
    log: Optional[list[Transcript]] = [] if keep_log else None
    for start in range(0, rounds, block):
        count = min(block, rounds - start)
        stream.extend(count * per_round)
        idx, firsts = [], []
        for _ in range(count):
            idx.append(sample(table, stream))
            firsts.append(skip_labels(draws))
        C = table.rows()[idx]
        A, B = spec.honest_columns(C, LabelColumns(draw, stream, firsts))
        codes = spec.check_columns(C, A, B)
        accepts += count - int(np.count_nonzero(codes))
        if log is not None:
            chs = map(table.members.__getitem__, idx)
            ra, rb = table.responses[0].of(A), table.responses[1].of(B)
            verdicts = map(VERDICT_OF_CODE.__getitem__, codes.tolist())
            log.extend(map(Transcript, range(start, start + count), chs, ra, rb, verdicts))
        stream.drop_consumed()
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
