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
`random.Random` stream and match `challenge_pmf` exactly.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
import random
from dataclasses import asdict, dataclass, fields
from typing import Callable, Optional, Union

from .graphs import Edge, Graph
from .seeds import substream

F3 = (0, 1, 2)


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
            raise ValueError(f"mixture weight {self.mix} outside [0,1]")


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


@dataclass(frozen=True, slots=True)
class RzkpChallenge:
    edge_a: Edge
    edge_b: Edge
    bit: int


@dataclass(frozen=True, slots=True)
class EdgeChallenge:
    edge_a: Edge
    vertex_b: int


@dataclass(frozen=True, slots=True)
class VertexConstraint:
    vertex: int


@dataclass(frozen=True, slots=True)
class EdgeConstraint:
    edge: Edge
    color: int


@dataclass(frozen=True, slots=True)
class BcsChallenge:
    constraint: Union[VertexConstraint, EdgeConstraint]
    vertex_b: int
    color_b: int


@dataclass(frozen=True, slots=True)
class VertexChallenge:
    vertex_a: int
    vertex_b: int


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


# ---------------------------------------------------------------------------
# Per-variant definitions, collected into one GameSpec each below


# alt-rzkp
def _rzkp_sample(g: Graph, mix: float, rng: random.Random) -> RzkpChallenge:
    i, j = g.edges[rng.randrange(len(g.edges))]
    b = rng.randrange(2)
    v = i if rng.randrange(2) == 0 else j
    nbrs = g.adjacency[v]
    u = nbrs[rng.randrange(len(nbrs))]
    eb = (v, u) if v < u else (u, v)
    return RzkpChallenge(edge_a=(i, j), edge_b=eb, bit=b)


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


# alt-edge
def _edge_sample(g: Graph, mix: float, rng: random.Random) -> EdgeChallenge:
    i, j = g.edges[rng.randrange(len(g.edges))]
    v = i if rng.randrange(2) == 0 else j
    return EdgeChallenge(edge_a=(i, j), vertex_b=v)


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


# bcs
def _bcs_sample(g: Graph, mix: float, rng: random.Random) -> BcsChallenge:
    if rng.random() < mix:
        e = g.edges[rng.randrange(len(g.edges))]
        alpha = rng.randrange(3)
        k = e[rng.randrange(2)]
        return BcsChallenge(EdgeConstraint(edge=e, color=alpha), vertex_b=k, color_b=alpha)
    i = rng.randrange(g.n)
    beta = rng.randrange(3)
    return BcsChallenge(VertexConstraint(vertex=i), vertex_b=i, color_b=beta)


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


# vertex
def _vertex_sample(g: Graph, mix: float, rng: random.Random) -> VertexChallenge:
    if rng.random() < mix:
        i = rng.randrange(g.n)
        return VertexChallenge(i, i)
    i, j = g.edges[rng.randrange(len(g.edges))]
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

    Outcomes are the payloads of the response classes (`response_a(outcome)`
    builds prover A's response). Keys are challenge halves; `a_keys(g)` and
    `b_keys(g)` enumerate every half of a graph in the order the PVM dicts of
    a quantum strategy hold them, which seeded strategy draws depend on.
    `honest_a(lab, key)` is the honest outcome for one labelling.
    """

    game: GameType
    sample: Callable[[Graph, float, random.Random], Challenge]
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


_LABELS4 = tuple(itertools.product(F3, repeat=4))
_LABELS2 = tuple(itertools.product(F3, repeat=2))
_BITS3 = tuple(itertools.product((0, 1), repeat=3))
_BITS2 = tuple(itertools.product((0, 1), repeat=2))

SPECS = {
    GameType.ALT_RZKP: GameSpec(
        game=GameType.ALT_RZKP,
        sample=_rzkp_sample,
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
    ),
    GameType.ALT_EDGE: GameSpec(
        game=GameType.ALT_EDGE,
        sample=_edge_sample,
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
    ),
    GameType.BCS: GameSpec(
        game=GameType.BCS,
        sample=_bcs_sample,
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
    ),
    GameType.VERTEX: GameSpec(
        game=GameType.VERTEX,
        sample=_vertex_sample,
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


def sample_challenge(kind: GameKind, g: Graph, rng: random.Random) -> Challenge:
    """Draw one challenge from the game's exact distribution."""
    _require_edges(g)
    return SPECS[kind.game].sample(g, kind.mix, rng)


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


def wilson_interval(accepts: int, rounds: int, z: float = 1.959963984540054) -> tuple[float, float]:
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
    """
    if rounds < 0:
        raise GamesError("negative round count")
    if rounds == 0:
        return WinStats(0, 0, 1.0, (0.0, 1.0), degenerate=True), ([] if keep_log else None)
    log: Optional[list[Transcript]] = [] if keep_log else None
    accepts = 0
    spec = SPECS[kind.game]
    split = hasattr(pair, "answer_a")
    rng = substream("rounds", seed)
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
    stats = WinStats(rounds, accepts, accepts / rounds, wilson_interval(accepts, rounds))
    return stats, log


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
