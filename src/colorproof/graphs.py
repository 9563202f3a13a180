"""Graphs, planted 3-colorable instances, and the prism-gadget extension.

Vertices are integers 0..n-1. Edges are stored normalized: each pair (i, j)
with i < j, sorted lexicographically, no duplicates. The gadget extension
attaches a triangular prism between every non-adjacent vertex pair of the
base graph; the closed-form size formulas for the extended graph live here
next to the explicit construction so the two can be cross-checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import ColorproofError
from .seeds import substream

Edge = tuple[int, int]


class GraphError(ColorproofError, ValueError):
    """Base class for graph construction and validation failures."""


class InfeasibleError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with normalized edge list."""

    n: int
    edges: tuple[Edge, ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(v)) for v in nbrs)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def challenge_tables(self) -> dict:
        """`games.challenge_table`'s tables, by (game, mix), made on first use."""
        return {}

    def __getstate__(self) -> dict:
        # the tables hold a lock and the game specs, which neither pickle nor copy; a copy rebuilds them
        return {k: v for k, v in self.__dict__.items() if k != "challenge_tables"}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edge_set

    def to_dict(self, witness: Optional[Sequence[int]] = None) -> dict:
        d: dict = {"n": self.n, "edges": [list(e) for e in self.edges]}
        if witness is not None:
            d["witness"] = list(witness)
        return d

    def canonical_bytes(self, witness: Optional[Sequence[int]] = None) -> bytes:
        return json.dumps(self.to_dict(witness), sort_keys=True, separators=(",", ":")).encode("ascii")

    def digest(self) -> bytes:
        """32-byte identity hash of the bare graph (witness never included)."""
        return hashlib.sha256(self.canonical_bytes()).digest()


@dataclass(frozen=True)
class PlantedInstance:
    """A graph together with a proper 3-coloring witness."""

    graph: Graph
    witness: tuple[int, ...]


@dataclass(frozen=True)
class Gadget:
    """One triangular prism attached to a non-adjacent base pair.

    Role vertices (a, b, c, d, e, f): triangles (a, b, c) and (d, e, f) plus
    the matching edges (a, d), (b, e), (c, f). Role a is the base vertex i,
    role e is the base vertex j; a and e are not adjacent, and each gains
    exactly 3 gadget-internal neighbors.
    """

    pair: Edge
    roles: tuple[int, int, int, int, int, int]
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ExtendedGraph:
    base: Graph
    full: Graph
    gadgets: tuple[Gadget, ...]


def _norm_edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def make_graph(n: int, raw_edges: Iterable[Sequence[int]]) -> Graph:
    """Build a normalized Graph, rejecting self-loops and bad endpoints."""
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
    seen: set[Edge] = set()
    for e in raw_edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise GraphError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i},{j}) outside 0..{n - 1}")
        seen.add(_norm_edge(i, j))
    return Graph(n, tuple(sorted(seen)))


def _ints(values, what: str) -> list[int]:
    """`values` as a list of ints; a document's value of any other type (a bool, a float, a string) is an error."""
    if not isinstance(values, list) or any(type(x) is not int for x in values):
        raise GraphError(f"{what} must be a list of integers, got {values!r}")
    return values


def graph_from_dict(d: dict) -> Graph:
    """The graph of a JSON document `{"n": int, "edges": [[i, j], ...]}`; GraphError if it has another form."""
    if not (isinstance(d, dict) and type(d.get("n")) is int and isinstance(d.get("edges"), list)):
        raise GraphError("a graph document must be an object with an integer n and a list of edges")
    if any(len(_ints(e, "an edge")) != 2 for e in d["edges"]):
        raise GraphError("each edge must be a pair [i, j]")
    return make_graph(d["n"], d["edges"])


def instance_from_dict(d: dict) -> PlantedInstance:
    g = graph_from_dict(d)
    if "witness" not in d:
        raise GraphError("instance file has no witness coloring")
    w = tuple(_ints(d["witness"], "witness"))
    bad = validate_coloring(g, w)
    if bad:
        raise GraphError(f"witness is not proper, monochromatic edges {bad}")
    return PlantedInstance(g, w)


def validate_coloring(g: Graph, colors: Sequence[int]) -> list[Edge]:
    """Return the monochromatic edges of `colors` on `g` (empty iff proper)."""
    if len(colors) != g.n:
        raise GraphError(f"coloring length {len(colors)} != n={g.n}")
    for c in colors:
        if c not in (0, 1, 2):
            raise GraphError(f"color {c} outside {{0,1,2}}")
    return [(i, j) for i, j in g.edges if colors[i] == colors[j]]


def gen_planted(n: int, m: int, seed: int) -> PlantedInstance:
    """Random graph with exactly m edges, all bichromatic under a planted witness.

    The witness coloring is sampled uniformly from all 3^n assignments, then m
    distinct bichromatic pairs are drawn without replacement. Deterministic in
    (n, m, seed).
    """
    if n < 3:
        raise GraphError(f"need n >= 3, got {n}")
    if m < 0:
        raise GraphError(f"edge count {m} is negative")
    rng = substream("planted", n, m, seed)
    witness = tuple(rng.randrange(3) for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if witness[i] != witness[j]]
    if m > len(pairs):
        raise InfeasibleError(
            f"asked for {m} edges but the sampled witness admits only {len(pairs)} bichromatic pairs"
        )
    edges = rng.sample(pairs, m)
    return PlantedInstance(make_graph(n, edges), witness)


def extended_counts(n: int, m: int) -> tuple[int, int]:
    """Exact vertex/edge counts of the gadget-extended graph.

    n' = 2n^2 - n - 4m and m' = (9/2)n(n-1) - 8m; n(n-1) is even so both are
    integers, and Python ints never overflow.
    """
    if n < 1:
        raise GraphError(f"need n >= 1, got {n}")
    if m < 0 or m > n * (n - 1) // 2:
        raise GraphError(f"edge count {m} impossible on {n} vertices")
    return 2 * n * n - n - 4 * m, 9 * n * (n - 1) // 2 - 8 * m


def min_extended_degree(n: int, max_deg: int) -> int:
    """Minimum degree in the extended graph over base vertices: 3n - 3 - 2*max_deg."""
    if max_deg > n - 1:
        raise GraphError(f"max degree {max_deg} impossible on {n} vertices")
    return 3 * n - 3 - 2 * max_deg


def extend_with_gadgets(g: Graph) -> ExtendedGraph:
    """Attach one triangular prism between every non-adjacent base pair.

    Canonical wiring for pair (i, j): roles a=i, e=j; fresh vertices appended
    after the base vertices in pair order, four per gadget in role order
    b, c, d, f.
    """
    edges: list[Edge] = list(g.edges)
    gadgets: list[Gadget] = []
    next_v = g.n
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (i, j) in g.edge_set:
                continue
            b, c, d, f = next_v, next_v + 1, next_v + 2, next_v + 3
            next_v += 4
            a, e = i, j
            ge = tuple(
                sorted(
                    _norm_edge(u, v)
                    for u, v in [(a, b), (a, c), (b, c), (d, e), (d, f), (e, f), (a, d), (b, e), (c, f)]
                )
            )
            edges.extend(ge)
            gadgets.append(Gadget(pair=(i, j), roles=(a, b, c, d, e, f), edges=ge))
    full = make_graph(next_v, edges)
    return ExtendedGraph(base=g, full=full, gadgets=tuple(gadgets))


def three_color(g: Graph) -> Optional[tuple[int, ...]]:
    """Backtracking 3-coloring search; returns a proper coloring or None.

    Vertices are tried in descending-degree order with the usual first-vertex
    symmetry break. Fast enough for the extended graphs of small bases. The
    search keeps its own stack, so no recursion limit caps the graph's size.
    """
    n, adj = g.n, g.adjacency
    order = sorted(range(n), key=lambda v: -g.degree(v))
    colors = [-1] * n
    used = [0] * (n + 1)  # used[pos]: color classes open before the vertex at pos
    taken: list = [None] * n  # taken[pos]: its neighbours' colors, which stay put until the search backs past pos
    pos = 0
    while 0 <= pos < n:
        v = order[pos]
        c = colors[v] + 1  # the next color to try; a vertex's first visit starts at 0
        if c == 0:
            taken[pos] = {colors[u] for u in adj[v]}
        limit = min(3, used[pos] + 1)  # new color classes introduced in order
        while c in taken[pos]:
            c += 1
        if c < limit:
            colors[v] = c
            used[pos + 1] = max(used[pos], c + 1)
            pos += 1
        else:
            colors[v] = -1
            pos -= 1
    return tuple(colors) if pos == n else None
