"""The verdict tables against the scalar verdict.

`engine.VERDICT_TABLES` keeps one table of `verdict()` per challenge shape,
whatever the graph. A shape that leaves out something the verdict reads
would give two challenges one table where their verdicts differ; a shape that
keeps a vertex name would give each graph its own shapes. The first test
catches both on every member of every table; the second holds the quantum
winning sets read from the tables equal to the per-pair `verdict()` loop they
replaced.
"""

import random

import numpy as np
import pytest

from colorproof import audits, engine, games, quantum
from colorproof.games import (
    REASON_CODE,
    SPECS,
    GameKind,
    GameType,
    challenge_pmf,
    challenge_table,
    sample_challenge,
    verdict,
)
from colorproof.graphs import extend_with_gadgets, gen_planted, make_graph

SHAPE_COUNTS = {GameType.ALT_RZKP: 10, GameType.ALT_EDGE: 2, GameType.BCS: 5, GameType.VERTEX: 2}


def _graphs() -> dict:
    return {
        "k3": make_graph(3, [(0, 1), (1, 2), (0, 2)]),
        "c5": make_graph(5, [(k, (k + 1) % 5) for k in range(5)]),
        "planted-20-40": gen_planted(20, 40, 1).graph,
        # a path with a pendant triangle: vertices 0 and 5 have one neighbour
        "degree-one": make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)]),
        "extended-p3": extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)])).full,
    }


def _fill(kind: GameKind, g) -> games.ChallengeTable:
    """The graph's table once it holds every challenge of the support."""
    t, support, rng = challenge_table(kind, g), set(challenge_pmf(kind, g)), random.Random(3)
    for _ in range(200_000):
        if support <= set(t.members):
            return t
        sample_challenge(kind, g, rng)
    raise AssertionError(f"{len(support - set(t.members))} challenges never drawn")


@pytest.mark.parametrize("game", list(GameType), ids=lambda game: game.value)
def test_every_member_gets_its_own_verdict_from_its_shape(game):
    kind, spec, tables = GameKind(game), SPECS[game], engine.VERDICT_TABLES[game]
    for name, g in _graphs().items():
        t = _fill(kind, g)
        shapes = engine.batch_rows(t, np.arange(len(t.members)))[:, 0]
        for ch, s in zip(t.members, shapes.tolist()):
            a_outs, b_outs = spec.a_outcomes(spec.half_a(ch)), spec.b_outcomes(spec.half_b(ch))
            ca = list(map(engine._payload_code, a_outs))
            for b in b_outs:
                want = [REASON_CODE[verdict(kind, ch, a, b).reason] for a in a_outs]
                assert tables.rows[s, ca, engine._payload_code(b)].tolist() == want, (name, ch, b)
    graphs = [gen_planted(n, m, 1).graph for n, m in ((20, 40), (60, 120))]
    counts = [len({spec.shape(ch) for ch in challenge_pmf(kind, g)}) for g in graphs]
    assert counts == [SHAPE_COUNTS[game]] * 2  # a vertex name in a shape would grow with the graph


def test_threads_sharing_a_verdict_table_fill_each_shape_once(race):
    spec = SPECS[GameType.ALT_RZKP]
    t = engine.VerdictTable(spec)  # empty: every thread races to fill the same shapes
    chs = list(challenge_pmf(games.ALT_RZKP, gen_planted(20, 40, 1).graph))
    got: dict = {}

    def look_up(k):
        got[k] = [(ch, t.of(ch)) for ch in chs[k:] + chs[:k]]

    race(look_up)
    assert sorted(t.values()) == list(range(SHAPE_COUNTS[GameType.ALT_RZKP])) and len(t.wins) == len(t) <= len(t.rows)
    assert all(s == t[spec.shape(ch)] for pairs in got.values() for ch, s in pairs)


def _reference_winning_sets(kind: GameKind, g) -> tuple[list, list, np.ndarray]:
    """`quantum._winning_sets` as one `verdict()` call per (challenge, A outcome, B outcome)."""
    spec = SPECS[kind.game]
    a_rows, b_cols = {}, {}
    rows, cols, probs = [], [], []
    for ch, p in challenge_pmf(kind, g).items():
        a_key, b_key = spec.half_a(ch), spec.half_b(ch)
        a_sp = spec.a_outcomes(a_key)
        for b_out in spec.b_outcomes(b_key):
            wins = [a_out for a_out in a_sp if verdict(kind, ch, a_out, b_out).accept]
            if wins:
                rows += [a_rows.setdefault((a_key, a_out), len(a_rows)) for a_out in wins]
                cols += [b_cols.setdefault((b_key, b_out), len(b_cols))] * len(wins)
                probs += [p] * len(wins)
    weights = np.zeros((len(a_rows), len(b_cols)))
    np.add.at(weights, (rows, cols), probs)
    return list(a_rows), list(b_cols), weights


WINNING_GRAPHS = {
    "k3": lambda: make_graph(3, [(0, 1), (1, 2), (0, 2)]),
    "c5": lambda: make_graph(5, [(k, (k + 1) % 5) for k in range(5)]),
    "extended-p3": lambda: extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)])).full,
    "planted-12-20": lambda: gen_planted(12, 20, 2).graph,
}
KINDS = [games.ALT_RZKP, games.ALT_EDGE, games.BCS, games.VERTEX, audits.BCS_EDGE_ONLY]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: f"{k.game.value}-{k.mix}")
@pytest.mark.parametrize("name", sorted(WINNING_GRAPHS))
def test_winning_sets_equal_the_per_pair_verdicts(name, kind):
    names = sorted(WINNING_GRAPHS)
    other = WINNING_GRAPHS[names[(names.index(name) + 1) % len(names)]]()
    quantum._winning_sets.cache_clear()
    quantum._winning_sets(kind, other)  # another graph fills the shape tables this check reads
    g = WINNING_GRAPHS[name]()
    a_rows, b_cols, weights = quantum._winning_sets(kind, g)
    want_rows, want_cols, want = _reference_winning_sets(kind, g)
    assert (a_rows, b_cols) == (want_rows, want_cols)
    assert np.array_equal(weights, want)
