"""The honest tables against the scalar honest answers.

`engine.HONEST_TABLES` keeps, per variant and side, each challenge half's
honest answer as a table over the labels of the one or two vertices it
reads, found by calling `honest_a`/`honest_b` once. A half whose answer reads
a vertex the table does not list, or reads it differently, gets a row that
disagrees with the scalar answer on some labelling; the first test checks
every half of five graphs on random full-length labellings.
"""

import random

import pytest

from colorproof import engine
from colorproof.engine import HonestTable
from colorproof.games import SPECS, GameKind, GameType, Labelled, challenge_pmf
from colorproof.graphs import extend_with_gadgets, gen_planted, make_graph


def _graphs() -> dict:
    return {
        "k3": make_graph(3, [(0, 1), (1, 2), (0, 2)]),
        "c5": make_graph(5, [(k, (k + 1) % 5) for k in range(5)]),
        "extended-p3": extend_with_gadgets(make_graph(3, [(0, 1), (1, 2)])).full,
        "planted-20-40": gen_planted(20, 40, 1).graph,
        "isolated-vertex": make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # vertex 4 has no edge
    }


def _halves(game: GameType, g) -> tuple[list, list]:
    """Every A half and every B half of the game's challenges on `g`, in pmf order."""
    spec, support = SPECS[game], challenge_pmf(GameKind(game), g)
    return list(dict.fromkeys(map(spec.half_a, support))), list(dict.fromkeys(map(spec.half_b, support)))


@pytest.mark.parametrize("game", list(GameType), ids=lambda game: game.value)
def test_every_half_row_is_its_scalar_honest_answer(game):
    spec, rng = SPECS[game], random.Random(f"honest-{game.value}")
    for name, g in _graphs().items():
        labs = [Labelled.split([rng.randrange(3) for _ in range(g.n)], [rng.randrange(3) for _ in range(g.n)]) for _ in range(30)]
        for table, honest, halves in zip(engine.HONEST_TABLES[game], (spec.honest_a, spec.honest_b), _halves(game, g)):
            for half in halves:
                h = table[half]
                v0, v1 = table.reads[h]
                for lab in labs:
                    d0, d1 = (3 * lab.colors[v] + lab.w0[v] for v in (v0, v1))
                    assert table.rows[h, d0 + 9 * d1] == engine._payload_code(honest(lab, half)), (name, half, lab)


def test_a_half_read_at_one_vertex_lists_it_twice():
    honest_a, honest_b = engine.HONEST_TABLES[GameType.VERTEX]
    assert honest_a.reads[honest_a[3]] == (3, 3)
    rzkp_b = engine.HONEST_TABLES[GameType.ALT_RZKP][1]
    assert rzkp_b.reads[rzkp_b[((2, 5), 1)]] == (2, 5)


def test_threads_sharing_an_honest_table_fill_each_half_once(race):
    spec = SPECS[GameType.BCS]
    t = HonestTable(spec.honest_a)  # empty: every thread races to fill the same halves, through several regrowths
    halves = _halves(GameType.BCS, gen_planted(20, 40, 1).graph)[0]
    got: dict = {}

    def look_up(k):
        got[k] = [(half, t[half]) for half in halves[k:] + halves[:k]]

    race(look_up, timeout=60)
    assert sorted(t.values()) == list(range(len(halves))) and len(t.reads) == len(halves)
    assert all(t[half] == h for pairs in got.values() for half, h in pairs)
    serial = HonestTable(spec.honest_a)
    for half in halves:
        s = serial[half]
        assert t.reads[t[half]] == serial.reads[s]
        assert t.rows[t[half]].tolist() == serial.rows[s].tolist()
