import math

import pytest

from colorproof.soundness import (
    BoundVariant,
    SoundnessError,
    edge_win_floor,
    quantum_value_bound,
    scaling_probe,
)

TABLE = [
    (200, 380, 8.54e40),
    (600, 1122, 5.95e44),
    (900, 1695, 1.54e46),
]


@pytest.mark.parametrize("n,m,rounds", TABLE)
def test_round_table_rows(n, m, rounds):
    rep = quantum_value_bound(n, m, 4, BoundVariant.APPENDIX_CHAIN, k=100.0)
    got = rep.rounds_mantissa * 10.0**rep.rounds_exponent
    assert abs(got - rounds) / rounds < 0.01


def test_report_fields_consistent():
    rep = quantum_value_bound(200, 380, 4)
    assert 0.0 < rep.epsilon_star < 1.0
    assert rep.n_ext == 78280 and rep.m_ext == 176060
    assert rep.rounds_mantissa * 10.0**rep.rounds_exponent >= rep.k
    assert rep.rounds_str == "8.54e40"
    with pytest.raises(SoundnessError):
        quantum_value_bound(200, 380, 4, k=0)


def test_edge_win_floor_no_penalty_at_zero():
    assert edge_win_floor(200, 380, 4, 0.0) == 1.0


def test_edge_win_floor_threshold_consistency():
    # at eps = eps* the floor meets the classical ceiling 1 - 1/m exactly
    for n, m, _ in TABLE:
        rep = quantum_value_bound(n, m, 4)
        floor = edge_win_floor(n, m, 4, rep.epsilon_star)
        assert abs(floor - (1.0 - 1.0 / m)) < 1e-6 * (1.0 / m)


def test_threshold_matches_reference_magnitude():
    rep = quantum_value_bound(200, 380, 4)
    assert rep.epsilon_star == pytest.approx(1.171e-39, rel=1e-3)


def test_bracket_constant_independent_arithmetic():
    # the three penalty terms at (200, 380, 4), rebuilt from scratch
    t1 = (36 + 24 * math.sqrt(6) + 24 * math.sqrt(3)) / 589
    t2 = 216 * math.sqrt(3) * (19 + math.sqrt(2)) * 4 / 380
    t3 = (9 + 4 * math.sqrt(2)) * (3 + math.sqrt(3)) / 380
    bracket = t1 + t2 + t3
    assert bracket == pytest.approx(80.808, abs=5e-3)
    # eps* must equal (m * m_ext * bracket)^-4
    rep = quantum_value_bound(200, 380, 4)
    assert rep.epsilon_star == pytest.approx((380 * 176060 * bracket) ** -4, rel=1e-9)


def test_main_variant_is_looser():
    app = quantum_value_bound(200, 380, 4, BoundVariant.APPENDIX_CHAIN)
    main = quantum_value_bound(200, 380, 4, BoundVariant.MAIN_THEOREM)
    assert main.epsilon_star < app.epsilon_star
    ratio = app.epsilon_star / main.epsilon_star
    assert ratio > 1.0  # reported, not pinned


def test_main_variant_exact_closed_form():
    # independent float evaluation of the main-statement form:
    # eps* = (1 / (m^4 m_ext^4)) * [ (324+108*sqrt(2))*m/(3n-3-2d) + 20412*sqrt(2)*d + 117 ]^-4
    n, m, d = 200, 380, 4
    brk = (324 + 108 * math.sqrt(2)) * m / (3 * n - 3 - 2 * d) + 20412 * math.sqrt(2) * d + 117
    expect = (m * 176060 * brk) ** -4.0
    rep = quantum_value_bound(n, m, d, BoundVariant.MAIN_THEOREM)
    assert rep.epsilon_star == pytest.approx(expect, rel=1e-12)


def test_rounds_monotone_in_n_and_along_table():
    # monotone in n at fixed m; along the table's own (n, m) diagonal the
    # rows strictly increase (the raw m-direction is not monotone for this
    # bound: the -8m term inside m_ext dominates)
    base = quantum_value_bound(400, 700, 4).log10_rounds
    assert quantum_value_bound(500, 700, 4).log10_rounds > base
    assert quantum_value_bound(700, 700, 4).log10_rounds > quantum_value_bound(500, 700, 4).log10_rounds
    rows = [quantum_value_bound(n, m, 4).log10_rounds for n, m, _ in TABLE]
    assert rows == sorted(rows)


def test_rounds_str_mantissa_carry():
    import dataclasses

    rep = quantum_value_bound(200, 380, 4)
    carried = dataclasses.replace(rep, rounds_mantissa=9.9999, rounds_exponent=40)
    assert carried.rounds_str == "1.00e41"
    assert dataclasses.replace(rep, rounds_mantissa=9.99, rounds_exponent=40).rounds_str == "9.99e40"


def test_degenerate_degree():
    with pytest.raises(SoundnessError, match=r"^extended minimum degree 3\*3-3-2\*3 is not positive$"):
        quantum_value_bound(3, 3, 3)


# edge_win_floor(n, m, 4, eps) on the table rows, for eps = 1e-40, 1e-24 and the row's own eps*
FLOORS = {
    (200, 380): (0.9985772946107812, -13.227053892187987, 0.9973684210526316),
    (600, 1122): (0.9955986707716238, -43.01329228376257, 0.9991087344028521),
    (900, 1695): (0.9934289639200643, -64.71036079935722, 0.9994100294985251),
}


@pytest.mark.parametrize("n,m", sorted(FLOORS))
def test_edge_win_floor_pinned(n, m):
    eps_star = quantum_value_bound(n, m, 4).epsilon_star
    assert tuple(edge_win_floor(n, m, 4, eps) for eps in (1e-40, 1e-24, eps_star)) == FLOORS[(n, m)]


def test_edge_win_floor_input_validation():
    with pytest.raises(SoundnessError):
        edge_win_floor(200, 380, 4, 1.5)
    with pytest.raises(SoundnessError):
        edge_win_floor(200, 380, 4, -0.1)
    with pytest.raises(SoundnessError):
        edge_win_floor(4, 100, 2, 0.0)  # impossible edge count
    with pytest.raises(SoundnessError, match="^need n >= 2 and m >= 1, got n=3, m=0$"):
        edge_win_floor(3, 0, 2, 0.0)


@pytest.mark.parametrize(
    "n,m,max_deg",
    [(10, 5, -1), (10, 5, 0), (10, 40, 1), (200, 401, 4), (10, 5, 10)],
    ids=["max-deg-minus-1", "max-deg-0", "2m-over-n-max-deg", "table-row-one-edge-too-many", "max-deg-over-n-minus-1"],
)
def test_impossible_degree_bound_rejected(n, m, max_deg):
    # no graph on n vertices with max degree max_deg has more than n*max_deg/2 edges
    with pytest.raises(SoundnessError, match="no graph on"):
        quantum_value_bound(n, m, max_deg)
    with pytest.raises(SoundnessError, match="no graph on"):
        edge_win_floor(n, m, max_deg, 0.0)


@pytest.mark.parametrize("k", [math.nan, math.inf])
def test_non_finite_soundness_exponent_rejected(k):
    with pytest.raises(SoundnessError, match="positive and finite"):
        quantum_value_bound(10, 5, 4, k=k)


def test_scaling_exponent_near_eight():
    pts = [(n, int(1.9 * n)) for n in (200, 400, 600, 900)]
    slope = scaling_probe(pts, 4)
    assert abs(slope - 8.0) < 0.5


def test_scaling_probe_input_validation():
    with pytest.raises(SoundnessError, match="^need at least 4 points, got 3$"):
        scaling_probe([(200, 380), (400, 760), (600, 1140)], 4)
    with pytest.raises(SoundnessError, match="^degenerate fit: all points share one edge count$"):
        scaling_probe([(200, 380)] * 5, 4)


def test_floor_penalty_scales_as_quarter_power():
    # the gap 1 - floor must scale exactly like eps^(1/4)
    e1, e2 = 1e-20, 1e-16
    gap1 = 1.0 - edge_win_floor(200, 380, 4, e1)
    gap2 = 1.0 - edge_win_floor(200, 380, 4, e2)
    slope = math.log(gap2 / gap1) / math.log(e2 / e1)
    assert slope == pytest.approx(0.25, abs=1e-9)


def test_bound_agrees_with_plain_float_arithmetic():
    # independent double-precision evaluation of the same closed form
    for n, m, _ in TABLE:
        d = 4
        n_ext = 2 * n * n - n - 4 * m
        m_ext = 9 * n * (n - 1) // 2 - 8 * m
        bracket = (
            (36 + 24 * math.sqrt(6) + 24 * math.sqrt(3)) / (3 * n - 3 - 2 * d)
            + 216 * math.sqrt(3) * (19 + math.sqrt(2)) * d / m
            + (9 + 4 * math.sqrt(2)) * (3 + math.sqrt(3)) / m
        )
        eps_float = (m * m_ext * bracket) ** -4.0
        rep = quantum_value_bound(n, m, d)
        assert rep.epsilon_star == pytest.approx(eps_float, rel=1e-12)
        assert (rep.n_ext, rep.m_ext) == (n_ext, m_ext)


def test_huge_inputs_stay_finite():
    rep = quantum_value_bound(10**6, 19 * 10**5, 4)
    assert math.isfinite(rep.log10_rounds)
    assert rep.epsilon_star >= 0.0  # may underflow float, log10 is authoritative
    assert rep.log10_epsilon_star < -50
