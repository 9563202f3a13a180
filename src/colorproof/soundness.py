"""Closed-form quantum-value bounds and round-count estimation.

Two constant sets are implemented. The appendix-chain constants come from
the constructive reduction (they are the ones that reproduce the reference
round-count table and are the default); the main-statement constants give a
numerically looser bound. Computation runs in `decimal` at 40 digits so that
each returned float is the correctly rounded one, which the CLI goldens pin;
range is no reason, since float64 reaches 1e-308.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal, localcontext

from . import ColorproofError
from .graphs import extended_counts, min_extended_degree

_CONTEXT = Context(prec=40)


class SoundnessError(ColorproofError, ValueError):
    pass


class BoundVariant(enum.Enum):
    MAIN_THEOREM = "main"
    APPENDIX_CHAIN = "appendix"


@dataclass(frozen=True)
class SoundnessReport:
    variant: BoundVariant
    n: int
    m: int
    max_deg: int
    k: float
    n_ext: int
    m_ext: int
    epsilon_star: float  # 1 - omega_q, the quantum-value gap
    log10_epsilon_star: float
    rounds_mantissa: float
    rounds_exponent: int
    log10_rounds: float

    @property
    def rounds_str(self) -> str:
        mant, exp = self.rounds_mantissa, self.rounds_exponent
        if round(mant, 2) >= 10.0:  # carry when display rounding overflows the mantissa
            mant, exp = mant / 10.0, exp + 1
        return f"{mant:.2f}e{exp}"


def _check_inputs(n: int, m: int, max_deg: int) -> None:
    if n < 2 or m < 1:
        raise SoundnessError(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m > n * (n - 1) // 2:
        raise SoundnessError(f"edge count {m} impossible on {n} vertices")
    if max_deg < 1 or 2 * m > n * max_deg:
        raise SoundnessError(f"no graph on {n} vertices has {m} edges and max degree {max_deg}")
    if 3 * n - 3 - 2 * max_deg <= 0:
        raise SoundnessError(f"extended minimum degree 3*{n}-3-2*{max_deg} is not positive")
    if max_deg > n - 1:
        raise SoundnessError(f"no graph on {n} vertices has max degree {max_deg}")


def _bracket(n: int, m: int, max_deg: int, variant: BoundVariant) -> Decimal:
    """The degree/size bracket, normalized so that eps* = (m * m' * bracket)^-4.

    The appendix-chain bracket carries 1/m weights on its second and third
    terms (the 1/m of the classical gap is the explicit m factor outside);
    the main-statement bracket instead carries the edge count inside its
    degree term, which costs an extra m^4 relative to the chain.
    """
    if variant is BoundVariant.APPENDIX_CHAIN:
        t1 = (36 + 24 * Decimal(6).sqrt() + 24 * Decimal(3).sqrt()) / min_extended_degree(n, max_deg)
        t2 = 216 * Decimal(3).sqrt() * (19 + Decimal(2).sqrt()) * max_deg / m
        t3 = (9 + 4 * Decimal(2).sqrt()) * (3 + Decimal(3).sqrt()) / m
        return t1 + t2 + t3
    t1 = (324 + 108 * Decimal(2).sqrt()) * m / min_extended_degree(n, max_deg)
    t2 = 20412 * Decimal(2).sqrt() * max_deg
    return t1 + t2 + 117


def edge_win_floor(n: int, m: int, max_deg: int, eps: float) -> float:
    """Lower bound on the edge-verification win rate of the extracted strategy.

    1 - eps^(1/4) * m' * bracket(n, m, max_deg); may be negative (vacuous).
    """
    _check_inputs(n, m, max_deg)
    if not 0.0 <= eps <= 1.0:
        raise SoundnessError(f"eps {eps} outside [0,1]")
    _, m_ext = extended_counts(n, m)
    with localcontext(_CONTEXT):
        penalty = Decimal(eps).sqrt().sqrt() * m_ext * _bracket(n, m, max_deg, BoundVariant.APPENDIX_CHAIN)
        return float(1 - penalty)


def quantum_value_bound(
    n: int, m: int, max_deg: int, variant: BoundVariant = BoundVariant.APPENDIX_CHAIN, k: float = 100.0
) -> SoundnessReport:
    """Quantum-value gap 1 - omega_q and the round count for e^-k soundness.

    The gap is the smallest eps whose extracted classical strategy would beat
    the 1 - 1/m classical ceiling: eps* = (m * m' * bracket)^-4.
    """
    _check_inputs(n, m, max_deg)
    if not 0 < k < math.inf:
        raise SoundnessError(f"soundness exponent k must be positive and finite, got {k}")
    n_ext, m_ext = extended_counts(n, m)
    with localcontext(_CONTEXT):
        base = m * m_ext * _bracket(n, m, max_deg, variant)
        log10_eps = -4 * base.log10()
        log10_rounds = Decimal(k).log10() - log10_eps
        exp = int(log10_rounds.to_integral_value(ROUND_FLOOR))
        return SoundnessReport(
            variant=variant,
            n=n,
            m=m,
            max_deg=max_deg,
            k=float(k),
            n_ext=n_ext,
            m_ext=m_ext,
            epsilon_star=float(base**-4),
            log10_epsilon_star=float(log10_eps),
            rounds_mantissa=float(Decimal(10) ** (log10_rounds - exp)),
            rounds_exponent=exp,
            log10_rounds=float(log10_rounds),
        )


def scaling_probe(
    points: list[tuple[int, int]], max_deg: int, variant: BoundVariant = BoundVariant.APPENDIX_CHAIN
) -> float:
    """Least-squares slope of log(1/(1 - omega_q)) against log(m).

    On a linear-density family m ~ c*n the slope sits near 8.
    """
    if len(points) < 4:
        raise SoundnessError(f"need at least 4 points, got {len(points)}")
    ys = [-quantum_value_bound(n, m, max_deg, variant).log10_epsilon_star * math.log(10) for n, m in points]
    # a constant x need not raise StatisticsError: the fsum mean of 7 copies of log(103) is not log(103)
    if len({m for _, m in points}) < 2:
        raise SoundnessError("degenerate fit: all points share one edge count")
    # natural log of 1/eps* against natural log of m
    return statistics.linear_regression([math.log(m) for _, m in points], ys).slope
