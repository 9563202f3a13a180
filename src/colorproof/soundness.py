"""Closed-form quantum-value bounds and round-count estimation.

Two constant sets are implemented. The appendix-chain constants come from
the constructive reduction (they are the ones that reproduce the reference
round-count table and are the default); the main-statement constants give a
numerically looser bound. Computation runs at 40 decimal digits in mpmath
because the interesting quantities live around 1e-40.
"""

from __future__ import annotations

import enum
import math
import statistics
from dataclasses import dataclass

import mpmath as mp

from .graphs import extended_counts, min_extended_degree

_DPS = 40


class SoundnessError(ValueError):
    pass


class DegenerateDegreeError(SoundnessError):
    pass


class InsufficientPointsError(SoundnessError):
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
    eps_sou_log10: float  # log10 of the e^-k soundness target

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
    if max_deg > n - 1 or 3 * n - 3 - 2 * max_deg <= 0:
        raise DegenerateDegreeError(f"extended minimum degree 3*{n}-3-2*{max_deg} is not positive")


def _bracket(n: int, m: int, max_deg: int, variant: BoundVariant):
    """The degree/size bracket, normalized so that eps* = (m * m' * bracket)^-4.

    The appendix-chain bracket carries 1/m weights on its second and third
    terms (the 1/m of the classical gap is the explicit m factor outside);
    the main-statement bracket instead carries the edge count inside its
    degree term, which costs an extra m^4 relative to the chain.
    """
    with mp.workdps(_DPS):
        mm, dd = mp.mpf(m), mp.mpf(max_deg)
        min_deg_ext = mp.mpf(min_extended_degree(n, max_deg))
        if variant is BoundVariant.APPENDIX_CHAIN:
            t1 = (36 + 24 * mp.sqrt(6) + 24 * mp.sqrt(3)) / min_deg_ext
            t2 = 216 * mp.sqrt(3) * (19 + mp.sqrt(2)) * dd / mm
            t3 = (9 + 4 * mp.sqrt(2)) * (3 + mp.sqrt(3)) / mm
            return t1 + t2 + t3
        t1 = (324 + 108 * mp.sqrt(2)) * mm / min_deg_ext
        t2 = 20412 * mp.sqrt(2) * dd
        return t1 + t2 + 117


def edge_win_floor(n: int, m: int, max_deg: int, eps: float) -> float:
    """Lower bound on the edge-verification win rate of the extracted strategy.

    1 - eps^(1/4) * m' * bracket(n, m, max_deg); may be negative (vacuous).
    """
    _check_inputs(n, m, max_deg)
    if not 0.0 <= eps <= 1.0:
        raise SoundnessError(f"eps {eps} outside [0,1]")
    _, m_ext = extended_counts(n, m)
    with mp.workdps(_DPS):
        penalty = mp.power(mp.mpf(eps), mp.mpf(1) / 4) * m_ext * _bracket(n, m, max_deg, BoundVariant.APPENDIX_CHAIN)
        return float(1 - penalty)


def quantum_value_bound(
    n: int, m: int, max_deg: int, variant: BoundVariant = BoundVariant.APPENDIX_CHAIN, k: float = 100.0
) -> SoundnessReport:
    """Quantum-value gap 1 - omega_q and the round count for e^-k soundness.

    The gap is the smallest eps whose extracted classical strategy would beat
    the 1 - 1/m classical ceiling: eps* = (m * m' * bracket)^-4.
    """
    _check_inputs(n, m, max_deg)
    if k <= 0:
        raise SoundnessError(f"soundness exponent k must be positive, got {k}")
    n_ext, m_ext = extended_counts(n, m)
    with mp.workdps(_DPS):
        log10_base = mp.log10(mp.mpf(m)) + mp.log10(mp.mpf(m_ext)) + mp.log10(_bracket(n, m, max_deg, variant))
        log10_eps = -4 * log10_base
        log10_rounds = mp.log10(mp.mpf(k)) - log10_eps
        exp = int(mp.floor(log10_rounds))
        mant = float(mp.power(10, log10_rounds - exp))
        return SoundnessReport(
            variant=variant,
            n=n,
            m=m,
            max_deg=max_deg,
            k=float(k),
            n_ext=n_ext,
            m_ext=m_ext,
            epsilon_star=float(mp.power(10, log10_eps)),
            log10_epsilon_star=float(log10_eps),
            rounds_mantissa=mant,
            rounds_exponent=exp,
            log10_rounds=float(log10_rounds),
            eps_sou_log10=float(-mp.mpf(k) / mp.log(10)),
        )


def scaling_probe(
    points: list[tuple[int, int]], max_deg: int, variant: BoundVariant = BoundVariant.APPENDIX_CHAIN
) -> float:
    """Least-squares slope of log(1/(1 - omega_q)) against log(m).

    On a linear-density family m ~ c*n the slope sits near 8.
    """
    if len(points) < 4:
        raise InsufficientPointsError(f"need at least 4 points, got {len(points)}")
    ys = [-quantum_value_bound(n, m, max_deg, variant).log10_epsilon_star * math.log(10) for n, m in points]
    # a constant x need not raise StatisticsError: the fsum mean of 7 copies of log(103) is not log(103)
    if len({m for _, m in points}) < 2:
        raise InsufficientPointsError("degenerate fit: all points share one edge count")
    # natural log of 1/eps* against natural log of m
    return statistics.linear_regression([math.log(m) for _, m in points], ys).slope
