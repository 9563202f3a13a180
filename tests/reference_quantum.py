"""Scalar reference of the stacked quantum kernels.

`joint_probabilities` and `eps_table` evaluate every pair of operators at
once; `_qform` evaluates one pair, as the tests' reference for both.
`_marginal` sums one family at a time, as the reductions' reference.
`random_strategy` and `arbitrary_strategy` build one family at a time, as
`quantum`'s generators did before they rotated each side in one batch; the
stacked generators must draw from the same rng in the same order and return
the same bits.
"""

import math
from typing import Optional, Sequence

import numpy as np

from colorproof.games import SPECS, GameType
from colorproof.graphs import Graph, three_color
from colorproof.quantum import QuantumStrategy, _honest_outcomes


def _qform(psi_mat: np.ndarray, a_op: np.ndarray, b_op: np.ndarray) -> float:
    # <psi| A (x) B |psi> = Tr[Psi^dag A Psi B^T]
    return float(np.vdot(psi_mat, a_op @ psi_mat @ b_op.T).real)


def _marginal(fam: dict, pos: int, value: int, d: int) -> np.ndarray:
    """Sum the family over the non-`pos` component of its 2-tuple outcomes."""
    return sum((p for out, p in fam.items() if out[pos] == value), np.zeros((d, d), dtype=complex))


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _expi_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(1j * t * lam)) @ v.conj().T


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / (2.0 * math.sqrt(d))


def _rotated_partition(space: Sequence, assign: Sequence[int], u: np.ndarray) -> dict:
    """{outcome: U P U^dag}, P projecting onto the basis vectors k with space[assign[k]] == outcome."""
    d = len(assign)
    diag = np.zeros((len(space), d, d), dtype=complex)
    diag[assign, range(d), range(d)] = 1.0
    return dict(zip(space, u @ diag @ u.conj().T))


def random_strategy(
    game: GameType,
    g: Graph,
    dim_a: int,
    dim_b: int,
    rng: np.random.Generator,
    jiggle: float = 0.3,
    colors: Optional[Sequence[int]] = None,
) -> QuantumStrategy:
    if colors is None:
        colors = three_color(g)
    spec = SPECS[game]
    a_map, b_map = _honest_outcomes(spec, g, colors)

    def build(space, honest, d):
        assign = [space.index(honest)] + [rng.integers(len(space)) for _ in range(d - 1)]
        u = _expi_hermitian(_random_hermitian(d, rng), jiggle * math.pi)
        return _rotated_partition(space, assign, u)

    pvm_a = {k: build(spec.a_outcomes(k), honest, dim_a) for k, honest in a_map.items()}
    pvm_b = {k: build(spec.b_outcomes(k), honest, dim_b) for k, honest in b_map.items()}
    anchor = np.zeros(dim_a * dim_b, dtype=complex)
    anchor[0] = 1.0
    noise = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = (1.0 - jiggle) * anchor + jiggle * noise / np.linalg.norm(noise)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, pvm_a, pvm_b)


def arbitrary_strategy(game: GameType, g: Graph, dim_a: int, dim_b: int, rng: np.random.Generator) -> QuantumStrategy:
    spec = SPECS[game]

    def build(space, d):
        assign = [rng.integers(len(space)) for _ in range(d)]
        return _rotated_partition(space, assign, _haar_unitary(d, rng))

    pvm_a = {key: build(spec.a_outcomes(key), dim_a) for key in spec.a_keys(g)}
    pvm_b = {key: build(spec.b_outcomes(key), dim_b) for key in spec.b_keys(g)}
    psi = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = psi / np.linalg.norm(psi)
    return QuantumStrategy(game, dim_a, dim_b, psi, pvm_a, pvm_b)
