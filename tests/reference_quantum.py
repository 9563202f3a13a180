"""Scalar reference of the stacked quantum kernels.

`joint_probabilities` and `eps_table` evaluate every pair of operators at
once; `_qform` evaluates one pair, as the tests' reference for both.
`_marginal` sums one family at a time, as the reductions' reference.
`random_strategy` and `arbitrary_strategy` build one family at a time, as
`quantum`'s generators did before they rotated each side in one batch; the
stacked generators must draw from the same rng in the same order and return
the same bits. `validate_side` checks a side in its {key: {outcome:
projector}} dict form, as `quantum` did before a side was one stack, and
`stack_ops` stacks a reader's (key, outcome) rows from that form; the
stacked validator and gather must raise and return the same. `dense` gives
tests a side's dict form to corrupt or prune, and `strategy_of` and
`rebuilt` the strategy built from it.
"""

import math
from typing import Optional, Sequence

import numpy as np

from colorproof.games import SPECS, GameType
from colorproof.graphs import Graph, three_color
from colorproof.quantum import (
    PROJ_TOL,
    Layout,
    QuantumStrategy,
    Side,
    StrategyError,
    _block_diag,
    _honest_outcomes,
)


def dense(side: Side) -> dict:
    """The side as a plain {key: {outcome: projector}} dict, each projector its dense (R*d, R*d) block diagonal."""
    lay, ops = side.layout, _block_diag(side.ops)
    return {key: dict(zip(outs, ops[a:b])) for key, outs, a, b in zip(lay.keys, lay.outs, lay.starts, lay.starts[1:])}


def strategy_of(game: GameType, dim_a: int, dim_b: int, psi: np.ndarray, pvm_a: dict, pvm_b: dict) -> QuantumStrategy:
    """The strategy of {key: {outcome: projector}} families at R = 1, each side stacked in key then outcome order;
    StrategyError names the first projector that is not dim x dim."""

    def side(pvms: dict, dim: int, name: str) -> Side:
        for key, fam in pvms.items():
            for out, p in fam.items():
                if np.shape(p) != (dim, dim):
                    what = f"{name} pvm {key}: projector for {out}"
                    raise StrategyError(f"{what} has shape {np.shape(p)}, want {(dim, dim)}")
        ops = np.array([p for fam in pvms.values() for p in fam.values()], dtype=complex)
        return Side(ops.reshape(-1, 1, dim, dim), Layout(pvms, [fam.keys() for fam in pvms.values()]))

    return QuantumStrategy(game, dim_a, dim_b, psi, side(pvm_a, dim_a, "A"), side(pvm_b, dim_b, "B"))


def rebuilt(s: QuantumStrategy, pvm_a: Optional[dict] = None, pvm_b: Optional[dict] = None) -> QuantumStrategy:
    """`s` built again from the dict form at R = 1, with either side's families replaced."""
    pvm_a = dense(s.a) if pvm_a is None else pvm_a
    pvm_b = dense(s.b) if pvm_b is None else pvm_b
    return strategy_of(s.game, s.dim_a, s.dim_b, s.psi, pvm_a, pvm_b)


def basis_changed(s: QuantumStrategy, u_a: np.ndarray, u_b: np.ndarray) -> QuantumStrategy:
    """`s` (R = 1 on both sides) under the local basis change U_A (x) U_B of its state and every projector."""
    a, b = (Side(u @ side.ops @ u.conj().T, side.layout) for side, u in ((s.a, u_a), (s.b, u_b)))
    return QuantumStrategy(s.game, s.dim_a, s.dim_b, (u_a @ s.psi_matrix() @ u_b.T).reshape(-1), a, b)


def maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def stack_ops(pvms: dict, layout: list, side: str, dim: int) -> np.ndarray:
    """pvms[key][out] for every (key, out) of `layout`, stacked; an omitted outcome reads as zero."""
    zero = np.zeros((dim, dim), dtype=complex)
    try:
        return np.stack([pvms[key].get(out, zero) for key, out in layout])
    except KeyError as e:
        raise StrategyError(f"strategy has no {side} measurement for {e.args[0]}") from None


def validate_side(pvms: dict, dim: int, side: str) -> None:
    """Raise on the first faulty family of one side in dict form, all of its operators checked as one stack."""
    keys = list(pvms)
    outs = [out for key in keys for out in pvms[key]]
    ops = [p for key in keys for p in pvms[key].values()]
    fam = np.repeat(np.arange(len(keys)), [len(pvms[key]) for key in keys])
    shaped = np.array([p.shape == (dim, dim) for p in ops], dtype=bool)
    stack = np.array([p for p, ok in zip(ops, shaped) if ok], dtype=complex).reshape(-1, dim, dim)
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack[~finite] = 0.0
    hermitian = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= PROJ_TOL
    idempotent = np.abs(stack @ stack - stack).max(axis=(1, 2)) <= PROJ_TOL
    faulty = ~shaped
    faulty[shaped] = ~(finite & hermitian & idempotent)
    sums = np.zeros((len(keys), dim, dim), dtype=complex)
    np.add.at(sums, fam[shaped], stack)
    incomplete = np.abs(sums - np.eye(dim)).max(axis=(1, 2)) > PROJ_TOL
    f_op = int(fam[faulty][0]) if faulty.any() else len(keys)
    f_inc = int(incomplete.argmax()) if incomplete.any() else len(keys)
    if f_inc < f_op:
        raise StrategyError(f"{side} pvm {keys[f_inc]}: family does not sum to identity")
    if f_op == len(keys):
        return
    i = int(faulty.argmax())
    what, k = f"{side} pvm {keys[f_op]}", int(shaped[:i].sum())
    if not shaped[i]:
        raise StrategyError(f"{what}: projector for {outs[i]} has shape {ops[i].shape}, want {(dim, dim)}")
    if not finite[k]:
        raise StrategyError(f"{what}: non-finite entries in projector {outs[i]}")
    raise StrategyError(f"{what}: outcome {outs[i]} not {'idempotent' if hermitian[k] else 'Hermitian'}")


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
    return strategy_of(game, dim_a, dim_b, psi, pvm_a, pvm_b)


def arbitrary_strategy(game: GameType, g: Graph, dim_a: int, dim_b: int, rng: np.random.Generator) -> QuantumStrategy:
    spec = SPECS[game]

    def build(space, d):
        assign = [rng.integers(len(space)) for _ in range(d)]
        return _rotated_partition(space, assign, _haar_unitary(d, rng))

    pvm_a = {key: build(spec.a_outcomes(key), dim_a) for key in spec.a_keys(g)}
    pvm_b = {key: build(spec.b_outcomes(key), dim_b) for key in spec.b_keys(g)}
    psi = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    psi = psi / np.linalg.norm(psi)
    return strategy_of(game, dim_a, dim_b, psi, pvm_a, pvm_b)
