"""Scalar reference of the stacked quantum kernels.

`joint_probabilities` and `eps_table` evaluate every pair of operators at
once; `_qform` evaluates one pair, as the tests' reference for both.
"""

import numpy as np


def _qform(psi_mat: np.ndarray, a_op: np.ndarray, b_op: np.ndarray) -> float:
    # <psi| A (x) B |psi> = Tr[Psi^dag A Psi B^T]
    return float(np.vdot(psi_mat, a_op @ psi_mat @ b_op.T).real)
