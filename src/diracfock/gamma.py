"""Gamma matrices in the standard representation, metric (+,-,-,-).

gamma^0 = diag(I, -I), gamma^alpha = [[0, -sigma_alpha], [sigma_alpha, 0]].
The charge-conjugation matrix is C = i gamma^2 gamma^0; it is real,
antisymmetric and squares to -I, so C^-1 = C^T = C^dagger = -C.

Every table here has exactly one nonzero per row, each +1, -1, +i or -i:
a phased permutation.  The dense stacks are the definition; the (index,
phase) tables derived from them at import (GAMMA_INDEX, ...) are the form
the operator layer applies, as a gather along the spinor axis.
"""

import numpy as np

SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[a, b], [c, d]]).astype(np.complex128)


_I2 = np.eye(2)
_Z2 = np.zeros((2, 2))

GAMMA0 = _block(_I2, _Z2, _Z2, -_I2)
GAMMA1 = _block(_Z2, -SIGMA[0], SIGMA[0], _Z2)
GAMMA2 = _block(_Z2, -SIGMA[1], SIGMA[1], _Z2)
GAMMA3 = _block(_Z2, -SIGMA[2], SIGMA[2], _Z2)

CONJUGATION = 1.0j * GAMMA2 @ GAMMA0

GAMMA = np.stack([GAMMA0, GAMMA1, GAMMA2, GAMMA3])  # (mu, 4, 4)
BILINEAR = GAMMA0 @ GAMMA  # gamma^0 gamma^mu, the matrices of every current bilinear
GAMMA.setflags(write=False)
BILINEAR.setflags(write=False)


def _phased_permutation(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, phase) with (stack @ z)[..., i, :] = phase[..., i] * z[index[..., i], :].

    Valid for matrices with exactly one nonzero entry per row.
    """
    index = np.argmax(np.abs(stack), axis=-1)
    phase = np.take_along_axis(stack, index[..., None], axis=-1)[..., 0]
    index.setflags(write=False)
    phase.setflags(write=False)
    return index, phase


# gathers along the spinor axis, (mu, 4) for the stacks and (4,) for C
GAMMA_INDEX, GAMMA_PHASE = _phased_permutation(GAMMA)
GAMMA_T_INDEX, GAMMA_T_PHASE = _phased_permutation(GAMMA.swapaxes(-1, -2))
BILINEAR_INDEX, BILINEAR_PHASE = _phased_permutation(BILINEAR)
CONJUGATION_INDEX, CONJUGATION_PHASE = _phased_permutation(CONJUGATION)
# gamma^0 is diagonal
GAMMA0_SIGN = np.diag(GAMMA0).real.copy()
GAMMA0_SIGN.setflags(write=False)


def covariant_components(k0, k: np.ndarray) -> np.ndarray:
    """Lower the index of (k0, k): returns (k0, -k_x, -k_y, -k_z) on the last axis."""
    k = np.asarray(k, dtype=float)
    return np.concatenate([np.asarray(k0, dtype=float)[..., None], -k], axis=-1)


def feynman_slash(k_cov: np.ndarray) -> np.ndarray:
    """Contract covariant components k_mu (last axis) with gamma^mu, shape (..., 4, 4).

    Each gamma^mu adds k_mu times its phase to one entry per row.  On the
    mass shell k_mu k^mu = kappa^2 the square of the result is kappa^2
    times the identity.
    """
    k_cov = np.asarray(k_cov)
    out = np.zeros(k_cov.shape[:-1] + (4, 4), dtype=np.complex128)
    for mu in range(4):
        out[..., np.arange(4), GAMMA_INDEX[mu]] += k_cov[..., mu, None] * GAMMA_PHASE[mu]
    return out
