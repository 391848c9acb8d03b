"""Gamma matrices in the standard representation, metric (+,-,-,-).

gamma^0 = diag(I, -I), gamma^alpha = [[0, -sigma_alpha], [sigma_alpha, 0]].
The charge-conjugation matrix is C = i gamma^2 gamma^0; it is real,
antisymmetric and squares to -I, so C^-1 = C^T = C^dagger = -C.
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


def covariant_components(k0: float, k: np.ndarray) -> np.ndarray:
    """Lower the index of (k0, k): returns (k0, -k_x, -k_y, -k_z)."""
    k = np.asarray(k, dtype=float)
    return np.array([k0, -k[0], -k[1], -k[2]])


def feynman_slash(k_cov: np.ndarray) -> np.ndarray:
    """Contract covariant components k_mu with gamma^mu.

    On the mass shell k_mu k^mu = kappa^2 the square of the result is
    kappa^2 times the identity.
    """
    k_cov = np.asarray(k_cov, dtype=np.complex128)
    return sum(k_cov[mu] * GAMMA[mu] for mu in range(4))
