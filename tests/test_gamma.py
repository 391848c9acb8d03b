import numpy as np
import pytest

from diracfock.gamma import (
    BILINEAR,
    CONJUGATION,
    GAMMA,
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    METRIC,
    covariant_components,
    feynman_slash,
)

GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)


def test_anticommutation():
    for m, a in enumerate(GAMMAS):
        for n, b in enumerate(GAMMAS):
            anti = a @ b + b @ a
            assert np.max(np.abs(anti - 2.0 * METRIC[m, n] * np.eye(4))) == 0.0


def test_hermiticity():
    assert np.array_equal(GAMMA0.conj().T, GAMMA0)
    for g in (GAMMA1, GAMMA2, GAMMA3):
        assert np.array_equal(g.conj().T, -g)


def test_gamma0_diagonal():
    assert np.array_equal(GAMMA0, np.diag([1.0, 1.0, -1.0, -1.0]))


def test_conjugation_matrix_properties():
    c = CONJUGATION
    assert np.max(np.abs(c + c.T)) == 0.0
    assert np.max(np.abs(c.conj().T @ c - np.eye(4))) == 0.0
    assert np.max(np.abs(c @ c + np.eye(4))) == 0.0
    # entries are exact integers
    assert np.array_equal(c.real, np.round(c.real))
    assert np.array_equal(c.imag, np.round(c.imag))


def test_conjugation_intertwines_transpose():
    cinv = np.linalg.inv(CONJUGATION)
    for g in GAMMAS:
        assert np.max(np.abs(CONJUGATION @ g @ cinv + g.T)) < 1e-15


def test_trace_orthogonality():
    for m, a in enumerate(GAMMAS):
        for n, b in enumerate(GAMMAS):
            assert np.trace(a @ b) == pytest.approx(4.0 * METRIC[m, n], abs=1e-15)


def test_covariant_components_lower_spatial_sign():
    k = np.array([0.2, -1.1, 0.7])
    cov = covariant_components(3.0, k)
    assert np.array_equal(cov, np.array([3.0, -0.2, 1.1, -0.7]))


def test_slash_squares_to_invariant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k0 = rng.uniform(0.5, 5.0)
        k = rng.normal(size=3)
        cov = covariant_components(k0, k)
        slash = feynman_slash(cov)
        invariant = k0**2 - k @ k
        assert np.max(np.abs(slash @ slash - invariant * np.eye(4))) < 1e-12 * max(1.0, k0**2)


def test_standard_set_consistent():
    assert GAMMA.shape == (4, 4, 4)
    for mu, g in enumerate(GAMMAS):
        assert np.array_equal(GAMMA[mu], g)
        assert np.array_equal(BILINEAR[mu], GAMMA0 @ g)
    assert np.array_equal(CONJUGATION, 1.0j * GAMMA2 @ GAMMA0)
