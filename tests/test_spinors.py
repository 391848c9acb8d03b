"""Polarization spinor identities, with the signs the conjugation matrix forces."""

import numpy as np
import pytest

from diracfock.gamma import CONJUGATION, GAMMA, GAMMA0, covariant_components, feynman_slash
from diracfock.spinors import identity_suite_batch, rest_frame_basis, u_columns, v_columns


def _random_ks(rng, n, kappa=1.0, lo=-3.0, hi=3.0):
    mags = kappa * 10.0 ** rng.uniform(lo, hi, size=n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mags[:, None] * dirs


def test_rest_frame_columns():
    u0, v0 = rest_frame_basis()
    assert np.allclose(u_columns(np.zeros(3), 1.0), u0)
    assert np.allclose(v_columns(np.zeros(3), 1.0), v0)


def test_mass_shell_eigenvectors():
    rng = np.random.default_rng(3)
    for k in _random_ks(rng, 10):
        k0 = np.sqrt(1.0 + k @ k)
        slash = feynman_slash(covariant_components(k0, k))
        u = u_columns(k, 1.0)
        v = v_columns(k, 1.0)
        assert np.max(np.abs(slash @ u - u)) < 1e-12 * k0
        assert np.max(np.abs(slash @ v + v)) < 1e-12 * k0


def test_columns_orthonormal_within_kind():
    rng = np.random.default_rng(4)
    for k in _random_ks(rng, 10):
        for cols in (u_columns(k, 1.0), v_columns(k, 1.0)):
            assert np.max(np.abs(cols.conj().T @ cols - np.eye(2))) < 1e-13


def test_conjugation_sign_pattern():
    # C conj(u1(k)) lands on -v4(-k) while C conj(u2(k)) lands on +v3(-k):
    # the antisymmetry of C forces the opposite signs.
    rng = np.random.default_rng(5)
    for k in _random_ks(rng, 25):
        u = u_columns(k, 1.0)
        vm = v_columns(-k, 1.0)
        assert np.max(np.abs(CONJUGATION @ u[:, 0].conj() + vm[:, 1])) < 1e-13
        assert np.max(np.abs(CONJUGATION @ u[:, 1].conj() - vm[:, 0])) < 1e-13


def test_reflection_through_gamma0():
    rng = np.random.default_rng(6)
    for k in _random_ks(rng, 10):
        assert np.max(np.abs(GAMMA0 @ u_columns(k, 1.0) - u_columns(-k, 1.0))) < 1e-13
        assert np.max(np.abs(GAMMA0 @ v_columns(k, 1.0) + v_columns(-k, 1.0))) < 1e-13


def test_bilinear_reproduces_k_vector():
    rng = np.random.default_rng(7)
    for k in _random_ks(rng, 5, lo=-1.0, hi=1.0):
        k0 = np.sqrt(1.0 + k @ k)
        contra = np.array([k0, *k])
        # columns 0, 1 of u are modes 1, 2; those of v are modes 3, 4
        for a in (*u_columns(k, 1.0).T, *v_columns(k, 1.0).T):
            for mu in range(4):
                value = a.conj() @ GAMMA0 @ GAMMA[mu] @ a
                assert value == pytest.approx(contra[mu] / k0, abs=1e-13)


def test_suite_over_wide_magnitude_range():
    rng = np.random.default_rng(8)
    ks = _random_ks(rng, 500)
    kps = _random_ks(rng, 500)
    suite = identity_suite_batch(ks, kps, 1.0)
    assert len(suite) >= 20
    for name, residual in suite.items():
        assert residual <= 1e-12, name


def test_suite_single_pair_matches_batch():
    # a 1-D pair is read as a one-row batch
    k = np.array([0.3, -0.2, 0.9])
    kp = np.array([-1.1, 0.4, 0.2])
    single = identity_suite_batch(k, kp, 1.0)
    batch = identity_suite_batch(k[None], kp[None], 1.0)
    assert single.keys() == batch.keys()
    for name in single:
        assert single[name] == pytest.approx(batch[name], abs=1e-15)


def test_trace_cancellation_between_kinds():
    # the summed v bilinears at (k', k) equal the summed u bilinears at (k, k')
    rng = np.random.default_rng(9)
    ks = _random_ks(rng, 50)
    kps = _random_ks(rng, 50)
    suite = identity_suite_batch(ks, kps, 1.0)
    assert suite["exchange.trace_cancellation"] < 1e-12


def test_kappa_scaling():
    # spinors depend on k only through k/kappa
    k = np.array([0.4, 1.0, -0.3])
    assert np.allclose(u_columns(k, 1.0), u_columns(2.0 * k, 2.0), atol=1e-14)
    assert np.allclose(v_columns(k, 1.0), v_columns(2.0 * k, 2.0), atol=1e-14)
