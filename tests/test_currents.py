"""Current operators: split identity, conservation, charge pattern."""

import numpy as np
import pytest

from diracfock.constants import natural_units
from diracfock.currents import (
    integrated_charge_check,
    j_current,
    j_current_conjugated_stack,
    j_current_stack,
    j_diag_divergence,
    j_diag_stack,
    j_diag_symmetry_residual,
    j_off_divergence,
    j_off_stack,
    j_off_symmetry_residual,
    r_current,
    r_current_stack,
)
from diracfock.fields import fock_charge_conjugation
from diracfock.fock import basis_state, charge_operator, vacuum_state

KAPPA = 1.0


def _tuples(rng, n):
    for _ in range(n):
        yield rng.normal(size=3), rng.normal(size=3), rng.normal(size=4)


def test_expanded_current_splits_into_diag_plus_off():
    rng = np.random.default_rng(31)
    for k, kp, x in _tuples(rng, 20):
        full = j_current_stack(k, kp, x, KAPPA)
        parts = j_diag_stack(k, kp, x, KAPPA) + j_off_stack(k, kp, x, KAPPA)
        assert np.max(np.abs(full - parts)) < 1e-12


def test_dagger_swaps_the_wave_vectors():
    rng = np.random.default_rng(32)
    for k, kp, x in _tuples(rng, 10):
        jf = j_current_stack(k, kp, x, KAPPA)
        jb = j_current_stack(kp, k, x, KAPPA)
        rf = r_current_stack(k, kp, x, KAPPA)
        rb = r_current_stack(kp, k, x, KAPPA)
        for mu in range(4):
            assert np.max(np.abs(jf[mu].conj().T - jb[mu])) < 1e-13
            assert np.max(np.abs(rf[mu].conj().T - rb[mu])) < 1e-13


def test_analytic_divergences_vanish():
    rng = np.random.default_rng(33)
    for k, kp, x in _tuples(rng, 10):
        assert np.max(np.abs(j_diag_divergence(k, kp, x, KAPPA))) < 1e-13
        assert np.max(np.abs(j_off_divergence(k, kp, x, KAPPA))) < 1e-13
        assert j_diag_symmetry_residual(k, kp, x, KAPPA) < 1e-12
        assert j_off_symmetry_residual(k, kp, x, KAPPA) < 1e-12


def test_current_commutes_with_charge():
    qhat = charge_operator(natural_units())
    rng = np.random.default_rng(34)
    for k, kp, x in _tuples(rng, 10):
        j = j_current_stack(k, kp, x, KAPPA)
        for mu in range(4):
            comm = j[mu] @ qhat - qhat @ j[mu]
            assert np.max(np.abs(comm)) < 1e-13


def test_diagonal_charge_pattern():
    k = np.array([0.6, -0.2, 1.1])
    x = np.array([0.4, 0.9, -0.3, 0.5])
    j0 = j_current(0, k, k, x, KAPPA)
    vac = vacuum_state()
    assert vac.conj() @ j0 @ vac == pytest.approx(0.0, abs=1e-13)
    one = basis_state([1])
    assert one.conj() @ j0 @ one == pytest.approx(1.0, abs=1e-13)
    pair = basis_state([3, 4])
    assert pair.conj() @ j0 @ pair == pytest.approx(-2.0, abs=1e-13)


def test_integrated_charge_pattern_off_shell_points():
    rng = np.random.default_rng(35)
    for _ in range(5):
        k = rng.normal(size=3)
        assert integrated_charge_check(k, KAPPA) < 1e-12


def test_conjugation_odd_part_matches_expansion():
    sample = np.array([[0.3, -0.5, 0.8], [1.2, 0.1, -0.4], [-0.7, 0.9, 0.2]])
    chat, _ = fock_charge_conjugation(KAPPA, sample)
    rng = np.random.default_rng(36)
    for k, kp, x in _tuples(rng, 5):
        odd = j_current_conjugated_stack(k, kp, x, KAPPA, chat)
        full = j_current_stack(k, kp, x, KAPPA)
        assert np.max(np.abs(odd - full)) < 1e-8


def test_lorentz_index_validated():
    k = np.zeros(3)
    x = np.zeros(4)
    with pytest.raises(ValueError):
        j_current(4, k, k, x, KAPPA)
    with pytest.raises(ValueError):
        r_current(-1, k, k, x, KAPPA)
