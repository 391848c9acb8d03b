"""Current operators: split identity, conservation, charge pattern.

The symmetry residuals, (k - k')_mu J_diag^mu and (k + k')_mu J_off^mu, are
oracles kept here: verify contracts the graded stacks it shares between
checks, and these contract the public stacks the same way.  test_verify and
test_operator_batches import them from this module.
"""

import numpy as np
import pytest

from diracfock import currents
from diracfock.constants import natural_units
from diracfock.currents import (
    _CHARGE_POINTS,
    integrated_charge_check,
    j_current_conjugated_stack,
    j_current_stack,
    j_diag_divergence,
    j_diag_stack,
    j_off_divergence,
    j_off_stack,
    r_current_stack,
)
from diracfock.fields import _EVEN, _blocks, fock_charge_conjugation
from diracfock.fock import CHARGE_CONJUGATION, basis_state, charge_operator, vacuum_state

KAPPA = 1.0


def j_diag_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k - k')_mu J_diag^mu."""
    p = currents._cov(k, kappa) - currents._cov(kp, kappa)
    return currents._contraction_norm(p, _blocks(j_diag_stack(k, kp, x, kappa), _EVEN))


def j_off_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k + k')_mu J_off^mu."""
    p = currents._cov(k, kappa) + currents._cov(kp, kappa)
    return currents._contraction_norm(p, _blocks(j_off_stack(k, kp, x, kappa), _EVEN))


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
    j0 = j_current_stack(k, k, x, KAPPA)[0]
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


def test_integrated_charge_matches_full_current_per_point():
    # J^0 alone at all points at once, against the full stack one point at a time
    target = np.diag(charge_operator(natural_units())).real
    rng = np.random.default_rng(37)
    for k in rng.normal(size=(3, 3)):
        worst = max(
            np.max(np.abs(np.diag(j_current_stack(k, k, x, KAPPA)[0]) - target))
            for x in _CHARGE_POINTS / KAPPA
        )
        assert integrated_charge_check(k, KAPPA) == pytest.approx(worst, abs=1e-15)


def test_conjugation_odd_part_matches_expansion():
    sample = np.array([[0.3, -0.5, 0.8], [1.2, 0.1, -0.4], [-0.7, 0.9, 0.2]])
    # the conjugation the stack applies is the one the intertwining solve proves
    chat, _ = fock_charge_conjugation(KAPPA, sample)
    assert np.array_equal(chat, CHARGE_CONJUGATION)
    rng = np.random.default_rng(36)
    for k, kp, x in _tuples(rng, 5):
        odd = j_current_conjugated_stack(k, kp, x, KAPPA)
        full = j_current_stack(k, kp, x, KAPPA)
        assert np.max(np.abs(odd - full)) < 1e-8

