"""The gamma matrices as phased permutations, against their dense 4 x 4 definition.

The operator layer never contracts with the dense stacks GAMMA, BILINEAR,
GAMMA0 or CONJUGATION; it applies the (index, phase) tables of gamma as
gathers along the spinor axis.  These tests keep the dense einsum forms
that the gathers replaced as oracles: the pure gathers must agree with
them bit for bit, the matrix products within 1e-15 relative.
"""

import numpy as np
import pytest

from diracfock import currents, fields, gamma, spinors
from diracfock.constants import natural_units
from diracfock.fock import DIM
from diracfock.gamma import BILINEAR, CONJUGATION, GAMMA, GAMMA0

NAT = natural_units()
# (index, phase, dense stack) for every table
TABLES = {
    "gamma": (gamma.GAMMA_INDEX, gamma.GAMMA_PHASE, GAMMA),
    "gamma_transposed": (gamma.GAMMA_T_INDEX, gamma.GAMMA_T_PHASE, GAMMA.swapaxes(-1, -2)),
    "bilinear": (gamma.BILINEAR_INDEX, gamma.BILINEAR_PHASE, BILINEAR),
    "conjugation": (gamma.CONJUGATION_INDEX, gamma.CONJUGATION_PHASE, CONJUGATION),
}
SHAPES = {"unbatched": (), "batched": (3, 2)}


def _stack(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1.0j * rng.normal(size=shape)


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("table", sorted(TABLES))
def test_tables_rebuild_the_dense_matrices(table):
    index, phase, dense = TABLES[table]
    assert not index.flags.writeable and not phase.flags.writeable
    rebuilt = phase[..., None] * (index[..., None] == np.arange(4))
    assert np.array_equal(rebuilt, dense)
    assert set(np.unique(phase)) <= {1, -1, 1j, -1j}


def test_gamma0_signs_rebuild_gamma0():
    assert not gamma.GAMMA0_SIGN.flags.writeable
    assert np.array_equal(np.diag(gamma.GAMMA0_SIGN), GAMMA0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_slash_scatter_matches_dense(shape):
    k_cov = np.random.default_rng(0).normal(size=SHAPES[shape] + (4,))
    want = np.einsum("...m,mij->...ij", k_cov, GAMMA)
    assert np.array_equal(gamma.feynman_slash(k_cov), want)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_adjoint_gather_matches_dense(shape):
    p = _stack(SHAPES[shape] + (4, DIM, DIM), 1)
    want = np.einsum("...pji,pr->...rij", p.conj(), GAMMA0.real)
    assert np.array_equal(fields._adjoint(p), want)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gamma_sums_match_dense(shape):
    p = _stack(SHAPES[shape] + (4, DIM, DIM), 2)
    w = _stack(SHAPES[shape] + (4,), 3)
    left = fields._gamma_sum(gamma.GAMMA_INDEX, gamma.GAMMA_PHASE, p, w)
    assert _relative(left, np.einsum("...m,mrp,...pij->...rij", w, GAMMA, p)) <= 1e-15
    right = fields._gamma_sum(gamma.GAMMA_T_INDEX, gamma.GAMMA_T_PHASE, p, w)
    assert _relative(right, np.einsum("...m,...rij,mrp->...pij", w, p, GAMMA)) <= 1e-15


def _psi_derivatives(k, x, kappa):
    """d_mu psi as a (..., 4, 4, 16, 16) array: mode phases give -/+ i k_mu."""
    k = np.asarray(k, dtype=float)
    k_cov = gamma.covariant_components(fields._k0(k, kappa), k)
    minus_less_plus = fields._scattered_psi(k, x, kappa, -1.0)
    return 1.0j * k_cov[..., :, None, None, None] * minus_less_plus[..., None, :, :, :]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_dirac_residuals_match_the_derivative_stack(shape):
    # the residuals gather i k_mu gamma^mu one mu at a time; the full
    # (..., mu, 4, 16, 16) derivative stack they replaced gives the same bits
    rng = np.random.default_rng(14)
    k, x = rng.normal(size=SHAPES[shape] + (3,)), rng.normal(size=SHAPES[shape] + (4,))
    dp = _psi_derivatives(k, x, 1.3)
    lhs = 1.0j * np.einsum("mrp,...mpij->...rij", GAMMA, dp)
    lhs -= 1.3 * fields.psi_matrices(k, x, 1.3)
    assert np.array_equal(fields.dirac_residual(k, x, 1.3), fields._worst_norm(lhs))
    dpa = fields._adjoint(dp)
    lhs = -1.0j * np.einsum("...mrij,mrp->...pij", dpa, GAMMA)
    lhs -= 1.3 * fields.psi_adjoint_matrices(k, x, 1.3)
    assert np.array_equal(fields.adjoint_dirac_residual(k, x, 1.3), fields._worst_norm(lhs))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_conjugation_mix_matches_dense(shape):
    p = _stack(SHAPES[shape] + (4, DIM, DIM), 3)
    want = np.einsum("rp,...pij->...rij", CONJUGATION, p)
    assert np.array_equal(fields.conjugation_mix(p), want)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_spinor_bilinear_matches_dense(shape):
    a, b = _stack(SHAPES[shape] + (4, 2), 4), _stack(SHAPES[shape] + (4, 2), 5)
    want = np.einsum("...rs,mrq,...qt->...mst", a.conj(), BILINEAR, b)
    assert np.array_equal(spinors.spinor_bilinear(a, b), want)


def _dense_field_bilinear(a, g, b):
    """The per-(mu, r) form that currents._field_bilinear replaces."""
    gb = np.einsum("mrq,...qjl->...mrjl", g, b)
    return (a[..., None, :, :, :] @ gb).sum(axis=-3)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize(
    "gather, dense",
    [(currents._GAMMA_ROWS, GAMMA), (currents._GAMMA_T_ROWS, GAMMA.swapaxes(-1, -2))],
    ids=["gamma", "gamma_transposed"],
)
def test_field_bilinear_matches_dense(shape, gather, dense):
    a = _stack(SHAPES[shape] + (4, DIM, DIM), 6)
    b = _stack(SHAPES[shape] + (4, DIM, DIM), 7)
    got = currents._field_bilinear(a, gather, b)
    want = _dense_field_bilinear(a, dense, b)
    assert got.shape == want.shape == SHAPES[shape] + (4, DIM, DIM)
    assert _relative(got, want) <= 1e-15


def test_field_bilinear_broadcasts_leading_axes():
    a = _stack((5, 1, 4, DIM, DIM), 8)
    b = _stack((3, 4, DIM, DIM), 9)
    got = currents._field_bilinear(a, currents._GAMMA_ROWS, b)
    assert got.shape == (5, 3, 4, DIM, DIM)
    assert _relative(got, _dense_field_bilinear(a, GAMMA, b)) <= 1e-15


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_anticommutators_match_pairwise_products(shape):
    a = _stack(SHAPES[shape] + (4, DIM, DIM), 10)[..., :, None, :, :]
    b = _stack(SHAPES[shape] + (4, DIM, DIM), 11)[..., None, :, :, :]
    want = a @ b + b @ a  # (..., r, r', i, l)
    got = fields._anticommutators(a[..., :, 0, :, :], b[..., 0, :, :, :])
    assert got.shape == SHAPES[shape] + (4, DIM, 4, DIM)
    assert _relative(got.swapaxes(-3, -2), want) <= 1e-15


def _dense_mixed_car(k, kp, x, y, kappa):
    """The broadcast pair-by-pair form that mixed_car_residual replaces."""
    p = fields.psi_matrices(k, x, kappa)[..., :, None, :, :]
    pp = fields.psi_matrices(kp, y, kappa)[..., None, :, :, :]
    zero = np.abs(p @ pp + pp @ p).max(axis=(-4, -3, -2, -1))
    ek = fields.plane_phase(k, x, kappa)[..., None, None]
    ekp = fields.plane_phase(kp, y, kappa)[..., None, None]
    u, up = spinors.u_columns(k, kappa), spinors.u_columns(kp, kappa)
    v, vp = spinors.v_columns(k, kappa), spinors.v_columns(kp, kappa)
    uu = u @ up.conj().swapaxes(-1, -2)
    vv = v @ vp.conj().swapaxes(-1, -2)
    scalar = ek * np.conj(ekp) * uu + np.conj(ek) * ekp * vv
    dag = pp.conj().swapaxes(-1, -2)
    anti = p @ dag + dag @ p - scalar[..., None, None] * np.eye(DIM)
    return np.maximum(zero, np.abs(anti).max(axis=(-4, -3, -2, -1)))


def test_mixed_car_residual_matches_dense():
    rng = np.random.default_rng(12)
    k, kp = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    x, y = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    got = fields.mixed_car_residual(k, kp, x, y, 1.3)
    # both are roundoff; they must agree to the scale of the anticommutators
    assert np.max(np.abs(got - _dense_mixed_car(k, kp, x, y, 1.3))) <= 1e-15


def test_charge_diagonal_matches_dense():
    rng = np.random.default_rng(13)
    ks, xs = rng.normal(size=(8, 3)), rng.normal(size=(8, 4))
    adjoint, field = fields.psi_adjoint_matrices(ks, xs, 1.3), fields.psi_matrices(ks, xs, 1.3)
    g0 = GAMMA[:1]
    first = _dense_field_bilinear(adjoint, g0, field)
    second = _dense_field_bilinear(field, g0.swapaxes(-1, -2), adjoint)
    want = np.diagonal(0.5 * (first - second)[..., 0, :, :], axis1=-2, axis2=-1)
    got = currents._j0_diagonal(ks, xs, 1.3)
    assert got.shape == want.shape == (8, DIM)
    assert _relative(got, want) <= 1e-15
