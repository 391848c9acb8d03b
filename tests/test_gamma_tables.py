"""The gamma matrices as phased permutations, against their dense 4 x 4 definition.

The operator layer never contracts with the dense stacks GAMMA, BILINEAR,
GAMMA0 or CONJUGATION; it applies the (index, phase) tables of gamma as
gathers along the spinor axis.  These tests keep the dense einsum forms
that the gathers replaced as oracles: the pure gathers must agree with
them bit for bit, the matrix products within 1e-15 relative.

The operators themselves are held as fermion-parity blocks (fields._EVEN,
fields._ODD).  The dense 16 x 16 forms of the pair products, the
anticommutators and the field bilinear that the blocks replaced are kept
here as oracles, and the graded helpers must agree with them bit for bit.
"""

import numpy as np
import pytest

from diracfock import currents, fields, gamma, spinors
from diracfock.constants import natural_units
from diracfock.fields import _EVEN, _ODD, _dense
from diracfock.fock import DIM, SECTORS
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


def _odd_stack(shape, seed):
    """Random graded blocks of odd operators, (*shape, 2, 8, 8), and their dense form."""
    blocks = _stack(shape + (2, DIM // 2, DIM // 2), seed)
    return blocks, _dense(blocks, _ODD)


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
    blocks, p = _odd_stack(SHAPES[shape] + (4,), 1)
    want = np.einsum("...pji,pr->...rij", p.conj(), GAMMA0.real)
    assert np.array_equal(_dense(fields._adjoint(blocks), _ODD), want)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_gamma_sums_match_dense(shape):
    blocks, p = _odd_stack(SHAPES[shape] + (4,), 2)
    w = _stack(SHAPES[shape] + (4,), 3)
    left = _dense(fields._gamma_sum(gamma.GAMMA_INDEX, gamma.GAMMA_PHASE, blocks, w), _ODD)
    assert _relative(left, np.einsum("...m,mrp,...pij->...rij", w, GAMMA, p)) <= 1e-15
    right = _dense(fields._gamma_sum(gamma.GAMMA_T_INDEX, gamma.GAMMA_T_PHASE, blocks, w), _ODD)
    assert _relative(right, np.einsum("...m,...rij,mrp->...pij", w, p, GAMMA)) <= 1e-15


def _psi_derivatives(k, x, kappa):
    """d_mu psi as a (..., 4, 4, 16, 16) array: mode phases give -/+ i k_mu."""
    k = np.asarray(k, dtype=float)
    k_cov = gamma.covariant_components(fields._k0(k, kappa), k)
    minus_less_plus = _dense(fields._scattered_psi(k, x, kappa, -1.0), _ODD)
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
    want = fields._worst_norm(fields._blocks(lhs, _ODD))
    assert np.array_equal(fields.dirac_residual(k, x, 1.3), want)
    dpa = gamma.GAMMA0_SIGN[:, None, None] * dp.conj().swapaxes(-1, -2)
    lhs = -1.0j * np.einsum("...mrij,mrp->...pij", dpa, GAMMA)
    lhs -= 1.3 * fields.psi_adjoint_matrices(k, x, 1.3)
    want = fields._worst_norm(fields._blocks(lhs, _ODD))
    assert np.array_equal(fields.adjoint_dirac_residual(k, x, 1.3), want)


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
    """The per-(mu, r) form that the gathered field bilinear replaces."""
    gb = np.einsum("mrq,...qjl->...mrjl", g, b)
    return (a[..., None, :, :, :] @ gb).sum(axis=-3)


def _dense_gather_rows(index, phase):
    """(rows, phases) that lay out gamma^mu b, for dense b, as a (64, mu * 16) matrix."""
    rows = index.T[:, None, :] * DIM + np.arange(DIM)[:, None]
    phases = np.broadcast_to(phase.T[:, None, :], rows.shape).reshape(-1, 1)
    return rows.ravel(), phases


def _dense_gathered_bilinear(a, gather, b):
    """The dense gather form of currents._field_bilinear: one (16 x 64) @ (64 x 64) product."""
    rows, phases = gather
    n = 4 * DIM
    gb = np.take(b.reshape(b.shape[:-3] + (n, DIM)), rows, axis=-2)
    gb *= phases
    side = a.swapaxes(-3, -2).reshape(a.shape[:-3] + (DIM, n))
    out = side @ gb.reshape(gb.shape[:-2] + (n, n))
    return out.reshape(out.shape[:-1] + (4, DIM)).swapaxes(-3, -2)


def _dense_pair_products(a, b):
    """a_r @ b_r' for dense stacks, laid out (..., r, 16, r', 16): one (64 x 16) @ (16 x 64)."""
    rows = a.reshape(a.shape[:-3] + (4 * DIM, DIM))
    cols = b.swapaxes(-3, -2).reshape(b.shape[:-3] + (DIM, 4 * DIM))
    prods = rows @ cols
    return prods.reshape(prods.shape[:-2] + (4, DIM, 4, DIM))


def _dense_anticommutators(a, b):
    """{a_r, b_r'} for dense stacks, laid out (..., r, 16, r', 16)."""
    out = _dense_pair_products(a, b)
    for rp in range(4):
        out[..., rp, :] += b[..., rp, None, :, :] @ a
    return out


def _dense_pairs(graded):
    """A graded (..., 2, r, 8, r', 8) pair layout as the dense (..., r, 16, r', 16) one."""
    blocks = np.moveaxis(graded, (-5, -4, -3, -2), (-3, -5, -2, -4))  # (..., r, r', 2, 8, 8)
    return _dense(blocks, _EVEN).swapaxes(-3, -2)


GRADED_GATHERS = {"gamma": currents._GAMMA_ROWS, "gamma_transposed": currents._GAMMA_T_ROWS}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("table", sorted(GRADED_GATHERS))
def test_field_bilinear_matches_dense(shape, table):
    index, phase, dense = TABLES[table]
    a, dense_a = _odd_stack(SHAPES[shape] + (4,), 6)
    b, dense_b = _odd_stack(SHAPES[shape] + (4,), 7)
    gathered = _dense_gathered_bilinear(dense_a, _dense_gather_rows(index, phase), dense_b)
    assert _relative(gathered, _dense_field_bilinear(dense_a, dense, dense_b)) <= 1e-15
    got = currents._field_bilinear(a, GRADED_GATHERS[table], b)
    assert got.shape == SHAPES[shape] + (4, 2, DIM // 2, DIM // 2)
    assert np.array_equal(_dense(got, _EVEN), gathered)


def test_field_bilinear_broadcasts_leading_axes():
    a, dense_a = _odd_stack((5, 1, 4), 8)
    b, dense_b = _odd_stack((3, 4), 9)
    got = currents._field_bilinear(a, currents._GAMMA_ROWS, b)
    assert got.shape == (5, 3, 4, 2, DIM // 2, DIM // 2)
    gather = _dense_gather_rows(gamma.GAMMA_INDEX, gamma.GAMMA_PHASE)
    assert np.array_equal(_dense(got, _EVEN), _dense_gathered_bilinear(dense_a, gather, dense_b))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pair_products_match_dense(shape):
    a, dense_a = _odd_stack(SHAPES[shape] + (4,), 10)
    b, dense_b = _odd_stack(SHAPES[shape] + (4,), 11)
    got = fields._pair_products(a, b)
    assert got.shape == SHAPES[shape] + (2, 4, DIM // 2, 4, DIM // 2)
    assert np.array_equal(_dense_pairs(got), _dense_pair_products(dense_a, dense_b))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_anticommutators_match_pairwise_products(shape):
    a, dense_a = _odd_stack(SHAPES[shape] + (4,), 10)
    b, dense_b = _odd_stack(SHAPES[shape] + (4,), 11)
    want = _dense_anticommutators(dense_a, dense_b)
    pairwise = dense_a[..., :, None, :, :] @ dense_b[..., None, :, :, :]
    pairwise += dense_b[..., None, :, :, :] @ dense_a[..., :, None, :, :]  # (..., r, r', i, l)
    assert _relative(want.swapaxes(-3, -2), pairwise) <= 1e-15
    got = fields._anticommutators(a, b)
    assert got.shape == SHAPES[shape] + (2, 4, DIM // 2, 4, DIM // 2)
    assert np.array_equal(_dense_pairs(got), want)


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
    assert got.shape == (8, 2, DIM // 2)
    assert _relative(got, want[..., SECTORS]) <= 1e-15
