"""The operator layer's batch convention: row i of a batched call is the single call on row i."""

import numpy as np
import pytest

from diracfock import currents, fields
from diracfock.constants import natural_units

NAT = natural_units()
KAPPA = NAT.kappa
SAMPLE = np.array([[0.3, -0.5, 0.8], [1.2, 0.1, -0.4], [-0.7, 0.9, 0.2]])
CHAT, _ = fields.fock_charge_conjugation(KAPPA, SAMPLE)

# each entry maps (k, k', x, y) to one operator-layer result
CALLS = {
    "plane_phase": lambda k, kp, x, y: fields.plane_phase(k, x, KAPPA),
    "psi_matrices": lambda k, kp, x, y: fields.psi_matrices(k, x, KAPPA),
    "psi_adjoint_matrices": lambda k, kp, x, y: fields.psi_adjoint_matrices(k, x, KAPPA),
    "dirac_residual": lambda k, kp, x, y: fields.dirac_residual(k, x, KAPPA),
    "adjoint_dirac_residual": lambda k, kp, x, y: fields.adjoint_dirac_residual(k, x, KAPPA),
    **{
        f"inverse_relation_residual[{s}]": (
            lambda k, kp, x, y, s=s: fields.inverse_relation_residual(s, k, x, KAPPA)
        )
        for s in (1, 2, 3, 4)
    },
    **{
        f"heisenberg_residual[{s}]": (
            lambda k, kp, x, y, s=s: fields.heisenberg_residual(s, k, x, NAT)
        )
        for s in (1, 2, 3, 4)
    },
    "mixed_car_residual": lambda k, kp, x, y: fields.mixed_car_residual(k, kp, x, y, KAPPA),
    "r_current_stack": lambda k, kp, x, y: currents.r_current_stack(k, kp, x, KAPPA),
    "j_current_stack": lambda k, kp, x, y: currents.j_current_stack(k, kp, x, KAPPA),
    "j_diag_stack": lambda k, kp, x, y: currents.j_diag_stack(k, kp, x, KAPPA),
    "j_off_stack": lambda k, kp, x, y: currents.j_off_stack(k, kp, x, KAPPA),
    "j_current_conjugated_stack": (
        lambda k, kp, x, y: currents.j_current_conjugated_stack(k, kp, x, KAPPA, CHAT)
    ),
    "j_diag_divergence": lambda k, kp, x, y: currents.j_diag_divergence(k, kp, x, KAPPA),
    "j_off_divergence": lambda k, kp, x, y: currents.j_off_divergence(k, kp, x, KAPPA),
    "j_diag_symmetry_residual": (
        lambda k, kp, x, y: currents.j_diag_symmetry_residual(k, kp, x, KAPPA)
    ),
    "j_off_symmetry_residual": (
        lambda k, kp, x, y: currents.j_off_symmetry_residual(k, kp, x, KAPPA)
    ),
    "integrated_charge_check": lambda k, kp, x, y: currents.integrated_charge_check(k, KAPPA, NAT),
}


def _samples(n=7):
    """(k, k', x, y), each with n rows."""
    rng = np.random.default_rng(41)
    return tuple(rng.normal(size=(n, d)) for d in (3, 3, 4, 4))


@pytest.mark.parametrize("name", list(CALLS))
def test_batched_row_equals_single_call(name):
    fn = CALLS[name]
    ks, kps, xs, ys = _samples()
    batched = np.asarray(fn(ks, kps, xs, ys))
    assert batched.shape[0] == len(ks)
    for i in range(len(ks)):
        single = fn(ks[i], kps[i], xs[i], ys[i])
        assert np.shape(single) == batched.shape[1:]
        assert np.max(np.abs(batched[i] - single)) <= 1e-15


def test_residuals_are_plain_floats_when_unbatched():
    ks, kps, xs, ys = _samples(1)
    for name, fn in CALLS.items():
        if "residual" in name or name == "integrated_charge_check":
            assert type(fn(ks[0], kps[0], xs[0], ys[0])) is float, name


def test_leading_axes_broadcast():
    # one wave vector against a grid of points, and a (2, 3) batch of pairs
    ks, kps, xs, ys = _samples(6)
    grid = fields.psi_matrices(ks[0], xs, KAPPA)
    assert grid.shape == (6, 4, 16, 16)
    for i in range(6):
        assert np.max(np.abs(grid[i] - fields.psi_matrices(ks[0], xs[i], KAPPA))) <= 1e-15
    j = currents.j_current_stack(ks.reshape(2, 3, 3), kps.reshape(2, 3, 3), xs[0], KAPPA)
    assert j.shape == (2, 3, 4, 16, 16)
    flat = currents.j_current_stack(ks, kps, xs[0], KAPPA)
    assert np.max(np.abs(j.reshape(6, 4, 16, 16) - flat)) <= 1e-15


# the residuals that take the Frobenius norm where they once took the spectral norm
FROBENIUS = [
    "dirac_residual",
    "adjoint_dirac_residual",
    *(f"{name}[{s}]" for name in ("inverse_relation_residual", "heisenberg_residual")
      for s in (1, 2, 3, 4)),
    "j_diag_symmetry_residual",
    "j_off_symmetry_residual",
]


def _spectral_norm(stack):
    """The spectral norm (a batched SVD) of graded (..., 2, 8, 8) blocks, the former norm.

    An operator of one parity is block-diagonal or block-antidiagonal in the
    sectors, so its spectral norm is the larger of its blocks' norms.
    """
    return np.linalg.norm(stack, 2, axis=(-2, -1)).max(axis=-1)


@pytest.mark.parametrize("name", FROBENIUS)
def test_frobenius_residuals_bound_the_spectral_norm(name, monkeypatch):
    # for 16 x 16 matrices |A|_2 <= |A|_F <= 4 |A|_2, so no check got looser
    samples = _samples()
    new = np.asarray(CALLS[name](*samples))
    monkeypatch.setattr(fields, "_norm", _spectral_norm)
    monkeypatch.setattr(currents, "_norm", _spectral_norm)
    old = np.asarray(CALLS[name](*samples))
    assert not np.array_equal(old, new)  # the residual does go through _norm
    assert np.all(old <= new)
    assert np.all(new <= 4 * old)
