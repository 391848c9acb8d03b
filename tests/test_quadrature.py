"""Quadrature rules: polynomial exactness, sphere moments, spec plumbing."""

import re

import numpy as np
import pytest

from diracfock.quadrature import (
    REFERENCE_R_MAX,
    QuadratureSpec,
    angular_rule,
    radial_rule,
)


def test_radial_polynomial_exactness():
    # n-point Gauss integrates degree 2n-1 exactly
    r, w = radial_rule(3.0, 6)
    for p in range(12):
        assert w @ r**p == pytest.approx(3.0 ** (p + 1) / (p + 1), rel=1e-13)


def test_radial_rejects_bad_upper():
    with pytest.raises(ValueError):
        radial_rule(0.0, 10)


def test_breakpoints_make_kinked_integrands_exact():
    kp = np.array([0.0, 1.0, 2.5, 4.0])
    vals = np.array([1.0, 0.25, 0.9, 0.0])

    def f(r):
        return np.interp(r, kp, vals, right=0.0)

    # plain Gauss struggles with the kinks; the composite rule nails them
    exact = sum(
        0.5 * (f(np.array([a]))[0] + f(np.array([b]))[0]) * (b - a)
        for a, b in zip(kp[:-1], kp[1:])
    )
    r, w = radial_rule(4.0, 24, breakpoints=kp)
    assert w @ f(r) == pytest.approx(exact, rel=1e-14)
    r0, w0 = radial_rule(4.0, 24)
    assert abs(w0 @ f(r0) - exact) > 1e-6


def test_breakpoints_outside_interval_ignored():
    r, w = radial_rule(2.0, 10, breakpoints=(0.0, 2.0, 5.0))
    r0, w0 = radial_rule(2.0, 10)
    assert np.array_equal(r, r0) and np.array_equal(w, w0)


def test_breakpoint_segments_keep_at_least_eight_nodes():
    r, _ = radial_rule(4.0, 10, breakpoints=(1.0, 2.0, 3.0))
    # four segments, floor of 8 nodes each
    assert len(r) == 32
    for lo, hi in ((0, 1), (1, 2), (2, 3), (3, 4)):
        assert np.sum((r > lo) & (r < hi)) == 8


def test_angular_weights_cover_the_sphere():
    dirs, w = angular_rule(12)
    assert dirs.shape == (12 * 24, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    assert w.sum() == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_angular_moments():
    dirs, w = angular_rule(8)
    # odd moments vanish, second moments give the isotropic tensor
    assert np.max(np.abs(w @ dirs)) < 1e-13
    second = np.einsum("n,ni,nj->ij", w, dirs, dirs)
    assert np.allclose(second, 4.0 * np.pi / 3.0 * np.eye(3), atol=1e-13)


def test_angular_plane_wave():
    # int exp(i q . n) dOmega = 4 pi sin(|q|) / |q|
    q = np.array([3.0, -4.0, 12.0])
    qm = np.linalg.norm(q)
    dirs, w = angular_rule(24)
    got = w @ np.exp(1.0j * dirs @ q)
    assert got == pytest.approx(4.0 * np.pi * np.sin(qm) / qm, abs=1e-12)


def grid_angular_rule(n_theta):
    """The angular rule as a plain theta-major (theta, phi) grid, the oracle of its mirrored order."""
    ct, wt = np.polynomial.legendre.leggauss(n_theta)
    st = np.sqrt(1.0 - ct**2)
    n_phi = 2 * n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    dirs = np.empty((n_theta * n_phi, 3))
    dirs[:, 0] = np.outer(st, np.cos(phi)).ravel()
    dirs[:, 1] = np.outer(st, np.sin(phi)).ravel()
    dirs[:, 2] = np.repeat(ct, n_phi)
    return dirs, np.repeat(wt * (2.0 * np.pi / n_phi), n_phi)


@pytest.mark.parametrize("n_theta", [2, 3, 5, 24])
def test_rule_halves_negate_each_other_and_reorder_the_grid(n_theta):
    # the first half is the grid's first n_theta^2 nodes; each negated node is one
    # of the grid's other nodes, (theta, phi + pi), to roundoff in cos and sin of
    # phi + pi, and carries that node's weight; an odd n_theta splits the equator
    dirs, w = angular_rule(n_theta)
    grid, grid_w = grid_angular_rule(n_theta)
    half = n_theta**2
    assert dirs.shape == grid.shape and w.shape == grid_w.shape
    assert (-dirs[:half]).tobytes() == dirs[half:].tobytes()
    assert w[:half].tobytes() == w[half:].tobytes()
    assert np.array_equal(dirs[:half], grid[:half]) and np.array_equal(w[:half], grid_w[:half])
    nearest = np.array([np.argmin(np.abs(grid - d).sum(axis=1)) for d in dirs[half:]])
    assert sorted(nearest) == list(range(half, 2 * half))
    assert np.max(np.abs(dirs[half:] - grid[nearest])) <= 1e-15
    assert np.array_equal(w[half:], grid_w[nearest])


def test_spec_defaults_and_doubling():
    spec = QuadratureSpec()
    assert spec.r_max == REFERENCE_R_MAX
    d = spec.doubled()
    assert (d.n_radial, d.r_max, d.n_theta) == (2 * spec.n_radial, 2 * spec.r_max, 2 * spec.n_theta)
    assert d.abs_tol == spec.abs_tol


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_radial=1)
    with pytest.raises(ValueError):
        QuadratureSpec(r_max=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1e-9)


@pytest.mark.parametrize("field", ["r_max", "abs_tol"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spec_rejects_non_finite_values(field, value):
    # nan <= 0 is False, so a positivity test alone lets NaN through
    with pytest.raises(ValueError, match=f"must be finite, got .*{value}"):
        QuadratureSpec(**{field: value})


@pytest.mark.parametrize("field", ["n_radial", "n_theta"])
@pytest.mark.parametrize("value", [200.0, 20.5, True, np.float64(8.0), "50"])
def test_spec_rejects_non_integer_node_counts(field, value):
    # a float count used to fail only in the first rule, inside numpy's leggauss
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {re.escape(repr(value))}"):
        QuadratureSpec(**{field: value})


def test_spec_takes_numpy_integer_node_counts():
    spec = QuadratureSpec(n_radial=np.int64(50), n_theta=np.int32(4))
    assert len(radial_rule(1.0, spec.n_radial)[0]) == 50
    assert len(angular_rule(spec.doubled().n_theta)[1]) == 2 * 8**2
