"""Gauss rules for momentum-space integrals.

Radial integrals use Gauss-Legendre on [0, upper]; the caller folds in
the 4 pi k^2 measure.  Field integrals of the two-component families take
the radial rule alone, their angular integral being closed form (see
expectation).  Integrands of general families, whose angular structure is
arbitrary, get a spherical product rule: Gauss-Legendre in cos(theta) and
a trapezoid in phi, which is spectrally accurate for the plane-wave
phases that appear here.  The second half of its directions is the
exact negation of the first, so expectation takes the phases of half the
nodes.  n_theta sets only that product rule, which expectation
integrates in blocks of consecutive spheres, in moment form (see there).

The reference truncation 40 is in units of the profile argument; the
built-in densities decay at least like exp(-2r), leaving a tail below
1e-34 of the integrand scale.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

REFERENCE_R_MAX = 40.0


class QuadratureNotConverged(RuntimeError):
    """Two refinement levels of a field integral disagree beyond abs_tol."""


class Diverged(RuntimeError):
    """A scalar integral fails the cutoff-doubling stability test."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and truncation for all engine integrals."""

    n_radial: int = 200
    r_max: float = REFERENCE_R_MAX
    n_theta: int = 24
    abs_tol: float = 1e-9

    def __post_init__(self):
        for name in ("n_radial", "n_theta"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_radial < 2 or self.n_theta < 2:
            raise ValueError("need at least two nodes per direction")
        if not (np.isfinite(self.r_max) and np.isfinite(self.abs_tol)):
            raise ValueError(f"r_max and abs_tol must be finite, got {self.r_max}, {self.abs_tol}")
        if self.r_max <= 0 or self.abs_tol <= 0:
            raise ValueError("r_max and abs_tol must be positive")

    def doubled(self) -> "QuadratureSpec":
        """Twice the nodes and twice the soft cutoff, for stability tests."""
        return replace(
            self, n_radial=2 * self.n_radial, r_max=2 * self.r_max, n_theta=2 * self.n_theta
        )


@lru_cache(maxsize=32)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def radial_rule(upper: float, n: int, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, upper].

    Breakpoints inside the interval split it into a composite rule with
    at least eight nodes per segment, so piecewise-defined integrands
    (tabulated densities) are still resolved to machine precision.
    """
    if upper <= 0:
        raise ValueError("upper limit must be positive")
    inner = sorted({float(b) for b in breakpoints if 0.0 < b < upper})
    if not inner:
        t, w = _leggauss(n)
        return 0.5 * upper * (t + 1.0), 0.5 * upper * w
    edges = np.array([0.0, *inner, upper])
    per = max(8, -(-n // (len(edges) - 1)))
    t, w = _leggauss(per)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = (lo[:, None] + half[:, None] * (t[None, :] + 1.0)).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def angular_rule(n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights integrating to 4 pi over the sphere.

    The phi rule uses 2 n_theta equispaced points, exact for azimuthal
    modes up to that order.  The second half of the directions is the
    exact negation of the first, with the same weights.
    """
    ct, wt = _leggauss(n_theta)
    st = np.sqrt(1.0 - ct**2)
    n_phi = 2 * n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    grid = np.outer(st, np.cos(phi)), np.outer(st, np.sin(phi)), np.outer(ct, np.ones(n_phi))
    # the first n_theta^2 grid nodes, cos(theta) < 0 and, for an odd n_theta, the equator at
    # phi < pi; leggauss makes ct antisymmetric and wt symmetric, so -half is the other half
    half = np.stack([g.ravel()[: n_theta**2] for g in grid], axis=1)
    weights = np.repeat(wt * (2.0 * np.pi / n_phi), n_phi)[: n_theta**2]
    return np.concatenate([half, -half]), np.concatenate([weights, weights])
