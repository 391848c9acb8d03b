"""Expectation engine against closed forms and independent 1d quadrature.

The oracle integrals are evaluated with scipy.integrate.quad, which shares
no code with the engine's Gauss product rules.
"""

import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import spherical_jn

from diracfock import expectation
from diracfock.constants import PhysicalConstants, natural_units
from diracfock.expectation import (
    _CHUNK_NODES,
    _doubling_guard,
    _field_guard,
    _field_tensor,
    _overlap_spinor,
    _spherical_bessel,
    classical_amplitude,
    classical_dirac_residual,
    classical_energy,
    classical_spinor,
    current_reality_residual,
    example_report,
    quantum_energy,
    r_density,
    r_density_residuals,
    total_charge,
    two_point,
    two_point_dirac_residual,
)
from diracfock.fock import CHARGE_CONJUGATION, OCCUPATION, lift
from diracfock.gamma import CONJUGATION, GAMMA, GAMMA0
from diracfock.quadrature import Diverged, QuadratureNotConverged, QuadratureSpec
from diracfock.spinors import u_columns, v_columns
from diracfock.states import (
    GeneralStateFamily,
    RhoStateFamily,
    gaussian_family,
    sech2_family,
    step_family,
    tabulated_family,
    vacuum_family,
)
from test_quadrature import grid_angular_rule
from test_signed_permutations import (
    PHASED,
    XS,
    _grid_plane_moments,
    adjoint_tensor,
    plain_split,
    unweighted_tensor,
)

NAT = natural_units()
SPEC = QuadratureSpec()


def _weight(k):
    # momentum-space weight at unit constants: sqrt(1 / ((2 pi)^3 2 k0))
    k0 = np.sqrt(1.0 + k * k)
    return np.sqrt(1.0 / ((2.0 * np.pi) ** 3 * 2.0 * k0))


def _upper_component(k):
    # N (k0 + kappa) of the first particle spinor, kappa = 1
    k0 = np.sqrt(1.0 + k * k)
    return np.sqrt((k0 + 1.0) / (2.0 * k0))


class TestClassicalField:
    def test_amplitude_formula(self):
        fam = sech2_family(1.0, chi=lambda r: 0.3 * r, xi=lambda r: 0.1 * r)
        consts = PhysicalConstants(ell=2.0)
        k = np.array([0.0, 0.0, 1.2])
        rho = 1.0 / np.cosh(1.2) ** 2
        expect = 2.0**1.5 * np.sqrt(rho * (1 - rho)) * np.exp(-1.0j * 0.2 * 1.2)
        assert classical_amplitude(fam, k, consts) == pytest.approx(expect, rel=1e-13)

    def test_amplitude_rejects_general_family(self):
        fam = GeneralStateFamily(z=lambda kv: np.zeros((len(kv), 16)), k_cutoff=1.0)
        with pytest.raises(ValueError):
            classical_amplitude(fam, np.zeros(3), NAT)

    def test_origin_value_against_radial_oracle(self):
        # at x = 0 the angular average kills all but the first component
        fam = sech2_family(1.0)
        phi = classical_spinor(fam, np.zeros(4), SPEC, NAT, check=False)

        def integrand(k):
            amp = np.cosh(k) ** -1 * np.abs(np.tanh(k))
            return 4.0 * np.pi * k * k * _weight(k) * amp * _upper_component(k)

        oracle, err = quad(integrand, 0.0, 40.0, limit=200)
        assert err < 1e-8
        assert phi[0].real == pytest.approx(oracle, rel=1e-9)
        assert phi[0].real == pytest.approx(1.016851860221, rel=1e-9)
        assert np.max(np.abs(phi[1:])) < 1e-12
        assert abs(phi[0].imag) < 1e-15

    def test_satisfies_classical_dirac_equation(self):
        fam = sech2_family(1.0)
        xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.4, 0.3, -0.2, 0.5], [1.0, -0.8, 0.1, 0.0]])
        assert classical_dirac_residual(fam, xs, SPEC, NAT, check=False) < 1e-10

    def test_refinement_guard_trips_on_truncated_tail(self):
        # cutting the sech^2 tail at |k| = 3 leaves a visible truncation error
        fam = RhoStateFamily(occupied=1, rho=lambda r: 1.0 / np.cosh(r) ** 2, k_cutoff=3.0)
        with pytest.raises(QuadratureNotConverged):
            classical_spinor(fam, np.zeros(4), SPEC, NAT)


class TestRadialReduction:
    """The closed-form angular path of two-component families against the product rule.

    The oracle is a general family wrapping the same coefficients, which the
    engine can only integrate with the spherical product rule.  The hard
    cutoff gives both paths the same radial nodes, and at k |x| <= 6 * 1.6
    the 32 polar nodes resolve every direction to roundoff.
    """

    spec = QuadratureSpec(n_radial=24, n_theta=32)
    xs = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.3, 0.02, -0.01, 0.03],  # k |x| < 1 at every node: series branch only
            [0.3, 0.5, -0.2, 0.4],
            [-0.7, 1.1, 0.6, -0.9],
        ]
    )
    calls = {
        "spinor": lambda f, xs, sp: _overlap_spinor(f, xs, sp, NAT, derivatives=True),
        "tensor": lambda f, xs, sp: _field_tensor(f, xs, sp, NAT, derivatives=True),
        "tensor-unweighted": unweighted_tensor,
        "tensor-dagger": adjoint_tensor,
    }

    @staticmethod
    def _families(occupied):
        radial = RhoStateFamily(
            occupied,
            rho=lambda r: 1.0 / np.cosh(r) ** 2,
            chi=lambda r: np.full_like(r, 0.4),
            xi=lambda r: np.full_like(r, -1.1),
            k_cutoff=6.0,
            hard_cutoff=True,
        )
        general = GeneralStateFamily(radial.coefficients, radial.k_cutoff, hard_cutoff=True)
        return radial, general

    @pytest.mark.parametrize("call", sorted(calls))
    @pytest.mark.parametrize("occupied", [1, 2, 3, 4])
    def test_matches_product_rule(self, occupied, call):
        radial, general = self._families(occupied)
        reduced = self.calls[call](radial, self.xs, self.spec)
        product = self.calls[call](general, self.xs, self.spec)
        # values, and with derivatives on also the d/dx^mu insertions
        pairs = zip(reduced, product) if isinstance(reduced, tuple) else [(reduced, product)]
        for a, b in pairs:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_general_family_spinor_matches_radial_reduction(self):
        # default spec and soft cutoff: the product rule against the exact angular path
        radial = sech2_family(1.0)
        general = GeneralStateFamily(radial.coefficients, radial.k_cutoff)
        x = np.array([0.3, 0.5, -0.2, 0.4])
        phi3d = classical_spinor(general, x, SPEC, NAT, check=False)
        phi1d = classical_spinor(radial, x, SPEC, NAT, check=False)
        assert np.max(np.abs(phi3d - phi1d)) < SPEC.abs_tol

    def test_densities_beyond_the_default_sphere_bandwidth(self):
        # k |x| reaches 20 * 1.97 = 39, beyond the default 24 polar nodes; all of it
        # is in the sphere means, which the radial rule takes, so the wrapped family
        # passes the angular guard and matches the radial path.  Translated by 3,
        # the remainder carries k |x - a| up to 80 and still aliases, and the guard trips
        radial = RhoStateFamily(
            1, rho=lambda r: 1.0 / np.cosh(r) ** 2, k_cutoff=20.0, hard_cutoff=True
        )
        general = GeneralStateFamily(radial.coefficients, radial.k_cutoff, hard_cutoff=True)
        x = np.array([0.2, 1.2, -1.2, 1.0])
        spec = QuadratureSpec(n_radial=60)
        reduced = r_density(radial, x, spec, NAT)
        got = r_density(general, x, spec, NAT)
        assert np.max(np.abs(got - reduced)) <= 1e-12 * np.max(np.abs(reduced))
        translated = TestTranslationOracle._translated(radial, lambda kv: kv @ TRANSLATION)
        with pytest.raises(QuadratureNotConverged, match="angular refinement moved"):
            r_density(translated, x, spec, NAT)

    @pytest.mark.parametrize("z", [0.0, 1e-8, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.7, 9.5, 60.0])
    def test_bessel_helpers_against_scipy(self, z):
        j0, j1z, j2 = _spherical_bessel(np.array([z]))
        assert j0[0] == pytest.approx(spherical_jn(0, z), rel=1e-14, abs=1e-17)
        assert j1z[0] == pytest.approx(spherical_jn(1, z) / z if z else 1.0 / 3.0, rel=1e-14)
        assert j2[0] == pytest.approx(spherical_jn(2, z), rel=1e-14, abs=1e-17)


class TestTranslationOracle:
    """Translated general families against the radial family at the shifted point.

    A translation by (tau, a) multiplies each basis coefficient z(k)_n by
    exp(i (c k0 tau + k.a) (N_a(n) - N_p(n))), with N_p and N_a the
    occupied particle modes (1, 2) and antiparticle modes (3, 4) of basis
    state n.  The classical spinor of the translated family at x is the
    radial one's at x - (0, a), or at x + (tau, 0); the engine sees only a
    direction-dependent coefficient map, integrated by the product rule.
    """

    xs = np.array([[0.1, 0.2, -0.3, 0.15], [-0.3, 0.05, 0.25, -0.1]])
    # N_a - N_p for each basis state
    charge = OCCUPATION[:, 2:].sum(axis=1) - OCCUPATION[:, :2].sum(axis=1)
    families = {
        "sech2": sech2_family(1.0),
        "phased": sech2_family(
            1.0, chi=lambda r: np.full_like(r, 0.4), xi=lambda r: np.full_like(r, -1.1)
        ),
    }

    @classmethod
    def _translated(cls, radial, phase):
        def z(kv):
            # one exp per charge -2..2, gathered onto the basis states that carry it
            factors = np.exp(1.0j * phase(kv)[:, None] * np.arange(-2, 3))
            return radial.coefficients(kv) * factors[:, cls.charge + 2]

        return GeneralStateFamily(z, radial.k_cutoff)

    @staticmethod
    def _relative_error(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def _time_shifted(self, radial, tau):
        return self._translated(
            radial, lambda kv: NAT.c * tau * np.sqrt(NAT.kappa**2 + np.sum(kv**2, axis=1))
        )

    @pytest.mark.parametrize(
        "name, a", [("sech2", [0.3, -0.2, 0.25]), ("phased", [0.6, 0.5, -0.55])]
    )
    def test_space_translation(self, name, a):
        radial, a = self.families[name], np.array(a)
        shifted = self._translated(radial, lambda kv: kv @ a)
        got = classical_spinor(shifted, self.xs, SPEC, NAT, check=False)
        want = classical_spinor(radial, self.xs - np.r_[0.0, a], SPEC, NAT, check=False)
        assert self._relative_error(got, want) < 1e-13
        assert classical_dirac_residual(shifted, self.xs, SPEC, NAT, check=False) < 1e-13

    @pytest.mark.parametrize("name", sorted(families))
    def test_time_translation(self, name):
        radial, tau = self.families[name], 0.7
        got = classical_spinor(self._time_shifted(radial, tau), self.xs, SPEC, NAT, check=False)
        want = classical_spinor(radial, self.xs + [tau, 0.0, 0.0, 0.0], SPEC, NAT, check=False)
        assert self._relative_error(got, want) < 1e-13

    def test_wrong_sign_is_caught(self):
        # the opposite phase moves the field to t - tau: off by order one
        radial, tau = self.families["phased"], 0.7
        got = classical_spinor(self._time_shifted(radial, -tau), self.xs, SPEC, NAT, check=False)
        want = classical_spinor(radial, self.xs + [tau, 0.0, 0.0, 0.0], SPEC, NAT, check=False)
        assert self._relative_error(got, want) > 0.1


class TestRotationOracle:
    """Rotated general families against the family at the rotated-back point.

    A rotation R acts on spinors as S(R) = exp(-i theta n.Sigma / 2), and
    u(Rk) = S u(k) D, v(Rk) = S v(k) D with one unitary 2 x 2 D for both
    pairs and every k.  So the family z_R(k) = lift(M) z(R^-1 k), with
    M = diag(D^dagger, D^T) in blocks on the particle and the antiparticle
    pair, has the classical spinor S psi(R^-1 x), the densities (r0, R r)
    at R^-1 x and the two-point matrix S G(R^-1 x, R^-1 x') S^dagger.  A
    rotation keeps the cutoff ball, so even the antiparticle sector of the
    quadratic integrals rotates; the product rule integrates two
    orientations of one integrand.  The family is the space-translated
    sech2 of TestTranslationOracle, so it is anisotropic.
    """

    xs = TestTranslationOracle.xs
    theta, axis = 1.1, np.array([0.48, -0.6, 0.64])
    R = expm(theta * np.cross(np.eye(3), axis))
    # Sigma^i = (i/2) eps_ijk gamma^j gamma^k, eps_ijk = (e_i x e_j)_k
    levi_civita = np.cross(np.eye(3)[:, None], np.eye(3)[None, :])
    sigma = 0.5j * np.einsum("ijk,jab,kbc->iac", levi_civita, GAMMA[1:], GAMMA[1:])
    S = expm(-0.5j * theta * np.einsum("i,iab->ab", axis, sigma))
    # at k = 0, u = (e1, e2): D is the inverse of S's upper block
    D = S[:2, :2].conj().T
    blocks = {"D": D, "D^dagger": D.conj().T, "D^T": D.T, "conj(D)": D.conj()}

    @staticmethod
    @cache
    def _family(occupied):
        radial = sech2_family(1.0, occupied=occupied)
        return TestTranslationOracle._translated(radial, lambda kv: kv @ [0.3, -0.2, 0.25])

    @classmethod
    def _rotated(cls, occupied, particle="D^dagger", antiparticle="D^T"):
        family, m = cls._family(occupied), np.zeros((4, 4), dtype=complex)
        m[:2, :2], m[2:, 2:] = cls.blocks[particle], cls.blocks[antiparticle]
        gamma = lift(m)

        def z(kv):
            return family.coefficients(kv @ cls.R) @ gamma.T

        return GeneralStateFamily(z, family.k_cutoff)

    @classmethod
    def _back(cls, x):
        """(x0, R^-1 x) for rows x."""
        return np.concatenate([x[..., :1], x[..., 1:] @ cls.R], axis=-1)

    @classmethod
    @cache
    def _spinor_back(cls, occupied):
        """S psi(R^-1 x) of the unrotated family at xs."""
        psi = classical_spinor(cls._family(occupied), cls._back(cls.xs), SPEC, NAT, check=False)
        return psi @ cls.S.T

    _relative_error = staticmethod(TestTranslationOracle._relative_error)

    def test_one_spin_matrix_for_both_pairs(self):
        # the least-squares D at each k, for u and for v, is the rest-frame one
        ks = np.random.default_rng(8).normal(size=(6, 3)) * np.geomspace(0.1, 20.0, 6)[:, None]
        for columns in (u_columns, v_columns):
            rotated_first, want = self.S @ columns(ks, 1.0), columns(ks @ self.R.T, 1.0)
            fits = np.linalg.pinv(rotated_first) @ want
            assert np.abs(fits - self.D).max() < 1e-14
            assert np.abs(rotated_first @ fits - want).max() < 1e-14
        assert np.abs(self.D.conj().T @ self.D - np.eye(2)).max() < 1e-15

    @pytest.mark.parametrize("occupied", [1, 3])
    def test_classical_spinor(self, occupied):
        rotated = self._rotated(occupied)
        got = classical_spinor(rotated, self.xs, SPEC, NAT, check=False)
        assert self._relative_error(got, self._spinor_back(occupied)) < 1e-12
        assert classical_dirac_residual(rotated, self.xs, SPEC, NAT, check=False) < 1e-13

    @pytest.mark.parametrize("occupied", [1, 3])
    def test_r_density(self, occupied):
        got = r_density(self._rotated(occupied), self.xs, SPEC, NAT)
        back = r_density(self._family(occupied), self._back(self.xs), SPEC, NAT)
        want = np.concatenate([back[:, :1], back[:, 1:] @ self.R.T], axis=1)
        assert self._relative_error(got, want) < 1e-12

    @pytest.mark.parametrize("occupied", [1, 3])
    def test_two_point(self, occupied):
        rotated, family = self._rotated(occupied), self._family(occupied)
        (x, xp), (bx, bxp) = self.xs, self._back(self.xs)
        got = two_point(rotated, rotated, x, xp, SPEC, NAT)
        want = self.S @ two_point(family, family, bx, bxp, SPEC, NAT) @ self.S.conj().T
        assert self._relative_error(got, want) < 1e-12

    @pytest.mark.parametrize(
        "occupied, particle, antiparticle, caught",
        [
            (1, "D", "D^T", True),
            (3, "D^dagger", "D^dagger", True),
            (3, "D^dagger", "conj(D)", True),
            # a particle family has no antiparticle amplitude to rotate
            (1, "D^dagger", "D^dagger", False),
        ],
    )
    def test_wrong_block_is_caught(self, occupied, particle, antiparticle, caught):
        rotated = self._rotated(occupied, particle, antiparticle)
        got = classical_spinor(rotated, self.xs, SPEC, NAT, check=False)
        error = self._relative_error(got, self._spinor_back(occupied))
        assert error > 0.1 if caught else error < 1e-12


class TestRadialControlVariate:
    """The product rule takes each sphere's state side less its mean, the radial rule the means.

    The integral is linear in the state side, so the split is exact for any
    means; with every mean zero (plain_split) it is the plain product rule,
    the oracle wherever that has converged: many polar nodes and k |x| small.
    A block whose remainder is bounded below the rule's rounding builds no
    moments.
    """

    spec = QuadratureSpec(n_radial=60, n_theta=32)
    families = {
        "phased": (lambda: PHASED, XS),
        "translated": (
            lambda: TestTranslationOracle._translated(
                sech2_family(1.0), lambda kv: kv @ [0.6, 0.5, -0.55]
            ),
            TestTranslationOracle.xs,
        ),
        "rotated": (lambda: TestRotationOracle._rotated(3), TestTranslationOracle.xs),
    }
    calls = {
        "spinor": lambda f, xs, sp: (_overlap_spinor(f, xs, sp, NAT),),
        "spinor-derivatives": lambda f, xs, sp: _overlap_spinor(f, xs, sp, NAT, derivatives=True),
        "tensor": lambda f, xs, sp: (_field_tensor(f, xs, sp, NAT),),
        "tensor-derivatives": lambda f, xs, sp: _field_tensor(f, xs, sp, NAT, derivatives=True),
    }
    wrapped = GeneralStateFamily(sech2_family(1.0).coefficients, 40.0)

    @staticmethod
    def _anisotropic():
        # the occupied row carries exp(i k.a): no sphere's state side is constant
        radial, a = sech2_family(1.0), np.array([0.5, -0.3, 0.8])

        def z(kv):
            out = radial.coefficients(kv)
            out[:, 1] *= np.exp(1.0j * (kv @ a))
            return out

        return GeneralStateFamily(z, radial.k_cutoff)

    @staticmethod
    def _count(monkeypatch, name):
        """A list that grows by one at each call of expectation.<name>."""
        calls, real = [], getattr(expectation, name)
        monkeypatch.setattr(expectation, name, lambda *a: calls.append(1) or real(*a))
        return calls

    @pytest.mark.parametrize("call", sorted(calls))
    @pytest.mark.parametrize("family", sorted(families))
    def test_matches_the_plain_rule(self, family, call, monkeypatch):
        make, xs = self.families[family]
        fam = make()
        got = self.calls[call](fam, xs, self.spec)
        monkeypatch.setattr(expectation, "_split", plain_split)
        for a, b in zip(got, self.calls[call](fam, xs, self.spec), strict=True):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_wrapped_family_builds_no_moments(self, monkeypatch):
        # every block of the wrapped family is skipped; the anisotropic one skips none
        x = np.array([0.1, 0.9, -0.8, 0.5])
        builds = self._count(monkeypatch, "_plane_moments")
        classical_spinor(self.wrapped, x, SPEC, NAT, check=False)
        assert builds == []
        blocks = self._count(monkeypatch, "_product_contraction")
        classical_spinor(self._anisotropic(), x, SPEC, NAT, check=False)
        assert len(builds) == len(blocks) == 50

    @pytest.mark.parametrize("call", ["spinor", "tensor-derivatives"])
    def test_skipped_remainders_stay_within_their_bound(self, call, monkeypatch):
        # each skipped block moves each entry by at most its bound summed over rows
        xs = np.array([[0.3, -0.7, 0.8, 0.6], [0.1, 0.9, -0.8, 0.5]])
        skipped = self.calls[call](self.wrapped, xs, SPEC)
        bounds, real = [], expectation._split

        def unskipped(S, wo, scales, tol):
            live, rest, mean, negligible = real(S, wo, scales, tol)
            assert negligible
            bounds.append(np.sum((np.abs(rest) @ wo) @ scales.T))
            return live, rest, mean, False

        monkeypatch.setattr(expectation, "_split", unskipped)
        full = self.calls[call](self.wrapped, xs, SPEC)
        assert len(bounds) == (50 if call == "spinor" else 200)
        for a, b in zip(skipped, full, strict=True):
            assert np.max(np.abs(a - b)) <= sum(bounds)

    def test_wrapped_densities_pass_their_guards_at_the_default_spec(self):
        # with the product rule on the whole state side, r_density raised here:
        # "angular refinement moved the result by 3.807e-03"
        radial, x = sech2_family(1.0), np.array([0.1, 0.5, -0.3, 0.7])
        got, want = r_density(self.wrapped, x, SPEC, NAT), r_density(radial, x, SPEC, NAT)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        got, want = (r_density_residuals(f, x, SPEC, NAT) for f in (self.wrapped, radial))
        assert all(abs(got[key] - want[key]) <= 1e-12 * scale for key in want)

    def test_wrapped_values_match_the_radial_path(self):
        # the benchmark's audit points, and the derivative insertions
        xs = np.array([[0.3, -0.7, 0.8, 0.6], [0.1, 0.9, -0.8, 0.5], [-0.5, 0.2, 0.3, -1.1]])
        radial = sech2_family(1.0)
        for call in ("spinor-derivatives", "tensor-derivatives"):
            got, want = self.calls[call](self.wrapped, xs, SPEC), self.calls[call](radial, xs, SPEC)
            for a, b in zip(got, want, strict=True):
                assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


MIRROR_FAMILIES = {
    "sech2-wrapped": lambda: GeneralStateFamily(sech2_family(1.0).coefficients, 40.0),
    "phased": lambda: PHASED,
    "rotated": lambda: TestRotationOracle._rotated(3),
}
# an even n_theta, and an odd one whose equator row pairs phi with phi + pi
MIRROR_SPECS = {"even": QuadratureSpec(n_radial=80, n_theta=12), "odd": QuadratureSpec(n_theta=5)}


@pytest.mark.parametrize("spec", sorted(MIRROR_SPECS))
@pytest.mark.parametrize("family", sorted(MIRROR_FAMILIES))
def test_mirrored_rule_matches_the_grid_rule(family, spec, monkeypatch):
    # the grid order of the angular rule, every node's phase taken whole, is the
    # oracle of the mirrored halves whose second half takes the first's conjugates
    fam, sp = MIRROR_FAMILIES[family](), MIRROR_SPECS[spec]
    calls = {
        "spinor": lambda: (_overlap_spinor(fam, XS, sp, NAT),),
        "spinor-derivatives": lambda: _overlap_spinor(fam, XS, sp, NAT, derivatives=True),
        "tensor": lambda: (_field_tensor(fam, XS, sp, NAT),),
        "tensor-derivatives": lambda: _field_tensor(fam, XS, sp, NAT, derivatives=True),
        "charge": lambda: (np.array(total_charge(fam, sp, NAT)),),
    }
    mirrored = {name: call() for name, call in calls.items()}
    monkeypatch.setattr(expectation, "angular_rule", grid_angular_rule)
    monkeypatch.setattr(expectation, "_plane_moments", _grid_plane_moments)
    for name, call in calls.items():
        for got, want in zip(mirrored[name], call(), strict=True):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), name


class TestScalars:
    def test_charge_closed_form_sech2(self):
        q = total_charge(sech2_family(1.0), SPEC, NAT)
        assert q == pytest.approx(np.pi**3 / 3.0, rel=1e-12)

    def test_charge_closed_form_step(self):
        q = total_charge(step_family(2.0), SPEC, NAT)
        assert q == pytest.approx(4.0 * np.pi / 3.0 * 8.0, rel=1e-12)

    def test_charge_sign_and_scales(self):
        consts = PhysicalConstants(q=0.5, ell=2.0)
        q = total_charge(sech2_family(1.0, occupied=4), SPEC, consts)
        assert q == pytest.approx(-0.5 * 8.0 * np.pi**3 / 3.0, rel=1e-12)

    def test_charge_scaling_law(self):
        lam = 2.5
        q1 = total_charge(sech2_family(1.0), SPEC, NAT)
        q2 = total_charge(sech2_family(lam), SPEC, NAT)
        assert q2 == pytest.approx(q1 / lam**3, rel=1e-12)

    def test_general_family_matches_radial_reduction(self):
        # isotropic coefficients through the full 3d product rule
        rho_fam = sech2_family(1.0)
        fam = GeneralStateFamily(
            z=rho_fam.coefficients, k_cutoff=rho_fam.k_cutoff, hard_cutoff=rho_fam.hard_cutoff
        )
        q3d = total_charge(fam, SPEC, NAT)
        q1d = total_charge(rho_fam, SPEC, NAT)
        assert abs(q3d - q1d) < SPEC.abs_tol

    def test_energies_against_oracle(self):
        fam = sech2_family(1.0)
        e = quantum_energy(fam, SPEC, NAT)
        e_cl = classical_energy(fam, SPEC, NAT)

        def base(k):
            return 4.0 * np.pi * k * k * np.sqrt(1.0 + k * k) / np.cosh(k) ** 2

        oracle_e = quad(base, 0.0, 40.0, limit=200)[0]
        oracle_cl = quad(lambda k: base(k) * np.tanh(k) ** 2, 0.0, 40.0, limit=200)[0]
        assert e == pytest.approx(oracle_e, rel=1e-12)
        assert e_cl == pytest.approx(oracle_cl, rel=1e-12)
        assert e_cl < e

    def test_classical_below_quantum_across_profiles(self):
        for fam in (sech2_family(0.7), gaussian_family(1.3), step_family(1.5)):
            e = quantum_energy(fam, SPEC, NAT)
            e_cl = classical_energy(fam, SPEC, NAT)
            assert e_cl < e

    def test_step_profile_energies_coincide(self):
        # rho is 0 or 1 everywhere, so rho (1 - rho) vanishes identically
        fam = step_family(1.5)
        assert classical_energy(fam, SPEC, NAT) == 0.0

    def test_energy_rejects_general_family(self):
        fam = GeneralStateFamily(z=lambda kv: np.zeros((len(kv), 16)), k_cutoff=1.0)
        with pytest.raises(ValueError):
            quantum_energy(fam, SPEC, NAT)
        with pytest.raises(ValueError):
            classical_energy(fam, SPEC, NAT)

    def test_unbounded_density_diverges(self):
        fam = RhoStateFamily(occupied=1, rho=lambda r: np.full_like(r, 0.5))
        with pytest.raises(Diverged):
            total_charge(fam, SPEC, NAT)


# every public field integral, each as call(family, x, xp, spec)
FIELD_INTEGRALS = {
    "classical_spinor": lambda f, x, xp, sp: classical_spinor(f, x, sp, NAT),
    "classical_dirac_residual": lambda f, x, xp, sp: classical_dirac_residual(f, x, sp, NAT),
    "two_point": lambda f, x, xp, sp: two_point(f, f, x, xp, sp, NAT),
    "two_point_dirac_residual": lambda f, x, xp, sp: two_point_dirac_residual(f, f, x, xp, sp, NAT),
    "r_density": lambda f, x, xp, sp: r_density(f, x, sp, NAT),
    "r_density_residuals": lambda f, x, xp, sp: r_density_residuals(f, x, sp, NAT),
    "current_reality_residual": lambda f, x, xp, sp: current_reality_residual(f, f, x, sp, NAT),
}

_ONE, _BATCH = np.zeros(4), np.zeros((2, 4))
# the (x, x') with a batch that each single-point field integral must refuse
SINGLE_POINT = {
    "two_point": [(_BATCH, _ONE), (_ONE, _BATCH)],
    "two_point_dirac_residual": [(_BATCH, _ONE), (_ONE, _BATCH)],
    "current_reality_residual": [(_BATCH, _ONE)],  # it takes no x'
}


@pytest.mark.parametrize(
    "x",
    [np.zeros((0, 4)), np.array([0.1, np.nan, 0.2, 0.3]), [[0.0] * 4, [0.1, 0.2, np.inf, 0.3]]],
    ids=["empty", "nan", "inf"],
)
@pytest.mark.parametrize("call", sorted(FIELD_INTEGRALS))
def test_field_integrals_refuse_empty_or_non_finite_points(call, x):
    # empty sets used to crash in _disagreement or return [], and a non-finite
    # point to raise QuadratureNotConverged after RuntimeWarnings
    with pytest.raises(ValueError, match="points must be finite and nonempty"):
        FIELD_INTEGRALS[call](sech2_family(1.0), x, np.zeros(4), SPEC)
    if call.startswith("two_point"):  # the second point too; one pass holds both points
        with pytest.raises(ValueError, match="points must be finite and nonempty"):
            FIELD_INTEGRALS[call](sech2_family(1.0), np.zeros(4), x, SPEC)
    # one point each: a batch used to be cut to its first point, without an error
    for points in SINGLE_POINT.get(call, []):
        with pytest.raises(ValueError, match="a single point is needed here: 2 given"):
            FIELD_INTEGRALS[call](sech2_family(1.0), *points, SPEC)


@pytest.mark.parametrize("shape", [(2, 2), (8,), (4, 2), (2, 8), (3,), ()])
@pytest.mark.parametrize("call", sorted(FIELD_INTEGRALS))
def test_field_integrals_refuse_arrays_whose_last_axis_is_not_a_point(call, shape):
    # any array whose size divides by 4 used to be regrouped as points: a (2, 2)
    # x made two_point a 4 x 4 matrix and current_reality_residual read 0.0; the
    # others failed in a bare numpy reshape
    message = rf"last axis of length 4 \(t, x, y, z\): shape {re.escape(str(shape))} given"
    with pytest.raises(ValueError, match=message):
        FIELD_INTEGRALS[call](sech2_family(1.0), np.zeros(shape), np.zeros(4), SPEC)
    if call.startswith("two_point"):
        with pytest.raises(ValueError, match=message):
            FIELD_INTEGRALS[call](sech2_family(1.0), np.zeros(4), np.zeros(shape), SPEC)


def _nan(r):
    return np.full_like(r, np.nan)


class TestGuardsFailClosed:
    @pytest.mark.parametrize(
        "run",
        [lambda sp: np.nan, lambda sp: np.inf, lambda sp: 1.0 if sp == SPEC else np.inf],
        ids=["nan", "inf", "inf-doubled"],
    )
    def test_doubling_guard_trips_on_non_finite(self, run):
        with pytest.raises(Diverged):
            _doubling_guard(run, SPEC, "non-finite run")

    @pytest.mark.parametrize(
        "run",
        [
            lambda sp: np.full(4, np.nan),
            lambda sp: np.full(4, np.inf),
            lambda sp: np.ones(4) if sp == SPEC else np.full(4, np.nan),
        ],
        ids=["nan", "inf", "nan-doubled"],
    )
    def test_refinement_guard_trips_on_non_finite(self, run):
        with pytest.raises(QuadratureNotConverged):
            _field_guard(run, SPEC, "non-finite run", check=True)

    def test_doubling_guard_message_carries_its_numbers(self):
        run = lambda sp: 1.0 if sp == SPEC else 1.5
        message = (
            r"total: integral moved by 5\.000e-01 "
            r"\(base 1, doubled 1\.5, tolerance 1\.000e-09\) under doubling"
        )
        with pytest.raises(Diverged, match=message):
            _doubling_guard(run, SPEC, "total")

    def test_refinement_guard_message_carries_its_numbers(self):
        # an array result names its largest change and the two values there
        run = lambda sp: np.array([1.0, 2.0, 3.0]) if sp == SPEC else np.array([1.0, 2.25, 3.1])
        message = (
            r"spinor: refinement moved the result by 2\.500e-01 "
            r"\(base 2, doubled 2\.25, tolerance 1\.000e-09\)"
        )
        with pytest.raises(QuadratureNotConverged, match=message):
            _field_guard(run, SPEC, "spinor", check=True)

    def test_unchecked_integrals_reject_nan_density(self):
        # none has a refinement check by default, so only the finiteness test
        # stands; tabulated_family rejects NaN samples, so rho returns NaN here
        fam = RhoStateFamily(1, rho=lambda r: np.full_like(r, np.nan), k_cutoff=1.0)
        spec = QuadratureSpec(n_radial=8, n_theta=4)
        x = np.zeros(4)
        with pytest.raises(QuadratureNotConverged):
            two_point(fam, fam, x, x, spec, NAT)
        with pytest.raises(QuadratureNotConverged):
            r_density(fam, x, spec, NAT)
        with pytest.raises(QuadratureNotConverged):
            r_density_residuals(fam, x, spec, NAT)
        with pytest.raises(QuadratureNotConverged):
            current_reality_residual(fam, fam, x, spec, NAT)
        with pytest.raises(QuadratureNotConverged):
            two_point_dirac_residual(fam, fam, x, x, spec, NAT)

    @pytest.mark.parametrize(
        "fam",
        [
            RhoStateFamily(1, rho=lambda r: np.full_like(r, 0.5), chi=_nan, k_cutoff=1.0),
            RhoStateFamily(1, rho=lambda r: np.full_like(r, 0.5), xi=_nan, k_cutoff=1.0),
            # rho = 1 at every node: the vacuum row is zero, so every mode has a zero slice
            step_family(1.0, xi=_nan),
            # rho = 0: the occupied row is zero
            RhoStateFamily(1, rho=np.zeros_like, chi=_nan, k_cutoff=1.0),
        ],
        ids=["chi", "xi", "full-xi", "empty-chi"],
    )
    def test_unchecked_integrals_reject_nan_phase(self, fam):
        # a phase zero at every node skips its exponential, and the sandwich a
        # mode with a zero slice; a NaN phase must skip neither (0 * NaN is NaN)
        spec = QuadratureSpec(n_radial=8, n_theta=4)
        x = np.zeros(4)
        with pytest.raises(QuadratureNotConverged):
            classical_spinor(fam, x, spec, NAT, check=False)
        with pytest.raises(QuadratureNotConverged):
            r_density(fam, x, spec, NAT)
        with pytest.raises(QuadratureNotConverged):
            two_point(fam, fam, x, x, spec, NAT)


# a translation by 3 along a unit vector, whose remainder the product rule aliases
TRANSLATION = 3.0 * np.array([0.48, -0.6, 0.64])


class TestAngularGuard:
    """A general family's two-point matrix, densities and currents rerun with n_theta doubled.

    The product rule takes only what is left of each sphere's state side
    after its mean.  Translated by |a| = 3, the family's remainder carries
    k |x - a| up to 6 * 4.2, and eight polar nodes alias it, and so do
    sixteen, so the two disagree and every caller raises.  The radial path
    has no angular nodes and is never rerun, and the wrapped radial family
    has no remainder: at k |x| up to 6 * 1.97 even four polar nodes match
    the radial path.
    """

    radial = RhoStateFamily(1, rho=lambda r: 1.0 / np.cosh(r) ** 2, k_cutoff=6.0, hard_cutoff=True)
    general = GeneralStateFamily(radial.coefficients, radial.k_cutoff, hard_cutoff=True)
    spec = QuadratureSpec(n_radial=12, n_theta=4)
    x = np.array([0.2, 1.2, -1.2, 1.0])
    xp = np.array([0.0, -0.4, 0.2, 0.6])
    calls = {
        "two_point": lambda f, x, xp, sp: two_point(f, f, x, xp, sp, NAT),
        "r_density": lambda f, x, xp, sp: r_density(f, x, sp, NAT),
        "r_density_residuals": lambda f, x, xp, sp: r_density_residuals(f, x, sp, NAT),
        "current_reality_residual": lambda f, x, xp, sp: current_reality_residual(
            f, f, x, sp, NAT
        ),
    }

    @pytest.mark.parametrize("call", sorted(calls))
    def test_guard_trips_on_aliased_angles(self, call):
        translated = TestTranslationOracle._translated(self.radial, lambda kv: kv @ TRANSLATION)
        message = r"angular refinement moved the result by \S+ \(base .+, doubled .+, tolerance"
        with pytest.raises(QuadratureNotConverged, match=message):
            self.calls[call](translated, self.x, self.xp, replace(self.spec, n_theta=8))
        self.calls[call](self.radial, self.x, self.xp, self.spec)

    @pytest.mark.parametrize("call", sorted(calls))
    def test_wrapped_family_converges_on_four_polar_nodes(self, call):
        # with the product rule on the whole state side, the rerun moved these by up to 5.2
        got = self.calls[call](self.general, self.x, self.xp, self.spec)
        want = self.calls[call](self.radial, self.x, self.xp, self.spec)
        got, want = (np.array(list(v.values()) if isinstance(v, dict) else v) for v in (got, want))
        # relative, or absolute for the residuals, which are zero up to roundoff
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_radial_families_are_not_rerun(self):
        # the base run is the guard's own; only a general family adds the angular rerun
        specs = []
        run = lambda sp: specs.append(sp) or (np.zeros(2) if sp == self.spec else np.ones(2))
        v = _field_guard(run, self.spec, "x", families=(self.radial, self.radial))
        assert np.array_equal(v, np.zeros(2))
        assert specs == [self.spec]
        with pytest.raises(QuadratureNotConverged, match="tolerance 1.000e-09"):
            _field_guard(run, self.spec, "x", families=(self.radial, self.general))
        assert specs == [self.spec, self.spec, QuadratureSpec(n_radial=12, n_theta=8)]

    @pytest.mark.parametrize("general", [False, True], ids=["two-component", "general"])
    def test_run_order_with_check(self, general):
        # base run, then the doubled one, then (general families only) n_theta doubled
        specs = []
        run = lambda sp: specs.append(sp) or np.ones(2)
        family = self.general if general else self.radial
        _field_guard(run, self.spec, "x", check=True, families=(self.radial, family))
        expect = [self.spec, self.spec.doubled()]
        if general:
            expect.append(replace(self.spec, n_theta=2 * self.spec.n_theta))
        assert specs == expect

    @pytest.mark.parametrize(
        "call, families",
        [
            (lambda f, x, xp, sp: classical_spinor(f, x, sp, NAT, check=False), 0),
            (lambda f, x, xp, sp: classical_dirac_residual(f, x, sp, NAT, check=False), 0),
            (lambda f, x, xp, sp: two_point_dirac_residual(f, f, x, xp, sp, NAT), 0),
            (lambda f, x, xp, sp: two_point(f, f, x, xp, sp, NAT), 2),
            (lambda f, x, xp, sp: r_density(f, x, sp, NAT), 1),
            (lambda f, x, xp, sp: r_density_residuals(f, x, sp, NAT), 1),
            (lambda f, x, xp, sp: current_reality_residual(f, f, x, sp, NAT), 2),
        ],
        ids=[
            "classical_spinor",
            "classical_dirac_residual",
            "two_point_dirac_residual",
            "two_point",
            "r_density",
            "r_density_residuals",
            "current_reality_residual",
        ],
    )
    def test_each_field_integral_calls_the_guard_once(self, monkeypatch, call, families):
        # the linear integrals and the two-point residual pass no family to the angular check
        seen = []

        def guard(run, spec, label, check=False, families=()):
            seen.append(len(families))
            return _field_guard(run, spec, label, check, families)

        monkeypatch.setattr(expectation, "_field_guard", guard)
        call(self.radial, self.x, self.xp, QuadratureSpec(n_radial=8, n_theta=4))
        assert seen == [families]


class TestBoundedMemory:
    """Peak memory follows the output, not the number of points times nodes.

    The field integrals build their phase matrices one slice of points at a
    time, at most _CHUNK_NODES points x nodes per slice, four angular parts
    each on the radial path.  Whole-grid phase matrices at these 20,000
    points and 16 radial nodes would take 20 MB on their own.  The product
    rule of a general family runs blocks of spheres of 2 n_theta^2 nodes
    each, as many as keep a block's state and state side within the fixed
    _BLOCK_BYTES, and builds their four direction moments one slice of
    points at a time.
    """

    xs = np.random.default_rng(5).uniform(-2.0, 2.0, size=(20_000, 4))
    spec = QuadratureSpec(n_radial=16)
    slice_mb = _CHUNK_NODES * 4 * 16 / 2**20  # one slice's complex phase matrix, 3.7 MB

    @staticmethod
    def _peak_mb(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_spinor_peak(self):
        fam = sech2_family(1.0)
        peak = self._peak_mb(lambda: classical_spinor(fam, self.xs, self.spec, NAT, check=False))
        assert peak < 6 * self.slice_mb

    def test_general_spinor_peak(self):
        # a default block is four spheres of 1152 nodes, its state 1.2 MB; the
        # 230,400 nodes of the whole rule would take 59 MB for the state alone
        radial = sech2_family(1.0)
        fam = GeneralStateFamily(radial.coefficients, radial.k_cutoff)
        x = np.array([0.3, 0.5, -0.2, 0.4])
        peak = self._peak_mb(lambda: classical_spinor(fam, x, SPEC, NAT, check=False))
        assert peak < 8.0

    def test_general_tensor_peak(self):
        # spheres of 128 nodes: the moments of all 4,000 points at once would
        # take 31 MB (4 x 16 bytes per point and node), beside a 3.9 MB tensor
        radial = sech2_family(1.0)
        fam = GeneralStateFamily(radial.coefficients, radial.k_cutoff)
        xs = self.xs[:4000]
        spec = QuadratureSpec(n_radial=2, n_theta=8)
        tensor_mb = len(xs) * 64 * 16 / 2**20
        peak = self._peak_mb(lambda: _field_tensor(fam, xs, spec, NAT))
        assert peak < tensor_mb + 4 * self.slice_mb

    def test_general_tensor_derivative_peak(self):
        # the value and derivative tensors take 19.5 MB; forming the time
        # derivative moments as well (4 instead of 3 per point, node and
        # direction moment) and keeping the previous slice's products put
        # the peak at 60 MB
        radial = sech2_family(1.0)
        fam = GeneralStateFamily(radial.coefficients, radial.k_cutoff)
        spec = QuadratureSpec(n_radial=2, n_theta=8)
        peak = self._peak_mb(lambda: _field_tensor(fam, self.xs[:4000], spec, NAT, derivatives=True))
        assert peak < 45.0

    def test_density_peak(self):
        # the field tensor (4 x 16 complex entries per point) and its conjugate grow with the output
        tensor_mb = len(self.xs) * 64 * 16 / 2**20
        fam = sech2_family(1.0)
        peak = self._peak_mb(lambda: r_density(fam, self.xs, self.spec, NAT))
        assert peak < 2 * tensor_mb + 6 * self.slice_mb


class TestTwoPoint:
    def test_vacuum_matrix_at_origin(self):
        # only the antiparticle sector survives; its diagonal is -I_v^2 with
        # I_v the radial integral of the surviving spinor component
        fam = vacuum_family()
        g = two_point(fam, fam, np.zeros(4), np.zeros(4), SPEC, NAT)

        def integrand(k):
            return 4.0 * np.pi * k * k * _weight(k) * _upper_component(k)

        iv = quad(integrand, 0.0, 40.0, limit=200)[0]
        expect = np.diag([0.0, 0.0, -(iv**2), -(iv**2)])
        assert iv**2 == pytest.approx(2711269.7074, rel=1e-9)
        assert np.max(np.abs(g - expect)) < 1e-5
        assert g[2, 2].real == pytest.approx(-(iv**2), rel=1e-12)
        assert g[3, 3].real == pytest.approx(-(iv**2), rel=1e-12)

    def test_field_equations_both_arguments(self):
        fam = sech2_family(1.0)
        vac = vacuum_family()
        x = np.array([0.2, 0.5, -0.1, 0.3])
        xp = np.array([0.0, -0.4, 0.2, 0.6])
        assert two_point_dirac_residual(fam, vac, x, xp, SPEC, NAT) < 1e-8
        assert two_point_dirac_residual(fam, fam, x, xp, SPEC, NAT) < 1e-8


class TestOnePassPerFamily:
    """One family object on both sides of a two-point integral is integrated once per spec.

    The two-point kernel takes x and x' from one _field_tensor pass.  A
    dataclasses.replace copy is a distinct object and keeps one pass per
    side: the same values from twice the passes.  The smeared currents take
    a pass of z and one of C_hat z per family, four per spec.
    """

    radial = RhoStateFamily(
        3, rho=lambda r: 1.0 / np.cosh(r) ** 2, xi=lambda r: 0.7 * r, k_cutoff=6.0, hard_cutoff=True
    )
    families = {
        "radial": radial,
        "general": GeneralStateFamily(radial.coefficients, radial.k_cutoff, hard_cutoff=True),
    }
    spec = QuadratureSpec(n_radial=12, n_theta=8)
    x = np.array([0.2, 0.3, -0.1, 0.2])
    xp = np.array([0.0, -0.2, 0.1, 0.3])
    # each call(bra, ket, x, x', spec) with its passes per spec for one family object
    calls = {
        "two_point": (lambda a, b, x, xp, sp: two_point(a, b, x, xp, sp, NAT), 1),
        "two_point_dirac_residual": (
            lambda a, b, x, xp, sp: two_point_dirac_residual(a, b, x, xp, sp, NAT),
            1,
        ),
    }

    @staticmethod
    def _count_passes(monkeypatch):
        """A list that grows by the spec of each _accumulate pass."""
        specs = []
        accumulate = expectation._accumulate

        def counting(fam, xs, spec, *args):
            specs.append(spec)
            return accumulate(fam, xs, spec, *args)

        monkeypatch.setattr(expectation, "_accumulate", counting)
        return specs

    @pytest.mark.parametrize("same", [True, False], ids=["same-object", "copy"])
    @pytest.mark.parametrize("family", sorted(families))
    @pytest.mark.parametrize("call", sorted(calls))
    def test_passes_per_spec(self, monkeypatch, call, family, same):
        specs = self._count_passes(monkeypatch)
        fn, passes = self.calls[call]
        bra = self.families[family]
        fn(bra, bra if same else replace(bra), self.x, self.xp, self.spec)
        # a general family's two-point matrix reruns with n_theta doubled
        reruns = family == "general" and call == "two_point"
        counts = Counter(specs)
        assert len(counts) == 1 + reruns
        assert set(counts.values()) == {passes if same else 2 * passes}

    @pytest.mark.parametrize("family", sorted(families))
    def test_smeared_currents_take_two_passes_per_family(self, monkeypatch, family):
        # a pass of z and one of C_hat z per family; a general family reruns at 2 n_theta
        specs = self._count_passes(monkeypatch)
        fam = self.families[family]
        current_reality_residual(fam, replace(fam), self.x, self.spec, NAT)
        counts = Counter(specs)
        assert len(counts) == 1 + (family == "general")
        assert set(counts.values()) == {4}

    @pytest.mark.parametrize("family", sorted(families))
    def test_one_pass_matches_a_pass_per_side(self, family):
        fam = self.families[family]
        copy = replace(fam)
        assert copy is not fam and copy == fam
        kernel = lambda b: expectation._two_point(
            fam, b, self.x, self.xp, self.spec, NAT, derivatives=True
        )
        pairs = [
            (two_point(fam, fam, self.x, self.xp, self.spec, NAT),
             two_point(fam, copy, self.x, self.xp, self.spec, NAT)),
            *zip(kernel(fam), kernel(copy)),
        ]
        for one, two in pairs:
            assert np.max(np.abs(one - two)) <= 1e-14 * np.max(np.abs(two))


class TestChargeConjugationOracles:
    """Global identities that tie the field integrals to C_hat, fock.CHARGE_CONJUGATION.

    The C_hat family of z is z(k) C_hat^T at every k.  The classical spinor
    is linear in the state's sandwich, so psi_cl(C_hat z) = C gamma^0T
    conj(psi_cl(z)).  The C-odd charge density 1/2 (r0(z) - r0(C_hat z))
    integrates over all space to the charge sign times
    (2 pi)^3 integral d^3k w(k)^2 rho(k), Plancherel on the particle rows
    (natural units, w the mode measure).  The classical spinor's norm
    integrates likewise to (2 pi)^3 integral d^3k w(k)^2 rho (1 - rho).  Each
    identity keeps a control that must miss it.
    """

    def test_classical_spinor_of_the_conjugate_family(self):
        # z on the radial path, C_hat z on the product rule: the identity ties both paths
        fam = sech2_family(1.0, chi=lambda r: np.full_like(r, 0.4), xi=lambda r: 0.3 * r)
        conj = GeneralStateFamily(
            lambda k: fam.coefficients(k) @ CHARGE_CONJUGATION.T, fam.k_cutoff
        )
        xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4], [-0.7, 1.1, 0.6, -0.9]])
        spec = QuadratureSpec(n_theta=32)
        got = classical_spinor(conj, xs, spec, NAT, check=False)
        phi = classical_spinor(fam, xs, spec, NAT, check=False).conj()
        want = phi @ (CONJUGATION @ GAMMA0.T).T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        control = phi @ CONJUGATION.T  # C without gamma^0T
        assert np.max(np.abs(got - control)) > 0.1 * np.max(np.abs(control))

    # (z, the partner family that is C_hat z up to the sign of the occupied row)
    partners = {
        "gaussian-2": (gaussian_family(1.0, occupied=2), gaussian_family(1.0, occupied=3)),
        "gaussian-3": (gaussian_family(1.0, occupied=3), gaussian_family(1.0, occupied=2)),
        "sech2-1": (sech2_family(1.0, occupied=1), sech2_family(1.0, occupied=4)),
    }

    @pytest.mark.parametrize("R", [15.0, 25.0])
    @pytest.mark.parametrize("pair", sorted(partners))
    def test_conjugation_odd_charge(self, pair, R):
        """The C-odd charge to |x| = R against its k-space value.

        4 pi int_0^R x^2 1/2 (r0(z) - r0(C_hat z)) dx = +-(2 pi)^3 4 pi int k^2 w^2 rho dk,
        with 300 Gauss nodes in |x| on the z axis at t = 0, n_radial 400.  The radial
        rule resolves j0(k |x|) to about k_max |x| = 4 n_radial, and here
        k_max R <= 40 * 25 = 1000 < 1600: the test stays inside the resolved
        band, so the radial aliasing beyond it cannot hide behind the test.
        """
        fam, partner = self.partners[pair]
        k = np.array([[0.3, -0.4, 1.2], [2.0, 0.1, 0.0]])
        z, zc = fam.coefficients(k), partner.coefficients(k)
        # C_hat fixes the vacuum and maps mode s to pi(s) with sign eps_s, -1 for modes 1 and 4
        eps = -1.0 if fam.occupied in (1, 4) else 1.0
        zc[:, 1 << (partner.occupied - 1)] *= eps
        assert np.array_equal(z @ CHARGE_CONJUGATION.T, zc)
        nodes, weights = np.polynomial.legendre.leggauss(300)
        x, w = 0.5 * R * (nodes + 1.0), 0.5 * R * weights
        points = np.zeros((len(x), 4))
        points[:, 3] = x
        spec = QuadratureSpec(n_radial=400)
        odd = r_density(fam, points, spec, NAT)[:, 0] - r_density(partner, points, spec, NAT)[:, 0]
        charge = lambda d: 4.0 * np.pi * np.sum(w * x**2 * d)

        def integrand(kk):
            return kk * kk * expectation._weight(kk, NAT) ** 2 * fam.radial_density(kk)

        density, err = quad(integrand, 0.0, fam.k_cutoff, limit=200, epsabs=0.0, epsrel=1e-13)
        want = fam.charge_sign * (2.0 * np.pi) ** 3 * 4.0 * np.pi * density
        assert err <= 1e-13 * abs(density)
        assert abs(charge(0.5 * odd) - want) <= 1e-12 * abs(want)
        # controls: without the 1/2, or with the pair swapped
        for control in (charge(odd), charge(-0.5 * odd)):
            assert abs(control - want) > 0.5 * abs(want)

    @pytest.mark.parametrize(
        "fam",
        [sech2_family(1.0), gaussian_family(1.0, occupied=2), sech2_family(1.0, occupied=3)],
        ids=["sech2-1", "gaussian-2", "sech2-3"],
    )
    def test_classical_spinor_norm(self, fam):
        """int d^3x |psi_cl|^2 to |x| = R against (2 pi)^3 int d^3k w^2 rho (1 - rho).

        The spinor's amplitude sqrt(rho (1 - rho)) goes as |k| at k = 0, a cone
        that is not smooth, so psi_cl decays as a power, |x|^-4, and the norm
        beyond R as R^-5.  Measured with 300 Gauss nodes in |x| on the z axis
        at t = 0 (|psi_cl|^2 is radial) and n_radial 400, the missing tail is
        2.4e-6 (sech2) and 4.2e-6 (gaussian) of the total at R = 15, and 1.7e-7
        and 3.0e-7 at R = 25.  So the test asserts a positive tail below
        1e-5 (15 / R)^5 at both radii, and the R^-5 law between them: their
        ratio (25 / 15)^5 = 12.9 within [10, 16].  An error of fixed relative
        size above 1e-8 would break that ratio.  As for the C-odd charge,
        k_max R <= 40 * 25 = 1000 < 4 n_radial, inside the resolved band.
        """
        spec = QuadratureSpec(n_radial=400)
        assert fam.k_cutoff * 25.0 < 4 * spec.n_radial

        def k_space(profile):
            def integrand(kk):
                return kk * kk * expectation._weight(kk, NAT) ** 2 * profile(fam.radial_density(kk))

            value, err = quad(integrand, 0.0, fam.k_cutoff, limit=200, epsabs=0.0, epsrel=1e-13)
            assert err <= 1e-12 * value
            return (2.0 * np.pi) ** 3 * 4.0 * np.pi * value

        want = k_space(lambda rho: rho * (1.0 - rho))
        nodes, weights = np.polynomial.legendre.leggauss(300)
        tails = {}
        for R in (15.0, 25.0):
            x, w = 0.5 * R * (nodes + 1.0), 0.5 * R * weights
            points = np.zeros((len(x), 4))
            points[:, 3] = x
            psi = classical_spinor(fam, points, spec, NAT, check=False)
            norm = 4.0 * np.pi * np.sum(w * x**2 * np.sum(np.abs(psi) ** 2, axis=1))
            tails[R] = (want - norm) / want
            assert 0.0 < tails[R] < 1e-5 * (15.0 / R) ** 5
            # control: the quantum occupation rho in place of rho (1 - rho)
            assert abs(norm - k_space(lambda rho: rho)) > 0.1 * norm
        assert 10.0 < tails[15.0] / tails[25.0] < 16.0


class TestLocalDensities:
    xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4]])

    def test_vacuum_density_is_zero_point_value(self):
        fam = vacuum_family()
        r = r_density(fam, self.xs, SPEC, NAT)

        def integrand(k):
            return 4.0 * np.pi * k * k * _weight(k) * _upper_component(k)

        iv = quad(integrand, 0.0, 40.0, limit=200)[0]
        assert r[0, 0] == pytest.approx(2.0 * iv**2, rel=1e-10)
        assert np.max(np.abs(r[0, 1:])) < 1e-6

    def test_residual_audits(self):
        out = r_density_residuals(sech2_family(1.0), self.xs, SPEC, NAT)
        assert out["imag_max"] < 1e-8
        assert out["r0_min"] >= 0.0
        assert out["continuity"] < 1e-8

    def test_smeared_current_reality(self):
        fam_a = sech2_family(1.0)
        fam_b = gaussian_family(1.0)
        x = np.array([0.1, 0.4, -0.3, 0.2])
        assert current_reality_residual(fam_a, fam_b, x, SPEC, NAT) < 1e-8

    # r^mu(x) = tr(gamma^mu G(x, x)) ties r_density to two_point, which contract one
    # field tensor in different code; an anisotropic general family at few nodes
    trace_cases = {
        "sech2": (sech2_family(1.0), SPEC),
        "step": (step_family(1.5, occupied=4), SPEC),
        "general": (
            TestTranslationOracle._translated(
                step_family(1.5, occupied=4, xi=lambda r: 0.3 * r), lambda kv: kv @ [0.3, -0.2, 0.25]
            ),
            QuadratureSpec(n_radial=16, n_theta=6),
        ),
    }
    # off the origin, where a transposed G no longer gives the trace by symmetry
    trace_xs = np.array([[0.3, 0.5, -0.2, 0.4], [0.8, -0.6, 0.3, 0.1]])

    @staticmethod
    def _trace_gaps(fam, xs, spec, transform=lambda G: G):
        """max_mu |tr(gamma^mu G(x, x)) - r^mu(x)| / max_mu |r^mu(x)| at each point x."""
        r = r_density(fam, xs, spec, NAT)
        G = [transform(two_point(fam, fam, x, x, spec, NAT)) for x in xs]
        trace = np.einsum("mab,xba->xm", GAMMA, G)
        return np.max(np.abs(trace - r), axis=1) / np.max(np.abs(r), axis=1)

    def test_general_densities_are_the_trace_of_the_two_point_matrix(self):
        # the imaginary part of the trace counts in the gap: it must vanish too
        fam, spec = self.trace_cases["general"]
        assert np.max(self._trace_gaps(fam, self.trace_xs, spec)) <= 1e-12

    @pytest.mark.parametrize("control", ["transposed", "extra-gamma0"])
    @pytest.mark.parametrize("case", sorted(trace_cases))
    def test_trace_controls_fail(self, case, control):
        # a transposed G missed by 0.0085-1.8, an extra gamma^0 by 0.66-2.0
        transform = (lambda G: G.T) if control == "transposed" else (lambda G: GAMMA0 @ G)
        fam, spec = self.trace_cases[case]
        assert np.min(self._trace_gaps(fam, self.trace_xs, spec, transform)) > 1e-3


class TestExampleReport:
    def test_reduced_integrals_against_oracle(self):
        rep = example_report(1.0, NAT, SPEC)
        assert rep.I_Q == pytest.approx(np.pi**2 / 12.0, rel=1e-13)
        i_e = quad(lambda r: r * r * np.hypot(1.0, r) / np.cosh(r) ** 2, 0.0, 40.0, limit=200)[0]
        i_ecl = quad(
            lambda r: r * r * np.hypot(1.0, r) * np.tanh(r) ** 2 / np.cosh(r) ** 2,
            0.0,
            40.0,
            limit=200,
        )[0]
        assert rep.I_E == pytest.approx(i_e, rel=1e-12)
        assert rep.I_Ecl == pytest.approx(i_ecl, rel=1e-12)

    def test_dimensionful_values(self):
        rep = example_report(1.0, NAT, SPEC)
        assert rep.E == pytest.approx(20.409467200230594, rel=1e-12)
        assert rep.E_cl == pytest.approx(16.546491836565313, rel=1e-12)
        assert rep.Q == pytest.approx(10.335425560099905, rel=1e-12)
        assert rep.ratio == pytest.approx(1.9747099025144845, rel=1e-12)
        assert rep.Q_rel_error < 1e-12
        assert rep.Q_closed == pytest.approx(np.pi**3 / 3.0, rel=1e-15)

    def test_matches_engine_energies(self):
        rep = example_report(1.0, NAT, SPEC)
        assert quantum_energy(sech2_family(1.0), SPEC, NAT) == pytest.approx(rep.E, rel=1e-12)
        assert classical_energy(sech2_family(1.0), SPEC, NAT) == pytest.approx(
            rep.E_cl, rel=1e-12
        )
        assert total_charge(sech2_family(1.0), SPEC, NAT) == pytest.approx(rep.Q, rel=1e-12)

    def test_charge_integral_scale_invariant(self):
        # I_Q never changes with a; the dimensionful charge scales as a^-3
        r1 = example_report(1.0, NAT, SPEC)
        r2 = example_report(3.0, NAT, SPEC)
        assert r2.I_Q == pytest.approx(r1.I_Q, rel=1e-14)
        assert r2.Q == pytest.approx(r1.Q / 27.0, rel=1e-12)

    def test_ratio_decreases_toward_one(self):
        consts = [PhysicalConstants(kappa=k) for k in (10.0, 100.0, 1000.0)]
        ratios = [example_report(1.0, c, SPEC).ratio for c in consts]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0
        assert ratios[0] == pytest.approx(1.0169558656, rel=1e-9)
        assert ratios[1] == pytest.approx(1.0001726844, rel=1e-9)
        assert ratios[2] == pytest.approx(1.0000017272, rel=1e-9)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            example_report(-1.0, NAT, SPEC)


class TestTabulatedProfile:
    def test_breakpoint_quadrature_keeps_scalars_stable(self):
        fam = tabulated_family([0.0, 0.8, 1.6, 2.4], [0.9, 0.6, 0.3, 0.0])
        q = total_charge(fam, SPEC, NAT)
        # trapezoid-exact closed form for the piecewise-linear density
        oracle = quad(
            lambda k: 4.0 * np.pi * k * k * np.interp(k, [0.0, 0.8, 1.6, 2.4], [0.9, 0.6, 0.3, 0.0]),
            0.0,
            2.4,
            points=[0.8, 1.6],
        )[0]
        assert q == pytest.approx(oracle, rel=1e-12)
        assert classical_energy(fam, SPEC, NAT) < quantum_energy(fam, SPEC, NAT)
