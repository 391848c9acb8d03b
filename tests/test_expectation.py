"""Expectation engine against closed forms and independent 1d quadrature.

The oracle integrals are evaluated with scipy.integrate.quad, which shares
no code with the engine's Gauss product rules.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spherical_jn

from diracfock.constants import PhysicalConstants, natural_units
from diracfock.expectation import (
    _CHUNK_NODES,
    _angular_guard,
    _converged,
    _doubling_guard,
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
from diracfock.quadrature import Diverged, QuadratureNotConverged, QuadratureSpec
from diracfock.states import (
    GeneralStateFamily,
    RhoStateFamily,
    gaussian_family,
    sech2_family,
    step_family,
    tabulated_family,
    vacuum_family,
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
        "tensor-unweighted": lambda f, xs, sp: _field_tensor(f, xs, sp, NAT, weighted=False),
        "tensor-dagger": lambda f, xs, sp: _field_tensor(
            f, xs, sp, NAT, weighted=False, derivatives=True, dagger=True
        ),
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
        # k |x| reaches 20 * 1.97 = 39: the default 24 polar nodes alias by
        # about 2%, so the angular guard trips; 40 resolve it (and 80 agree),
        # and the radial path needs no angular nodes
        radial = RhoStateFamily(
            1, rho=lambda r: 1.0 / np.cosh(r) ** 2, k_cutoff=20.0, hard_cutoff=True
        )
        general = GeneralStateFamily(radial.coefficients, radial.k_cutoff, hard_cutoff=True)
        x = np.array([0.2, 1.2, -1.2, 1.0])
        spec = QuadratureSpec(n_radial=60)
        exact = r_density(general, x, QuadratureSpec(n_radial=60, n_theta=40), NAT)
        with pytest.raises(QuadratureNotConverged, match="angular refinement moved"):
            r_density(general, x, spec, NAT)
        reduced = r_density(radial, x, spec, NAT)
        assert np.max(np.abs(reduced - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("z", [0.0, 1e-8, 0.3, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.7, 9.5, 60.0])
    def test_bessel_helpers_against_scipy(self, z):
        j0, j1z, j2 = _spherical_bessel(np.array([z]))
        assert j0[0] == pytest.approx(spherical_jn(0, z), rel=1e-14, abs=1e-17)
        assert j1z[0] == pytest.approx(spherical_jn(1, z) / z if z else 1.0 / 3.0, rel=1e-14)
        assert j2[0] == pytest.approx(spherical_jn(2, z), rel=1e-14, abs=1e-17)


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
            _converged(run, SPEC, True, "non-finite run")

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
            _converged(run, SPEC, True, "spinor")

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


class TestAngularGuard:
    """Every field integral of a general family reruns with n_theta doubled.

    At k |x| up to 6 * 1.97 the four polar nodes of the product rule alias,
    and so do eight, so the two disagree and every caller raises; the radial
    path has no angular nodes and is never rerun.
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
        message = r"angular refinement moved the result by \S+ \(base .+, doubled .+, tolerance"
        with pytest.raises(QuadratureNotConverged, match=message):
            self.calls[call](self.general, self.x, self.xp, self.spec)
        self.calls[call](self.radial, self.x, self.xp, self.spec)

    def test_radial_families_are_not_rerun(self):
        specs = []
        run = lambda sp: specs.append(sp) or np.ones(2)
        v = np.zeros(2)
        assert _angular_guard(run, self.spec, v, (self.radial, self.radial), "x") is v
        assert specs == []
        with pytest.raises(QuadratureNotConverged, match="tolerance 1.000e-09"):
            _angular_guard(run, self.spec, v, (self.radial, self.general), "x")
        assert specs == [QuadratureSpec(n_radial=12, n_theta=8)]


class TestBoundedMemory:
    """Peak memory follows the output, not the number of points times nodes.

    The field integrals build their phase matrices one slice of points at a
    time, at most _CHUNK_NODES points x nodes per slice, four angular parts
    each on the radial path.  Whole-grid phase matrices at these 20,000
    points and 16 radial nodes would take 20 MB on their own.  The product
    rule of a general family runs one sphere of 2 n_theta^2 nodes at a time,
    and builds its four direction moments one slice of points at a time.
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
        # one default sphere is 1152 nodes, its 32 sandwich pairs 0.6 MB; the
        # 230,400 nodes of the whole rule would take 112 MB for those pairs alone
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
