"""State families: coefficient placement, validation, the profile library."""

import re

import numpy as np
import pytest

from diracfock.expectation import _radial_nodes
from diracfock.fock import DIM
from diracfock.quadrature import QuadratureSpec, angular_rule, radial_rule
from diracfock.states import (
    GeneralStateFamily,
    RhoStateFamily,
    family_from_config,
    gaussian_family,
    sech2_family,
    step_family,
    tabulated_family,
    vacuum_family,
)


def test_coefficients_occupy_vacuum_and_one_basis_state():
    fam = sech2_family(1.0, occupied=3, chi=lambda r: 0.2 * r, xi=lambda r: -0.5 * r)
    kvecs = np.array([[0.0, 0.0, 0.3], [1.0, -2.0, 0.5]])
    z = fam.coefficients(kvecs)
    assert z.shape == (2, 16)
    r = np.linalg.norm(kvecs, axis=1)
    rho = 1.0 / np.cosh(r) ** 2
    # the two live slots: empty state at 0, occupied mode 3 at bit 2
    assert np.allclose(z[:, 0], np.sqrt(1 - rho) * np.exp(0.2j * r))
    assert np.allclose(z[:, 4], np.sqrt(rho) * np.exp(-0.5j * r))
    live = np.zeros(16, dtype=bool)
    live[[0, 4]] = True
    assert np.all(z[:, ~live] == 0)
    assert np.allclose(np.sum(np.abs(z) ** 2, axis=1), 1.0)


def _exp_coefficients(family, kvecs):
    """RhoStateFamily.coefficients before the zero-phase rule: np.linalg.norm, one exp per phase."""
    kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
    r = np.linalg.norm(kvecs, axis=-1)
    rho = family.radial_density(r)
    z = np.zeros((len(r), DIM), dtype=np.complex128)
    z[:, 0] = np.sqrt(1.0 - rho) * np.exp(1.0j * np.asarray(family.chi(r), dtype=float))
    z[:, 1 << (family.occupied - 1)] = np.sqrt(rho) * np.exp(
        1.0j * np.asarray(family.xi(r), dtype=float)
    )
    return z


PHASES = {
    "zero": lambda r: np.zeros_like(r),
    "negative-zero": lambda r: np.full_like(r, -0.0),
    "constant": lambda r: np.full_like(r, -1.2),
    "k-dependent": lambda r: 0.7 * r,
    "partly-zero": lambda r: np.where(r > 1.0, 0.3 * r, 0.0),
}


@pytest.mark.parametrize("xi", sorted(PHASES))
@pytest.mark.parametrize("chi", sorted(PHASES))
def test_coefficients_match_the_exponential_formula_bit_for_bit(chi, xi):
    # a phase zero at every node skips its exp, which multiplied by 1 + 0j
    rng = np.random.default_rng(5)
    kvecs = np.concatenate([np.zeros((1, 3)), rng.normal(size=(200, 3)) * rng.uniform(0.1, 5.0)])
    for occupied in (1, 3):
        fam = sech2_family(0.8, occupied, chi=PHASES[chi], xi=PHASES[xi])
        for rows in (kvecs, kvecs[:1], kvecs[0]):
            assert fam.coefficients(rows).tobytes() == _exp_coefficients(fam, rows).tobytes()


@pytest.mark.parametrize("spec", [QuadratureSpec(), QuadratureSpec().doubled()])
def test_wave_number_matches_the_reduction_bit_for_bit(spec):
    # |k| is summed component by component; on every sphere of the product rule
    # (and of its doubled guard) and on the radial nodes it keeps the bytes of
    # the length-3 reduction it replaced
    seen = []
    fam = RhoStateFamily(1, lambda r: seen.append(r) or np.full_like(r, 0.5))
    r, _ = _radial_nodes(sech2_family(1.0), spec)
    dirs, _ = angular_rule(spec.n_theta)
    radial = np.outer(radial_rule(40.0, spec.n_radial)[0], [0.0, 0.0, 1.0])
    for kv in [rn * dirs for rn in r] + [radial]:
        fam.coefficients(kv)
        assert seen.pop().tobytes() == np.sqrt(np.add.reduce(kv * kv, axis=-1)).tobytes()


def test_charge_sign_tracks_occupied_mode():
    for occ, sign in ((1, 1), (2, 1), (3, -1), (4, -1)):
        assert sech2_family(1.0, occupied=occ).charge_sign == sign


@pytest.mark.parametrize("cutoff", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["radial", "general"])
def test_families_refuse_a_non_finite_cutoff(kind, cutoff):
    # nan <= 0 is False, so a positivity test alone let NaN and inf through to the integrals
    with pytest.raises(ValueError, match=f"k_cutoff must be finite, got {cutoff}"):
        if kind == "radial":
            RhoStateFamily(1, lambda r: np.zeros_like(r), k_cutoff=cutoff)
        else:
            GeneralStateFamily(lambda kv: kv, cutoff)


@pytest.mark.parametrize("occupied", [1.0, 2.5, True, np.float64(3.0), "1", None])
def test_rho_family_refuses_a_non_integer_mode(occupied):
    # 1.0 and True compare equal to mode 1; a float mode failed only in coefficients
    message = f"occupied mode must be an integer 1..4, got {re.escape(repr(occupied))}"
    with pytest.raises(ValueError, match=message):
        RhoStateFamily(occupied, lambda r: np.zeros_like(r))


def test_rho_family_takes_a_numpy_integer_mode():
    fam = RhoStateFamily(np.int64(3), lambda r: np.full_like(r, 0.25))
    assert fam.charge_sign == -1
    assert fam.coefficients([0.0, 0.0, 1.0])[0, 4] == 0.5


def test_density_validation():
    fam = RhoStateFamily(occupied=1, rho=lambda r: 1.5 * np.ones_like(r))
    with pytest.raises(ValueError, match="lie in"):
        fam.radial_density([1.0])
    with pytest.raises(ValueError, match="occupied"):
        RhoStateFamily(occupied=5, rho=lambda r: r)
    with pytest.raises(ValueError, match="k_cutoff"):
        RhoStateFamily(occupied=1, rho=lambda r: r, k_cutoff=-1.0)


def test_density_clipped_within_roundoff():
    fam = RhoStateFamily(occupied=1, rho=lambda r: np.ones_like(r) * (1.0 + 5e-13))
    assert np.all(fam.radial_density([0.3, 0.7]) == 1.0)


def test_vacuum_family_is_empty():
    z = vacuum_family().coefficients(np.array([[0.1, 0.2, 0.3]]))
    expect = np.zeros(16)
    expect[0] = 1.0
    assert np.allclose(z[0], expect)


def test_profile_scales():
    assert sech2_family(2.0).rho(np.array([0.5]))[0] == pytest.approx(1 / np.cosh(1.0) ** 2)
    assert gaussian_family(3.0).rho(np.array([0.5]))[0] == pytest.approx(np.exp(-2.25))
    step = step_family(2.0)
    assert step.hard_cutoff and step.k_cutoff == 2.0
    assert np.array_equal(step.rho(np.array([1.9, 2.0, 2.1])), [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        sech2_family(0.0)
    with pytest.raises(ValueError):
        step_family(-1.0)


def test_tabulated_interpolates_and_records_breakpoints():
    fam = tabulated_family([0.0, 1.0, 3.0], [0.2, 0.8, 0.0])
    assert fam.breakpoints == (0.0, 1.0, 3.0)
    assert fam.hard_cutoff and fam.k_cutoff == 3.0
    got = fam.radial_density([0.5, 2.0, 5.0])
    assert np.allclose(got, [0.5, 0.4, 0.0])
    with pytest.raises(ValueError):
        tabulated_family([0.0], [0.5])
    with pytest.raises(ValueError):
        tabulated_family([0.0, 0.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        tabulated_family([0.0, 1.0], [0.5, 1.5])
    # NaN passes both bounds of [0, 1], so it is rejected on its own
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="density samples must be finite"):
            tabulated_family([0.0, 1.0], [bad, 0.5])


def test_tabulated_validates_each_entry():
    # the same reading as a config's k and rho arrays, on the Python path
    with pytest.raises(ValueError, match=r"k\[1\] must be a number, got \{'x': 1\}"):
        tabulated_family([0, {"x": 1}], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"k\[0\] must be a number, got True"):
        tabulated_family([True, 2.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"rho\[1\] must be a number, got '0.5'"):
        tabulated_family([0.0, 1.0], [0.5, "0.5"])


def test_general_family_validates_shape_and_norm():
    def good(kvecs):
        z = np.zeros((len(kvecs), 16), dtype=complex)
        z[:, 0] = 1.0
        return z

    fam = GeneralStateFamily(z=good, k_cutoff=5.0)
    assert fam.coefficients(np.zeros((3, 3))).shape == (3, 16)

    bad_shape = GeneralStateFamily(z=lambda kv: np.zeros((len(kv), 8)), k_cutoff=5.0)
    with pytest.raises(ValueError, match="shape"):
        bad_shape.coefficients(np.zeros((2, 3)))

    def unnormalized(kvecs):
        z = np.zeros((len(kvecs), 16), dtype=complex)
        z[:, 0] = 0.9
        return z

    with pytest.raises(ValueError, match="normalized"):
        GeneralStateFamily(z=unnormalized, k_cutoff=5.0).coefficients(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        GeneralStateFamily(z=good, k_cutoff=0.0)


@pytest.mark.parametrize(
    "rows, value, worst",
    [("all", np.nan, "nan"), ("one", np.nan, "nan"), ("one", 0.9, r"1\.900e-01")],
    ids=["all-nan", "one-nan", "one-short"],
)
def test_general_family_rejects_malformed_rows(rows, value, worst):
    # a NaN norm compares False against any bound, so the check must ask for <= 1e-12
    def coefficients(kvecs):
        z = np.zeros((len(kvecs), 16), dtype=complex)
        z[:, 0] = 1.0
        z[slice(None) if rows == "all" else 1, 0] = value
        return z

    fam = GeneralStateFamily(z=coefficients, k_cutoff=5.0)
    with pytest.raises(ValueError, match=f"not normalized .* deviates from 1 by up to {worst}"):
        fam.coefficients(np.zeros((3, 3)))


def test_config_round_trip():
    fam = family_from_config({"profile": "sech2", "a": 2.0, "occupied": 4, "chi": 0.3})
    assert fam.occupied == 4
    assert fam.rho(np.array([0.5]))[0] == pytest.approx(1 / np.cosh(1.0) ** 2)
    assert fam.chi(np.array([1.0, 2.0])).tolist() == [0.3, 0.3]

    step = family_from_config({"profile": "step", "kmax": 1.5})
    assert step.k_cutoff == 1.5

    tab = family_from_config({"profile": "tabulated", "k": [0.0, 2.0], "rho": [1.0, 0.0]})
    assert tab.radial_density([1.0])[0] == pytest.approx(0.5)


def test_config_errors():
    with pytest.raises(ValueError, match="unknown profile"):
        family_from_config({"profile": "bogus"})
    with pytest.raises(ValueError, match="kmax"):
        family_from_config({"profile": "step"})
    with pytest.raises(ValueError, match="k and rho"):
        family_from_config({"profile": "tabulated", "k": [0.0, 1.0]})
    with pytest.raises(ValueError, match="mapping"):
        family_from_config("sech2")


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize(
    "factory",
    [
        sech2_family,
        gaussian_family,
        step_family,
        lambda v: tabulated_family([0.0, v], [0.5, 0.0]),
    ],
    ids=["sech2", "gaussian", "step", "tabulated"],
)
def test_factories_reject_non_finite_parameters(factory, value):
    with pytest.raises(ValueError, match="must be finite"):
        factory(value)


def test_config_rejects_non_finite_phases():
    with pytest.raises(ValueError, match="chi and xi must be finite"):
        family_from_config({"profile": "sech2", "xi": float("nan")})
