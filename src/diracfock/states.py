"""Wave-function families: one normalized 16-component vector per wave vector.

The two-component form superposes the empty state with one occupied mode,

    sqrt(1 - rho) e^{i chi} |empty>  +  sqrt(rho) e^{i xi} |{s}>,

where rho, chi, xi depend on |k| only.  A phase that is zero at every
wave vector of a call takes no exponential: e^{i 0} = 1 + 0j changes no
bit, and a NaN phase is not zero, so it still reaches the result.  The
general form supplies all
sixteen coefficients as a function of the wave vector and is checked for
normalization at the sampled nodes.

Each family carries its own momentum cutoff so the quadrature knows where
the density stops contributing; hard cutoffs (step, tabulated) are exact
support boundaries and are not rescaled by refinement.
"""

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .fock import DIM

_TAIL = 40.0  # profile argument beyond which exp(-2r) tails are negligible


def _zero(r: np.ndarray) -> np.ndarray:
    return np.zeros_like(np.asarray(r, dtype=float))


def _phased(amplitude: np.ndarray, phase, r) -> np.ndarray:
    """amplitude e^{i phase(r)}, with no exponential when the phase is zero at every node.

    Multiplying by e^{i 0} = 1 + 0j changes no bit, so the default phase
    _zero is not even called.  np.any is True on a NaN, so a NaN phase still
    takes the exponential and stays NaN.
    """
    if phase is _zero:
        return amplitude
    phase = np.asarray(phase(r), dtype=float)
    return amplitude * np.exp(1.0j * phase) if np.any(phase) else amplitude


def _check_positive(value: float, name: str):
    """A family's scale or cutoff must be finite and positive."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def config_integer(value, name: str, minimum: int | None = None) -> int:
    """A config value read as an integer exactly: booleans, strings and fractions are refused."""
    refused = ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise refused
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise refused from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {number}")
    return number


def config_float(value, name: str) -> float:
    """A config value read as a number: booleans, strings, null, arrays and objects are refused."""
    refused = ValueError(f"{name} must be a number, got {value!r}")
    if isinstance(value, (bool, str)):
        raise refused
    try:
        return float(value)
    except (TypeError, ValueError):
        raise refused from None


@dataclass(frozen=True)
class RhoStateFamily:
    """Two-component family with radial density rho and phases chi, xi."""

    occupied: int
    rho: Callable[[np.ndarray], np.ndarray]
    chi: Callable[[np.ndarray], np.ndarray] = _zero
    xi: Callable[[np.ndarray], np.ndarray] = _zero
    k_cutoff: float = _TAIL
    hard_cutoff: bool = False
    # |k| values where the density is only piecewise smooth, if any
    breakpoints: tuple = ()

    def __post_init__(self):
        # a bool or a float 1.0 compares equal to a mode number, but is none
        integer = isinstance(self.occupied, Integral) and not isinstance(self.occupied, bool)
        if not integer or self.occupied not in (1, 2, 3, 4):
            raise ValueError(f"occupied mode must be an integer 1..4, got {self.occupied!r}")
        _check_positive(self.k_cutoff, "k_cutoff")

    @property
    def charge_sign(self) -> int:
        """+1 when the occupied mode is a particle mode, -1 otherwise."""
        return 1 if self.occupied in (1, 2) else -1

    def radial_density(self, kmag) -> np.ndarray:
        out = np.asarray(self.rho(np.asarray(kmag, dtype=float)), dtype=float)
        # one min and one max pass; a NaN fails both tests, and np.clip keeps it NaN
        if not (np.min(out, initial=0.0) >= 0.0 and np.max(out, initial=1.0) <= 1.0):
            if np.any(out < -1e-12) or np.any(out > 1.0 + 1e-12):
                raise ValueError("density values must lie in [0, 1]")
            out = np.clip(out, 0.0, 1.0)
        return out

    def coefficients(self, kvecs: np.ndarray) -> np.ndarray:
        """Stack of 16-component state vectors, one per wave vector row."""
        kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
        kx, ky, kz = kvecs.T
        r = np.sqrt((kx * kx + ky * ky) + kz * kz)
        rho = self.radial_density(r)
        z = np.zeros((len(r), DIM), dtype=np.complex128)
        z[:, 0] = _phased(np.sqrt(1.0 - rho), self.chi, r)
        z[:, 1 << (self.occupied - 1)] = _phased(np.sqrt(rho), self.xi, r)
        return z


@dataclass(frozen=True)
class GeneralStateFamily:
    """Family given by an arbitrary coefficient map k -> 16 complex values."""

    z: Callable[[np.ndarray], np.ndarray]
    k_cutoff: float
    hard_cutoff: bool = False
    breakpoints: tuple = ()

    def __post_init__(self):
        _check_positive(self.k_cutoff, "k_cutoff")

    def coefficients(self, kvecs: np.ndarray) -> np.ndarray:
        kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
        out = np.ascontiguousarray(self.z(kvecs), dtype=np.complex128)
        if out.shape != (len(kvecs), DIM):
            raise ValueError(f"coefficient map must return shape (n, {DIM})")
        # |z|^2 summed over the real and imaginary parts, without hypot or temporaries
        parts = out.view(np.float64)
        deviation = np.abs(np.einsum("nc,nc->n", parts, parts) - 1.0)
        # a NaN norm fails the <=, so a NaN coefficient map is rejected too
        if not np.all(deviation <= 1e-12):
            raise ValueError(
                "state family is not normalized at sampled wave vectors: "
                f"|z|^2 deviates from 1 by up to {np.max(deviation):.3e}"
            )
        return out


StateFamily = RhoStateFamily | GeneralStateFamily


def vacuum_family() -> RhoStateFamily:
    return RhoStateFamily(occupied=1, rho=_zero)


def sech2_family(a: float, occupied: int = 1, chi=_zero, xi=_zero) -> RhoStateFamily:
    """rho(k) = 1/cosh^2(a|k|), the worked spin-up example for occupied=1."""
    _check_positive(a, "scale a")
    return RhoStateFamily(occupied, lambda r: 1.0 / np.cosh(a * r) ** 2, chi, xi, _TAIL / a)


def gaussian_family(a: float, occupied: int = 1, chi=_zero, xi=_zero) -> RhoStateFamily:
    _check_positive(a, "scale a")
    # exp(-(a k)^2) reaches the sech-like tail level at a k = sqrt(2 * _TAIL)
    return RhoStateFamily(
        occupied, lambda r: np.exp(-((a * r) ** 2)), chi, xi, np.sqrt(2.0 * _TAIL) / a
    )


def step_family(k_max: float, occupied: int = 1, chi=_zero, xi=_zero) -> RhoStateFamily:
    """Fully occupied ball: rho = 1 up to k_max, then 0."""
    _check_positive(k_max, "k_max")
    return RhoStateFamily(
        occupied,
        lambda r: np.where(np.asarray(r) <= k_max, 1.0, 0.0),
        chi,
        xi,
        k_max,
        hard_cutoff=True,
    )


def tabulated_family(kpoints, values, occupied: int = 1, chi=_zero, xi=_zero) -> RhoStateFamily:
    """Linear interpolation through (|k|, rho) samples, zero outside.

    Each sample is read by config_float, named k[i] or rho[i].
    """
    kpoints = np.array([config_float(v, f"k[{i}]") for i, v in enumerate(kpoints)])
    values = np.array([config_float(v, f"rho[{i}]") for i, v in enumerate(values)])
    if kpoints.shape != values.shape or len(kpoints) < 2:
        raise ValueError("need matching 1d arrays with at least two samples")
    if not np.isfinite(kpoints).all():
        raise ValueError("sample points must be finite")
    if np.any(np.diff(kpoints) <= 0):
        raise ValueError("sample points must increase")
    if not np.isfinite(values).all():
        raise ValueError("density samples must be finite")
    if np.any(values < 0) or np.any(values > 1):
        raise ValueError("density samples must lie in [0, 1]")

    def rho(r):
        return np.interp(np.asarray(r, dtype=float), kpoints, values, left=values[0], right=0.0)

    return RhoStateFamily(
        occupied,
        rho,
        chi,
        xi,
        float(kpoints[-1]),
        hard_cutoff=True,
        breakpoints=tuple(kpoints),
    )


PROFILE_LIBRARY = {
    "sech2": sech2_family,
    "gaussian": gaussian_family,
    "step": step_family,
}


def family_from_config(config: dict) -> RhoStateFamily:
    """Build a two-component family from a parsed config mapping.

    Keys: profile (sech2 | gaussian | step | tabulated), the profile's scale
    (a or kmax, or k/rho sample arrays), optional occupied mode and constant
    phases chi, xi.
    """
    if not isinstance(config, dict):
        raise ValueError("state config must be a mapping")
    profile = config.get("profile")
    occupied = config_integer(config.get("occupied", 1), "occupied")
    chi0 = config_float(config.get("chi", 0.0), "chi")
    xi0 = config_float(config.get("xi", 0.0), "xi")
    if not (np.isfinite(chi0) and np.isfinite(xi0)):
        raise ValueError(f"phases chi and xi must be finite, got {chi0}, {xi0}")

    def chi(r):
        return np.full_like(np.asarray(r, dtype=float), chi0)

    def xi(r):
        return np.full_like(np.asarray(r, dtype=float), xi0)

    if profile in ("sech2", "gaussian"):
        return PROFILE_LIBRARY[profile](config_float(config.get("a", 1.0), "a"), occupied, chi, xi)
    if profile == "step":
        if "kmax" not in config:
            raise ValueError("step profile needs kmax")
        return step_family(config_float(config["kmax"], "kmax"), occupied, chi, xi)
    if profile == "tabulated":
        if not (isinstance(config.get("k"), list) and isinstance(config.get("rho"), list)):
            raise ValueError("tabulated profile needs k and rho arrays")
        return tabulated_family(config["k"], config["rho"], occupied, chi, xi)
    raise ValueError(f"unknown profile {profile!r}")
