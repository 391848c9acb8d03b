"""Physical constants entering the mode operators and expectation values.

All quantities are kept explicit so that natural units (everything 1.0)
and dimensionful runs use the same code paths.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants of the model.

    hbar   reduced Planck constant
    c      speed of light
    kappa  inverse reduced Compton wave length m c / hbar, units 1/length
    q      elementary charge carried by one excitation
    ell    normalization length of the wave-vector integrals
    """

    hbar: float = 1.0
    c: float = 1.0
    kappa: float = 1.0
    q: float = 1.0
    ell: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "kappa", "q", "ell"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def rest_energy(self) -> float:
        """m c^2 expressed through kappa: hbar * c * kappa."""
        return self.hbar * self.c * self.kappa


def natural_units() -> PhysicalConstants:
    """Constants with every scale set to one."""
    return PhysicalConstants()
