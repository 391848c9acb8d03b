"""Per-wave-vector Fock-space Dirac field with exact 16x16 operators.

Each wave vector carries four fermionic modes on a 16-dimensional space;
field components, currents, and charge act there as explicit matrices,
and physical numbers come out of k-integrated expectation values.
"""

from .constants import PhysicalConstants, natural_units
from .expectation import (
    ExampleReport,
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
from .fields import (
    NoSolutionError,
    fock_charge_conjugation,
    psi_adjoint_matrices,
    psi_matrices,
)
from .quadrature import Diverged, QuadratureNotConverged, QuadratureSpec
from .states import (
    GeneralStateFamily,
    PROFILE_LIBRARY,
    RhoStateFamily,
    family_from_config,
    gaussian_family,
    sech2_family,
    step_family,
    tabulated_family,
    vacuum_family,
)
from .verify import Check, VerificationReport, run_suite

__all__ = [
    "Check",
    "Diverged",
    "ExampleReport",
    "GeneralStateFamily",
    "NoSolutionError",
    "PROFILE_LIBRARY",
    "PhysicalConstants",
    "QuadratureNotConverged",
    "QuadratureSpec",
    "RhoStateFamily",
    "VerificationReport",
    "classical_amplitude",
    "classical_dirac_residual",
    "classical_energy",
    "classical_spinor",
    "current_reality_residual",
    "example_report",
    "family_from_config",
    "fock_charge_conjugation",
    "gaussian_family",
    "natural_units",
    "psi_adjoint_matrices",
    "psi_matrices",
    "quantum_energy",
    "r_density",
    "r_density_residuals",
    "run_suite",
    "sech2_family",
    "step_family",
    "tabulated_family",
    "total_charge",
    "two_point",
    "two_point_dirac_residual",
    "vacuum_family",
]

__version__ = "0.1.0"
