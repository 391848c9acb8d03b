"""Current operators and their exact splits and conservation laws."""

import numpy as np

from diracfock import natural_units
from diracfock.currents import (
    integrated_charge_check,
    j_current_conjugated_stack,
    j_current_stack,
    j_diag_divergence,
    j_diag_stack,
    j_off_divergence,
    j_off_stack,
)
from diracfock.fock import basis_state, vacuum_state

consts = natural_units()
k = np.array([0.5, -1.0, 0.4])
kp = np.array([0.9, 0.2, -0.7])
x = np.array([0.3, 0.1, 0.6, -0.2])

full = j_current_stack(k, kp, x, consts.kappa)
diag = j_diag_stack(k, kp, x, consts.kappa)
off = j_off_stack(k, kp, x, consts.kappa)
print("electric current = number-conserving part + pair part, entrywise:")
print(f"   split residual: {np.abs(full - (diag + off)).max():.3e}")

print()
print("conservation, evaluated with analytic derivatives:")
print(f"   divergence of the number-conserving part: "
      f"{np.abs(j_diag_divergence(k, kp, x, consts.kappa)).max():.3e}")
print(f"   divergence of the pair part:              "
      f"{np.abs(j_off_divergence(k, kp, x, consts.kappa)).max():.3e}")

print()
print("diagonal of J^0 at equal wave vectors counts signed occupation:")
j0 = j_current_stack(k, k, x, consts.kappa)[0]
for label, state in (
    ("vacuum", vacuum_state()),
    ("mode 1", basis_state([1])),
    ("modes 1, 2", basis_state([1, 2])),
    ("mode 3", basis_state([3])),
    ("modes 3, 4", basis_state([3, 4])),
    ("modes 1, 3", basis_state([1, 3])),
):
    val = (state.conj() @ j0 @ state).real
    print(f"   {label:12s} {val:+.6f}")
print(f"   worst deviation over all 16 states and sample points: "
      f"{integrated_charge_check(k, consts.kappa):.3e}")

print()
print("the same current as the conjugation-odd half of the bilinear:")
odd = j_current_conjugated_stack(k, kp, x, consts.kappa)
print(f"   agreement with the expanded form: {np.abs(odd - full).max():.3e}")
