"""The worked spin-up profile: energies, charge, and the classical field.

The state family occupies mode 1 with radial density 1/cosh^2(a|k|).  Its
total charge has the closed form q pi^3 l^3 / (3 a^3), the quantum energy
sits above the classical-field energy, and the energy-per-charge ratio
approaches the rest energy as kappa a grows.
"""

import numpy as np

from diracfock import (
    PhysicalConstants,
    QuadratureSpec,
    classical_spinor,
    example_report,
    natural_units,
    r_density,
    sech2_family,
)

spec = QuadratureSpec()

print("== a = kappa = l = q = 1 ==")
rep = example_report(1.0, natural_units(), spec)
print(f"E                  = {rep.E:.12f}")
print(f"E_classical        = {rep.E_cl:.12f}   (always below E)")
print(f"Q                  = {rep.Q:.12f}")
print(f"closed form        = {rep.Q_closed:.12f}   rel error {rep.Q_rel_error:.2e}")
print(f"E per rest energy of the charge = {rep.ratio:.12f}")

print()
print("== the ratio approaches 1 from above as kappa a grows ==")
for ka in (1.0, 10.0, 100.0, 1000.0):
    r = example_report(1.0, PhysicalConstants(kappa=ka), spec)
    print(f"   kappa a = {ka:6.0f}   ratio = {r.ratio:.10f}")

print()
print("== classical field along the z axis at t = 0 ==")
family = sech2_family(1.0)
consts = natural_units()
zs = np.array([0.0, 0.5, 1.0, 1.5])
points = np.array([[0.0, 0.0, 0.0, z] for z in zs])
phi = classical_spinor(family, points, spec, consts, check=False)
dens = r_density(family, points, spec, consts)
print("   z      |phi_1|        |phi_2|    r^0 (minus the vacuum part is finite)")
for z, ph, de in zip(zs, phi, dens):
    print(f"   {z:4.1f}  {np.abs(ph[0]):.6e}  {np.abs(ph[1]):.2e}  {de[0]:.6e}")
print("only the first component survives: the family occupies the spin-up")
print("particle mode, and the other components cancel under the angular average")
