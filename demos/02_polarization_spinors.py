"""Polarization spinors: mass-shell projectors, orthogonality, conjugation.

The sign pattern of the conjugation pairing is worth seeing explicitly:
C conj(u1) lands on MINUS v4 at the reflected wave vector, while
C conj(u2) lands on PLUS v3.  Both signs follow from the antisymmetry of
C = i gamma^2 gamma^0 and are confirmed numerically below.
"""

import numpy as np

from diracfock.gamma import CONJUGATION, covariant_components, feynman_slash
from diracfock.spinors import identity_suite_batch, rest_frame_basis, u_columns, v_columns

np.set_printoptions(precision=4, suppress=True, linewidth=100)
kappa = 1.0

print("== rest frame ==")
u0, v0 = rest_frame_basis()
print("u columns at k = 0 (the first two unit vectors):")
print(u0.real)
print("v columns at k = 0 (the last two unit vectors):")
print(v0.real)

print()
k = np.array([0.8, -0.3, 1.4])
k0 = np.sqrt(kappa**2 + k @ k)
print(f"== boosted, k = {k}, k0 = {k0:.5f} ==")
u = u_columns(k, kappa)
v = v_columns(k, kappa)
slash = feynman_slash(covariant_components(k0, k))
print("slash(k) u = +kappa u:", np.abs(slash @ u - kappa * u).max())
print("slash(k) v = -kappa v:", np.abs(slash @ v + kappa * v).max())
print("u columns orthonormal:", np.abs(u.conj().T @ u - np.eye(2)).max())
print("u against reflected v:", np.abs(u.conj().T @ v_columns(-k, kappa)).max())
# the u and v columns at the SAME wave vector are not orthogonal; only the
# reflected pairing vanishes
print("u against unreflected v (nonzero!):", np.abs(u.conj().T @ v).max())

print()
print("== conjugation pairing with its signs ==")
vm = v_columns(-k, kappa)
print("C conj(u1(k)) + v4(-k):", np.abs(CONJUGATION @ u[:, 0].conj() + vm[:, 1]).max())
print("C conj(u2(k)) - v3(-k):", np.abs(CONJUGATION @ u[:, 1].conj() - vm[:, 0]).max())

print()
print("== the full identity suite at one pair of wave vectors ==")
kp = np.array([-0.5, 1.1, 0.2])
for name, residual in identity_suite_batch(k, kp, kappa).items():
    print(f"   {name:26s} {residual:.3e}")
