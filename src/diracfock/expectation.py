"""k-integrated expectation values.

Classical spinor fields, quantum and classical energies, total charge,
the two-point correlation matrix, local densities, the smeared-current
reality check, and the worked spin-up example.

All double k-integrals factor through the 16-dimensional occupation index,
so they cost one pass of quadrature per side instead of a node-squared
sum.  For a two-component family that pass is a radial rule alone: the
state depends on |k| only and the spinors are affine in the direction of
k, so the angular integral of every field term is the Rayleigh plane-wave
expansion 4 pi (j0(k |x|), i j1(k |x|) xhat), evaluated in closed form.
A general family gets the spherical product rule.  Derivatives of
integrals are always analytic (phase insertions, or the derivatives of
the Bessel terms), never finite differences; the field equations then
hold at every node and the residual checks probe the algebra, not the
step size.

The mode operators act on the state coefficients as signed gathers
(fock.ANNIHILATOR_INDEX and its siblings); the dense stacks
fock.ANNIHILATORS and CREATORS are only their definition.  A block's
phase matrices are built for one slice of points at a time, at most
_CHUNK_NODES points x nodes per slice, so peak memory follows the
output, not the number of points times nodes.

The antiparticle sector of the two-point matrix and of the densities does
not decay with |k|, so those values grow with the radial cutoff; they are
reported at the configured truncation and their refinement check is off
by default.  A general family's densities still get an angular check:
the same radial rule with n_theta doubled must agree.  Scalar integrals
(energies, charge) are damped by the density profile and always pass a
cutoff-doubling stability test.
"""

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .constants import PhysicalConstants
from .fock import (
    ANNIHILATOR_INDEX,
    ANNIHILATOR_SIGN,
    CREATOR_INDEX,
    CREATOR_SIGN,
    DIM,
    charge_operator,
)
from .gamma import BILINEAR, GAMMA, GAMMA0
from .quadrature import (
    REFERENCE_R_MAX,
    Diverged,
    QuadratureNotConverged,
    QuadratureSpec,
    angular_rule,
    radial_rule,
)
from .spinors import u_columns, v_columns
from .states import RhoStateFamily, StateFamily

# nodes per product-rule chunk, and points x nodes per slice of a block's phase matrices
_CHUNK_NODES = 60_000


def _momentum_limit(family: StateFamily, spec: QuadratureSpec) -> float:
    if family.hard_cutoff:
        return family.k_cutoff
    return family.k_cutoff * (spec.r_max / REFERENCE_R_MAX)


def _weight(kmag: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
    """The mode measure l^{5/2} c^{1/2} / sqrt((2 pi)^3 2 omega)."""
    k0 = np.sqrt(consts.kappa**2 + kmag**2)
    omega = consts.c * k0
    return consts.ell**2.5 * np.sqrt(consts.c / ((2.0 * np.pi) ** 3 * 2.0 * omega))


def _product_chunks(family: StateFamily, spec: QuadratureSpec):
    """Yield (kvecs, weights) blocks of the spherical product rule.

    Weights carry the k^2 measure and the angular weights; the radial
    blocks come in a fixed order so accumulation is deterministic.
    """
    upper = _momentum_limit(family, spec)
    r, wr = radial_rule(upper, spec.n_radial, family.breakpoints)
    dirs, wo = angular_rule(spec.n_theta)
    per = max(1, _CHUNK_NODES // len(wo))
    for i in range(0, len(r), per):
        rs = r[i : i + per]
        ws = wr[i : i + per] * rs**2
        kv = (rs[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        wq = (ws[:, None] * wo[None, :]).reshape(-1)
        yield kv, wq


# (index, sign) gathers of the operators paired with (u, u, v, v): the
# annihilators of modes 1, 2 and the creators of modes 3, 4, or with
# dagger the creators of modes 1, 2 and the annihilators of modes 3, 4
_FIELD_ACTIONS = {
    False: (
        np.concatenate([ANNIHILATOR_INDEX[:2], CREATOR_INDEX[2:]]),
        np.concatenate([ANNIHILATOR_SIGN[:2], CREATOR_SIGN[2:]]),
    ),
    True: (
        np.concatenate([CREATOR_INDEX[:2], ANNIHILATOR_INDEX[2:]]),
        np.concatenate([CREATOR_SIGN[:2], ANNIHILATOR_SIGN[2:]]),
    ),
}


def _mode_actions(z, dagger: bool = False):
    """(Z1, Z2), each (n, 2, DIM): the operators paired with u and v, applied to z.

    Z1 applies the annihilators of modes 1, 2 (paired with the u columns),
    Z2 the creators of modes 3, 4 (paired with v); the dagger variant
    exchanges creators and annihilators.  Each is a signed gather of the
    entries of z (see fock).
    """
    index, sign = _FIELD_ACTIONS[dagger]
    Z = np.take(z, index, axis=1)
    Z *= sign
    return Z[:, :2], Z[:, 2:]


def _plane_weights(kv, k0, w, derivatives, xs):
    """Weights matrix of a product-rule block and its d/dx^mu, see _blocks."""
    # exp(-i k.x) per (x, node); d/dx^mu brings down -i k_mu, k_mu = (k0, -k)
    E = np.exp(-1.0j * (np.outer(xs[:, 0], k0) - xs[:, 1:] @ kv.T)) * w
    if not derivatives:
        return E, None
    k_cov = np.column_stack([k0, -kv])
    return E, -1.0j * k_cov.T[None, :, :] * E[:, None, :]


def _product_blocks(family, spec, consts, weighted, derivatives):
    """Blocks of the spherical product rule, for any family; see _blocks."""
    for kv, wq in _product_chunks(family, spec):
        kmag = np.linalg.norm(kv, axis=-1)
        k0 = np.sqrt(consts.kappa**2 + kmag**2)
        w = wq * _weight(kmag, consts) if weighted else wq
        u, v = u_columns(kv, consts.kappa), v_columns(kv, consts.kappa)
        yield partial(_plane_weights, kv, k0, w, derivatives), u, v, family.coefficients(kv)


# series below this argument, closed forms above; both sides agree to roundoff
_BESSEL_SERIES_BELOW = 1.0
_BESSEL_TERMS = 10


def _series_coefficients(n: int) -> np.ndarray:
    """Coefficients of j_n(z) / z^n as a polynomial in z^2, highest first.

    The k-th is (-1/2)^k / (k! (2n + 2k + 1)!!), DLMF 10.53.1.
    """
    coef = [1.0]
    for j in range(3, 2 * n + 2, 2):
        coef[0] /= j
    for k in range(1, _BESSEL_TERMS):
        coef.append(coef[-1] * -0.5 / (k * (2 * n + 2 * k + 1)))
    return np.array(coef[::-1])


_SERIES = tuple(_series_coefficients(n) for n in range(3))


def _spherical_bessel(z):
    """(j0(z), j1(z) / z, j2(z)) for real z >= 0, elementwise.

    j1 is returned divided by z, the form the derivative of j1(r |x|) xhat
    needs and one that stays finite at z = 0.
    """
    z = np.asarray(z, dtype=float)
    small = z < _BESSEL_SERIES_BELOW
    zb = np.where(small, 1.0, z)
    s, c = np.sin(zb), np.cos(zb)
    j0 = s / zb
    j1z = (j0 - c) / zb**2
    j2 = 3.0 * j1z - j0
    if np.any(small):
        y = z[small] ** 2
        j0[small], j1z[small] = np.polyval(_SERIES[0], y), np.polyval(_SERIES[1], y)
        j2[small] = y * np.polyval(_SERIES[2], y)
    return j0, j1z, j2


def _sphere_weights(r, k0, w, derivatives: bool, xs):
    """Weights matrix of the radial block and its d/dx^mu, see _radial_blocks.

    Column (n, a) of E is w_n times the sphere integral of exp(-i k.x)
    times (1, khat_1, khat_2, khat_3)_a at |k| = r_n.  With rho = |x| and
    z = r rho this is, by the Rayleigh expansion (DLMF 10.60.7),
    4 pi exp(-i k0 t) (j0(z), i j1(z) xhat); the x-derivatives follow from
    j0' = -j1 and d/dz (j1(z) / z) = -j2(z) / z.
    """
    nx, n = len(xs), len(r)
    x3 = xs[:, 1:]
    rho = np.linalg.norm(x3, axis=-1)
    xhat = np.divide(x3, rho[:, None], out=np.zeros_like(x3), where=rho[:, None] > 0)
    zarg = np.outer(rho, r)
    j0, j1z, j2 = _spherical_bessel(zarg)
    p = (4.0 * np.pi * w) * np.exp(-1.0j * np.outer(xs[:, 0], k0))
    pj1 = 1.0j * p * zarg * j1z
    E = np.empty((nx, n, 4), dtype=np.complex128)
    E[..., 0] = p * j0
    E[..., 1:] = pj1[..., None] * xhat[:, None, :]
    if not derivatives:
        return E.reshape(nx, 4 * n), None
    dE = np.empty((nx, 4, n, 4), dtype=np.complex128)
    dE[:, 0] = -1.0j * k0[None, :, None] * E
    # d_i j0(r rho) = -r j1 xhat_i;  d_i (j1(r rho) xhat_j) = r (delta_ij j1/z - xhat_i xhat_j j2)
    dE[:, 1:, :, 0] = 1.0j * r * pj1[:, None, :] * xhat[:, :, None]
    dE[:, 1:, :, 1:] = 1.0j * (p * r)[:, None, :, None] * (
        np.eye(3)[None, :, None, :] * j1z[:, None, :, None]
        - (xhat[:, :, None] * xhat[:, None, :])[:, :, None, :] * j2[:, None, :, None]
    )
    return E.reshape(nx, 4 * n), dE.reshape(nx, 4, 4 * n)


# k = +r e_j and k = -r e_j, shape (2, 3, 3): sign, axis j, component
_SIGNED_AXES = np.stack([np.eye(3), -np.eye(3)])


def _radial_blocks(family, spec, consts, weighted, derivatives):
    """One block of the radial rule with the angular integral in closed form.

    The two-component family depends on |k| only, and u, v are affine in
    (k0 + kappa, k): at k = r n they are even(r) + sum_j n_j odd_j(r), with
    both parts read off from the columns at k = +-r e_j.  So each radial
    node carries four spinor parts (even, odd_1, odd_2, odd_3), paired with
    the sphere integrals of the phase times (1, n) in _sphere_weights.
    """
    r, wr = radial_rule(_momentum_limit(family, spec), spec.n_radial, family.breakpoints)
    k0 = np.sqrt(consts.kappa**2 + r**2)
    w = wr * r**2 * (_weight(r, consts) if weighted else 1.0)
    parts = []
    for columns in (u_columns, v_columns):
        c = columns(r[:, None, None, None] * _SIGNED_AXES, consts.kappa)
        even = 0.5 * (c[:, 0, :1] + c[:, 1, :1])
        odd = 0.5 * (c[:, 0] - c[:, 1])
        parts.append(np.concatenate([even, odd], axis=1))
    phases = partial(_sphere_weights, r, k0, w, derivatives)
    yield phases, *parts, family.coefficients(np.outer(r, [0.0, 0.0, 1.0]))


def _blocks(family, spec, consts, weighted=True, derivatives=False):
    """Yield (phases, u, v, z) blocks whose products sum to the k-integral.

    z (n, DIM) holds the state coefficients at n nodes and u, v (n, ..., 4, 2)
    the spinor columns there; the axes between n and the spinor index, if
    any, are parts the angular integral keeps apart.  phases(xs) returns
    (E, dE) for points xs (nx, 4): E (nx, m) holds the weighted phase
    integrals exp(-i k.x) of the m = n * ... flattened rows and dE
    (nx, 4, m) their d/dx^mu, or None without derivatives.  The particle
    columns u pair with E and the antiparticle columns v with its
    conjugate.  Two-component families take the radial rule with the
    angular integral in closed form; general ones the product rule.
    """
    source = _radial_blocks if isinstance(family, RhoStateFamily) else _product_blocks
    return source(family, spec, consts, weighted, derivatives)


def _point_slices(nx: int, n: int):
    """Slices of the nx points holding at most _CHUNK_NODES // n points each (at least one).

    A block of n nodes then builds phase matrices of at most _CHUNK_NODES
    points x nodes per slice (times its angular parts and derivatives),
    whatever the number of points.
    """
    per = max(1, _CHUNK_NODES // n)
    return [slice(i, i + per) for i in range(0, nx, per)]


def _field_tensor(
    family: StateFamily,
    xs: np.ndarray,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    weighted: bool = True,
    derivatives: bool = False,
    dagger: bool = False,
):
    """Integral of the field applied to the family, resolved on the basis.

    T[x, r, c] = integral dk w(k) <basis c| field_r(k, x) state(k)>, with
    w the mode measure (or 1 when weighted is off).  With derivatives on,
    also the four d/dx^mu insertions as Td[x, mu, r, c].  The dagger
    variant applies the adjoint component operators instead.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 4)
    nx = len(xs)
    T = np.zeros((nx, 4 * DIM), dtype=np.complex128)
    Td = np.zeros((nx, 4, 4 * DIM), dtype=np.complex128) if derivatives else None
    # the adjoint components carry conjugate spinors and phases
    pair = (lambda e: (e.conj(), e)) if dagger else (lambda e: (e, e.conj()))
    for phases, u, v, z in _blocks(family, spec, consts, weighted, derivatives):
        Z1, Z2 = _mode_actions(z, dagger)
        if dagger:
            u, v = u.conj(), v.conj()
        K1 = np.einsum("n...rs,nsc->n...rc", u, Z1).reshape(-1, 4 * DIM)
        K2 = np.einsum("n...rs,nsc->n...rc", v, Z2).reshape(-1, 4 * DIM)
        for sl in _point_slices(nx, len(z)):
            E, dE = phases(xs[sl])
            e1, e2 = pair(E)
            T[sl] += e1 @ K1 + e2 @ K2
            if derivatives:
                d1, d2 = pair(dE)
                Td[sl] += d1 @ K1 + d2 @ K2
    T = T.reshape(nx, 4, DIM)
    return (T, Td.reshape(nx, 4, 4, DIM)) if derivatives else T


def _overlap_spinor(family, xs, spec, consts, derivatives=False):
    """Same-k sandwich <state| field_r |state> integrated with the measure."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 4)
    nx = len(xs)
    phi = np.zeros((nx, 4), dtype=np.complex128)
    dphi = np.zeros((nx, 4, 4), dtype=np.complex128) if derivatives else None
    for phases, u, v, z in _blocks(family, spec, consts, derivatives=derivatives):
        zc = z.conj()
        y1, y2 = (np.einsum("nsc,nc->ns", Z, zc) for Z in _mode_actions(z))
        g1 = np.einsum("n...rs,ns->n...r", u, y1).reshape(-1, 4)
        g2 = np.einsum("n...rs,ns->n...r", v, y2).reshape(-1, 4)
        for sl in _point_slices(nx, len(z)):
            E, dE = phases(xs[sl])
            phi[sl] += E @ g1 + E.conj() @ g2
            if derivatives:
                dphi[sl] += dE @ g1 + dE.conj() @ g2
    return (phi, dphi) if derivatives else phi


def _disagreement(v1, v2, tol: float):
    """None when v2 is finite and within tol of v1 at every entry.

    Otherwise "by D (base B, doubled R, tolerance T)" for an error message:
    D the largest |v2 - v1|, B and R the two values where it falls.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN difference, and fails below
        d = np.abs(np.asarray(v2) - np.asarray(v1))
    at = np.unravel_index(np.argmax(d), d.shape)  # argmax picks the first NaN, if any
    # a NaN difference fails the <=; an infinite v2 would make a relative tol infinite
    if np.all(np.isfinite(v2)) and d[at] <= tol:
        return None
    base, doubled = np.asarray(v1)[at], np.asarray(v2)[at]
    return f"by {d[at]:.3e} (base {base:.6g}, doubled {doubled:.6g}, tolerance {tol:.3e})"


def _relative_tolerance(spec: QuadratureSpec, v) -> float:
    """max(abs_tol, 1e-11 max |v|): the tolerance of integrals that scale with their size."""
    # node sums on large integrals scatter by roughly n eps |v| between
    # refinement levels; 1e-11 relative sits well above that noise and far
    # below the factor-two movement of a genuinely cutoff-sensitive integral
    return max(spec.abs_tol, 1e-11 * float(np.max(np.abs(v))))


def _converged(run, spec: QuadratureSpec, check: bool, label: str):
    v1 = run(spec)
    if not np.all(np.isfinite(v1)):
        raise QuadratureNotConverged(f"{label}: non-finite result")
    if check and (gap := _disagreement(v1, run(spec.doubled()), spec.abs_tol)):
        raise QuadratureNotConverged(f"{label}: refinement moved the result {gap}")
    return v1


def classical_amplitude(family: RhoStateFamily, k, consts: PhysicalConstants) -> complex:
    """l^{3/2} sqrt(rho (1 - rho)) exp(-i (chi - xi)) at the wave vector k."""
    if not isinstance(family, RhoStateFamily):
        raise ValueError("classical amplitude needs the two-component family")
    k = np.asarray(k, dtype=float)
    kmag = np.linalg.norm(k) if k.ndim else float(k)
    rho = float(family.radial_density(kmag))
    phase = float(np.asarray(family.chi(kmag)) - np.asarray(family.xi(kmag)))
    return consts.ell**1.5 * np.sqrt(rho * (1.0 - rho)) * np.exp(-1.0j * phase)


def classical_spinor(
    family: StateFamily,
    x,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    check: bool = True,
) -> np.ndarray:
    """The four classical field components at x (batched over leading axes)."""
    x = np.asarray(x, dtype=float)
    out = _converged(
        lambda sp: _overlap_spinor(family, x, sp, consts), spec, check, "classical spinor"
    )
    return out.reshape(x.shape[:-1] + (4,))


def classical_dirac_residual(
    family: StateFamily,
    x,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    check: bool = True,
) -> float:
    """Max component of i gamma^mu d_mu phi - kappa phi at the points x."""

    def run(sp):
        phi, dphi = _overlap_spinor(family, x, sp, consts, derivatives=True)
        lhs = 1.0j * np.einsum("mrp,xmp->xr", GAMMA, dphi) - consts.kappa * phi
        return np.abs(lhs)

    vals = _converged(run, spec, check, "Dirac residual")
    return float(np.max(vals))


def _doubling_guard(run, spec: QuadratureSpec, label: str) -> float:
    """run(spec), provided run(spec.doubled()) agrees with it; raises Diverged.

    The tolerance is max(abs_tol, 1e-11 |run(spec.doubled())|).
    """
    v1, v2 = run(spec), run(spec.doubled())
    if gap := _disagreement(v1, v2, _relative_tolerance(spec, v2)):
        raise Diverged(f"{label}: integral moved {gap} under doubling")
    return v1


def _stable_radial(integrand, family, spec: QuadratureSpec, label: str) -> float:
    """4 pi integral of k^2 integrand(k), with a cutoff-doubling guard."""

    def run(sp):
        upper = _momentum_limit(family, sp)
        k, w = radial_rule(upper, sp.n_radial, family.breakpoints)
        return float(4.0 * np.pi * np.sum(w * k**2 * integrand(k)))

    return _doubling_guard(run, spec, label)


def quantum_energy(family: RhoStateFamily, spec: QuadratureSpec, consts: PhysicalConstants) -> float:
    """l^3 integral of hbar omega(k) rho(k)."""
    if not isinstance(family, RhoStateFamily):
        raise ValueError("energy formulas need the two-component family")
    kap = consts.kappa

    def integrand(k):
        return consts.hbar * consts.c * np.sqrt(kap**2 + k**2) * family.radial_density(k)

    return consts.ell**3 * _stable_radial(integrand, family, spec, "quantum energy")


def classical_energy(
    family: RhoStateFamily, spec: QuadratureSpec, consts: PhysicalConstants
) -> float:
    """l^3 integral of hbar omega(k) rho(k) (1 - rho(k)); never above quantum_energy."""
    if not isinstance(family, RhoStateFamily):
        raise ValueError("energy formulas need the two-component family")
    kap = consts.kappa

    def integrand(k):
        rho = family.radial_density(k)
        return consts.hbar * consts.c * np.sqrt(kap**2 + k**2) * rho * (1.0 - rho)

    return consts.ell**3 * _stable_radial(integrand, family, spec, "classical energy")


def total_charge(family: StateFamily, spec: QuadratureSpec, consts: PhysicalConstants) -> float:
    """l^3 integral of the charge expectation per wave vector."""
    if isinstance(family, RhoStateFamily):
        sign = family.charge_sign
        value = _stable_radial(family.radial_density, family, spec, "total charge")
        return sign * consts.q * consts.ell**3 * value

    qdiag = np.diag(charge_operator(consts)).real

    def run(sp):
        acc = 0.0
        for kv, wq in _product_chunks(family, sp):
            z = family.coefficients(kv)
            acc += float(np.sum(wq * (np.abs(z) ** 2 @ qdiag)))
        return acc

    return consts.ell**3 * _doubling_guard(run, spec, "total charge")


def two_point(
    bra_family: StateFamily,
    ket_family: StateFamily,
    x,
    xp,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    check: bool = False,
) -> np.ndarray:
    """Correlation matrix of adjoint field at x against field at x'.

    Indexed [r', r]: row is the field component at x', column the adjoint
    component at x.  The antiparticle sector scales with the radial
    cutoff, so the refinement check is opt-in.
    """

    def run(sp):
        TA = _field_tensor(bra_family, [x], sp, consts)[0]
        TB = _field_tensor(ket_family, [xp], sp, consts)[0]
        L = GAMMA0.real @ TA
        return np.einsum("rc,pc->pr", L.conj(), TB)

    return _converged(run, spec, check, "two-point matrix")


def two_point_dirac_residual(
    bra_family: StateFamily,
    ket_family: StateFamily,
    x,
    xp,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
) -> float:
    """Field equations of the two-point matrix in both arguments.

    Checks i kappa G = -d'_mu (gamma^mu G) and the adjoint-side relation
    i kappa G = +d_mu (G gamma^mu), derivatives taken analytically.
    """
    TA, TAd = _field_tensor(bra_family, [x], spec, consts, derivatives=True)
    TB, TBd = _field_tensor(ket_family, [xp], spec, consts, derivatives=True)
    TA, TAd, TB, TBd = TA[0], TAd[0], TB[0], TBd[0]
    L = GAMMA0.real @ TA
    Ld = np.einsum("ab,mbc->mac", GAMMA0.real, TAd)
    G = np.einsum("rc,pc->pr", L.conj(), TB)
    Gd_ket = np.einsum("rc,mpc->mpr", L.conj(), TBd)
    Gd_bra = np.einsum("mrc,pc->mpr", Ld.conj(), TB)
    lhs = 1.0j * consts.kappa * G
    rhs_ket = -np.einsum("mab,mbr->ar", GAMMA, Gd_ket)
    rhs_bra = np.einsum("mpb,mbr->pr", Gd_bra, GAMMA)
    return float(max(np.max(np.abs(lhs - rhs_ket)), np.max(np.abs(lhs - rhs_bra))))


def r_density(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> np.ndarray:
    """The four local current densities trace(gamma^mu G(x, x)), real parts.

    The zeroth component is a sum of squared magnitudes and is nonnegative
    by construction; imaginary parts vanish identically and can be audited
    with r_density_residuals.  The antiparticle sector grows with the
    radial cutoff, so there is no refinement check; a general family's
    sphere rule is checked on its own, by rerunning the same radial rule
    with n_theta doubled, and raises QuadratureNotConverged when it aliases.
    """
    x = np.asarray(x, dtype=float)

    def run(sp):
        T = _field_tensor(family, x, sp, consts)
        return np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T).real

    v = _converged(run, spec, False, "local densities")
    if not isinstance(family, RhoStateFamily):
        finer = run(replace(spec, n_theta=2 * spec.n_theta))
        if gap := _disagreement(v, finer, _relative_tolerance(spec, finer)):
            raise QuadratureNotConverged(
                f"local densities: angular refinement moved the result {gap}"
            )
    return v.reshape(x.shape[:-1] + (4,))


def r_density_residuals(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> dict[str, float]:
    """Reality, positivity, and continuity audits of the local densities."""
    x = np.asarray(x, dtype=float)
    T, Td = _field_tensor(family, x, spec, consts, derivatives=True)
    vals = np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T)
    div = 2.0 * np.einsum("xmrc,mrq,xqc->x", Td.conj(), BILINEAR, T).real
    return {
        "imag_max": float(np.max(np.abs(vals.imag))),
        "r0_min": float(np.min(vals.real[..., 0])),
        "continuity": float(np.max(np.abs(div))),
    }


def current_reality_residual(
    family_a: StateFamily,
    family_b: StateFamily,
    x,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
) -> float:
    """Smeared-current reality: conj of <a| j b> equals <b| j a>.

    The smearing is the bare dk dk' double integral with the charge
    prefactor q c / (2 pi)^3; worst case over the four components.
    """

    def halves(fam):
        T = _field_tensor(fam, [x], spec, consts, weighted=False)[0]
        D = _field_tensor(fam, [x], spec, consts, weighted=False, dagger=True)[0]
        return T, D

    TA, DA = halves(family_a)
    TB, DB = halves(family_b)
    pref = 0.5 * consts.q * consts.c / (2.0 * np.pi) ** 3
    g0 = GAMMA0.real

    def smeared(Tbra, Dbra, Tket, Dket):
        first = np.einsum("mrq,rc,qc->m", GAMMA, (g0 @ Tbra).conj(), Tket)
        second = np.einsum("mqr,rc,qc->m", GAMMA, Dbra.conj(), g0 @ Dket)
        return pref * (first - second)

    X = smeared(TA, DA, TB, DB)
    Y = smeared(TB, DB, TA, DA)
    return float(np.max(np.abs(X.conj() - Y)))


@dataclass(frozen=True)
class ExampleReport:
    """Dimensionful values and reduced integrals of the spin-up example."""

    a: float
    kappa_a: float
    E: float
    E_cl: float
    Q: float
    ratio: float
    I_E: float
    I_Ecl: float
    I_Q: float
    Q_closed: float
    Q_rel_error: float

    def as_dict(self) -> dict:
        return asdict(self)


def _stable_reduced(fn, spec: QuadratureSpec, label: str) -> float:
    """1D integral over the dimensionless profile argument with doubling guard."""

    def run(sp):
        r, w = radial_rule(sp.r_max, sp.n_radial)
        return float(np.sum(w * fn(r)))

    return _doubling_guard(run, spec, label)


def example_report(a: float, consts: PhysicalConstants, spec: QuadratureSpec) -> ExampleReport:
    """Energies, charge, and their ratio for rho = 1/cosh^2(a |k|), spin up.

    The energy displays reduce to (4 pi hbar c l^3 / a^4) times integrals
    over r = a|k| with weight r^2 sqrt((kappa a)^2 + r^2); the charge
    reduces to the closed form q pi^3 l^3 / (3 a^3).
    """
    if a <= 0:
        raise ValueError("scale a must be positive")
    ka = consts.kappa * a

    def sech2(r):
        return 1.0 / np.cosh(r) ** 2

    I_Q = _stable_reduced(lambda r: r**2 * sech2(r), spec, "reduced charge")
    I_E = _stable_reduced(
        lambda r: r**2 * np.sqrt(ka**2 + r**2) * sech2(r), spec, "reduced energy"
    )
    I_Ecl = _stable_reduced(
        lambda r: r**2 * np.sqrt(ka**2 + r**2) * np.tanh(r) ** 2 * sech2(r),
        spec,
        "reduced classical energy",
    )
    hcl3 = consts.hbar * consts.c * consts.ell**3
    E = 4.0 * np.pi * hcl3 * I_E / a**4
    E_cl = 4.0 * np.pi * hcl3 * I_Ecl / a**4
    Q = 4.0 * np.pi * consts.q * consts.ell**3 * I_Q / a**3
    ratio = E / (consts.rest_energy * Q / consts.q)
    Q_closed = consts.q * np.pi**3 * consts.ell**3 / (3.0 * a**3)
    return ExampleReport(
        a=a,
        kappa_a=ka,
        E=E,
        E_cl=E_cl,
        Q=Q,
        ratio=ratio,
        I_E=I_E,
        I_Ecl=I_Ecl,
        I_Q=I_Q,
        Q_closed=Q_closed,
        Q_rel_error=abs(Q - Q_closed) / Q_closed,
    )
