"""k-integrated expectation values.

Classical spinor fields, quantum and classical energies, total charge,
the two-point correlation matrix, local densities, the smeared-current
reality check, and the worked spin-up example.

All double k-integrals factor through the 16-dimensional occupation index,
so they cost one pass of 1D or product quadrature per side instead of a
node-squared sum.  Derivatives of integrals are always analytic phase
insertions, never finite differences; the field equations then hold at
every node and the residual checks probe the algebra, not the step size.

The antiparticle sector of the two-point matrix and of the densities does
not decay with |k|, so those values grow with the radial cutoff; they are
reported at the configured truncation and their refinement check is off
by default.  Scalar integrals (energies, charge) are damped by the
density profile and always pass a cutoff-doubling stability test.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .constants import PhysicalConstants
from .fock import ANNIHILATORS, CREATORS, DIM, charge_operator
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
from .states import GeneralStateFamily, RhoStateFamily, StateFamily

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


def _chunk_parts(family, kv, consts, dagger: bool):
    """Per-node spinor columns, phases at x=0 data, and mode actions.

    Returns (u, v, z, Z1, Z2, k0): z holds the state coefficients, Z1
    pairs with the particle columns and Z2 with the antiparticle columns.
    In the dagger variant the roles of creator and annihilator are
    exchanged and the caller must conjugate the spinor columns.
    """
    kmag = np.linalg.norm(kv, axis=-1)
    k0 = np.sqrt(consts.kappa**2 + kmag**2)
    u = u_columns(kv, consts.kappa)
    v = v_columns(kv, consts.kappa)
    z = family.coefficients(kv)
    if dagger:
        Z1 = np.einsum("sij,mj->smi", CREATORS[:2], z)
        Z2 = np.einsum("sij,mj->smi", ANNIHILATORS[2:], z)
    else:
        Z1 = np.einsum("sij,mj->smi", ANNIHILATORS[:2], z)
        Z2 = np.einsum("sij,mj->smi", CREATORS[2:], z)
    return u, v, z, Z1, Z2, k0


def _phases(k0, kv, xs):
    """exp(-i k.x) for every (x, node) pair, shape (nx, m)."""
    return np.exp(-1.0j * (np.outer(xs[:, 0], k0) - xs[:, 1:] @ kv.T))


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
    T = np.zeros((nx, 4, DIM), dtype=np.complex128)
    Td = np.zeros((nx, 4, 4, DIM), dtype=np.complex128) if derivatives else None
    sign = -1.0 if not dagger else 1.0
    for kv, wq in _product_chunks(family, spec):
        u, v, _, Z1, Z2, k0 = _chunk_parts(family, kv, consts, dagger)
        if dagger:
            u, v = u.conj(), v.conj()
        w = wq * _weight(np.linalg.norm(kv, axis=-1), consts) if weighted else wq
        e = _phases(k0, kv, xs)
        m = len(wq)
        K1 = np.einsum("mrs,smc->mrc", u, Z1).reshape(m, 4 * DIM)
        K2 = np.einsum("mrs,smc->mrc", v, Z2).reshape(m, 4 * DIM)
        ew = e * w
        if dagger:
            ew, e_other = ew.conj(), ew
        else:
            e_other = ew.conj()
        T += (ew @ K1).reshape(nx, 4, DIM)
        T += (e_other @ K2).reshape(nx, 4, DIM)
        if derivatives:
            kc = np.column_stack([k0, -kv[:, 0], -kv[:, 1], -kv[:, 2]])
            for mu in range(4):
                f = sign * 1.0j * kc[:, mu]
                Td[:, mu] += ((ew * f) @ K1).reshape(nx, 4, DIM)
                Td[:, mu] += ((e_other * (-f)) @ K2).reshape(nx, 4, DIM)
    return (T, Td) if derivatives else T


def _overlap_spinor(family, xs, spec, consts, derivatives=False):
    """Same-k sandwich <state| field_r |state> integrated with the measure."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 4)
    nx = len(xs)
    phi = np.zeros((nx, 4), dtype=np.complex128)
    dphi = np.zeros((nx, 4, 4), dtype=np.complex128) if derivatives else None
    for kv, wq in _product_chunks(family, spec):
        u, v, z, Z1, Z2, k0 = _chunk_parts(family, kv, consts, dagger=False)
        w = wq * _weight(np.linalg.norm(kv, axis=-1), consts)
        e = _phases(k0, kv, xs)
        zc = z.conj()
        g1 = np.einsum("mrs,smc,mc->mr", u, Z1, zc)
        g2 = np.einsum("mrs,smc,mc->mr", v, Z2, zc)
        ew = e * w
        phi += ew @ g1 + ew.conj() @ g2
        if derivatives:
            kc = np.column_stack([k0, -kv[:, 0], -kv[:, 1], -kv[:, 2]])
            for mu in range(4):
                f = -1.0j * kc[:, mu]
                dphi[:, mu] += (ew * f) @ g1 + (ew.conj() * (-f)) @ g2
    return (phi, dphi) if derivatives else phi


def _converged(run, spec: QuadratureSpec, check: bool, label: str):
    v1 = run(spec)
    if not np.all(np.isfinite(v1)):
        raise QuadratureNotConverged(f"{label}: non-finite result")
    if check:
        v2 = run(spec.doubled())
        # "not <=" so that a NaN difference fails too
        if not np.max(np.abs(np.asarray(v1) - np.asarray(v2))) <= spec.abs_tol:
            raise QuadratureNotConverged(f"{label}: refinement moved the result")
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
    """run(spec), provided run(spec.doubled()) agrees with it; raises Diverged."""
    v1, v2 = run(spec), run(spec.doubled())
    # node sums on large integrals scatter by roughly n eps |v| between
    # refinement levels; 1e-11 relative sits well above that noise and far
    # below the factor-two movement of a genuinely cutoff-sensitive integral
    tol = max(spec.abs_tol, 1e-11 * abs(v2))
    # "not <=" fails on NaN; an infinite v2 would make tol infinite, so it fails apart
    if not (np.isfinite(v2) and abs(v2 - v1) <= tol):
        raise Diverged(f"{label}: integral moved by {abs(v2 - v1):.3e} under doubling")
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
    with r_density_residuals.
    """
    x = np.asarray(x, dtype=float)

    def run(sp):
        T = _field_tensor(family, x, sp, consts)
        return np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T).real

    return _converged(run, spec, False, "local densities").reshape(x.shape[:-1] + (4,))


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
