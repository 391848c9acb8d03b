"""k-integrated expectation values.

Classical spinor fields, quantum and classical energies, total charge,
the two-point correlation matrix, local densities, the smeared-current
reality check, and the worked spin-up example.

All double k-integrals factor through the 16-dimensional occupation index,
so they cost one pass of quadrature per side instead of a node-squared
sum.  Every field integral is a sum over spheres |k| = r.  On a sphere
the spinors are affine in the direction: u(r khat) = even(r) +
sum_j khat_j odd_j(r), both parts read off from six spinor evaluations
per radius (_spinor_parts).  So each sphere contributes its spinor parts
contracted with the direction moments (1, khat) of the weighted phases
times the state side (_contraction).  For a two-component family the
state is constant on each sphere, and the moments are the Rayleigh
plane-wave expansion 4 pi (j0(k |x|), i j1(k |x|) xhat), in closed form:
a radial rule alone.  A general family gets the spherical product rule,
one sphere of 2 n_theta^2 directions per radial node at a time; there
the moments meet the state first, node by node, and the spinor parts
come last, so no spinor is formed at any node.  Derivatives of integrals
are always analytic (phase insertions, or the derivatives of the Bessel
terms), never finite differences; the field equations then hold at
every node and the residual checks probe the algebra, not the step size.

The state is held mode-major, one column per node.  Mode s is bit s - 1
of the basis index (fock's Jordan-Wigner order), so each mode operator,
and each sandwich <z| a_s |z> the classical spinor needs, pairs two bit
slices of the state: row views, with no gather and no dense 16 x 16
product.  The product rule refills buffers allocated once per call, and
reads its time derivative off the value contraction.  A block's moments
are built for one slice of points at a time, at most _CHUNK_NODES
points x nodes per slice (times the four moments and the derivatives;
all that _CHUNK_NODES sizes), so peak memory follows the output, not the
number of points times nodes.

The antiparticle sector of the two-point matrix and of the densities does
not decay with |k|, so those values grow with the radial cutoff; they are
reported at the configured truncation and their refinement check is off
by default.  A general family's field integrals still get an angular
check (_angular_guard): the same radial rule with n_theta doubled must
agree.  Scalar integrals
(energies, charge) are damped by the density profile and always pass a
cutoff-doubling stability test.
"""

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .constants import PhysicalConstants
from .fock import ANNIHILATOR_INDEX, ANNIHILATOR_SIGN, DIM, N_MODES, charge_operator
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

# points x nodes per slice of a block's phase matrices
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


def _sphere_rule(family: StateFamily, spec: QuadratureSpec):
    """The spherical product rule as (r, wr, dirs, wo), integrated one sphere at a time.

    Sphere n has the nodes r[n] * dirs (2 n_theta^2 of them) and the weights
    wr[n] * wo; wr carries the k^2 measure, wo the angular weights.  The
    spheres are taken in a fixed order, so accumulation is deterministic.
    """
    r, wr = radial_rule(_momentum_limit(family, spec), spec.n_radial, family.breakpoints)
    dirs, wo = angular_rule(spec.n_theta)
    return r, wr * r**2, dirs, wo


# Jordan-Wigner: mode s is bit s - 1 of the basis index, so a_s pairs each row n
# of a mode-major state (DIM, m) with that bit clear with the row n + 2^(s-1).
# In its (2, 2, 2, 2, m) view the two row sets are slices 0 and 1 of axis 4 - s.
_BIT_OFF = [(slice(None),) * (N_MODES - s) + (0,) for s in range(1, N_MODES + 1)]
_BIT_ON = [off[:-1] + (1,) for off in _BIT_OFF]
_BASIS, _MODE = np.arange(DIM).reshape((2,) * N_MODES), np.arange(N_MODES)[:, None]
_ROWS, _COLS = (np.array([_BASIS[i].ravel() for i in bits]) for bits in (_BIT_OFF, _BIT_ON))
_BIT_SIGNS = ANNIHILATOR_SIGN[_MODE, _ROWS].astype(np.complex128)  # (4, 8), each +-1
_BIT_SIGNS.setflags(write=False)
if not (
    np.array_equal(ANNIHILATOR_INDEX[_MODE, _ROWS], _COLS)
    and np.array_equal(_COLS, _ROWS + 2**_MODE)
    and np.sum(np.abs(_BIT_SIGNS)) == np.count_nonzero(ANNIHILATOR_SIGN) == _ROWS.size
):
    raise ImportError("the mode operators do not pair the basis states n and n + 2^(s-1)")
# rows of _sandwich's scratch: the four sandwiches, the conjugate state, one mode's pairs
_SANDWICH_ROWS = N_MODES + DIM + 8


def _sandwich(zT, work):
    """<z| a_s |z> (4, m) for s = 1..4 from the mode-major state zT (DIM, m), in work.

    Each is eight signed pair products of bit slices of zT.  It is the state
    side of _overlap_spinor: the creators of modes 3, 4 paired with v give
    the conjugate sandwiches, whose conjugates S holds (see _contraction).
    """
    y, zc, pairs = work[:N_MODES], work[N_MODES : N_MODES + DIM], work[N_MODES + DIM :]
    np.conjugate(zT, out=zc)
    z5, zc5 = zT.reshape(*_BASIS.shape, -1), zc.reshape(*_BASIS.shape, -1)
    for s in range(N_MODES):
        np.multiply(zc5[_BIT_OFF[s]], z5[_BIT_ON[s]], out=pairs.reshape(2, 2, 2, -1))
        np.matmul(_BIT_SIGNS[s], pairs, out=y[s])
    return y


def _mode_actions(zT, work, dagger: bool = False):
    """The state side S (4 DIM, m) of _field_tensor from the mode-major state zT (DIM, m).

    Rows s DIM + c hold (O_s z)_c for the operators paired with (u, u, v, v):
    the annihilators of modes 1, 2 and the creators of modes 3, 4, or with
    dagger the creators of modes 1, 2 and the annihilators of modes 3, 4.
    Each is a signed copy of one bit slice of zT into the other, written
    into work; the rows paired with v are conjugated (see _contraction).
    """
    z5, S = zT.reshape(*_BASIS.shape, -1), work.reshape(N_MODES, *_BASIS.shape, -1)
    for s in range(N_MODES):
        # a_s moves the bit-set rows onto the bit-clear ones; its adjoint the reverse
        dst, src = (_BIT_OFF[s], _BIT_ON[s]) if (s < 2) != dagger else (_BIT_ON[s], _BIT_OFF[s])
        np.multiply(z5[src], _BIT_SIGNS[s].reshape(2, 2, 2, 1), out=S[s][dst])
        S[s][src] = 0.0
    np.conjugate(work[2 * DIM :], out=work[2 * DIM :])
    return work


def _plane_moments(kv, k0, w, dirs, derivatives, scratch, xs):
    """Direction moments of one product-rule sphere and their d/dx^j, see _blocks.

    W[x, 0, a, m] = w_m exp(-i k_m.x) (1, khat_m)_a at the nodes k_m of the
    sphere; d/dx^j brings down i k_m^j for the spatial j.  Both live in
    scratch, allocated for the first (largest) slice of points.
    """
    nx, m = len(xs), len(kv)
    if not scratch or len(scratch[0]) < nx:
        shapes = [(nx, 1, 4, m)] + [(nx, 3, 1, 4, m)] * derivatives
        scratch[:] = [np.empty(shape, dtype=np.complex128) for shape in shapes]
    W, *dW = (a[:nx] for a in scratch)
    E, phase = W[:, 0, 0], W[:, 0, 0].imag  # the moment (1, khat)_0 is 1
    np.matmul(xs[:, 1:], kv.T, out=phase)
    phase -= xs[:, :1] * k0
    np.cos(phase, out=E.real)
    np.sin(phase, out=phase)
    E *= w
    np.multiply(E[:, None], dirs.T, out=W[:, 0, 1:])
    if not derivatives:
        return W, None
    np.multiply(W[:, None], 1.0j * kv.T[:, None, None], out=dW[0])
    return W, dW[0]


def _product_blocks(family, spec, consts, weighted, derivatives):
    """Blocks of the spherical product rule, one sphere each, for any family; see _blocks.

    k0, the mode measure and the spinor parts take one value per sphere;
    the nodes, the state and the moments refill buffers allocated once.
    """
    r, wr, dirs, wo = _sphere_rule(family, spec)
    k0 = np.sqrt(consts.kappa**2 + r**2)
    w = wr * (_weight(r, consts) if weighted else 1.0)
    kv, zT, scratch = np.empty_like(dirs), np.empty((DIM, len(dirs)), dtype=np.complex128), []
    for rn, k0n, wn, un, vn in zip(r, k0, w, *_spinor_parts(r, consts.kappa)):
        np.multiply(rn, dirs, out=kv)
        zT[...] = family.coefficients(kv).T
        phases = partial(_plane_moments, kv, k0n, wn * wo, dirs, derivatives, scratch)
        yield phases, un[None], vn[None], zT, k0n


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
    """Direction moments of the radial block and their d/dx^mu, see _blocks.

    E[x, n, a, 0] is w_n times the sphere integral of exp(-i k.x)
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
        return E[..., None], None
    dE = np.empty((nx, 4, n, 4), dtype=np.complex128)
    dE[:, 0] = -1.0j * k0[None, :, None] * E
    # d_i j0(r rho) = -r j1 xhat_i;  d_i (j1(r rho) xhat_j) = r (delta_ij j1/z - xhat_i xhat_j j2)
    dE[:, 1:, :, 0] = 1.0j * r * pj1[:, None, :] * xhat[:, :, None]
    dE[:, 1:, :, 1:] = 1.0j * (p * r)[:, None, :, None] * (
        np.eye(3)[None, :, None, :] * j1z[:, None, :, None]
        - (xhat[:, :, None] * xhat[:, None, :])[:, :, None, :] * j2[:, None, :, None]
    )
    return E[..., None], dE[..., None]


# k = +r e_j and k = -r e_j, shape (2, 3, 3): sign, axis j, component
_SIGNED_AXES = np.stack([np.eye(3), -np.eye(3)])


def _spinor_parts(r, kappa: float):
    """(u, v) on the spheres |k| = r as direction parts, each (n, 4, 4, 2).

    u and v are affine in (k0 + kappa, k), so at k = r khat they are
    even(r) + sum_j khat_j odd_j(r), with both parts read off from the
    columns at k = +-r e_j: six spinor evaluations per radius.  Part a
    (even, odd_1, odd_2, odd_3) pairs with the direction moment (1, khat)_a.
    """
    parts = []
    for columns in (u_columns, v_columns):
        c = columns(r[:, None, None, None] * _SIGNED_AXES, kappa)
        even = 0.5 * (c[:, 0, :1] + c[:, 1, :1])
        odd = 0.5 * (c[:, 0] - c[:, 1])
        parts.append(np.concatenate([even, odd], axis=1))
    return parts


def _radial_blocks(family, spec, consts, weighted, derivatives):
    """One block of the radial rule with the angular integral in closed form.

    The two-component family depends on |k| only, so each radial node is a
    sphere with one state vector, and its moments are the sphere integrals
    of the phase times (1, khat) in _sphere_weights.
    """
    r, wr = radial_rule(_momentum_limit(family, spec), spec.n_radial, family.breakpoints)
    k0 = np.sqrt(consts.kappa**2 + r**2)
    w = wr * r**2 * (_weight(r, consts) if weighted else 1.0)
    phases = partial(_sphere_weights, r, k0, w, derivatives)
    z = family.coefficients(np.outer(r, [0.0, 0.0, 1.0]))
    yield phases, *_spinor_parts(r, consts.kappa), z.T, None


def _blocks(family, spec, consts, weighted=True, derivatives=False):
    """Yield (phases, u, v, zT, k0) blocks whose contractions sum to the k-integral.

    A block covers i spheres of m nodes each.  zT (DIM, i * m) holds the
    state coefficients mode-major, one column per node, sphere-major, and
    u, v (i, 4, 4, 2) the spinor parts of each sphere (see _spinor_parts).
    phases(xs) returns (W, dW) for points xs (nx, 4): W (nx, i, 4, m) holds
    the direction moments w exp(-i k.x) (1, khat)_a of the weighted phases
    and dW (nx, 4, i, 4, m) their d/dx^mu, or None without derivatives.  The
    particle parts u pair with W and the antiparticle parts v with its
    conjugate, see _contraction.  Two-component families take the radial
    rule, one sphere per node (m = 1) with the moments in closed form, and
    k0 None; general ones the product rule, one block per sphere (i = 1)
    with its k0, and dW without d/dt.  Their zT, W and dW are buffers,
    valid until the next block and free to overwrite.
    """
    source = _radial_blocks if isinstance(family, RhoStateFamily) else _product_blocks
    return source(family, spec, consts, weighted, derivatives)


def _contraction(u, v, S):
    """The k-integral of a block as a function of its moments W, see _blocks.

    apply(W) returns (P, Q), the integral being P + Q; P[..., r * c + d]
    sums over the block's spheres i, parts a, spin s and nodes m of one sphere

        u[i, a, r, s] W[..., i, a, m] Z1[s, d, i m],

    and Q the same with v, conj(W) and Z2.  The state side S (4 c, nodes)
    holds Z1 (modes s = 0, 1) and then conj(Z2), one column per node.  On
    the radial path (m = 1) the spinor parts meet the state first, once per
    block, and the moments take one matrix product.  On a sphere of the
    product rule (i = 1) the moments meet the state first, in one product
    W S^T for all four modes since conj(W) Z2 = conj(W conj(Z2)), and the
    spinor parts come last: no spinor is formed at any node.
    """
    ni, nodes = len(u), S.shape[1]
    S = S.reshape(4, -1, nodes)
    if nodes == ni:  # one node per sphere; otherwise one sphere, ni == 1
        K1 = np.einsum("iars,sci->iarc", u, S[:2]).reshape(4 * ni, -1)
        K2 = np.einsum("iars,sci->iarc", v, S[2:].conj()).reshape(4 * ni, -1)

        def apply(W):
            W = W.reshape(*W.shape[:-3], 4 * ni)
            return W @ K1, W.conj() @ K2

        return apply

    def apply(W):
        A = (W.reshape(-1, nodes) @ S.reshape(-1, nodes).T).reshape(-1, 4, 4, S.shape[1])
        np.conjugate(A[:, :, 2:], out=A[:, :, 2:])
        P = np.einsum("ars,xasc->xrc", u[0], A[:, :, :2])
        Q = np.einsum("ars,xasc->xrc", v[0], A[:, :, 2:])
        return P.reshape(*W.shape[:-3], -1), Q.reshape(*W.shape[:-3], -1)

    return apply


def _accumulate(family, xs, spec, consts, side, rows, cols, weighted, derivatives, dagger=False):
    """The k-integral T (nx, cols) of the field against the state side at the points xs.

    side(zT, work) forms a block's state side S (cols, m) (see _contraction)
    in work (rows, m), allocated once per call.  Td (nx, 4, cols) holds the
    d/dx^mu, or is None.  The dagger variant applies the adjoint components,
    which carry conjugate spinors and phases.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, 4)
    T = np.zeros((len(xs), cols), dtype=np.complex128)
    Td = np.zeros((len(xs), 4, cols), dtype=np.complex128) if derivatives else None
    work = None
    for phases, u, v, zT, k0 in _blocks(family, spec, consts, weighted, derivatives):
        if work is None or work.shape[1] != zT.shape[1]:
            work = np.empty((rows, zT.shape[1]), dtype=np.complex128)
        if dagger:
            u, v = u.conj(), v.conj()
        apply = _contraction(u, v, side(zT, work))
        # at most _CHUNK_NODES points x nodes per slice of points
        per = max(1, _CHUNK_NODES // zT.shape[1])
        for sl in (slice(i, i + per) for i in range(0, len(xs), per)):
            W, dW = phases(xs[sl])
            P, Q = apply(np.conjugate(W, out=W) if dagger else W)
            T[sl] += P + Q
            if not derivatives:
                continue
            if k0 is not None:  # d/dt of a sphere: -i k0 on P, +i k0 on Q, conjugate for dagger
                Td[sl, 0] += (1.0j if dagger else -1.0j) * k0 * (P - Q)
            del P, Q  # free before the larger derivative products
            Td[sl, -dW.shape[1] :] += np.add(*apply(np.conjugate(dW, out=dW) if dagger else dW))
    return T, Td


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
    side, cols = partial(_mode_actions, dagger=dagger), 4 * DIM
    T, Td = _accumulate(family, xs, spec, consts, side, cols, cols, weighted, derivatives, dagger)
    T = T.reshape(-1, 4, DIM)
    return (T, Td.reshape(-1, 4, 4, DIM)) if derivatives else T


def _overlap_spinor(family, xs, spec, consts, derivatives=False):
    """Same-k sandwich <state| field_r |state> integrated with the measure."""
    rows = _SANDWICH_ROWS
    phi, dphi = _accumulate(family, xs, spec, consts, _sandwich, rows, 4, True, derivatives)
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


def _angular_guard(run, spec: QuadratureSpec, v, families, label: str):
    """v = run(spec), provided run with n_theta doubled agrees with it.

    Only the product rule of a general family has angular nodes; when every
    family is two-component the angles are exact and v is returned as is.
    Otherwise the rerun must agree within _relative_tolerance of its value,
    or QuadratureNotConverged names both values and the tolerance.
    """
    if all(isinstance(f, RhoStateFamily) for f in families):
        return v
    finer = run(replace(spec, n_theta=2 * spec.n_theta))
    if gap := _disagreement(v, finer, _relative_tolerance(spec, finer)):
        raise QuadratureNotConverged(f"{label}: angular refinement moved the result {gap}")
    return v


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
        r, wr, dirs, wo = _sphere_rule(family, sp)
        for rn, wn in zip(r, wr):
            z = family.coefficients(rn * dirs)
            acc += float(np.sum(wn * wo * ((z.real**2 + z.imag**2) @ qdiag)))
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
    cutoff, so the refinement check is opt-in; a general family's angles
    are always checked, see _angular_guard.
    """

    def run(sp):
        TA = _field_tensor(bra_family, [x], sp, consts)[0]
        TB = _field_tensor(ket_family, [xp], sp, consts)[0]
        L = GAMMA0.real @ TA
        return np.einsum("rc,pc->pr", L.conj(), TB)

    v = _converged(run, spec, check, "two-point matrix")
    return _angular_guard(run, spec, v, (bra_family, ket_family), "two-point matrix")


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
    i kappa G = +d_mu (G gamma^mu), derivatives taken analytically.  A
    non-finite residual raises QuadratureNotConverged.
    """

    def run(sp):
        TA, TAd = _field_tensor(bra_family, [x], sp, consts, derivatives=True)
        TB, TBd = _field_tensor(ket_family, [xp], sp, consts, derivatives=True)
        TA, TAd, TB, TBd = TA[0], TAd[0], TB[0], TBd[0]
        L = GAMMA0.real @ TA
        Ld = np.einsum("ab,mbc->mac", GAMMA0.real, TAd)
        G = np.einsum("rc,pc->pr", L.conj(), TB)
        Gd_ket = np.einsum("rc,mpc->mpr", L.conj(), TBd)
        Gd_bra = np.einsum("mrc,pc->mpr", Ld.conj(), TB)
        lhs = 1.0j * consts.kappa * G
        rhs_ket = -np.einsum("mab,mbr->ar", GAMMA, Gd_ket)
        rhs_bra = np.einsum("mpb,mbr->pr", Gd_bra, GAMMA)
        # one np.max, so a NaN on either side reaches _converged
        return np.max(np.abs([lhs - rhs_ket, lhs - rhs_bra]))

    return float(_converged(run, spec, False, "two-point field equations"))


def r_density(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> np.ndarray:
    """The four local current densities trace(gamma^mu G(x, x)), real parts.

    The zeroth component is a sum of squared magnitudes and is nonnegative
    by construction; imaginary parts vanish identically and can be audited
    with r_density_residuals.  The antiparticle sector grows with the
    radial cutoff, so there is no refinement check; a general family's
    sphere rule is checked on its own by _angular_guard, and raises
    QuadratureNotConverged when it aliases.
    """
    x = np.asarray(x, dtype=float)

    def run(sp):
        T = _field_tensor(family, x, sp, consts)
        return np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T).real

    v = _converged(run, spec, False, "local densities")
    v = _angular_guard(run, spec, v, (family,), "local densities")
    return v.reshape(x.shape[:-1] + (4,))


def r_density_residuals(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> dict[str, float]:
    """Reality, positivity, and continuity audits of the local densities.

    The densities and divergence must be finite, and a general family's
    must pass _angular_guard, or QuadratureNotConverged is raised.
    """
    x = np.asarray(x, dtype=float)

    def run(sp):
        T, Td = _field_tensor(family, x, sp, consts, derivatives=True)
        vals = np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T)
        div = 2.0 * np.einsum("xmrc,mrq,xqc->x", Td.conj(), BILINEAR, T).real
        return np.column_stack([vals, div])

    out = _converged(run, spec, False, "density audits")
    out = _angular_guard(run, spec, out, (family,), "density audits")
    vals, div = out[:, :4], out[:, 4].real
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
    prefactor q c / (2 pi)^3; worst case over the four components.  The
    smeared currents must be finite, and those of general families must
    pass _angular_guard.
    """

    def halves(fam, sp):
        T = _field_tensor(fam, [x], sp, consts, weighted=False)[0]
        D = _field_tensor(fam, [x], sp, consts, weighted=False, dagger=True)[0]
        return T, D

    pref = 0.5 * consts.q * consts.c / (2.0 * np.pi) ** 3
    g0 = GAMMA0.real

    def smeared(Tbra, Dbra, Tket, Dket):
        first = np.einsum("mrq,rc,qc->m", GAMMA, (g0 @ Tbra).conj(), Tket)
        second = np.einsum("mqr,rc,qc->m", GAMMA, Dbra.conj(), g0 @ Dket)
        return pref * (first - second)

    def run(sp):
        TA, DA = halves(family_a, sp)
        TB, DB = halves(family_b, sp)
        return np.stack([smeared(TA, DA, TB, DB), smeared(TB, DB, TA, DA)])

    v = _converged(run, spec, False, "smeared currents")
    X, Y = _angular_guard(run, spec, v, (family_a, family_b), "smeared currents")
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
    if not np.isfinite(a):
        raise ValueError(f"scale a must be finite, got {a}")
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
