"""k-integrated expectation values.

Classical spinor fields, quantum and classical energies, total charge,
the two-point correlation matrix, local densities, the smeared-current
reality check, and the worked spin-up example.

All double k-integrals factor through the 16-dimensional occupation
index, so each side costs one field-tensor pass instead of a node-squared
sum.  The two-point kernel _two_point (G and its derivatives) takes x
and x' from one pass when one family object sits on both sides.  The
smeared currents read the current as the charge-conjugation-odd part of
the pair correlation, so they take a pass of z and one of C_hat z per
family, C_hat (fock.CHARGE_CONJUGATION) applied to the state as a signed
row gather.  Both evaluate single points (_point): a batch is refused,
not cut to its first point.

Every field integral is one loop, _accumulate, over the blocks of one
source, _blocks, the one place that picks a family's rule.  The integral
is a sum over spheres |k| = r.  On a sphere the spinors are affine in
the direction: u(r khat) = even(r) + sum_j khat_j odd_j(r), both parts
read off from six spinor evaluations per radius (_spinor_parts).  So
each sphere contributes its spinor parts contracted with the direction
moments (1, khat) of the weighted phases times the state side.  A block
carries its moment builder and a ready contraction, which returns the
parts of the value and of all four d/dx^mu; the loop only slices points
and adds parts.  For a two-component family the state is constant on
each sphere, and the moments are the Rayleigh plane-wave expansion
4 pi (j0(k |x|), i j1(k |x|) xhat), in closed form: one block of the
radial rule alone (_radial_contraction).  A general family gets the
spherical product rule, one sphere of 2 n_theta^2 directions per radial
node, taken in blocks of consecutive spheres; its antipodal directions
share cos and sin of k.x (_plane_moments).  There the moments meet the
state first, node by node, and the spinor parts come last, so no spinor
is formed at any node (_product_contraction).  Derivatives of integrals
are always analytic (phase insertions, or the derivatives of the Bessel
terms), never finite differences; the field equations then hold at
every node and the residual checks probe the algebra, not the step size.

The state is held mode-major, one column per node.  Mode s is bit s - 1
of the basis index (fock's Jordan-Wigner order), so each mode operator
pairs two bit slices of the state, fock.BIT_CLEAR and BIT_SET with the
signs fock.SIGNS (fock is the one source of these tables): row views,
with no gather and no dense 16 x 16 product.  The sandwich <z| a_s |z>
the classical spinor needs forms only its live pairs (fock.ROWS, COLS),
both rows nonzero somewhere in the block: a two-component state,
wrapped as a general family or not, costs one pair product per node, a
mode with no live pair stays out of the contraction, and a NaN or inf
in the state still reaches the result.  The product rule takes as
many spheres per block as keep the block's state and state side within
_BLOCK_BYTES, so each block costs one coefficient call, one state side
and one moment build; each sphere still reaches the sum on its own, in
the order of the rule.  A block's moments are built for one slice of
points at a time, at most _CHUNK_NODES points x nodes per slice (times
the four moments and the derivatives; all that _CHUNK_NODES sizes), so
peak memory follows the output, not the number of points times nodes.

The antiparticle sector of the two-point matrix and of the densities does
not decay with |k|, so those values grow with the radial cutoff; they are
reported at the configured truncation, with no refinement check.  Every
field integral runs through _field_guard (QuadratureNotConverged), which
also reruns a general family's two-point matrix, densities and smeared
currents with n_theta doubled.  Scalar integrals (energies, charge) are
damped by the density profile and always pass the cutoff-doubling test
of _doubling_guard (Diverged).
"""

from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .constants import PhysicalConstants
from .fock import BIT_CLEAR, BIT_SET, CHARGE_CONJUGATION, COLS, DIM, N_MODES, ROWS, SIGNS
from .fock import charge_operator
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
# bytes of a product-rule block's state and state side: four default spheres
# for the 4-row sandwich, one for the 64-row mode actions
_BLOCK_BYTES = 1_500_000


def _radial_nodes(family: StateFamily, spec: QuadratureSpec):
    """The family's radial rule (r, w): to k_cutoff, times r_max / REFERENCE_R_MAX unless hard."""
    upper = family.k_cutoff * (1.0 if family.hard_cutoff else spec.r_max / REFERENCE_R_MAX)
    return radial_rule(upper, spec.n_radial, family.breakpoints)


def _weight(kmag: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
    """The mode measure l^{5/2} c^{1/2} / sqrt((2 pi)^3 2 omega)."""
    k0 = np.sqrt(consts.kappa**2 + kmag**2)
    omega = consts.c * k0
    return consts.ell**2.5 * np.sqrt(consts.c / ((2.0 * np.pi) ** 3 * 2.0 * omega))


# a mode-major state (DIM, m) viewed as (2, 2, 2, 2, m), where fock's bit slices apply
_BITS = (2,) * N_MODES


def _sandwich(zT):
    """<z| a_s |z> (4, m) for s = 1..4 from the mode-major state zT (DIM, m).

    Each is a signed sum of the pair products conj(z[ROWS]) z[COLS] of fock's
    tables, formed only for the live pairs, whose two basis rows are both
    nonzero somewhere in the block; a mode with no live pair has a zero row.
    A NaN or inf in zT still reaches the result.  It is the state side of
    _overlap_spinor: the creators of modes 3, 4 paired with v give the
    conjugate sandwiches, whose conjugates S holds (see _blocks).
    """
    # the basis rows nonzero at some node (a NaN counts); np.any takes k = gcd(nodes, 64)
    # nodes side by side, a long inner loop on a node-major state
    live = np.any(zT.T.reshape(-1, DIM * np.gcd(zT.shape[1], 64)), axis=0)
    live = live.reshape(-1, DIM).any(axis=0)
    pairs = live[ROWS] & live[COLS]
    # with every pair formed, a NaN or inf in a live row reaches the result (0 * NaN is NaN)
    if not np.isfinite(zT[live]).all():
        pairs[:] = True
    y = np.zeros((N_MODES, zT.shape[1]), dtype=np.complex128)
    for s in np.flatnonzero(pairs.any(axis=1)):
        y[s] = np.dot(SIGNS[s, pairs[s]], zT[ROWS[s, pairs[s]]].conj() * zT[COLS[s, pairs[s]]])
    return y


def _mode_actions(zT):
    """The state side S (4 DIM, m) of _field_tensor from the mode-major state zT (DIM, m).

    Rows s DIM + c hold (O_s z)_c for the operators paired with (u, u, v, v):
    the annihilators of modes 1, 2 and the creators of modes 3, 4.  Each is
    a signed copy of one bit slice of zT into the other; the rows paired
    with v are conjugated (see _blocks).
    """
    z5 = zT.reshape(*_BITS, -1)
    S = np.empty((N_MODES, *_BITS, zT.shape[1]), dtype=np.complex128)
    for s in range(N_MODES):
        # a_s moves the bit-set rows onto the bit-clear ones; its adjoint the reverse
        dst, src = (BIT_CLEAR[s], BIT_SET[s]) if s < 2 else (BIT_SET[s], BIT_CLEAR[s])
        np.multiply(z5[src], SIGNS[s].reshape(2, 2, 2, 1), out=S[s][dst])
        S[s][src] = 0.0
    np.conjugate(S[2:], out=S[2:])
    return S.reshape(N_MODES * DIM, -1)


# C_hat, a signed permutation, as a row gather: (C_hat z)[c] = _C_SIGNS[c] z[_C_ROWS[c]]
_C_ROWS = np.argmax(np.abs(CHARGE_CONJUGATION), axis=1)
_C_SIGNS = CHARGE_CONJUGATION.real[np.arange(DIM), _C_ROWS, None]


def _plane_moments(kvT, k0, w, dirs, derivatives, xs):
    """Direction moments of a block of product-rule spheres and their d/dx^j, sphere-major.

    W[i, x, a, m] = w[i, m] exp(-i k.x) (1, khat_m)_a at the nodes k =
    kvT[i, :, m] of sphere i, and dW[i, j, x, a, m] its d/dx^j, which
    brings down i k^j for the spatial j; dW is None without derivatives.
    The second half of each sphere's nodes negates the first (angular_rule):
    its phases exp(i k.x) are the first half's conjugates, times one
    exp(-i k0 t) per sphere and point.
    """
    ni, m = w.shape
    h = m // 2
    W = np.empty((ni, len(xs), 4, m), dtype=np.complex128)
    E = W[:, :, 0]  # the moment (1, khat)_0 is 1
    phase = np.matmul(xs[:, 1:], kvT[..., :h])
    np.cos(phase, out=E[..., :h].real)
    np.sin(phase, out=E[..., :h].imag)
    E[..., :h] *= w[:, None, :h]
    np.conjugate(E[..., :h], out=E[..., h:])
    E *= np.exp(-1.0j * k0[:, None, None] * xs[:, 0, None])
    np.multiply(E[:, :, None], dirs.T, out=W[:, :, 1:])
    if not derivatives:
        return W, None
    dW = np.empty((ni, 3, len(xs), 4, m), dtype=np.complex128)
    np.multiply(W[:, None], 1.0j * kvT[:, :, None, None], out=dW)
    return W, dW


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
    """Direction moments of the radial block and their d/dx^mu.

    E[x, n, a] is w_n times the sphere integral of exp(-i k.x)
    times (1, khat_1, khat_2, khat_3)_a at |k| = r_n.  With rho = |x| and
    z = r rho this is, by the Rayleigh expansion (DLMF 10.60.7),
    4 pi exp(-i k0 t) (j0(z), i j1(z) xhat); the x-derivatives follow from
    j0' = -j1 and d/dz (j1(z) / z) = -j2(z) / z.  dE[x, mu, n, a] holds
    the d/dx^mu, or is None without derivatives.
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
        return E, None
    dE = np.empty((nx, 4, n, 4), dtype=np.complex128)
    dE[:, 0] = -1.0j * k0[None, :, None] * E
    # d_i j0(r rho) = -r j1 xhat_i;  d_i (j1(r rho) xhat_j) = r (delta_ij j1/z - xhat_i xhat_j j2)
    dE[:, 1:, :, 0] = 1.0j * r * pj1[:, None, :] * xhat[:, :, None]
    dE[:, 1:, :, 1:] = 1.0j * (p * r)[:, None, :, None] * (
        np.eye(3)[None, :, None, :] * j1z[:, None, :, None]
        - (xhat[:, :, None] * xhat[:, None, :])[:, :, None, :] * j2[:, None, :, None]
    )
    return E, dE


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


def _radial_contraction(u, v, S):
    """apply(W, dW) of the radial block, one sphere per node, see _blocks.

    The spinor parts meet the state first, once per block, and the moments
    of _sphere_weights then take one matrix product per side: one part for
    the value and one for the four d/dx^mu.
    """
    n = len(u)
    S = S.reshape(4, -1, n)
    # (n, a r, s) @ (n, s, c): one batched product per side
    K1 = np.matmul(u.reshape(n, 16, 2), S[:2].transpose(2, 0, 1)).reshape(4 * n, -1)
    K2 = np.matmul(v.reshape(n, 16, 2), S[2:].conj().transpose(2, 0, 1)).reshape(4 * n, -1)

    def contract(W):
        W = W.reshape(*W.shape[:-2], 4 * n)
        return W @ K1 + W.conj() @ K2

    # map is lazy: the derivative part is formed once the value part is added and freed
    return lambda W, dW: ([contract(W)], () if dW is None else map(contract, [dW]))


def _product_contraction(M, S, k0):
    """apply(W, dW) of a block of product-rule spheres, see _blocks.

    M (i, rows, 16) holds each sphere's spinor parts by (r, a s): P + Q,
    then with derivatives P - Q.  The moments of _plane_moments meet the
    state first, one product W S^T per sphere for all four modes since
    conj(W) Z2 = conj(W conj(Z2)), and the spinor parts come last: no
    spinor is formed at any node.  The sandwich, one row per mode, leaves
    out the modes zero at every node; the mode actions keep all four, as
    their scan would cost more than the product saves.  Each sphere is
    one part, so the spheres reach the sum in the order of the rule,
    whatever the block size.  The spatial d/dx^j contract dW; d/dt is
    -i k0 (P - Q) of each sphere, read off the value moments.
    """
    ni, nodes = len(M), S.shape[1]
    m, c = nodes // ni, S.shape[0] // 4
    St = S.reshape(-1, ni, m).transpose(1, 2, 0)  # sphere i's S^T, a view
    modes = np.flatnonzero(S.any(axis=1)) if c == 1 else np.arange(4)  # a NaN is nonzero
    St = St[..., modes] if c == 1 else St
    n, nu = len(modes), np.count_nonzero(modes < 2)  # nu of them paired with u
    M = M[..., (4 * np.arange(4)[:, None] + modes).ravel()]  # the parts (a, s) of those s

    def contract(W, rows):
        """(i, *lead, 4, m) moments -> (i, *lead, len(rows) / 4, 4 c) parts."""
        x = W.size // (ni * 4 * m)  # spelled out: with no live mode A is empty
        A = np.matmul(W.reshape(ni, -1, m), St).reshape(ni, x, 4, n, c)
        np.conjugate(A[:, :, :, nu:], out=A[:, :, :, nu:])
        # (i, rows, a s) @ (i, x, a s, c)
        return (rows[:, None] @ A.reshape(ni, x, 4 * n, c)).reshape(*W.shape[:-2], -1, 4 * c)

    def derivatives(out, dW):
        """The parts (sphere, x, mu, r c), formed once the value parts are added and freed."""
        time = out[..., 1, :] * (-1.0j * k0[:, None, None])
        spatial = contract(dW, M[:, :4])[..., 0, :].swapaxes(1, 2)
        yield from np.concatenate([time[:, :, None], spatial], axis=2)

    def apply(W, dW):
        out = contract(W, M)
        return out[..., 0, :], () if dW is None else derivatives(out, dW)

    return apply


def _blocks(family, spec, consts, side, rows, weighted, derivatives):
    """Yield (phases, apply, nodes) blocks whose parts sum to the k-integral.

    The one place that picks a family's rule.  A block covers i spheres of
    m nodes each, nodes = i m in all.  side(zT) forms its state side S
    (rows, nodes) from the state coefficients zT (DIM, nodes), mode-major,
    one column per node, sphere-major.  phases(xs) returns the direction
    moments W of the weighted phases w exp(-i k.x) (1, khat)_a at the
    points xs (nx, 4), and their derivatives dW, or None without them.
    apply(W, dW) returns (parts, dparts): the parts (nx, rows) of the
    integral and those (nx, 4, rows) of its d/dx^mu, () without
    derivatives, each to add in order.  dparts is lazy, so the value parts
    can be freed before the derivative products are formed.  With the
    spinor parts u, v (i, 4, 4, 2) of each sphere (see _spinor_parts) and
    S holding Z1 (modes s = 0, 1) and then conj(Z2), the integral is
    P + Q, P[..., r * c + d] the sum over spheres i, parts a, spin s and
    nodes m of one sphere of

        u[i, a, r, s] W[..., i, a, m] Z1[s, d, i m],

    and Q the same with v, conj(W) and Z2.  Two-component families take
    the radial rule, one block of one sphere per node (m = 1) with the
    moments in closed form; general ones the product rule, blocks of whole
    spheres, as many as keep the state and a state side of `rows` rows
    within _BLOCK_BYTES, at least one.  k0, the mode measure and the spinor
    parts take one value per sphere.
    """
    r, wr = _radial_nodes(family, spec)
    k0 = np.sqrt(consts.kappa**2 + r**2)
    w = wr * r**2 * (_weight(r, consts) if weighted else 1.0)
    if isinstance(family, RhoStateFamily):  # one state vector per sphere
        zT = family.coefficients(np.outer(r, [0.0, 0.0, 1.0])).T
        phases = partial(_sphere_weights, r, k0, w, derivatives)
        yield phases, _radial_contraction(*_spinor_parts(r, consts.kappa), side(zT)), len(r)
        return
    dirs, wo = angular_rule(spec.n_theta)
    per = max(1, _BLOCK_BYTES // ((DIM + rows) * 16 * len(dirs)))
    # each sphere's spinor parts by (r, a s): u on the modes s = 0, 1 and v on 2, 3
    M = np.concatenate(_spinor_parts(r, consts.kappa), axis=-1).transpose(0, 2, 1, 3)
    M = M.reshape(-1, 4, 16)
    if derivatives:  # P + Q, then P - Q: -1 on the parts (a, s) of Q, s = 2, 3
        M = np.concatenate([M, M * np.tile([1.0, 1.0, -1.0, -1.0], 4)], axis=1)
    for sl in (slice(n, n + per) for n in range(0, len(r), per)):
        kv = r[sl, None, None] * dirs
        zT = family.coefficients(kv.reshape(-1, 3)).T
        phases = partial(
            _plane_moments, kv.transpose(0, 2, 1), k0[sl], w[sl, None] * wo, dirs, derivatives
        )
        yield phases, _product_contraction(M[sl], side(zT), k0[sl]), zT.shape[1]


def _points(xs) -> np.ndarray:
    """xs as an (nx, 4) float array; ValueError unless its last axis holds points, all finite."""
    xs = np.asarray(xs, dtype=float)
    if xs.shape[-1:] != (4,):  # never regroup, say, a (2, 2) array as one point
        raise ValueError(f"points need a last axis of length 4 (t, x, y, z): shape {xs.shape} given")
    xs = xs.reshape(-1, 4)
    bad = np.count_nonzero(~np.isfinite(xs).all(axis=1))
    if bad or not len(xs):  # every public field integral comes here first
        raise ValueError(f"points must be finite and nonempty: {len(xs)} given, {bad} non-finite")
    return xs


def _point(x) -> np.ndarray:
    """x as one point (1, 4), see _points; ValueError for a batch of them."""
    xs = _points(x)
    if len(xs) != 1:
        raise ValueError(f"a single point is needed here: {len(xs)} given")
    return xs


def _accumulate(family, xs, spec, consts, side, cols, weighted, derivatives):
    """The k-integral T (nx, cols) of the field against the state side at the points xs.

    side(zT) forms a block's state side (cols, nodes), see _blocks.  Td
    (nx, 4, cols) holds the d/dx^mu, or is None.
    """
    xs = _points(xs)
    T = np.zeros((len(xs), cols), dtype=np.complex128)
    Td = np.zeros((len(xs), 4, cols), dtype=np.complex128) if derivatives else None
    for phases, apply, nodes in _blocks(family, spec, consts, side, cols, weighted, derivatives):
        # at most _CHUNK_NODES points x nodes per slice of points
        per = max(1, _CHUNK_NODES // nodes)
        for sl in (slice(i, i + per) for i in range(0, len(xs), per)):
            parts, dparts = apply(*phases(xs[sl]))
            for part in parts:
                T[sl] += part
            del parts, part  # free the value products before the derivative ones
            for part in dparts:
                Td[sl] += part
        del apply  # free this block's state side before the next block forms its own
    return T, Td


def _field_tensor(
    family: StateFamily,
    xs: np.ndarray,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    derivatives: bool = False,
):
    """Integral of the field applied to the family, resolved on the basis.

    T[x, r, c] = integral dk w(k) <basis c| field_r(k, x) state(k)>, with
    w the mode measure.  With derivatives on, also the four d/dx^mu
    insertions as Td[x, mu, r, c].
    """
    T, Td = _accumulate(family, xs, spec, consts, _mode_actions, 4 * DIM, True, derivatives)
    T = T.reshape(-1, 4, DIM)
    return (T, Td.reshape(-1, 4, 4, DIM)) if derivatives else T


def _overlap_spinor(family, xs, spec, consts, derivatives=False):
    """Same-k sandwich <state| field_r |state> integrated with the measure."""
    phi, dphi = _accumulate(family, xs, spec, consts, _sandwich, 4, True, derivatives)
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


def _field_guard(run, spec: QuadratureSpec, label: str, check: bool = False, families=()):
    """run(spec), provided it is finite and agrees with its refinements.

    With check, run(spec.doubled()) must agree within abs_tol.  Only the
    product rule of a general family has angular nodes, so when any of the
    families is general, run with n_theta doubled must agree within
    _relative_tolerance of its value.  Otherwise QuadratureNotConverged
    names both values and the tolerance.
    """
    v = run(spec)
    if not np.all(np.isfinite(v)):
        raise QuadratureNotConverged(f"{label}: non-finite result")
    if check and (gap := _disagreement(v, run(spec.doubled()), spec.abs_tol)):
        raise QuadratureNotConverged(f"{label}: refinement moved the result {gap}")
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
    """The four classical field components at x (batched over leading axes).

    check=False runs no refinement for any family; a general family can then alias silently.
    """
    x = np.asarray(x, dtype=float)
    out = _field_guard(
        lambda sp: _overlap_spinor(family, x, sp, consts), spec, "classical spinor", check
    )
    return out.reshape(x.shape[:-1] + (4,))


def classical_dirac_residual(
    family: StateFamily,
    x,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
    check: bool = True,
) -> float:
    """Max component of i gamma^mu d_mu phi - kappa phi at x; check=False as in classical_spinor."""

    def run(sp):
        phi, dphi = _overlap_spinor(family, x, sp, consts, derivatives=True)
        lhs = 1.0j * np.einsum("mrp,xmp->xr", GAMMA, dphi) - consts.kappa * phi
        return np.abs(lhs)

    vals = _field_guard(run, spec, "Dirac residual", check)
    return float(np.max(vals))


def _doubling_guard(run, spec: QuadratureSpec, label: str) -> float:
    """run(spec), provided run(spec.doubled()) agrees with it; raises Diverged.

    The tolerance is max(abs_tol, 1e-11 |run(spec.doubled())|).
    """
    v1, v2 = run(spec), run(spec.doubled())
    if gap := _disagreement(v1, v2, _relative_tolerance(spec, v2)):
        raise Diverged(f"{label}: integral moved {gap} under doubling")
    return v1


def _radial_sum(integrand, spec: QuadratureSpec, label: str, family=None) -> float:
    """The radial-rule integral of integrand, through _doubling_guard.

    For a family: 4 pi integral dk k^2 integrand(k) on its _radial_nodes.
    Without one: the plain integral over the dimensionless profile argument
    up to r_max, the integrand carrying its own measure.
    """

    def run(sp):
        if family is None:
            r, w = radial_rule(sp.r_max, sp.n_radial)
            return float(np.sum(w * integrand(r)))
        k, w = _radial_nodes(family, sp)
        return float(4.0 * np.pi * np.sum(w * k**2 * integrand(k)))

    return _doubling_guard(run, spec, label)


def _energy(family: RhoStateFamily, spec, consts, label: str, factor) -> float:
    """l^3 integral of factor(hbar omega(k) rho(k), rho(k)) for a two-component family."""
    if not isinstance(family, RhoStateFamily):
        raise ValueError("energy formulas need the two-component family")

    def integrand(k):
        rho = family.radial_density(k)
        return factor(consts.hbar * consts.c * np.sqrt(consts.kappa**2 + k**2) * rho, rho)

    return consts.ell**3 * _radial_sum(integrand, spec, label, family)


def quantum_energy(family: RhoStateFamily, spec: QuadratureSpec, consts: PhysicalConstants) -> float:
    """l^3 integral of hbar omega(k) rho(k)."""
    return _energy(family, spec, consts, "quantum energy", lambda e, rho: e)


def classical_energy(
    family: RhoStateFamily, spec: QuadratureSpec, consts: PhysicalConstants
) -> float:
    """l^3 integral of hbar omega(k) rho(k) (1 - rho(k)); never above quantum_energy."""
    return _energy(family, spec, consts, "classical energy", lambda e, rho: e * (1.0 - rho))


def total_charge(family: StateFamily, spec: QuadratureSpec, consts: PhysicalConstants) -> float:
    """l^3 integral of the charge expectation per wave vector."""
    if isinstance(family, RhoStateFamily):
        sign = family.charge_sign
        value = _radial_sum(family.radial_density, spec, "total charge", family)
        return sign * consts.q * consts.ell**3 * value

    qdiag = np.diag(charge_operator(consts)).real

    def run(sp):
        acc = 0.0
        r, wr = _radial_nodes(family, sp)
        dirs, wo = angular_rule(sp.n_theta)
        # sphere by sphere, in the order of the rule; r^2 is the k^2 measure
        for rn, wn in zip(r, wr * r**2):
            z = family.coefficients(rn * dirs)
            acc += float(np.sum(wn * wo * ((z.real**2 + z.imag**2) @ qdiag)))
        return acc

    return consts.ell**3 * _doubling_guard(run, spec, "total charge")


def _two_point(bra_family, ket_family, x, xp, spec, consts, derivatives=False):
    """G[r', r] = sum_c conj(gamma^0 T(x))[r, c] T'(x')[r', c], T of the bra, T' of the ket.

    With derivatives also (d'G, dG) [mu, r', r], the d/dx'^mu and d/dx^mu.
    One family object on both sides takes one _field_tensor pass for both
    points; x and x' are one point each, never a batch (ValueError).
    """
    xs = np.concatenate([_point(x), _point(xp)])
    if bra_family is ket_family:
        bra = ket = _field_tensor(bra_family, xs, spec, consts, derivatives=derivatives)
    else:
        bra = _field_tensor(bra_family, xs[:1], spec, consts, derivatives=derivatives)
        ket = _field_tensor(ket_family, xs[1:], spec, consts, derivatives=derivatives)
    # x is the first point of the bra's pass, x' the last of the ket's
    (TA, TAd), (TB, TBd) = (bra, ket) if derivatives else ((bra, None), (ket, None))
    L = (GAMMA0.real @ TA[0]).conj()
    G = np.einsum("rc,pc->pr", L, TB[-1])
    if not derivatives:
        return G
    Ld = np.einsum("ab,mbc->mac", GAMMA0.real, TAd[0]).conj()
    return G, np.einsum("rc,mpc->mpr", L, TBd[-1]), np.einsum("mrc,pc->mpr", Ld, TB[-1])


def two_point(
    bra_family: StateFamily,
    ket_family: StateFamily,
    x,
    xp,
    spec: QuadratureSpec,
    consts: PhysicalConstants,
) -> np.ndarray:
    """Correlation matrix of adjoint field at x against field at x'.

    Indexed [r', r]: row is the field component at x', column the adjoint
    component at x.  The antiparticle sector scales with the radial
    cutoff, so there is no refinement check; a general family's angles
    are always checked, see _field_guard.
    """
    run = partial(_two_point, bra_family, ket_family, x, xp, consts=consts)
    return _field_guard(run, spec, "two-point matrix", families=(bra_family, ket_family))


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
        G, Gd_ket, Gd_bra = _two_point(bra_family, ket_family, x, xp, sp, consts, derivatives=True)
        lhs = 1.0j * consts.kappa * G
        rhs_ket = -np.einsum("mab,mbr->ar", GAMMA, Gd_ket)
        rhs_bra = np.einsum("mpb,mbr->pr", Gd_bra, GAMMA)
        # one np.max, so a NaN on either side reaches _field_guard
        return np.max(np.abs([lhs - rhs_ket, lhs - rhs_bra]))

    return float(_field_guard(run, spec, "two-point field equations"))


def r_density(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> np.ndarray:
    """The four local current densities trace(gamma^mu G(x, x)), real parts.

    The zeroth component is a sum of squared magnitudes and is nonnegative
    by construction; imaginary parts vanish identically and can be audited
    with r_density_residuals.  The antiparticle sector grows with the
    radial cutoff, so there is no refinement check; a general family's
    sphere rule is checked on its own by _field_guard, and raises
    QuadratureNotConverged when it aliases.
    """
    x = np.asarray(x, dtype=float)

    def run(sp):
        T = _field_tensor(family, x, sp, consts)
        return np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T).real

    v = _field_guard(run, spec, "local densities", families=(family,))
    return v.reshape(x.shape[:-1] + (4,))


def r_density_residuals(
    family: StateFamily, x, spec: QuadratureSpec, consts: PhysicalConstants
) -> dict[str, float]:
    """Reality, positivity, and continuity audits of the local densities.

    The densities and divergence must be finite, and a general family's
    must pass _field_guard's angular check, or QuadratureNotConverged is raised.
    """

    def run(sp):
        T, Td = _field_tensor(family, x, sp, consts, derivatives=True)
        vals = np.einsum("xrc,mrq,xqc->xm", T.conj(), BILINEAR, T)
        div = 2.0 * np.einsum("xmrc,mrq,xqc->x", Td.conj(), BILINEAR, T).real
        return np.column_stack([vals, div])

    out = _field_guard(run, spec, "density audits", families=(family,))
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
    current is the conjugation-odd part 1/2 (r - C_hat r C_hat) of the pair
    correlation r, C_hat its own inverse: half of r(a, b) - r(C_hat a, C_hat b).
    The smeared currents must be finite, and those of general families must
    pass _field_guard's angular check.  x is one point; a batch raises ValueError.
    """
    x = _point(x)
    pref = 0.5 * consts.q * consts.c / (2.0 * np.pi) ** 3

    def tensors(fam, sp):
        """The unweighted field tensors of z and of C_hat z at x, as (2, 4, DIM)."""
        sides = (_mode_actions, lambda zT: _mode_actions(_C_SIGNS * zT[_C_ROWS]))
        T = [_accumulate(fam, x, sp, consts, s, 4 * DIM, False, False)[0] for s in sides]
        return np.reshape(T, (2, 4, DIM))

    def smeared(bra, ket):
        # r_density's contraction, of (a, b) and of (C_hat a, C_hat b)
        normal, conjugate = np.einsum("nrc,mrq,nqc->nm", bra.conj(), BILINEAR, ket)
        return pref * (normal - conjugate)

    def run(sp):
        A, B = tensors(family_a, sp), tensors(family_b, sp)
        return np.stack([smeared(A, B), smeared(B, A)])

    X, Y = _field_guard(run, spec, "smeared currents", families=(family_a, family_b))
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

    I_Q = _radial_sum(lambda r: r**2 * sech2(r), spec, "reduced charge")
    I_E = _radial_sum(
        lambda r: r**2 * np.sqrt(ka**2 + r**2) * sech2(r), spec, "reduced energy"
    )
    I_Ecl = _radial_sum(
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
