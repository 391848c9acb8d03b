"""Polarization spinors of the four modes at each wave vector.

Modes 1, 2 use the particle spinors u, modes 3, 4 the antiparticle
spinors v:

    u(s, k) = (slash(k) + kappa) u0(s) / sqrt(2 k0 (k0 + kappa))
    v(s, k) = (-slash(k) + kappa) v0(s) / sqrt(2 k0 (k0 + kappa))

with rest-frame vectors u0 = e1, e2 and v0 = e3, e4 and
k0 = sqrt(kappa^2 + |k|^2).  They satisfy slash(k) u = kappa u and
slash(k) v = -kappa v.
"""

import numpy as np

from .gamma import (
    BILINEAR_INDEX,
    BILINEAR_PHASE,
    CONJUGATION_INDEX,
    CONJUGATION_PHASE,
    GAMMA0_SIGN,
    feynman_slash,
)


def rest_frame_basis() -> tuple[np.ndarray, np.ndarray]:
    """(u0, v0): columns are the k = 0 spinors of modes (1, 2) and (3, 4)."""
    u0 = np.zeros((4, 2), dtype=np.complex128)
    u0[0, 0] = 1.0
    u0[1, 1] = 1.0
    v0 = np.zeros((4, 2), dtype=np.complex128)
    v0[2, 0] = 1.0
    v0[3, 1] = 1.0
    return u0, v0


def u_columns(k: np.ndarray, kappa: float) -> np.ndarray:
    """Both u spinors at wave vector(s) k.

    k has shape (..., 3); the result has shape (..., 4, 2) with column j
    the spinor of mode j + 1.
    """
    k = np.asarray(k, dtype=float)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    k0 = np.sqrt(kappa**2 + np.einsum("...i,...i->...", k, k))
    norm = 1.0 / np.sqrt(2.0 * k0 * (k0 + kappa))
    out = np.zeros(k.shape[:-1] + (4, 2), dtype=np.complex128)
    out[..., 0, 0] = k0 + kappa
    out[..., 2, 0] = -kz
    out[..., 3, 0] = -(kx + 1.0j * ky)
    out[..., 1, 1] = k0 + kappa
    out[..., 2, 1] = -(kx - 1.0j * ky)
    out[..., 3, 1] = kz
    out *= norm[..., None, None]
    return out


def v_columns(k: np.ndarray, kappa: float) -> np.ndarray:
    """Both v spinors at wave vector(s) k; column j is the spinor of mode j + 3.

    v(s, k) = gamma^5 u(s, k): gamma^5 anticommutes with slash(k) and maps
    u0 onto v0, and in the standard representation it swaps the upper and
    lower halves of a spinor.
    """
    return u_columns(k, kappa).take([2, 3, 0, 1], axis=-2)


def spinor_bilinear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_s| gamma^0 gamma^mu |b_t> for spinor columns a, b, shape (..., mu, s, t).

    gamma^0 gamma^mu meets b as a gather along the component axis.
    """
    gb = BILINEAR_PHASE[:, :, None] * b[..., BILINEAR_INDEX, :]
    return np.einsum("...rs,...mrt->...mst", a.conj(), gb)


def identity_suite_batch(ks: np.ndarray, kps: np.ndarray, kappa: float) -> dict[str, float]:
    """Worst-case residuals of the spinor identities over paired wave vectors.

    ks and kps have shape (n, 3), or (3,) for a single pair.  Each entry of
    the result is the maximum absolute deviation of one identity over the
    whole batch.  The
    conjugation pair and the four cross-mode exchange relations carry the
    sign pattern that the C = i gamma^2 gamma^0 convention actually
    produces: C is antisymmetric, which forces opposite signs on the two
    members of the conjugation pair.
    """
    ks = np.atleast_2d(np.asarray(ks, dtype=float))
    kps = np.atleast_2d(np.asarray(kps, dtype=float))
    u, v = u_columns(ks, kappa), v_columns(ks, kappa)
    up, vp = u_columns(kps, kappa), v_columns(kps, kappa)
    vm = v_columns(-ks, kappa)
    um = u_columns(-ks, kappa)
    k0 = np.sqrt(kappa**2 + np.einsum("ni,ni->n", ks, ks))
    k_cov = np.concatenate([k0[:, None], -ks], axis=1)
    k_contra = np.concatenate([k0[:, None], ks], axis=1)
    slash = feynman_slash(k_cov)
    eye2 = np.eye(2)

    def amax(x):
        return float(np.abs(x).max())

    res = {}
    res["eigen.u"] = amax(np.einsum("nij,njs->nis", slash, u) - kappa * u)
    res["eigen.v"] = amax(np.einsum("nij,njs->nis", slash, v) + kappa * v)
    # relative residual: the absolute entries grow like k0^2
    mass2 = np.einsum("nij,njk->nik", slash, slash)
    res["slash.square"] = amax((mass2 - kappa**2 * np.eye(4)) / k0[:, None, None] ** 2)
    res["ortho.uu"] = amax(np.einsum("nis,nit->nst", u.conj(), u) - eye2)
    res["ortho.vv"] = amax(np.einsum("nis,nit->nst", v.conj(), v) - eye2)
    res["ortho.uv_reflected"] = amax(np.einsum("nis,nit->nst", u.conj(), vm))
    res["overlap.reflected_uu"] = amax(
        np.einsum("nis,nit->nst", um.conj(), u) - (kappa / k0)[:, None, None] * eye2
    )
    res["reflect.u"] = amax(GAMMA0_SIGN[:, None] * u - um)
    res["reflect.v"] = amax(GAMMA0_SIGN[:, None] * v + vm)
    cu = CONJUGATION_PHASE[:, None] * u[:, CONJUGATION_INDEX].conj()
    res["conj.u1_to_v4"] = amax(cu[:, :, 0] + vm[:, :, 1])
    res["conj.u2_to_v3"] = amax(cu[:, :, 1] - vm[:, :, 0])
    khat = k_contra / k0[:, None]
    buu = spinor_bilinear(u, u)
    bvv = spinor_bilinear(v, v)
    res["bilinear.kvector_u"] = amax(buu - khat[:, :, None, None] * eye2)
    res["bilinear.kvector_v"] = amax(bvv - khat[:, :, None, None] * eye2)

    b_v_vp = spinor_bilinear(v, vp)
    b_up_u = spinor_bilinear(up, u)
    b_u_vp = spinor_bilinear(u, vp)
    b_up_v = spinor_bilinear(up, v)
    # diagonal-mode exchanges hold as stated, cross-mode ones pick up a sign
    res["exchange.v4v4_u1u1"] = amax(b_v_vp[:, :, 1, 1] - b_up_u[:, :, 0, 0])
    res["exchange.v3v3_u2u2"] = amax(b_v_vp[:, :, 0, 0] - b_up_u[:, :, 1, 1])
    res["exchange.v4v3_u2u1"] = amax(b_v_vp[:, :, 1, 0] + b_up_u[:, :, 1, 0])
    res["exchange.v3v4_u1u2"] = amax(b_v_vp[:, :, 0, 1] + b_up_u[:, :, 0, 1])
    res["exchange.u1v4_sym"] = amax(b_u_vp[:, :, 0, 1] - b_up_v[:, :, 0, 1])
    res["exchange.u2v3_sym"] = amax(b_u_vp[:, :, 1, 0] - b_up_v[:, :, 1, 0])
    res["exchange.u2v4_u1v3"] = amax(b_u_vp[:, :, 1, 1] + b_up_v[:, :, 0, 0])
    res["exchange.u1v3_u2v4"] = amax(b_u_vp[:, :, 0, 0] + b_up_v[:, :, 1, 1])
    lhs = np.einsum("nmtt->nm", spinor_bilinear(vp, v))
    rhs = np.einsum("nmss->nm", spinor_bilinear(u, up))
    res["exchange.trace_cancellation"] = amax(lhs - rhs)
    return res

