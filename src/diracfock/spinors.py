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

from .gamma import BILINEAR, CONJUGATION, GAMMA, GAMMA0


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
    """Both v spinors at wave vector(s) k; column j is the spinor of mode j + 3."""
    k = np.asarray(k, dtype=float)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    k0 = np.sqrt(kappa**2 + np.einsum("...i,...i->...", k, k))
    norm = 1.0 / np.sqrt(2.0 * k0 * (k0 + kappa))
    out = np.zeros(k.shape[:-1] + (4, 2), dtype=np.complex128)
    out[..., 0, 0] = -kz
    out[..., 1, 0] = -(kx + 1.0j * ky)
    out[..., 2, 0] = k0 + kappa
    out[..., 0, 1] = -(kx - 1.0j * ky)
    out[..., 1, 1] = kz
    out[..., 3, 1] = k0 + kappa
    out *= norm[..., None, None]
    return out


def identity_suite_batch(ks: np.ndarray, kps: np.ndarray, kappa: float) -> dict[str, float]:
    """Worst-case residuals of the spinor identities over paired wave vectors.

    ks and kps have shape (n, 3).  Each entry of the result is the maximum
    absolute deviation of one identity over the whole batch.  The
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
    slash = np.einsum("nm,mij->nij", k_cov, GAMMA)
    eye2 = np.eye(2)

    def amax(x):
        return float(np.abs(x).max())

    def bil(a, b):
        # (n, mu, s, t) array of <a_s | gamma^0 gamma^mu b_t>
        return np.einsum("nis,mij,njt->nmst", a.conj(), BILINEAR, b)

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
    res["reflect.u"] = amax(np.einsum("ij,njs->nis", GAMMA0, u) - um)
    res["reflect.v"] = amax(np.einsum("ij,njs->nis", GAMMA0, v) + vm)
    res["conj.u1_to_v4"] = amax(
        np.einsum("ij,nj->ni", CONJUGATION, u[:, :, 0].conj()) + vm[:, :, 1]
    )
    res["conj.u2_to_v3"] = amax(
        np.einsum("ij,nj->ni", CONJUGATION, u[:, :, 1].conj()) - vm[:, :, 0]
    )
    khat = k_contra / k0[:, None]
    buu = bil(u, u)
    bvv = bil(v, v)
    res["bilinear.kvector_u"] = amax(buu - khat[:, :, None, None] * eye2)
    res["bilinear.kvector_v"] = amax(bvv - khat[:, :, None, None] * eye2)

    b_v_vp = bil(v, vp)
    b_up_u = bil(up, u)
    b_u_vp = bil(u, vp)
    b_up_v = bil(up, v)
    # diagonal-mode exchanges hold as stated, cross-mode ones pick up a sign
    res["exchange.v4v4_u1u1"] = amax(b_v_vp[:, :, 1, 1] - b_up_u[:, :, 0, 0])
    res["exchange.v3v3_u2u2"] = amax(b_v_vp[:, :, 0, 0] - b_up_u[:, :, 1, 1])
    res["exchange.v4v3_u2u1"] = amax(b_v_vp[:, :, 1, 0] + b_up_u[:, :, 1, 0])
    res["exchange.v3v4_u1u2"] = amax(b_v_vp[:, :, 0, 1] + b_up_u[:, :, 0, 1])
    res["exchange.u1v4_sym"] = amax(b_u_vp[:, :, 0, 1] - b_up_v[:, :, 0, 1])
    res["exchange.u2v3_sym"] = amax(b_u_vp[:, :, 1, 0] - b_up_v[:, :, 1, 0])
    res["exchange.u2v4_u1v3"] = amax(b_u_vp[:, :, 1, 1] + b_up_v[:, :, 0, 0])
    res["exchange.u1v3_u2v4"] = amax(b_u_vp[:, :, 0, 0] + b_up_v[:, :, 1, 1])
    lhs = np.einsum("nmtt->nm", bil(vp, v))
    rhs = np.einsum("nmss->nm", bil(u, up))
    res["exchange.trace_cancellation"] = amax(lhs - rhs)
    return res


def identity_suite(k: np.ndarray, kp: np.ndarray, kappa: float) -> dict[str, float]:
    """Residuals of every spinor identity for a single wave-vector pair."""
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    return identity_suite_batch(k[None, :], kp[None, :], kappa)
