"""Field operators per wave vector on the 16-dimensional mode space.

phi_plus(s) multiplies the mode annihilator by exp(-i k.x), phi_minus(s)
the creator by exp(+i k.x), with k.x = k0 x^0 - k.x_vec.  The Dirac field
combines particle modes through u spinors and antiparticle modes through
v spinors:

    psi_r = sum_{s=1,2} u_r(s, k) phi_plus(s) + sum_{s=3,4} v_r(s, k) phi_minus(s)

All derivatives are analytic: each factor contributes -i k_mu or +i k_mu.

Every operator function here and in currents takes wave vectors k of
shape (..., 3) and spacetime points x of shape (..., 4) whose leading
axes broadcast, as spinors.u_columns does.  Operator stacks come back as
(..., 4, 16, 16).  Residuals reduce over operator indices only and give
one value per sample, a plain float when no argument has leading axes.
"""

import numpy as np

from .constants import PhysicalConstants
from .fock import ANNIHILATORS, CREATORS, DIM, hamiltonian, mode_annihilator, mode_creator
from .gamma import CONJUGATION, GAMMA, GAMMA0, covariant_components
from .spinors import u_columns, v_columns


class NoSolutionError(RuntimeError):
    """The intertwining system for the Fock-space conjugation has no solution."""


class AmbiguousSolutionError(RuntimeError):
    """The intertwining system does not pin the conjugation up to a phase."""


def _k0(k: np.ndarray, kappa: float) -> np.ndarray:
    """On-shell frequency sqrt(kappa^2 + |k|^2) over the leading axes of k."""
    return np.sqrt(kappa**2 + np.einsum("...i,...i->...", k, k))


def _per_sample(values):
    """A plain float for an unbatched call, else the array of per-sample values."""
    return float(values) if np.ndim(values) == 0 else values


def _worst_norm(stack: np.ndarray):
    """Largest operator norm over the component axis of a (..., 4, 16, 16) stack."""
    return _per_sample(np.linalg.norm(stack, 2, axis=(-2, -1)).max(axis=-1))


def plane_phase(k: np.ndarray, x: np.ndarray, kappa: float):
    """exp(-i k.x) for on-shell k, with k.x = k0 x^0 - k_vec . x_vec."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.exp(-1.0j * (_k0(k, kappa) * x[..., 0] - np.einsum("...i,...i->...", k, x[..., 1:])))


def phi_plus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Annihilation part of mode s at spacetime point x = (x0, x1, x2, x3)."""
    return plane_phase(k, x, kappa)[..., None, None] * mode_annihilator(s)


def phi_minus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Creation part of mode s, the adjoint of phi_plus(s)."""
    return np.conj(plane_phase(k, x, kappa))[..., None, None] * mode_creator(s)


def _psi_halves(k, x, kappa):
    """The u-mode and v-mode halves of psi, each (..., 4, 16, 16)."""
    k = np.asarray(k, dtype=float)
    e = plane_phase(k, x, kappa)[..., None, None, None]
    # phi_plus of modes (1, 2) and phi_minus of modes (3, 4)
    P, M = e * ANNIHILATORS[:2], np.conj(e) * CREATORS[2:]
    plus = np.einsum("...rs,...sij->...rij", u_columns(k, kappa), P)
    minus = np.einsum("...rs,...sij->...rij", v_columns(k, kappa), M)
    return plus, minus


def psi_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """All four Dirac field components as a (..., 4, 16, 16) array."""
    plus, minus = _psi_halves(k, x, kappa)
    return plus + minus


def psi_adjoint_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """The adjoint field psi_a(r) = sum_r' psi(r')^dagger gamma^0_{r' r}."""
    p = psi_matrices(k, x, kappa)
    return np.einsum("...pji,pr->...rij", p.conj(), GAMMA0.real)


def _psi_derivatives(k, x, kappa):
    """d_mu psi as a (..., 4, 4, 16, 16) array: mode phases give -/+ i k_mu."""
    k = np.asarray(k, dtype=float)
    plus, minus = _psi_halves(k, x, kappa)
    k_cov = covariant_components(_k0(k, kappa), k)
    return 1.0j * k_cov[..., :, None, None, None] * (minus - plus)[..., None, :, :, :]


def dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Operator norm of i gamma^mu d_mu psi - kappa psi, worst component."""
    p = psi_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    lhs = 1.0j * np.einsum("mrp,...mpij->...rij", GAMMA, dp) - kappa * p
    return _worst_norm(lhs)


def adjoint_dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Operator norm of -i d_mu psi_a gamma^mu - kappa psi_a, worst component."""
    pa = psi_adjoint_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    # adjoint of d_mu psi(r'), then contract with gamma^0 to get d_mu psi_a
    dpa = np.einsum("...mpji,pr->...mrij", dp.conj(), GAMMA0.real)
    lhs = -1.0j * np.einsum("...mrij,mrp->...pij", dpa, GAMMA) - kappa * pa
    return _worst_norm(lhs)


def inverse_relation_residual(s: int, k: np.ndarray, x: np.ndarray, kappa: float):
    """Projecting psi back onto one mode with the reflected spinor.

    sum_r conj(u_r(s, -k)) psi_r = (kappa / k0) phi_plus(s)   for s = 1, 2
    sum_r conj(v_r(s, -k)) psi_r = (kappa / k0) phi_minus(s)  for s = 3, 4
    """
    k = np.asarray(k, dtype=float)
    ratio = (kappa / _k0(k, kappa))[..., None, None]
    p = psi_matrices(k, x, kappa)
    if s in (1, 2):
        w = u_columns(-k, kappa)[..., s - 1]
        target = ratio * phi_plus(s, k, x, kappa)
    elif s in (3, 4):
        w = v_columns(-k, kappa)[..., s - 3]
        target = ratio * phi_minus(s, k, x, kappa)
    else:
        raise ValueError(f"mode index must be 1..4, got {s}")
    lhs = np.einsum("...r,...rij->...ij", w.conj(), p)
    return _per_sample(np.linalg.norm(lhs - target, 2, axis=(-2, -1)))


def heisenberg_residual(s: int, k: np.ndarray, x: np.ndarray, consts: PhysicalConstants):
    """Norm of i hbar c d_0 phi_plus(s) - [phi_plus(s), H_k]."""
    k = np.asarray(k, dtype=float)
    k0 = _k0(k, consts.kappa)[..., None, None]
    f = phi_plus(s, k, x, consts.kappa)
    h = hamiltonian(k, consts)
    lhs = 1.0j * consts.hbar * consts.c * (-1.0j * k0) * f
    rhs = f @ h - h @ f
    return _per_sample(np.linalg.norm(lhs - rhs, 2, axis=(-2, -1)))


def mixed_car_residual(k, kp, x, y, kappa: float):
    """Field anticommutators across two wave vectors and two points.

    {psi_r(k, x), psi_r'(k', y)} must vanish for every index pair, and the
    dagger version must equal the scalar overlap

        sum_{s<=2} conj(u_r'(s, k')) u_r(s, k) e_k(x) conj(e_k'(y))
      + sum_{s>=3} conj(v_r'(s, k')) v_r(s, k) conj(e_k(x)) e_k'(y)

    times the identity; the delta_{r,r'} shortcut holds only through this
    expression.  Returns the worst matrix entry over all component pairs.
    """
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    # index pairs (r, r') on axes (-4, -3)
    p = psi_matrices(k, x, kappa)[..., :, None, :, :]
    pp = psi_matrices(kp, y, kappa)[..., None, :, :, :]
    zero = np.abs(p @ pp + pp @ p).max(axis=(-4, -3, -2, -1))
    ek = plane_phase(k, x, kappa)[..., None, None]
    ekp = plane_phase(kp, y, kappa)[..., None, None]
    uu = u_columns(k, kappa) @ u_columns(kp, kappa).conj().swapaxes(-1, -2)
    vv = v_columns(k, kappa) @ v_columns(kp, kappa).conj().swapaxes(-1, -2)
    scalar = ek * np.conj(ekp) * uu + np.conj(ek) * ekp * vv
    dag = pp.conj().swapaxes(-1, -2)
    anti = p @ dag + dag @ p - scalar[..., None, None] * np.eye(DIM)
    return _per_sample(np.maximum(zero, np.abs(anti).max(axis=(-4, -3, -2, -1))))


def _conjugation_relations(ks: np.ndarray, kappa: float):
    """(A, B), each (..., 4, 2, 16, 16): C_hat A = B C_hat for each component and relation.

    The two relations at x = 0 are C_hat psi_r = (C psi_a)_r C_hat and
    C_hat psi_a_r = -(C psi)_r C_hat, with C the spinor conjugation matrix.
    """
    x0 = np.zeros(4)
    p = psi_matrices(ks, x0, kappa)
    pa = psi_adjoint_matrices(ks, x0, kappa)
    mix = lambda stack: np.einsum("rp,...pij->...rij", CONJUGATION, stack)
    return np.stack([p, pa], axis=-3), np.stack([mix(pa), -mix(p)], axis=-3)


def _intertwining_residual(chat: np.ndarray, ks: np.ndarray, kappa: float) -> float:
    """Worst residual of both conjugation relations over the wave vectors ks."""
    a, b = _conjugation_relations(ks, kappa)
    return float(np.max(np.linalg.norm(chat @ a - b @ chat, 2, axis=(-2, -1))))


def fock_charge_conjugation(
    kappa: float,
    sample_ks: np.ndarray,
    validation_ks: np.ndarray | None = None,
    null_rtol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Solve for the unitary Fock-space conjugation C_hat.

    C_hat is required to satisfy, for every component r and every sampled
    wave vector,

        C_hat psi_r = (sum_p C_{r p} psi_a_p) C_hat      at x = 0.

    The psi relations alone involve only two annihilators and two
    creators, whose generated algebra has a 16-dimensional commutant, so
    they leave a 16-dimensional null space.  Every unitary solution also
    satisfies the adjoint relation

        C_hat psi_a_r = -(sum_p C_{r p} psi_p) C_hat,

    and stacking those rows filters the null space down to the unitary
    direction.  The joint homogeneous system (256 unknowns) is solved by
    a QR factorization and an SVD of its 256 x 256 triangular factor; the
    unique null direction is scaled to a unitary and its phase fixed by
    making the largest entry real positive.  Raises
    NoSolutionError when the null space is empty or carries no unitary,
    AmbiguousSolutionError when it has more than one dimension.  Returns
    the matrix together with the worst intertwining residual on the
    validation wave vectors (held out from the solve).
    """
    sample_ks = np.atleast_2d(np.asarray(sample_ks, dtype=float))
    if len(sample_ks) < 2:
        raise ValueError("need at least two sample wave vectors")
    if validation_ks is None:
        if len(sample_ks) >= 3:
            sample_ks, validation_ks = sample_ks[:-1], sample_ks[-1:]
        else:
            validation_ks = kappa * np.array([[0.437, -0.912, 0.655]])
    validation_ks = np.atleast_2d(np.asarray(validation_ks, dtype=float))

    a, b = _conjugation_relations(sample_ks, kappa)
    eye = np.eye(DIM)
    # vec(C A) - vec(B C) with column-major vec is (kron(A^T, 1) - kron(1, B)) vec(C)
    system = np.einsum("...ji,ab->...iajb", a, eye)
    system -= np.einsum("ij,...ab->...iajb", eye, b)
    system = system.reshape(-1, DIM * DIM)

    # system = Q R keeps the singular values and right vectors in the
    # 256 x 256 factor R, so the tall system itself is never decomposed
    sing, vh = np.linalg.svd(np.linalg.qr(system, mode="r"))[1:]
    null_mask = sing <= null_rtol * sing[0]
    n_null = int(null_mask.sum())
    if n_null == 0:
        raise NoSolutionError(
            f"no null direction: smallest singular value {sing[-1]:.3e} "
            f"(largest {sing[0]:.3e})"
        )
    if n_null > 1:
        raise AmbiguousSolutionError(f"null space has dimension {n_null}")

    chat = vh[-1].reshape(DIM, DIM).T  # undo column-major vec
    gram = chat.conj().T @ chat
    scale = np.sqrt(gram.trace().real / DIM)
    chat = chat / scale
    if np.abs(chat.conj().T @ chat - eye).max() > 1e-10:
        raise NoSolutionError("null direction is not proportional to a unitary")
    top = np.argmax(np.abs(chat))
    chat = chat * np.exp(-1.0j * np.angle(chat.flat[top]))

    residual = _intertwining_residual(chat, validation_ks, kappa)
    return chat, residual
