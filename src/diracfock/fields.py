"""Field operators per wave vector on the 16-dimensional mode space.

phi_plus(s) multiplies the mode annihilator by exp(-i k.x), phi_minus(s)
the creator by exp(+i k.x), with k.x = k0 x^0 - k.x_vec.  The Dirac field
combines particle modes through u spinors and antiparticle modes through
v spinors:

    psi_r = sum_{s=1,2} u_r(s, k) phi_plus(s) + sum_{s=3,4} v_r(s, k) phi_minus(s)

All derivatives are analytic: each factor contributes -i k_mu or +i k_mu.
"""

import numpy as np

from .constants import PhysicalConstants
from .fock import DIM, hamiltonian, mode_annihilator, mode_creator
from .gamma import CONJUGATION, GAMMA, GAMMA0, covariant_components
from .spinors import u_columns, v_columns


class NoSolutionError(RuntimeError):
    """The intertwining system for the Fock-space conjugation has no solution."""


class AmbiguousSolutionError(RuntimeError):
    """The intertwining system does not pin the conjugation up to a phase."""


def plane_phase(k: np.ndarray, x: np.ndarray, kappa: float) -> complex:
    """exp(-i k.x) for on-shell k, with k.x = k0 x^0 - k_vec . x_vec."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    k0 = np.sqrt(kappa**2 + k @ k)
    return complex(np.exp(-1.0j * (k0 * x[0] - k @ x[1:])))


def phi_plus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Annihilation part of mode s at spacetime point x = (x0, x1, x2, x3)."""
    return plane_phase(k, x, kappa) * mode_annihilator(s)


def phi_minus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Creation part of mode s, the adjoint of phi_plus(s)."""
    return np.conj(plane_phase(k, x, kappa)) * mode_creator(s)


def _phi_stacks(k, x, kappa):
    """(P, M): phi_plus of modes (1, 2) and phi_minus of modes (3, 4)."""
    P = np.stack([phi_plus(s, k, x, kappa) for s in (1, 2)])
    M = np.stack([phi_minus(s, k, x, kappa) for s in (3, 4)])
    return P, M


def psi_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """All four Dirac field components as a (4, 16, 16) array."""
    u = u_columns(np.asarray(k, dtype=float), kappa)
    v = v_columns(np.asarray(k, dtype=float), kappa)
    P, M = _phi_stacks(k, x, kappa)
    return np.einsum("rs,sij->rij", u, P) + np.einsum("rs,sij->rij", v, M)


def psi(r: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Component r in 1..4 of the Dirac field operator."""
    if r not in (1, 2, 3, 4):
        raise ValueError(f"component index must be 1..4, got {r}")
    return psi_matrices(k, x, kappa)[r - 1]


def psi_adjoint_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """The adjoint field psi_a(r) = sum_r' psi(r')^dagger gamma^0_{r' r}."""
    p = psi_matrices(k, x, kappa)
    return np.einsum("pji,pr->rij", p.conj(), GAMMA0.real)


def _psi_derivatives(k, x, kappa):
    """d_mu psi as a (4, 4, 16, 16) array: mode phases give -/+ i k_mu."""
    k = np.asarray(k, dtype=float)
    k0 = np.sqrt(kappa**2 + k @ k)
    k_cov = covariant_components(k0, k)
    u = u_columns(k, kappa)
    v = v_columns(k, kappa)
    P, M = _phi_stacks(k, x, kappa)
    return np.einsum("m,rs,sij->mrij", -1.0j * k_cov, u, P) + np.einsum(
        "m,rs,sij->mrij", 1.0j * k_cov, v, M
    )


def dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float) -> float:
    """Operator norm of i gamma^mu d_mu psi - kappa psi, worst component."""
    p = psi_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    lhs = 1.0j * np.einsum("mrp,mpij->rij", GAMMA, dp) - kappa * p
    return float(max(np.linalg.norm(lhs[r], 2) for r in range(4)))


def adjoint_dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float) -> float:
    """Operator norm of -i d_mu psi_a gamma^mu - kappa psi_a, worst component."""
    pa = psi_adjoint_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    # adjoint of d_mu psi(r'), then contract with gamma^0 to get d_mu psi_a
    dpa = np.einsum("mpji,pr->mrij", dp.conj(), GAMMA0.real)
    lhs = -1.0j * np.einsum("mrij,mrp->pij", dpa, GAMMA) - kappa * pa
    return float(max(np.linalg.norm(lhs[r], 2) for r in range(4)))


def inverse_relation_residual(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> float:
    """Projecting psi back onto one mode with the reflected spinor.

    sum_r conj(u_r(s, -k)) psi_r = (kappa / k0) phi_plus(s)   for s = 1, 2
    sum_r conj(v_r(s, -k)) psi_r = (kappa / k0) phi_minus(s)  for s = 3, 4
    """
    k = np.asarray(k, dtype=float)
    k0 = np.sqrt(kappa**2 + k @ k)
    p = psi_matrices(k, x, kappa)
    if s in (1, 2):
        w = u_columns(-k, kappa)[:, s - 1]
        target = (kappa / k0) * phi_plus(s, k, x, kappa)
    elif s in (3, 4):
        w = v_columns(-k, kappa)[:, s - 3]
        target = (kappa / k0) * phi_minus(s, k, x, kappa)
    else:
        raise ValueError(f"mode index must be 1..4, got {s}")
    lhs = np.einsum("r,rij->ij", w.conj(), p)
    return float(np.linalg.norm(lhs - target, 2))


def heisenberg_residual(s: int, k: np.ndarray, x: np.ndarray, consts: PhysicalConstants) -> float:
    """Norm of i hbar c d_0 phi_plus(s) - [phi_plus(s), H_k]."""
    k = np.asarray(k, dtype=float)
    k0 = np.sqrt(consts.kappa**2 + k @ k)
    f = phi_plus(s, k, x, consts.kappa)
    h = hamiltonian(k, consts)
    lhs = 1.0j * consts.hbar * consts.c * (-1.0j * k0) * f
    rhs = f @ h - h @ f
    return float(np.linalg.norm(lhs - rhs, 2))


def mixed_car_residual(k, kp, x, y, kappa: float) -> float:
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
    p = psi_matrices(k, x, kappa)
    pp = psi_matrices(kp, y, kappa)
    worst = 0.0
    for r in range(4):
        for rp in range(4):
            worst = max(worst, float(np.max(np.abs(p[r] @ pp[rp] + pp[rp] @ p[r]))))
    u, v = u_columns(k, kappa), v_columns(k, kappa)
    up, vp = u_columns(kp, kappa), v_columns(kp, kappa)
    ek = plane_phase(k, x, kappa)
    ekp = plane_phase(kp, y, kappa)
    scalar = ek * np.conj(ekp) * (u @ up.conj().T) + np.conj(ek) * ekp * (v @ vp.conj().T)
    dag = pp.conj().transpose(0, 2, 1)
    eye = np.eye(DIM)
    for r in range(4):
        for rp in range(4):
            anti = p[r] @ dag[rp] + dag[rp] @ p[r]
            worst = max(worst, float(np.max(np.abs(anti - scalar[r, rp] * eye))))
    return worst


def _intertwining_residual(chat: np.ndarray, k: np.ndarray, kappa: float) -> float:
    """Worst residual of both conjugation relations at wave vector k, x = 0."""
    x0 = np.zeros(4)
    p = psi_matrices(k, x0, kappa)
    pa = psi_adjoint_matrices(k, x0, kappa)
    c4 = CONJUGATION
    worst = 0.0
    for r in range(4):
        target = np.einsum("p,pij->ij", c4[r], pa)
        worst = max(worst, float(np.linalg.norm(chat @ p[r] - target @ chat, 2)))
        target_a = np.einsum("p,pij->ij", c4[r], p)
        worst = max(worst, float(np.linalg.norm(chat @ pa[r] + target_a @ chat, 2)))
    return worst


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
    SVD; the unique null direction is scaled to a unitary and its phase
    fixed by making the largest entry real positive.  Raises
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

    x0 = np.zeros(4)
    eye = np.eye(DIM)
    rows = []
    for k in sample_ks:
        p = psi_matrices(k, x0, kappa)
        pa = psi_adjoint_matrices(k, x0, kappa)
        for r in range(4):
            b = np.einsum("p,pij->ij", CONJUGATION[r], pa)
            # vec(C A) - vec(B C) with column-major vec
            rows.append(np.kron(p[r].T, eye) - np.kron(eye, b))
            b_adj = -np.einsum("p,pij->ij", CONJUGATION[r], p)
            rows.append(np.kron(pa[r].T, eye) - np.kron(eye, b_adj))
    system = np.concatenate(rows, axis=0)

    _, sing, vh = np.linalg.svd(system, full_matrices=False)
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

    residual = max(_intertwining_residual(chat, k, kappa) for k in validation_ks)
    return chat, residual
