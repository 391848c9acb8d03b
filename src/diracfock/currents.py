"""Bilinear current operators for a pair of wave vectors.

The r-current contracts the adjoint field with the field through a gamma
matrix.  The electric current is its charge-conjugation odd part; expanded
it is one half the normal-minus-antinormal ordered combination, and it
splits into a number-conserving part (particle and antiparticle bilinears)
and a pair creation/annihilation part.

Spatial dependence enters only through plane-wave phases, so divergences
are evaluated analytically: each derivative pulls down the covariant phase
exponent of its term.  Functions with a `_stack` suffix return all four
Lorentz components at once as a (4, 16, 16) array.
"""

import numpy as np

from .constants import PhysicalConstants
from .fields import plane_phase, psi_adjoint_matrices, psi_matrices
from .fock import ANNIHILATORS, CREATORS, charge_operator
# unused here, but perfbench/tracer.py wraps these two names at this call site
from .fock import mode_annihilator, mode_creator  # noqa: F401
from .gamma import BILINEAR, GAMMA, covariant_components
from .spinors import u_columns, v_columns

# mode-pair product tables: EE = adag_s a_t over modes 1-2, PP the same over
# modes 3-4, CC / AA create and annihilate one particle-antiparticle pair
_EE = np.einsum("sij,tjl->stil", CREATORS[:2], ANNIHILATORS[:2])
_PP = np.einsum("sij,tjl->stil", CREATORS[2:], ANNIHILATORS[2:])
_CC = np.einsum("sij,tjl->stil", CREATORS[:2], CREATORS[2:])
_AA = np.einsum("sij,tjl->stil", ANNIHILATORS[2:], ANNIHILATORS[:2])


def _check_mu(mu: int):
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"Lorentz index must be 0..3, got {mu}")


def _cov(k: np.ndarray, kappa: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    k0 = np.sqrt(kappa**2 + k @ k)
    return covariant_components(k0, k)


def r_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """All four components of the r-current, shape (4, 16, 16)."""
    pa = psi_adjoint_matrices(k, x, kappa)
    p = psi_matrices(kp, x, kappa)
    return np.einsum("mrq,rij,qjl->mil", GAMMA, pa, p)


def r_current(mu: int, k, kp, x, kappa: float) -> np.ndarray:
    """sum_{r r'} psi_a(r, k) gamma^mu_{r r'} psi(r', k') at the point x."""
    _check_mu(mu)
    return r_current_stack(k, kp, x, kappa)[mu]


def j_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Electric current, expanded form, shape (4, 16, 16).

    One half of the adjoint-field ordering minus one half of the reversed
    ordering with transposed gamma indices.  Dimensionless: the charge and
    momentum-space prefactors are applied by the expectation layer.
    """
    pa_k = psi_adjoint_matrices(k, x, kappa)
    p_kp = psi_matrices(kp, x, kappa)
    p_k = psi_matrices(k, x, kappa)
    pa_kp = psi_adjoint_matrices(kp, x, kappa)
    first = np.einsum("mrq,rij,qjl->mil", GAMMA, pa_k, p_kp)
    second = np.einsum("mqr,rij,qjl->mil", GAMMA, p_k, pa_kp)
    return 0.5 * (first - second)


def j_current(mu: int, k, kp, x, kappa: float) -> np.ndarray:
    _check_mu(mu)
    return j_current_stack(k, kp, x, kappa)[mu]


def j_current_conjugated_stack(k, kp, x, kappa: float, chat: np.ndarray) -> np.ndarray:
    """Electric current as the conjugation-odd part of the r-current.

    chat must be the unitary Fock-space conjugation for this kappa; the
    result then agrees with j_current_stack as an exact matrix identity.
    """
    r = r_current_stack(k, kp, x, kappa)
    return np.stack([0.5 * (r[m] - chat @ r[m] @ chat.conj().T) for m in range(4)])


def _diag_half(k, kp, x, kappa: float) -> np.ndarray:
    """The (k, k') ordered half of the number-conserving current."""
    uu = np.einsum(
        "rs,mrq,qt->mst", u_columns(k, kappa).conj(), BILINEAR, u_columns(kp, kappa)
    )
    vv = np.einsum(
        "rs,mrq,qt->mst", v_columns(kp, kappa).conj(), BILINEAR, v_columns(k, kappa)
    )
    phase = np.conj(plane_phase(k, x, kappa)) * plane_phase(kp, x, kappa)
    # the antiparticle bilinear carries creator index t and annihilator s
    return 0.5 * phase * (
        np.einsum("mst,stil->mil", uu, _EE) - np.einsum("mst,tsil->mil", vv, _PP)
    )


def j_diag_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Number-conserving part of the electric current, shape (4, 16, 16)."""
    return _diag_half(k, kp, x, kappa) + _diag_half(kp, k, x, kappa)


def _off_parts(k, kp, x, kappa: float):
    """Pair-creating and pair-annihilating stacks for the (k, k') order."""
    uv = np.einsum(
        "rs,mrq,qt->mst", u_columns(k, kappa).conj(), BILINEAR, v_columns(kp, kappa)
    )
    vu = np.einsum(
        "rs,mrq,qt->mst", v_columns(k, kappa).conj(), BILINEAR, u_columns(kp, kappa)
    )
    e_k = plane_phase(k, x, kappa)
    e_kp = plane_phase(kp, x, kappa)
    creation = 0.5 * np.conj(e_k * e_kp) * np.einsum("mst,stil->mil", uv, _CC)
    annihilation = 0.5 * e_k * e_kp * np.einsum("mst,stil->mil", vu, _AA)
    return creation, annihilation


def j_off_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Pair part of the electric current, changes mode number by two."""
    c1, a1 = _off_parts(k, kp, x, kappa)
    c2, a2 = _off_parts(kp, k, x, kappa)
    return c1 + a1 + c2 + a2


def j_diag_divergence(k, kp, x, kappa: float) -> np.ndarray:
    """i d_mu J^mu for the number-conserving part, evaluated analytically.

    Each ordered half carries the phase exp(i (k - k')_nu x^nu), so the
    divergence contracts the stack with minus that exponent.  Vanishes up
    to roundoff.
    """
    p = _cov(k, kappa) - _cov(kp, kappa)
    return -np.einsum("m,mil->il", p, _diag_half(k, kp, x, kappa)) + np.einsum(
        "m,mil->il", p, _diag_half(kp, k, x, kappa)
    )


def j_off_divergence(k, kp, x, kappa: float) -> np.ndarray:
    """i d_mu J^mu for the pair part, evaluated analytically.

    Creation terms carry exp(+i (k + k')_nu x^nu) and annihilation terms
    the opposite sign, for both orderings of (k, k').
    """
    s = _cov(k, kappa) + _cov(kp, kappa)
    c1, a1 = _off_parts(k, kp, x, kappa)
    c2, a2 = _off_parts(kp, k, x, kappa)
    return -np.einsum("m,mil->il", s, c1 + c2) + np.einsum("m,mil->il", s, a1 + a2)


def j_diag_symmetry_residual(k, kp, x, kappa: float) -> float:
    """Operator norm of (k - k')_mu contracted into the diagonal stack."""
    stack = j_diag_stack(k, kp, x, kappa)
    lhs = np.einsum("m,mil->il", _cov(k, kappa) - _cov(kp, kappa), stack)
    return float(np.linalg.norm(lhs, 2))


def j_off_symmetry_residual(k, kp, x, kappa: float) -> float:
    """Operator norm of (k + k')_mu contracted into the pair stack."""
    stack = j_off_stack(k, kp, x, kappa)
    lhs = np.einsum("m,mil->il", _cov(k, kappa) + _cov(kp, kappa), stack)
    return float(np.linalg.norm(lhs, 2))


# sample points for the charge check, scaled by 1/kappa at call time
_CHARGE_POINTS = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.3, -0.7, 0.4, 0.1],
        [1.1, 0.2, -0.5, 0.9],
        [-0.6, 1.3, 0.8, -0.4],
        [2.0, -1.0, 1.5, 0.7],
    ]
)


def integrated_charge_check(k, kappa: float, consts: PhysicalConstants | None = None) -> float:
    """Worst deviation of diagonal J^0_{k,k} elements from the charge pattern.

    The x-independent part of J^0 at equal wave vectors is the signed mode
    number n1 + n2 - n3 - n4; the pair part never contributes on the
    diagonal.  Samples a few spacetime points and returns the largest
    deviation over the 16 occupation basis states.
    """
    consts = consts if consts is not None else PhysicalConstants()
    target = np.diag(charge_operator(consts)).real / consts.q
    worst = 0.0
    for x in _CHARGE_POINTS / kappa:
        j0 = j_current(0, k, k, x, kappa)
        worst = max(worst, float(np.max(np.abs(np.diag(j0) - target))))
    return worst
