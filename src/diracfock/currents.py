"""Bilinear current operators for a pair of wave vectors.

The r-current contracts the adjoint field with the field through a gamma
matrix.  The electric current is its charge-conjugation odd part; expanded
it is one half the normal-minus-antinormal ordered combination, and it
splits into a number-conserving part (particle and antiparticle bilinears)
and a pair creation/annihilation part.

Spatial dependence enters only through plane-wave phases, so divergences
are evaluated analytically: each derivative pulls down the covariant phase
exponent of its term.  Functions with a `_stack` suffix return all four
Lorentz components at once as a (..., 4, 16, 16) array.

Gamma matrices act as gathers along the component axis, with the (index,
phase) tables of gamma; the field bilinears then reduce to one matrix
product per sample.

k, k' of shape (..., 3) and x of shape (..., 4) broadcast over their
leading axes, as in fields; residuals give one value per sample, a plain
float when no argument has leading axes.
"""

import numpy as np

from .constants import PhysicalConstants
from .fields import _k0, _norm, _per_sample, plane_phase, psi_adjoint_matrices, psi_matrices
from .fock import ANNIHILATORS, CREATORS, DIM, charge_operator
# unused here, but perfbench/tracer.py wraps these two names at this call site
from .fock import mode_annihilator, mode_creator  # noqa: F401
from .gamma import (
    GAMMA0_SIGN,
    GAMMA_INDEX,
    GAMMA_PHASE,
    GAMMA_T_INDEX,
    GAMMA_T_PHASE,
    covariant_components,
)
from .spinors import spinor_bilinear, u_columns, v_columns

# mode-pair product tables: EE = adag_s a_t over modes 1-2, PP the same over
# modes 3-4, CC / AA create and annihilate one particle-antiparticle pair
_EE = np.einsum("sij,tjl->stil", CREATORS[:2], ANNIHILATORS[:2])
_PP = np.einsum("sij,tjl->stil", CREATORS[2:], ANNIHILATORS[2:])
_CC = np.einsum("sij,tjl->stil", CREATORS[:2], CREATORS[2:])
_AA = np.einsum("sij,tjl->stil", ANNIHILATORS[2:], ANNIHILATORS[:2])


def _cov(k: np.ndarray, kappa: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return covariant_components(_k0(k, kappa), k)


def _contract(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """p_mu J^mu for a covariant (..., 4) vector and a (..., 4, 16, 16) stack."""
    return np.einsum("...m,...mil->...il", p, stack)


def _gather_rows(index: np.ndarray, phase: np.ndarray):
    """(rows, phases) that lay out gamma^mu b as a (64, mu * 16) matrix.

    Row (r, j, mu) of the gather is row index[mu, r] * 16 + j of b, with
    b's components stacked by rows, times phase[mu, r].
    """
    rows = index.T[:, None, :] * DIM + np.arange(DIM)[:, None]
    phases = np.broadcast_to(phase.T[:, None, :], rows.shape).reshape(-1, 1)
    return rows.ravel(), phases


# gamma^mu and its transpose, for the two orderings of the current
_GAMMA_ROWS = _gather_rows(GAMMA_INDEX, GAMMA_PHASE)
_GAMMA_T_ROWS = _gather_rows(GAMMA_T_INDEX, GAMMA_T_PHASE)


def _field_bilinear(a: np.ndarray, gather, b: np.ndarray) -> np.ndarray:
    """sum_{r q} a_r gamma^mu_{r q} b_q for all four mu, shape (..., mu, 16, 16).

    gamma meets b first, as the gather of _gather_rows, which lays out
    (gamma^mu b)_r with rows (r, j) and columns (mu, l).  Against the
    components of a side by side, (16, 64), the sum over r and the matrix
    products are then one (16 x 64) @ (64 x mu * 16) product per sample.
    """
    rows, phases = gather
    n = 4 * DIM
    gb = np.take(b.reshape(b.shape[:-3] + (n, DIM)), rows, axis=-2)
    gb *= phases  # in place: a second temporary of this size costs more than the product
    side = a.swapaxes(-3, -2).reshape(a.shape[:-3] + (DIM, n))
    out = side @ gb.reshape(gb.shape[:-2] + (n, n))
    return out.reshape(out.shape[:-1] + (4, DIM)).swapaxes(-3, -2)


def r_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """sum_{r r'} psi_a(r, k) gamma^mu_{r r'} psi(r', k') at x, shape (..., 4, 16, 16)."""
    return _r_current(psi_adjoint_matrices(k, x, kappa), psi_matrices(kp, x, kappa))


def _r_current(adjoint: np.ndarray, field: np.ndarray) -> np.ndarray:
    """r_current_stack from psi_a(k, x) and psi(k', x)."""
    return _field_bilinear(adjoint, _GAMMA_ROWS, field)


def j_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Electric current, expanded form, shape (..., 4, 16, 16).

    One half of the adjoint-field ordering minus one half of the reversed
    ordering with transposed gamma indices.  Dimensionless: the charge and
    momentum-space prefactors are applied by the expectation layer.
    """
    r = r_current_stack(k, kp, x, kappa)
    return _j_current(r, psi_matrices(k, x, kappa), psi_adjoint_matrices(kp, x, kappa))


def _j_current(r: np.ndarray, field: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """j_current_stack from r(k, k'), psi(k, x) and psi_a(k', x)."""
    return 0.5 * (r - _field_bilinear(field, _GAMMA_T_ROWS, adjoint))


def j_current_conjugated_stack(k, kp, x, kappa: float, chat: np.ndarray) -> np.ndarray:
    """Electric current as the conjugation-odd part of the r-current.

    chat must be the unitary Fock-space conjugation for this kappa; the
    result then agrees with j_current_stack as an exact matrix identity.
    """
    r = r_current_stack(k, kp, x, kappa)
    return 0.5 * (r - chat @ r @ chat.conj().T)


def _diag_half(k, kp, x, kappa: float) -> np.ndarray:
    """The (k, k') ordered half of the number-conserving current."""
    uu = spinor_bilinear(u_columns(k, kappa), u_columns(kp, kappa))
    vv = spinor_bilinear(v_columns(kp, kappa), v_columns(k, kappa))
    phase = np.conj(plane_phase(k, x, kappa)) * plane_phase(kp, x, kappa)
    # the antiparticle bilinear carries creator index t and annihilator s
    modes = np.tensordot(uu, _EE, axes=2) - np.tensordot(vv.swapaxes(-1, -2), _PP, axes=2)
    return 0.5 * phase[..., None, None, None] * modes


def j_diag_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Number-conserving part of the electric current, shape (..., 4, 16, 16)."""
    return _diag_half(k, kp, x, kappa) + _diag_half(kp, k, x, kappa)


def _off_parts(k, kp, x, kappa: float):
    """Pair-creating and pair-annihilating stacks for the (k, k') order."""
    uv = spinor_bilinear(u_columns(k, kappa), v_columns(kp, kappa))
    vu = spinor_bilinear(v_columns(k, kappa), u_columns(kp, kappa))
    e = (plane_phase(k, x, kappa) * plane_phase(kp, x, kappa))[..., None, None, None]
    creation = 0.5 * np.conj(e) * np.tensordot(uv, _CC, axes=2)
    annihilation = 0.5 * e * np.tensordot(vu, _AA, axes=2)
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
    halves = _diag_half(k, kp, x, kappa), _diag_half(kp, k, x, kappa)
    return _diag_divergence(_cov(k, kappa) - _cov(kp, kappa), *halves)


def _diag_divergence(p, first, second) -> np.ndarray:
    """j_diag_divergence from the (k, k') and (k', k) halves."""
    return _contract(p, second) - _contract(p, first)


def j_off_divergence(k, kp, x, kappa: float) -> np.ndarray:
    """i d_mu J^mu for the pair part, evaluated analytically.

    Creation terms carry exp(+i (k + k')_nu x^nu) and annihilation terms
    the opposite sign, for both orderings of (k, k').
    """
    parts = _off_parts(k, kp, x, kappa) + _off_parts(kp, k, x, kappa)
    return _off_divergence(_cov(k, kappa) + _cov(kp, kappa), *parts)


def _off_divergence(s, c1, a1, c2, a2) -> np.ndarray:
    """j_off_divergence from the _off_parts of (k, k'), then of (k', k)."""
    return _contract(s, a1 + a2) - _contract(s, c1 + c2)


def _contraction_norm(p: np.ndarray, stack: np.ndarray):
    """The Frobenius norm of p_mu stack^mu, one value per sample."""
    return _per_sample(_norm(_contract(p, stack)))


def j_diag_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k - k')_mu J_diag^mu."""
    return _contraction_norm(_cov(k, kappa) - _cov(kp, kappa), j_diag_stack(k, kp, x, kappa))


def j_off_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k + k')_mu J_off^mu."""
    return _contraction_norm(_cov(k, kappa) + _cov(kp, kappa), j_off_stack(k, kp, x, kappa))


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


def integrated_charge_check(k, kappa: float, consts: PhysicalConstants | None = None):
    """Worst deviation of diagonal J^0_{k,k} elements from the charge pattern.

    The x-independent part of J^0 at equal wave vectors is the signed mode
    number n1 + n2 - n3 - n4; the pair part never contributes on the
    diagonal.  Samples a few spacetime points, one at a time, and returns
    the largest deviation over them and the 16 occupation basis states,
    one value per k.
    """
    consts = consts if consts is not None else PhysicalConstants()
    target = np.diag(charge_operator(consts)).real / consts.q
    deviations = [
        np.abs(_j0_diagonal(k, x, kappa) - target).max(axis=-1) for x in _CHARGE_POINTS / kappa
    ]
    return _per_sample(np.max(deviations, axis=0))


def _j0_diagonal(k, x, kappa: float) -> np.ndarray:
    """The diagonal of J^0_{k,k} at x, shape (..., 16), without forming J^0.

    gamma^0 is diagonal, and diag(A B)_i = sum_j A_ij B_ji, so each
    ordering of the current needs only elementwise products.
    """
    adjoint, field = psi_adjoint_matrices(k, x, kappa), psi_matrices(k, x, kappa)

    def ordered(a, b):
        return (GAMMA0_SIGN[:, None] * np.einsum("...rij,...rji->...ri", a, b)).sum(axis=-2)

    return 0.5 * (ordered(adjoint, field) - ordered(field, adjoint))
