"""Bilinear current operators for a pair of wave vectors.

The r-current contracts the adjoint field with the field through a gamma
matrix.  The electric current is its charge-conjugation odd part; expanded
it is one half the normal-minus-antinormal ordered combination, and it
splits into a number-conserving part (particle and antiparticle bilinears)
and a pair creation/annihilation part.

Spatial dependence enters only through plane-wave phases, so divergences
are evaluated analytically: each derivative pulls down the covariant phase
exponent of its term.  Functions with a `_stack` suffix return all four
Lorentz components at once as a dense (..., 4, 16, 16) array.

Every current is a pair correlation of two fields, so it keeps each
fermion-parity sector of the Fock basis: internally it is held in the
graded layout of fields, (..., 4, 2, 8, 8), block 0 on the eight even
states and block 1 on the eight odd ones.  The public stacks are those
blocks scattered back into dense (..., 4, 16, 16) arrays by fields._dense.

Gamma matrices act as gathers along the component axis, with the (index,
phase) tables of gamma; the field bilinears then reduce to one matrix
product per sample and block.

k, k' of shape (..., 3) and x of shape (..., 4) broadcast over their
leading axes, as in fields; residuals give one value per sample, a plain
float when no argument has leading axes.
"""

import numpy as np

from .constants import PhysicalConstants
from .fields import (
    _EVEN, _HALF, _MINUS_SUPPORT, _PLUS_SUPPORT, _SECTORS, _adjoint, _blocks, _check_grading,
    _dense, _k0, _norm, _per_sample, _scattered_psi, plane_phase,
)
from .fock import ANNIHILATORS, CREATORS, charge_operator, hamiltonian
# unused here, but perfbench/tracer.py wraps these four names at this call site
from .fields import psi_adjoint_matrices, psi_matrices  # noqa: F401
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
# the graded blocks drop every entry between the parity sectors of an even operator
_check_grading(
    (_PLUS_SUPPORT, _MINUS_SUPPORT),
    (_EE, _PP, _CC, _AA, charge_operator(PhysicalConstants()),
     hamiltonian(np.zeros(3), PhysicalConstants())),
)
# the tables as graded blocks, (s, t, 2, 8, 8) each
_EE, _PP, _CC, _AA = (_blocks(table, _EVEN) for table in (_EE, _PP, _CC, _AA))


def _cov(k: np.ndarray, kappa: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    return covariant_components(_k0(k, kappa), k)


def _contract(p: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """p_mu J^mu for a covariant (..., 4) vector and a graded (..., 4, 2, 8, 8) stack."""
    return np.einsum("...m,...msil->...sil", p, stack)


def _gather_rows(index: np.ndarray, phase: np.ndarray):
    """(rows, phases) that lay out gamma^mu b, for odd graded b, as (2, 32, mu * 8) blocks.

    Row (s, r, j, mu) of the gather is row j of block 1 - s of component
    index[mu, r] of b, with b's components, blocks and rows stacked by
    rows, times phase[mu, r]: block s of gamma^mu b is what block s of a
    multiplies in the product of two odd operators.
    """
    s, r, j, mu = np.ix_(range(2), range(4), range(_HALF), range(4))
    rows = (index[mu, r] * 2 + 1 - s) * _HALF + j
    phases = np.broadcast_to(phase[mu, r], rows.shape).reshape(-1, 1)
    return rows.ravel(), phases


# gamma^mu and its transpose, for the two orderings of the current
_GAMMA_ROWS = _gather_rows(GAMMA_INDEX, GAMMA_PHASE)
_GAMMA_T_ROWS = _gather_rows(GAMMA_T_INDEX, GAMMA_T_PHASE)


def _field_bilinear(a: np.ndarray, gather, b: np.ndarray) -> np.ndarray:
    """sum_{r q} a_r gamma^mu_{r q} b_q for odd graded a, b: even (..., mu, 2, 8, 8).

    gamma meets b first, as the gather of _gather_rows, which lays out
    block s of (gamma^mu b)_r with rows (r, j) and columns (mu, l).  Against
    block s of the components of a side by side, (8, 32), the sum over r
    and the matrix products are then one (8 x 32) @ (32 x mu * 8) product
    per sample and block.
    """
    rows, phases = gather
    n = 4 * _HALF
    gb = np.take(b.reshape(b.shape[:-4] + (2 * n, _HALF)), rows, axis=-2)
    gb *= phases  # in place: a second temporary of this size costs more than the product
    side = np.moveaxis(a, -4, -2).reshape(a.shape[:-4] + (2, _HALF, n))
    out = side @ gb.reshape(gb.shape[:-2] + (2, n, n))
    return np.moveaxis(out.reshape(out.shape[:-1] + (4, _HALF)), -2, -4)


def r_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """sum_{r r'} psi_a(r, k) gamma^mu_{r r'} psi(r', k') at x, shape (..., 4, 16, 16)."""
    p, pp = _scattered_psi(k, x, kappa), _scattered_psi(kp, x, kappa)
    return _dense(_r_current(_adjoint(p), pp), _EVEN)


def _r_current(adjoint: np.ndarray, field: np.ndarray) -> np.ndarray:
    """Graded r_current_stack from graded psi_a(k, x) and psi(k', x)."""
    return _field_bilinear(adjoint, _GAMMA_ROWS, field)


def j_current_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Electric current, expanded form, shape (..., 4, 16, 16).

    One half of the adjoint-field ordering minus one half of the reversed
    ordering with transposed gamma indices.  Dimensionless: the charge and
    momentum-space prefactors are applied by the expectation layer.
    """
    p, pp = _scattered_psi(k, x, kappa), _scattered_psi(kp, x, kappa)
    pap = _adjoint(pp)
    return _dense(_j_current(_r_current(_adjoint(p), pp), p, pap), _EVEN)


def _j_current(r: np.ndarray, field: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """Graded j_current_stack from graded r(k, k'), psi(k, x) and psi_a(k', x)."""
    return 0.5 * (r - _field_bilinear(field, _GAMMA_T_ROWS, adjoint))


def j_current_conjugated_stack(k, kp, x, kappa: float, chat: np.ndarray) -> np.ndarray:
    """Electric current as the conjugation-odd part of the r-current.

    chat must be the unitary Fock-space conjugation for this kappa; the
    result then agrees with j_current_stack as an exact matrix identity.
    """
    r = r_current_stack(k, kp, x, kappa)
    return 0.5 * (r - chat @ r @ chat.conj().T)


def _diag_half(k, kp, x, kappa: float) -> np.ndarray:
    """The (k, k') ordered half of the number-conserving current, graded (..., 4, 2, 8, 8)."""
    uu = spinor_bilinear(u_columns(k, kappa), u_columns(kp, kappa))
    vv = spinor_bilinear(v_columns(kp, kappa), v_columns(k, kappa))
    phase = np.conj(plane_phase(k, x, kappa)) * plane_phase(kp, x, kappa)
    # the antiparticle bilinear carries creator index t and annihilator s
    modes = np.tensordot(uu, _EE, axes=2) - np.tensordot(vv.swapaxes(-1, -2), _PP, axes=2)
    return 0.5 * phase[..., None, None, None, None] * modes


def _diag(k, kp, x, kappa: float) -> np.ndarray:
    """Graded j_diag_stack."""
    return _diag_half(k, kp, x, kappa) + _diag_half(kp, k, x, kappa)


def j_diag_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Number-conserving part of the electric current, shape (..., 4, 16, 16)."""
    return _dense(_diag(k, kp, x, kappa), _EVEN)


def _off_parts(k, kp, x, kappa: float):
    """Pair-creating and pair-annihilating graded stacks for the (k, k') order."""
    uv = spinor_bilinear(u_columns(k, kappa), v_columns(kp, kappa))
    vu = spinor_bilinear(v_columns(k, kappa), u_columns(kp, kappa))
    e = (plane_phase(k, x, kappa) * plane_phase(kp, x, kappa))[..., None, None, None, None]
    creation = 0.5 * np.conj(e) * np.tensordot(uv, _CC, axes=2)
    annihilation = 0.5 * e * np.tensordot(vu, _AA, axes=2)
    return creation, annihilation


def _off(k, kp, x, kappa: float) -> np.ndarray:
    """Graded j_off_stack."""
    c1, a1 = _off_parts(k, kp, x, kappa)
    c2, a2 = _off_parts(kp, k, x, kappa)
    return c1 + a1 + c2 + a2


def j_off_stack(k, kp, x, kappa: float) -> np.ndarray:
    """Pair part of the electric current, changes mode number by two."""
    return _dense(_off(k, kp, x, kappa), _EVEN)


def j_diag_divergence(k, kp, x, kappa: float) -> np.ndarray:
    """i d_mu J^mu for the number-conserving part, evaluated analytically.

    Each ordered half carries the phase exp(i (k - k')_nu x^nu), so the
    divergence contracts the stack with minus that exponent.  Vanishes up
    to roundoff.
    """
    halves = _diag_half(k, kp, x, kappa), _diag_half(kp, k, x, kappa)
    return _dense(_diag_divergence(_cov(k, kappa) - _cov(kp, kappa), *halves), _EVEN)


def _diag_divergence(p, first, second) -> np.ndarray:
    """Graded j_diag_divergence from the (k, k') and (k', k) halves."""
    return _contract(p, second) - _contract(p, first)


def j_off_divergence(k, kp, x, kappa: float) -> np.ndarray:
    """i d_mu J^mu for the pair part, evaluated analytically.

    Creation terms carry exp(+i (k + k')_nu x^nu) and annihilation terms
    the opposite sign, for both orderings of (k, k').
    """
    parts = _off_parts(k, kp, x, kappa) + _off_parts(kp, k, x, kappa)
    return _dense(_off_divergence(_cov(k, kappa) + _cov(kp, kappa), *parts), _EVEN)


def _off_divergence(s, c1, a1, c2, a2) -> np.ndarray:
    """Graded j_off_divergence from the _off_parts of (k, k'), then of (k', k)."""
    return _contract(s, a1 + a2) - _contract(s, c1 + c2)


def _contraction_norm(p: np.ndarray, stack: np.ndarray):
    """The Frobenius norm of p_mu stack^mu for a graded stack, one value per sample."""
    return _per_sample(_norm(_contract(p, stack)))


def j_diag_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k - k')_mu J_diag^mu."""
    return _contraction_norm(_cov(k, kappa) - _cov(kp, kappa), _diag(k, kp, x, kappa))


def j_off_symmetry_residual(k, kp, x, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of (k + k')_mu J_off^mu."""
    return _contraction_norm(_cov(k, kappa) + _cov(kp, kappa), _off(k, kp, x, kappa))


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
    target = (np.diag(charge_operator(consts)).real / consts.q)[_SECTORS]
    deviations = [
        np.abs(_j0_diagonal(k, x, kappa) - target).max(axis=(-2, -1))
        for x in _CHARGE_POINTS / kappa
    ]
    return _per_sample(np.max(deviations, axis=0))


def _j0_diagonal(k, x, kappa: float) -> np.ndarray:
    """The diagonal of J^0_{k,k} at x by sector, (..., 2, 8) as fields._SECTORS, without J^0.

    gamma^0 is diagonal, and diag(A B)_i = sum_j A_ij B_ji, so each
    ordering of the current needs only elementwise products: of block s
    of A with block 1 - s of B, both fields being odd.  One psi serves
    both orderings.
    """
    field = _scattered_psi(k, x, kappa)
    adjoint = _adjoint(field)

    def ordered(a, b):
        diagonal = np.einsum("...rsij,...rsji->...rsi", a, b[..., ::-1, :, :])
        return (GAMMA0_SIGN[:, None, None] * diagonal).sum(axis=-3)

    return 0.5 * (ordered(adjoint, field) - ordered(field, adjoint))
