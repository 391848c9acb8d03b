"""Field operators per wave vector on the 16-dimensional mode space.

phi_plus(s) multiplies the mode annihilator by exp(-i k.x), phi_minus(s)
the creator by exp(+i k.x), with k.x = k0 x^0 - k.x_vec.  The Dirac field
combines particle modes through u spinors and antiparticle modes through
v spinors:

    psi_r = sum_{s=1,2} u_r(s, k) phi_plus(s) + sum_{s=3,4} v_r(s, k) phi_minus(s)

All derivatives are analytic: each factor contributes -i k_mu or +i k_mu.

The mode operators are signed permutations (see fock), and the supports
of a_1, a_2, a_3^dagger and a_4^dagger are disjoint, so psi is assembled
by scattering u e and v conj(e) onto their 32 fixed nonzero entries; the
dense stacks fock.ANNIHILATORS and CREATORS are only the definition.
Gamma matrices act on the component axis as gathers with the (index,
phase) tables of gamma; no dense 4 x 4 table is multiplied here.

Every mode operator flips one occupation bit, so psi maps the eight
even-occupation basis states onto the eight odd ones and back, and a
product of two fields keeps each parity sector (fermion-parity
superselection).  Internally every operator is held in this graded
layout: (..., 2, 8, 8) blocks per Fock operator, block 0 with the even
states as rows, block 1 with the odd ones, each against the columns of
the other sector for an odd operator (psi, psi_a, phi) and of the same
sector for an even one (currents, H, Q).  The product of two odd
operators is one batched product against the other's sector-flipped
blocks, a quarter of the dense multiply-adds.  Public stacks stay dense:
_dense scatters the blocks back.

Every operator function here and in currents takes wave vectors k of
shape (..., 3) and spacetime points x of shape (..., 4) whose leading
axes broadcast, as spinors.u_columns does.  Operator stacks come back as
(..., 4, 16, 16).  Residuals reduce over operator indices only and give
one value per sample, a plain float when no argument has leading axes.
"""

import numpy as np

from .constants import PhysicalConstants
from .fock import (
    ANNIHILATOR_INDEX,
    ANNIHILATOR_SIGN,
    CREATOR_INDEX,
    CREATOR_SIGN,
    DIM,
    N_MODES,
    basis_state,
    hamiltonian,
    mode_annihilator,
    mode_creator,
    vacuum_state,
)
from .gamma import (
    CONJUGATION_INDEX,
    CONJUGATION_PHASE,
    GAMMA0_SIGN,
    GAMMA_INDEX,
    GAMMA_PHASE,
    GAMMA_T_INDEX,
    GAMMA_T_PHASE,
    covariant_components,
)
from .spinors import u_columns, v_columns


class NoSolutionError(RuntimeError):
    """The Fock-space conjugation does not intertwine the fields at the sampled wave vectors."""


class AmbiguousSolutionError(RuntimeError):
    """The intertwining system leaves more than a phase free (raised by the tests' sector solve)."""


def _k0(k: np.ndarray, kappa: float) -> np.ndarray:
    """On-shell frequency sqrt(kappa^2 + |k|^2) over the leading axes of k."""
    return np.sqrt(kappa**2 + np.einsum("...i,...i->...", k, k))


def _per_sample(values):
    """A plain float for an unbatched call, else the array of per-sample values."""
    return float(values) if np.ndim(values) == 0 else values


# basis states by occupation parity: row 0 the eight even states, row 1 the eight odd ones
_HALF = DIM // 2
_PARITY = np.array([bin(n).count("1") % 2 for n in range(DIM)])
_SECTORS = np.array([np.flatnonzero(_PARITY == parity) for parity in (0, 1)])
# position of each basis state within its sector
_POSITION = np.zeros(DIM, dtype=int)
_POSITION[_SECTORS] = np.arange(_HALF)
# dense (rows, cols) of the graded blocks (2, 8, 8) of an even and of an odd operator
_EVEN = (_SECTORS[:, :, None], _SECTORS[:, None, :])
_ODD = (_SECTORS[:, :, None], _SECTORS[::-1, None, :])


def _blocks(dense: np.ndarray, entries) -> np.ndarray:
    """The graded blocks (..., 2, 8, 8) of a dense (..., 16, 16) operator of parity entries."""
    return dense[(..., *entries)]


def _dense(blocks: np.ndarray, entries) -> np.ndarray:
    """The dense (..., 16, 16) operator of parity entries from its graded blocks."""
    out = np.zeros(blocks.shape[:-3] + (DIM, DIM), dtype=blocks.dtype)
    out[(..., *entries)] = blocks
    return out


def _norm(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm, an upper bound on the operator norm, of graded (..., 2, 8, 8) blocks.

    The two blocks are stacked by rows, (16, 8), and hold every entry of
    the dense operator that can be nonzero.
    """
    return np.linalg.norm(stack.reshape(stack.shape[:-3] + (DIM, _HALF)), axis=(-2, -1))


def _worst_norm(stack: np.ndarray):
    """Largest _norm over the component axis of a graded (..., 4, 2, 8, 8) stack.

    verify builds psi, psi_a and the derivative factors once per batch and
    hands the same stacks to both Dirac checks and to the other readers.
    """
    return _per_sample(_norm(stack).max(axis=-1))


def plane_phase(k: np.ndarray, x: np.ndarray, kappa: float):
    """exp(-i k.x) for on-shell k, with k.x = k0 x^0 - k_vec . x_vec."""
    k = np.asarray(k, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.exp(-1.0j * (_k0(k, kappa) * x[..., 0] - np.einsum("...i,...i->...", k, x[..., 1:])))


def _phi(s: int, k, x, kappa: float, plus: bool = True) -> np.ndarray:
    """phi_plus(s), or phi_minus(s) when plus is False, as graded (..., 2, 8, 8) blocks."""
    e = plane_phase(k, x, kappa)
    if plus:
        return e[..., None, None, None] * _blocks(mode_annihilator(s), _ODD)
    return np.conj(e)[..., None, None, None] * _blocks(mode_creator(s), _ODD)


def phi_plus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Annihilation part of mode s at spacetime point x = (x0, x1, x2, x3)."""
    return _dense(_phi(s, k, x, kappa), _ODD)


def phi_minus(s: int, k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """Creation part of mode s, the adjoint of phi_plus(s)."""
    return _dense(_phi(s, k, x, kappa, plus=False), _ODD)


def _support(index, sign):
    """(rows, cols, signs), each (mode, 8): the nonzero entries of a signed gather table."""
    rows = np.array([np.flatnonzero(row) for row in sign])
    return rows, np.take_along_axis(index, rows, -1), np.take_along_axis(sign, rows, -1)


# entries of the operators in phi_plus of modes (1, 2) and phi_minus of modes (3, 4)
_PLUS_SUPPORT = _support(ANNIHILATOR_INDEX[:2], ANNIHILATOR_SIGN[:2])
_MINUS_SUPPORT = _support(CREATOR_INDEX[2:], CREATOR_SIGN[2:])


def _check_grading(supports, evens):
    """ImportError unless the graded layout holds every entry of these operators.

    Each entry (row, col) of the field supports must flip exactly one
    occupation bit, and no even table (..., 16, 16) may have an entry
    between the two sectors; the graded blocks would drop it silently.
    """
    for rows, cols, _ in supports:
        if any(bin(r ^ c).count("1") != 1 for r, c in zip(rows.flat, cols.flat)):
            raise ImportError("a field operator entry does not flip exactly one occupation bit")
    for table in evens:
        if np.any(_blocks(table, _ODD)):
            raise ImportError("an even operator table has an entry between the parity sectors")


def _scattered_psi(k, x, kappa, plus_sign: float = 1.0):
    """plus_sign times the u-mode half of psi plus its v-mode half, graded (..., 4, 2, 8, 8).

    The halves have disjoint supports, so every entry is one u e or
    v conj(e) term times the sign of the operator entry it lands on.
    """
    k = np.asarray(k, dtype=float)
    e = plane_phase(k, x, kappa)[..., None, None]
    u, v = plus_sign * u_columns(k, kappa) * e, v_columns(k, kappa) * np.conj(e)
    out = np.zeros(u.shape[:-1] + (2, _HALF, _HALF), dtype=np.complex128)
    # component r of mode s lands on the entries of that mode's operator
    for c, (rows, cols, signs) in ((u, _PLUS_SUPPORT), (v, _MINUS_SUPPORT)):
        out[..., _PARITY[rows], _POSITION[rows], _POSITION[cols]] = c[..., None] * signs
    return out


def psi_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """All four Dirac field components as a (..., 4, 16, 16) array."""
    return _dense(_scattered_psi(k, x, kappa), _ODD)


def psi_adjoint_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """The adjoint field psi_a(r) = sum_r' psi(r')^dagger gamma^0_{r' r}."""
    return _dense(_adjoint(_scattered_psi(k, x, kappa)), _ODD)


def _psi_pair(k, x, kappa: float):
    """(psi_matrices, psi_adjoint_matrices) at (k, x) from one psi."""
    p = _scattered_psi(k, x, kappa)
    return _dense(p, _ODD), _dense(_adjoint(p), _ODD)


def _dagger(stack: np.ndarray) -> np.ndarray:
    """The adjoint of each odd operator in a graded stack: block s is block 1 - s, daggered."""
    return stack[..., ::-1, :, :].conj().swapaxes(-1, -2)


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """gamma^0_{r r} stack[r]^dagger per component r of a graded odd (..., 4, 2, 8, 8) stack."""
    return GAMMA0_SIGN[:, None, None, None] * _dagger(stack)


def _gamma_sum(index, phase, stack, weights):
    """sum_mu weights_mu (gamma^mu A)_r = sum_mu weights[..., mu] phase[mu, r] A[index[mu, r]].

    A is a graded (..., 4, 2, 8, 8) stack and weights a (..., mu) vector.
    Each gamma^mu acts on the component axis as the gather (index, phase)
    of gamma; the terms are added in the order mu = 0, 1, 2, 3, so only
    one gathered term is alive beside the sum.
    """

    def term(mu):
        gathered = weights[..., mu, None, None, None, None] * stack[..., index[mu], :, :, :]
        gathered *= phase[mu, :, None, None, None]
        return gathered

    out = term(0)
    for mu in (1, 2, 3):
        out += term(mu)
    return out


def _derivative_factors(k, x, kappa):
    """(i k_mu, minus-less-plus psi): d_mu psi is i k_mu times the second, per component.

    Mode phases give -/+ i k_mu, so the derivative of psi along mu is the
    covariant i k_mu times the scattered psi with its u-mode half negated.
    """
    k = np.asarray(k, dtype=float)
    return 1.0j * covariant_components(_k0(k, kappa), k), _scattered_psi(k, x, kappa, -1.0)


def dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of i gamma^mu d_mu psi - kappa psi.

    Worst component.  gamma^mu d_mu psi is gathered one mu at a time
    straight from the minus-less-plus psi, weighted by i k_mu; no
    (..., mu, 4, 16, 16) derivative stack is formed.
    """
    return _dirac_norm(*_derivative_factors(k, x, kappa), _scattered_psi(k, x, kappa), kappa)


def _dirac_norm(ik, minus_less_plus, p, kappa: float):
    """dirac_residual from the derivative factors and graded psi."""
    slash = _gamma_sum(GAMMA_INDEX, GAMMA_PHASE, minus_less_plus, ik)
    return _worst_norm(1.0j * slash - kappa * p)


def adjoint_dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of -i d_mu psi_a gamma^mu - kappa psi_a.

    Worst component.  d_mu psi_a is conj(i k_mu) times the adjoint of the
    minus-less-plus psi; gamma^mu contracts it from the right as a column
    gather, one mu at a time, as in dirac_residual.
    """
    ik, minus_less_plus = _derivative_factors(k, x, kappa)
    pa = _adjoint(_scattered_psi(k, x, kappa))
    return _adjoint_dirac_norm(ik, minus_less_plus, pa, kappa)


def _adjoint_dirac_norm(ik, minus_less_plus, pa, kappa: float):
    """adjoint_dirac_residual from the derivative factors and graded psi_a."""
    slash = _gamma_sum(GAMMA_T_INDEX, GAMMA_T_PHASE, _adjoint(minus_less_plus), ik.conj())
    return _worst_norm(-1.0j * slash - kappa * pa)


def inverse_relation_residual(s: int, k: np.ndarray, x: np.ndarray, kappa: float):
    """Frobenius norm, an upper bound on the operator norm, of projecting psi back onto one mode.

    sum_r conj(u_r(s, -k)) psi_r = (kappa / k0) phi_plus(s)   for s = 1, 2
    sum_r conj(v_r(s, -k)) psi_r = (kappa / k0) phi_minus(s)  for s = 3, 4
    """
    return _inverse_norm(s, k, x, _scattered_psi(k, x, kappa), kappa)


def _inverse_norm(s: int, k, x, p, kappa: float):
    """inverse_relation_residual from graded psi(k, x)."""
    k = np.asarray(k, dtype=float)
    ratio = (kappa / _k0(k, kappa))[..., None, None, None]
    if s in (1, 2):
        w = u_columns(-k, kappa)[..., s - 1]
        target = ratio * _phi(s, k, x, kappa)
    elif s in (3, 4):
        w = v_columns(-k, kappa)[..., s - 3]
        target = ratio * _phi(s, k, x, kappa, plus=False)
    else:
        raise ValueError(f"mode index must be 1..4, got {s}")
    lhs = np.einsum("...r,...rsij->...sij", w.conj(), p)
    return _per_sample(_norm(lhs - target))


def heisenberg_residual(s: int, k: np.ndarray, x: np.ndarray, consts: PhysicalConstants):
    """Frobenius norm, an upper bound on the operator norm, of the Heisenberg residual.

    i hbar c d_0 phi_plus(s) - [phi_plus(s), H_k]

    H_k is even and phi_plus odd, so f H is f's blocks against H's flipped ones.
    """
    k = np.asarray(k, dtype=float)
    k0 = _k0(k, consts.kappa)[..., None, None, None]
    f = _phi(s, k, x, consts.kappa)
    h = _blocks(hamiltonian(k, consts), _EVEN)
    lhs = 1.0j * consts.hbar * consts.c * (-1.0j * k0) * f
    rhs = f @ h[..., ::-1, :, :] - h @ f
    return _per_sample(_norm(lhs - rhs))


def mixed_car_residual(k, kp, x, y, kappa: float):
    """Field anticommutators across two wave vectors and two points.

    {psi_r(k, x), psi_r'(k', y)} must vanish for every index pair, and the
    dagger version must equal the scalar overlap

        sum_{s<=2} conj(u_r'(s, k')) u_r(s, k) e_k(x) conj(e_k'(y))
      + sum_{s>=3} conj(v_r'(s, k')) v_r(s, k) conj(e_k(x)) e_k'(y)

    times the identity; the delta_{r,r'} shortcut holds only through this
    expression.  Returns the worst matrix entry over all component pairs.
    """
    p, pp = _scattered_psi(k, x, kappa), _scattered_psi(kp, y, kappa)
    return _mixed_car(k, kp, x, y, p, pp, kappa)


def _mixed_car(k, kp, x, y, p, pp, kappa: float):
    """mixed_car_residual from graded psi(k, x) and psi(k', y)."""
    every = (-5, -4, -3, -2, -1)
    zero = np.abs(_anticommutators(p, pp)).max(axis=every)
    ek = plane_phase(k, x, kappa)[..., None, None]
    ekp = plane_phase(kp, y, kappa)[..., None, None]
    uu = u_columns(k, kappa) @ u_columns(kp, kappa).conj().swapaxes(-1, -2)
    vv = v_columns(k, kappa) @ v_columns(kp, kappa).conj().swapaxes(-1, -2)
    scalar = ek * np.conj(ekp) * uu + np.conj(ek) * ekp * vv
    anti = _anticommutators(p, _dagger(pp))
    # the scalar of pair (r, r') comes off the diagonal of both blocks of pair (r, r')
    diagonal = np.arange(_HALF)
    anti[..., :, :, diagonal, :, diagonal] -= scalar[..., None, :, :]
    return _per_sample(np.maximum(zero, np.abs(anti).max(axis=every)))


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_r @ b_r' for each component pair of two odd graded stacks, as (..., 2, r, 8, r', 8).

    Block s of a_r b_r' is a_r[s] @ b_r'[1 - s]: per block one (32 x 8) @
    (8 x 32) product, the components of a stacked by rows against those
    of b side by side.
    """
    rows = a.swapaxes(-4, -3).reshape(a.shape[:-4] + (2, 4 * _HALF, _HALF))
    cols = np.moveaxis(b[..., ::-1, :, :], -4, -2)
    cols = cols.reshape(b.shape[:-4] + (2, _HALF, 4 * _HALF))
    prods = rows @ cols
    return prods.reshape(prods.shape[:-2] + (4, _HALF, 4, _HALF))


def _anticommutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a_r, b_r'} for each component pair of two odd graded stacks, as (..., 2, r, 8, r', 8)."""
    out = _pair_products(a, b)
    flipped = a[..., ::-1, :, :]
    # b_r' a_r for every r, laid out (2, r, i, l): one r' at a time, summed in place
    for rp in range(4):
        out[..., rp, :] += (b[..., rp, None, :, :, :] @ flipped).swapaxes(-4, -3)
    return out


def conjugation_mix(stack: np.ndarray) -> np.ndarray:
    """sum_p C_{r p} stack[p] over the component axis of a (..., 4, 16, 16) stack, as a gather."""
    return CONJUGATION_PHASE[:, None, None] * stack[..., CONJUGATION_INDEX, :, :]


def _conjugation_relations(ks: np.ndarray, kappa: float):
    """(A, B), each (..., 4, 2, 16, 16), with C_hat A = B C_hat: psi, then psi_a, at x = 0."""
    p, pa = _psi_pair(ks, np.zeros(4), kappa)
    mixed = [conjugation_mix(pa), -conjugation_mix(p)]
    return np.stack([p, pa], axis=-3), np.stack(mixed, axis=-3)


# largest intertwining residual, an absolute matrix norm, that C_hat may leave
INTERTWINING_TOL = 1e-8


def _intertwining_residual(chat: np.ndarray, ks: np.ndarray, kappa: float) -> float:
    """Worst Frobenius norm, an upper bound on the operator norm, of both relations over ks."""
    a, b = _conjugation_relations(ks, kappa)
    return float(np.max(np.linalg.norm(chat @ a - b @ chat, axis=(-2, -1))))


# mode s: (pi(s), eps_s) with C_hat a_s C_hat^dagger = eps_s a_pi(s)
_MODE_MAP = {1: (4, -1.0), 2: (3, 1.0), 3: (2, 1.0), 4: (1, -1.0)}


def _mode_map_conjugation() -> np.ndarray:
    """C_hat as a read-only table: basis state to the mapped creators, same order, on the vacuum."""
    chat = np.zeros((DIM, DIM), dtype=np.complex128)
    for n in range(DIM):
        modes = [s for s in range(1, N_MODES + 1) if n >> (s - 1) & 1]
        image = vacuum_state()
        for s in modes:
            p, eps = _MODE_MAP[s]
            image = eps * CREATOR_SIGN[p - 1] * image[CREATOR_INDEX[p - 1]]
        chat += np.outer(image, basis_state(modes).conj())
    chat.setflags(write=False)
    return chat


_C_HAT = _mode_map_conjugation()


def fock_charge_conjugation(
    kappa: float, sample_ks: np.ndarray, validation_ks: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """The unitary Fock-space conjugation C_hat, checked at the given wave vectors.

    C_hat swaps particle and antiparticle modes and fixes the vacuum:
    C_hat a_s C_hat^dagger = eps_s a_pi(s) with pi = (1 4)(2 3),
    eps_1 = eps_4 = -1, eps_2 = eps_3 = +1, and C_hat |0> = |0>.  Modes 1, 2
    carry charge +q and modes 3, 4 carry -q, so C_hat Q C_hat^dagger = -Q.
    The pairing and its signs are those of the spinor conjugation,
    C gamma^0T conj(u(1, k)) = -v(4, k) and C gamma^0T conj(u(2, k)) = v(3, k)
    at every k, so the field relations C_hat psi_r C_hat^dagger = (C psi_a)_r
    and C_hat psi_a_r C_hat^dagger = -(C psi)_r hold mode by mode.  They fix
    C_hat up to a phase, which the fixed vacuum sets.  C_hat is a signed
    permutation.

    Each call proves the map at the caller's wave vectors: the worst
    residual of both relations on sample_ks must be at most
    INTERTWINING_TOL, else NoSolutionError.  Returns a copy of C_hat and the
    worst residual on validation_ks, held out from that check (by default
    the last of three or more samples, else a fixed wave vector).  Raises
    ValueError for a non-finite kappa or wave vector, or fewer than two
    sample wave vectors.
    """
    if not np.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    sample_ks = np.atleast_2d(np.asarray(sample_ks, dtype=float))
    if len(sample_ks) < 2:
        raise ValueError("need at least two sample wave vectors")
    if validation_ks is None:
        if len(sample_ks) >= 3:
            sample_ks, validation_ks = sample_ks[:-1], sample_ks[-1:]
        else:
            validation_ks = kappa * np.array([[0.437, -0.912, 0.655]])
    validation_ks = np.atleast_2d(np.asarray(validation_ks, dtype=float))
    for name, ks in (("sample", sample_ks), ("validation", validation_ks)):
        if not np.isfinite(ks).all():
            raise ValueError(f"{name} wave vectors must be finite")
    residual = _intertwining_residual(_C_HAT, sample_ks, kappa)
    if residual > INTERTWINING_TOL:
        raise NoSolutionError(f"sample residual {residual:.3e} exceeds {INTERTWINING_TOL:.0e}")
    return _C_HAT.copy(), _intertwining_residual(_C_HAT, validation_ks, kappa)
