"""Four fermion modes on a 16-dimensional Fock space.

Each wave vector carries four anticommuting modes: two particle modes
(1, 2) and two antiparticle modes (3, 4).  The mode operators are built
by the Jordan-Wigner construction from Pauli matrices, with mode 1 the
innermost tensor factor and a sigma_3 string on all modes of lower index.
The vacuum is the state with every mode in the sigma_3 = +1 level.

So mode s is bit s - 1 of the basis index, and a_s is a signed
permutation: eight entries, +1 or -1, each pairing a state with that bit
clear with the state that has it set.  The dense stacks ANNIHILATORS and
CREATORS are the definition.  This module is the one source of the basis
tables every other module applies instead (occupations, bit slices, the
entries of each a_s, parity sectors), checked against ANNIHILATORS once.
So is lift(M), the Fock operator of a one-particle mode map M: the charge
conjugation CHARGE_CONJUGATION, translations and rotations all lift such maps.
"""

from functools import cache
from typing import Iterable

import numpy as np

from .constants import PhysicalConstants

N_MODES = 4
DIM = 16  # 2 ** N_MODES

_ID2 = np.eye(2, dtype=np.complex128)
_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
# sigma_plus annihilates the sigma_3 = +1 level's partner: it maps the
# occupied level (0, 1) onto the vacuum level (1, 0) and kills (1, 0).
_SIGMA_PLUS = 0.5 * (_SIGMA1 + 1.0j * _SIGMA2)
_SIGMA_MINUS = 0.5 * (_SIGMA1 - 1.0j * _SIGMA2)


def _check_mode(s: int):
    if s not in (1, 2, 3, 4):
        raise ValueError(f"mode index must be 1..4, got {s}")


def _kron_chain(factors) -> np.ndarray:
    """Tensor product with the first factor innermost (mode 1 fastest)."""
    out = np.eye(1, dtype=np.complex128)
    for f in factors:
        out = np.kron(f, out)
    return out


@cache
def mode_annihilator(s: int) -> np.ndarray:
    """16 x 16 annihilation operator of mode s, s in 1..4.

    Jordan-Wigner form: sigma_plus on mode s, sigma_3 on every mode with
    index below s, identity above.
    """
    _check_mode(s)
    factors = []
    for mode in range(1, N_MODES + 1):
        if mode < s:
            factors.append(_SIGMA3)
        elif mode == s:
            factors.append(_SIGMA_PLUS)
        else:
            factors.append(_ID2)
    return _kron_chain(factors)


@cache
def mode_creator(s: int) -> np.ndarray:
    """Adjoint of mode_annihilator(s)."""
    return mode_annihilator(s).conj().T


# (mode, 16, 16) stacks of the four annihilators and creators, mode order 1..4
ANNIHILATORS = np.stack([mode_annihilator(s) for s in range(1, N_MODES + 1)])
CREATORS = np.stack([mode_creator(s) for s in range(1, N_MODES + 1)])
ANNIHILATORS.setflags(write=False)
CREATORS.setflags(write=False)

# Jordan-Wigner: mode s is bit s - 1 of the basis index, OCCUPATION (16, mode).  In a
# (2, 2, 2, 2, ...) view of the basis axis that bit is axis 4 - s, and BIT_CLEAR and
# BIT_SET are the slices of the states with it clear and set.
OCCUPATION = np.arange(DIM)[:, None] >> np.arange(N_MODES) & 1
BIT_CLEAR = tuple((slice(None),) * (N_MODES - s) + (0,) for s in range(1, N_MODES + 1))
BIT_SET = tuple(clear[:-1] + (1,) for clear in BIT_CLEAR)
# a_s maps state COLS[s - 1, j] onto SIGNS[s - 1, j] times state ROWS[s - 1, j], and its
# creator the reverse; (mode, 8) each, ROWS and COLS the two bit slices of the basis
_BASIS = np.arange(DIM).reshape((2,) * N_MODES)
ROWS, COLS = (np.array([_BASIS[bits].ravel() for bits in side]) for side in (BIT_CLEAR, BIT_SET))
SIGNS = ANNIHILATORS.real[np.arange(N_MODES)[:, None], ROWS, COLS]
# SECTORS (2, 8): the states of even occupation parity, then the odd ones;
# POSITION: the place of each state within its sector
PARITY = OCCUPATION.sum(axis=1) % 2
SECTORS = np.array([np.flatnonzero(PARITY == parity) for parity in (0, 1)])
POSITION = np.zeros(DIM, dtype=int)
POSITION[SECTORS] = np.arange(DIM // 2)
for _table in (OCCUPATION, ROWS, COLS, SIGNS, PARITY, SECTORS, POSITION):
    _table.setflags(write=False)


def _check_tables(stack: np.ndarray):
    """ImportError unless the 32 nonzero entries of stack are +1 or -1 at (s, ROWS[s], COLS[s]).

    Each flips one occupation bit, so a field maps each parity sector onto
    the other and a product of two keeps it: the graded blocks drop nothing.
    """
    entries = stack[np.arange(N_MODES)[:, None], ROWS, COLS]
    if not (np.all((entries == 1) | (entries == -1)) and np.count_nonzero(stack) == ROWS.size):
        raise ImportError("the mode operators do not pair the basis states n and n + 2^(s-1)")


_check_tables(ANNIHILATORS)


def apply_creator(s: int, state: np.ndarray) -> np.ndarray:
    """a_s^dagger state for a (16,) state: a signed copy of its ROWS entries onto COLS."""
    out = np.zeros_like(state)
    out[COLS[s - 1]] = SIGNS[s - 1] * state[ROWS[s - 1]]
    return out


def vacuum_state() -> np.ndarray:
    """The state annihilated by every mode, all four levels at sigma_3 = +1."""
    vac = np.zeros(DIM, dtype=np.complex128)
    vac[0] = 1.0
    return vac


def basis_state(occupied: Iterable[int]) -> np.ndarray:
    """Apply creators for the given mode set to the vacuum, mode 1 first.

    The result is a unit vector; the Jordan-Wigner strings fix its overall
    sign.  The 16 vectors over all subsets form an orthonormal basis.
    """
    state = vacuum_state()
    for s in sorted(set(occupied)):
        _check_mode(s)
        state = apply_creator(s, state)
    return state


def lift(M) -> np.ndarray:
    """Gamma(M) of a 4 x 4 mode map M: a_s^dagger -> sum_t M[t, s] a_t^dagger, |0> fixed.

    A basis state goes to the mapped creators of its modes, in basis_state's
    order, on the vacuum, from the nonzero entries of M only.  For unitary M
    and N, Gamma(M) is unitary and Gamma(M) Gamma(N) = Gamma(MN).
    """
    M = np.asarray(M, dtype=np.complex128)
    if M.shape != (N_MODES, N_MODES):
        raise ValueError(f"mode map must be {N_MODES} x {N_MODES}, got shape {M.shape}")
    # (t, M[t - 1, s - 1]) per mode s; a zero column sends its mode's states to zero
    columns = [[(t, e) for t, e in enumerate(col, 1) if e] or [(1, 0.0)] for col in M.T.tolist()]
    out = np.zeros((DIM, DIM), dtype=np.complex128)
    for occupied in OCCUPATION.tolist():
        modes = [s for s, bit in enumerate(occupied, 1) if bit]
        image = vacuum_state()
        for s in modes:
            image = sum(entry * apply_creator(t, image) for t, entry in columns[s - 1])
        out += np.outer(image, basis_state(modes).conj())
    return out


# C_hat, the lift of a_s^dagger -> eps_s a_pi(s)^dagger (see fields.fock_charge_conjugation)
CHARGE_CONJUGATION = lift([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
CHARGE_CONJUGATION.setflags(write=False)


@cache
def number_operator(s: int) -> np.ndarray:
    """Occupation of mode s; equals sigma_minus sigma_plus = (1 - sigma_3)/2 there."""
    _check_mode(s)
    return mode_creator(s) @ mode_annihilator(s)


@cache
def total_number_operator() -> np.ndarray:
    return sum(number_operator(s) for s in range(1, N_MODES + 1))


def dispersion(k: np.ndarray, consts: PhysicalConstants):
    """Return (k0, omega) for wave vector(s) k of shape (..., 3).

    k0 = sqrt(kappa^2 + |k|^2) has units of inverse length and
    omega = c * k0 is the angular frequency of all four modes.
    """
    k = np.asarray(k, dtype=float)
    k0 = np.sqrt(consts.kappa**2 + np.einsum("...i,...i->...", k, k))
    return k0, consts.c * k0


def hamiltonian(k: np.ndarray, consts: PhysicalConstants) -> np.ndarray:
    """H = hbar omega(k) sum_s N_s, positive semi-definite, shape (..., 16, 16)."""
    _, omega = dispersion(k, consts)
    return consts.hbar * omega[..., None, None] * total_number_operator()


def charge_operator(consts: PhysicalConstants) -> np.ndarray:
    """Q = q (N_1 + N_2 - N_3 - N_4).

    Modes 1, 2 carry charge +q, modes 3, 4 carry -q.  The spectrum is
    {-2q, -q, 0, q, 2q} with multiplicities {1, 4, 6, 4, 1}.
    """
    return consts.q * (
        number_operator(1) + number_operator(2) - number_operator(3) - number_operator(4)
    )


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for a Hermitian h, from its eigendecomposition."""
    w, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1.0j * w * t)) @ vecs.conj().T


def larmor_evolution_check(omega: float, t: float) -> dict[str, float]:
    """Residuals of the single-mode precession solution.

    One mode evolves under H = (1/2) hbar omega (1 - sigma_3); then
    sigma_plus(t) = sigma_plus exp(-i omega t) and
    sigma_minus(t) = sigma_minus exp(+i omega t) in the Heisenberg
    picture.  hbar cancels and is set to one here.
    """
    h = 0.5 * omega * (_ID2 - _SIGMA3)
    u = _propagator(h, t)
    heis = lambda op: u.conj().T @ op @ u
    res_plus = np.abs(heis(_SIGMA_PLUS) - _SIGMA_PLUS * np.exp(-1.0j * omega * t)).max()
    res_minus = np.abs(heis(_SIGMA_MINUS) - _SIGMA_MINUS * np.exp(1.0j * omega * t)).max()
    return {"sigma_plus": float(res_plus), "sigma_minus": float(res_minus)}
