"""Four fermion modes on a 16-dimensional Fock space.

Each wave vector carries four anticommuting modes: two particle modes
(1, 2) and two antiparticle modes (3, 4).  The mode operators are built
by the Jordan-Wigner construction from Pauli matrices, with mode 1 the
innermost tensor factor and a sigma_3 string on all modes of lower index.
The vacuum is the state with every mode in the sigma_3 = +1 level.

Each ladder operator has exactly eight nonzero entries, all +1 or -1, and
at most one per row: it is a signed permutation.  The dense stacks
ANNIHILATORS and CREATORS are the definition; the same operators as index
and sign tables (ANNIHILATOR_INDEX, ...), derived from those stacks, are
the form the engine applies to state vectors and scatters into field
operators.
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


def _signed_permutation(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with (stack[s] @ z)[i] = sign[s, i] * z[index[s, i]].

    Valid for operators with at most one nonzero entry per row, each +1
    or -1; a zero row gets sign 0.
    """
    index = np.argmax(np.abs(stack), axis=-1)
    sign = np.take_along_axis(stack.real, index[..., None], axis=-1)[..., 0]
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


# the two stacks as signed gathers, (mode, 16) each
ANNIHILATOR_INDEX, ANNIHILATOR_SIGN = _signed_permutation(ANNIHILATORS)
CREATOR_INDEX, CREATOR_SIGN = _signed_permutation(CREATORS)


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
    occupied = sorted(set(occupied))
    for s in occupied:
        _check_mode(s)
    state = vacuum_state()
    for s in occupied:
        state = CREATOR_SIGN[s - 1] * state[CREATOR_INDEX[s - 1]]
    return state


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
