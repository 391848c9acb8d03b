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
    charge_operator,
    hamiltonian,
    mode_annihilator,
    mode_creator,
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


def _support(index, sign):
    """(rows, cols, signs), each (mode, 8): the nonzero entries of a signed gather table."""
    rows = np.array([np.flatnonzero(row) for row in sign])
    return rows, np.take_along_axis(index, rows, -1), np.take_along_axis(sign, rows, -1)


# entries of the operators in phi_plus of modes (1, 2) and phi_minus of modes (3, 4)
_PLUS_SUPPORT = _support(ANNIHILATOR_INDEX[:2], ANNIHILATOR_SIGN[:2])
_MINUS_SUPPORT = _support(CREATOR_INDEX[2:], CREATOR_SIGN[2:])


def _scattered_psi(k, x, kappa, plus_sign: float = 1.0):
    """plus_sign times the u-mode half of psi plus its v-mode half, (..., 4, 16, 16).

    The halves have disjoint supports, so every entry is one u e or
    v conj(e) term times the sign of the operator entry it lands on.
    """
    k = np.asarray(k, dtype=float)
    e = plane_phase(k, x, kappa)[..., None, None]
    u, v = plus_sign * u_columns(k, kappa) * e, v_columns(k, kappa) * np.conj(e)
    out = np.zeros(u.shape[:-1] + (DIM, DIM), dtype=np.complex128)
    # component r of mode s lands on the entries of that mode's operator
    for c, (rows, cols, signs) in ((u, _PLUS_SUPPORT), (v, _MINUS_SUPPORT)):
        out[..., rows, cols] = c[..., None] * signs
    return out


def psi_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """All four Dirac field components as a (..., 4, 16, 16) array."""
    return _scattered_psi(k, x, kappa)


def psi_adjoint_matrices(k: np.ndarray, x: np.ndarray, kappa: float) -> np.ndarray:
    """The adjoint field psi_a(r) = sum_r' psi(r')^dagger gamma^0_{r' r}."""
    return _adjoint(psi_matrices(k, x, kappa))


def _adjoint(stack: np.ndarray) -> np.ndarray:
    """gamma^0_{r r} stack[r]^dagger for each component r of a (..., 4, 16, 16) stack."""
    return GAMMA0_SIGN[:, None, None] * stack.conj().swapaxes(-1, -2)


def _gamma_sum(index: np.ndarray, phase: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_mu (gamma^mu stack_mu)_r = sum_mu phase[mu, r] stack[mu, index[mu, r]].

    stack is (..., mu, 4, 16, 16); each gamma^mu acts on the component
    axis as the gather (index, phase) of gamma.
    """
    terms = phase[:, :, None, None] * stack[..., np.arange(4)[:, None], index, :, :]
    return terms.sum(axis=-4)


def _psi_derivatives(k, x, kappa):
    """d_mu psi as a (..., 4, 4, 16, 16) array: mode phases give -/+ i k_mu."""
    k = np.asarray(k, dtype=float)
    k_cov = covariant_components(_k0(k, kappa), k)
    minus_less_plus = _scattered_psi(k, x, kappa, -1.0)
    return 1.0j * k_cov[..., :, None, None, None] * minus_less_plus[..., None, :, :, :]


def dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Operator norm of i gamma^mu d_mu psi - kappa psi, worst component."""
    p = psi_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    lhs = 1.0j * _gamma_sum(GAMMA_INDEX, GAMMA_PHASE, dp) - kappa * p
    return _worst_norm(lhs)


def adjoint_dirac_residual(k: np.ndarray, x: np.ndarray, kappa: float):
    """Operator norm of -i d_mu psi_a gamma^mu - kappa psi_a, worst component."""
    pa = psi_adjoint_matrices(k, x, kappa)
    dp = _psi_derivatives(k, x, kappa)
    # d_mu psi_a, contracted with gamma^mu from the right: a column gather
    dpa = _adjoint(dp)
    lhs = -1.0j * _gamma_sum(GAMMA_T_INDEX, GAMMA_T_PHASE, dpa) - kappa * pa
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
    p = psi_matrices(k, x, kappa)
    pp = psi_matrices(kp, y, kappa)
    zero = np.abs(_anticommutators(p, pp)).max(axis=(-4, -3, -2, -1))
    ek = plane_phase(k, x, kappa)[..., None, None]
    ekp = plane_phase(kp, y, kappa)[..., None, None]
    uu = u_columns(k, kappa) @ u_columns(kp, kappa).conj().swapaxes(-1, -2)
    vv = v_columns(k, kappa) @ v_columns(kp, kappa).conj().swapaxes(-1, -2)
    scalar = ek * np.conj(ekp) * uu + np.conj(ek) * ekp * vv
    # the scalar of pair (r, r') on the diagonal of block (r, r')
    identity = scalar[..., :, None, :, None] * np.eye(DIM)[:, None, :]
    anti = _anticommutators(p, pp.conj().swapaxes(-1, -2)) - identity
    return _per_sample(np.maximum(zero, np.abs(anti).max(axis=(-4, -3, -2, -1))))


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_r @ b_r' for every component pair, laid out (..., r, 16, r', 16).

    One (64 x 16) @ (16 x 64) product per sample: the components of a
    stacked by rows against those of b side by side.
    """
    rows = a.reshape(a.shape[:-3] + (4 * DIM, DIM))
    cols = b.swapaxes(-3, -2).reshape(b.shape[:-3] + (DIM, 4 * DIM))
    prods = rows @ cols
    return prods.reshape(prods.shape[:-2] + (4, DIM, 4, DIM))


def _anticommutators(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{a_r, b_r'} for every component pair, laid out (..., r, 16, r', 16)."""
    # b_r' a_r comes back as (r', i, r, l)
    return _pair_products(a, b) + _pair_products(b, a).swapaxes(-4, -2)


def conjugation_mix(stack: np.ndarray) -> np.ndarray:
    """sum_p C_{r p} stack[p] over the component axis of a (..., 4, 16, 16) stack, as a gather."""
    return CONJUGATION_PHASE[:, None, None] * stack[..., CONJUGATION_INDEX, :, :]


def _conjugation_relations(ks: np.ndarray, kappa: float):
    """(A, B), each (..., 4, 2, 16, 16): C_hat A = B C_hat for each component and relation.

    The two relations at x = 0 are C_hat psi_r = (C psi_a)_r C_hat and
    C_hat psi_a_r = -(C psi)_r C_hat, with C the spinor conjugation matrix.
    """
    x0 = np.zeros(4)
    p = psi_matrices(ks, x0, kappa)
    pa = psi_adjoint_matrices(ks, x0, kappa)
    mixed = [conjugation_mix(pa), -conjugation_mix(p)]
    return np.stack([p, pa], axis=-3), np.stack(mixed, axis=-3)


def _intertwining_residual(chat: np.ndarray, ks: np.ndarray, kappa: float) -> float:
    """Worst residual of both conjugation relations over the wave vectors ks."""
    a, b = _conjugation_relations(ks, kappa)
    return float(np.max(np.linalg.norm(chat @ a - b @ chat, 2, axis=(-2, -1))))


# Q / q of each basis state.  Unknown C_hat[b, j], numbered j * 16 + b
# (column-major vec), lies in sector Q(b) + Q(j); equation (a, i), numbered
# relation * 256 + i * 16 + a, in Q(a) + Q(i) - 1 (psi relation) or + 1 (adjoint).
_CHARGE = np.diag(charge_operator(PhysicalConstants(q=1.0))).real.astype(int)
_UNKNOWN_SECTOR = (_CHARGE[:, None] + _CHARGE).ravel()
_EQUATION_SECTOR = np.concatenate([_UNKNOWN_SECTOR - 1, _UNKNOWN_SECTOR + 1])


def _sector_systems(a: np.ndarray, b: np.ndarray):
    """(cols, system) for each charge sector, system (samples * 4 * rows, cols).

    a and b are the (..., 4, 2, 16, 16) stacks of _conjugation_relations.
    Column c is C_hat[b_c, j_c]; it holds A[j_c, i] in equation (a = b_c, i)
    and -B[a, b_c] in equation (a, i = j_c), and each entry is gathered
    from a and b directly, so the full system is never built.
    """
    n = DIM * DIM
    a, b = a.reshape(-1, 2 * n), b.reshape(-1, 2 * n)
    # per sample and component: the entries of A, of -B, and a zero
    values = np.concatenate([a, -b, np.zeros((len(a), 1))], axis=-1)
    for sector in range(2 * _CHARGE.min(), 2 * _CHARGE.max() + 1):
        cols = np.flatnonzero(_UNKNOWN_SECTOR == sector)
        rows = np.flatnonzero(_EQUATION_SECTOR == sector)[:, None]
        rel, ri, ra = rows // n, rows // DIM % DIM, rows % DIM
        cj, cb = cols // DIM, cols % DIM
        a_entry = rel * n + cj * DIM + ri
        b_entry = (2 + rel) * n + ra * DIM + cb
        # A where a = b_c, -B where i = j_c, else the zero at the end of values
        src = np.where(ra == cb, a_entry, np.where(ri == cj, b_entry, -1))
        yield cols, values.take(src, axis=1).reshape(-1, cols.size)


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
    direction.

    The joint homogeneous system has 256 unknowns, but it conserves
    charge: psi lowers Q = q (N_1 + N_2 - N_3 - N_4) by q and psi_a raises
    it, so each equation holds only unknowns C_hat[b, j] of one sector
    Q(b) + Q(j), whatever k and kappa.  The unknowns split into the nine
    sectors Q(b) + Q(j) = -4q .. 4q, of C(8, j) unknowns each; C_hat, which
    flips the charge, lies in sector 0.  Each sector's system is built from
    the relations directly and solved by a QR factorization and an SVD of
    its small triangular factor.  The singular values of the whole system
    are the union of the sectors' values; a direction is null when its
    value is at most null_rtol times the largest over all sectors.  The
    unique null direction is scaled to a unitary and its phase fixed so
    that the vacuum entry C_hat[0, 0] is real positive: C_hat maps the
    vacuum to itself with phase +1.  (C_hat is a signed permutation, so a
    rule such as "make the largest entry real positive" would tie between
    16 entries of modulus 1.)

    Raises ValueError when kappa or any wave vector is not finite,
    NoSolutionError when the null space is empty or carries no unitary,
    AmbiguousSolutionError when it has more than one dimension.  Returns
    the matrix together with the worst intertwining residual on the
    validation wave vectors (held out from the solve).
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

    sings, vhs, cols = [], [], []
    for sector_cols, sub in _sector_systems(*_conjugation_relations(sample_ks, kappa)):
        # sub = Q R keeps the singular values and right vectors in R, which
        # is square (every sector has more equations than unknowns), so the
        # tall system itself is never decomposed
        sing, vh = np.linalg.svd(np.linalg.qr(sub, mode="r"))[1:]
        sings.append(sing)
        vhs.append(vh)
        cols.append(sector_cols)
    largest = max(sing[0] for sing in sings)
    null = [sing <= null_rtol * largest for sing in sings]
    n_null = sum(int(mask.sum()) for mask in null)
    if n_null == 0:
        raise NoSolutionError(
            f"no null direction: smallest singular value {min(sing[-1] for sing in sings):.3e} "
            f"(largest {largest:.3e})"
        )
    if n_null > 1:
        raise AmbiguousSolutionError(f"null space has dimension {n_null}")

    which = next(n for n, mask in enumerate(null) if mask.any())
    vec = np.zeros(DIM * DIM, dtype=np.complex128)
    vec[cols[which]] = vhs[which][-1]
    chat = vec.reshape(DIM, DIM).T  # undo column-major vec
    gram = chat.conj().T @ chat
    scale = np.sqrt(gram.trace().real / DIM)
    chat = chat / scale
    if np.abs(chat.conj().T @ chat - np.eye(DIM)).max() > 1e-10:
        raise NoSolutionError("null direction is not proportional to a unitary")
    chat = chat * np.exp(-1.0j * np.angle(chat[0, 0]))

    residual = _intertwining_residual(chat, validation_ks, kappa)
    return chat, residual
