"""Named identity checks across every layer of the package.

run_suite draws wave vectors and spacetime points from a seeded
generator, evaluates each identity, and reports one named residual per
check.  Everything is deterministic for a fixed seed, so two runs emit
identical reports byte for byte.

The sampled checks run over consecutive batches of the samples drawn up
front (_OPERATOR_BATCH operator samples, _SPINOR_BATCH spinor samples),
and each batch is reduced to its worst values before the next is formed,
so memory stays flat in the sample counts.  Batches combine with np.max,
which keeps a NaN where Python's max would drop it.  Within a batch each
operator stack is built once and freed after its last reader: psi and
psi_a at (k, x) and at (k', x), the derivative factors of both Dirac
checks, r(k, k') for the hermiticity swap and the split, and the current
halves and pair parts for the split, the contractions and the divergence.
Every stack is held as the fermion-parity blocks of fields,
(..., 4, 2, 8, 8), never as dense 16 x 16 matrices.

The optional perturb argument adds a multiple of the identity to the
second gamma matrix inside the anticommutation check only.  That is a
self-test hook: a nonzero perturbation must make exactly that check fail.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import currents, fields, fock
from .constants import PhysicalConstants, natural_units
from .gamma import CONJUGATION, GAMMA, METRIC
from .spinors import identity_suite_batch
from .states import config_integer

_TIGHT = 1e-13
_LOOSE = 1e-12


@dataclass(frozen=True)
class Check:
    """One verified identity: residual against tolerance."""

    name: str
    tag: str
    residual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "failed": self.n_failed,
                "all_passed": self.passed,
            },
        }


def _check(name, tag, residual, tolerance) -> Check:
    residual = float(residual)
    return Check(name, tag, residual, tolerance, residual <= tolerance)


def _sample_wave_vectors(rng, n, kappa, lo=-3.0, hi=3.0):
    """n wave vectors with |k|/kappa log-uniform in [10^lo, 10^hi]."""
    mags = kappa * 10.0 ** rng.uniform(lo, hi, size=n)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return mags[:, None] * dirs


def _gamma_checks(perturb: float):
    tag = "gamma-algebra"
    g = GAMMA.copy()
    g[1] += perturb * np.eye(4)
    anti = max(
        np.max(np.abs(g[m] @ g[n] + g[n] @ g[m] - 2.0 * METRIC[m, n] * np.eye(4)))
        for m in range(4)
        for n in range(4)
    )
    herm = max(
        np.max(np.abs(GAMMA[0].conj().T - GAMMA[0])),
        *(np.max(np.abs(gi.conj().T + gi)) for gi in GAMMA[1:]),
    )
    c = CONJUGATION
    cmat = max(
        np.max(np.abs(c + c.T)),
        np.max(np.abs(c.conj().T @ c - np.eye(4))),
        np.max(np.abs(c @ c + np.eye(4))),
    )
    inter = max(
        np.max(np.abs(c @ gm @ np.linalg.inv(c) + gm.T)) for gm in GAMMA
    )
    trace = max(
        abs(np.trace(a @ b) - 4.0 * METRIC[m, n])
        for m, a in enumerate(GAMMA)
        for n, b in enumerate(GAMMA)
    )
    return [
        _check("gamma.anticommutation", tag, anti, _TIGHT),
        _check("gamma.hermiticity", tag, herm, _TIGHT),
        _check("gamma.conjugation_matrix", tag, cmat, _TIGHT),
        _check("gamma.conjugation_intertwine", tag, inter, _TIGHT),
        _check("gamma.metric_trace", tag, trace, _TIGHT),
    ]


def _fock_checks(consts: PhysicalConstants):
    tag = "mode-algebra"
    a, ad = fock.ANNIHILATORS, fock.CREATORS
    eye = np.eye(fock.DIM)
    mixed = max(
        np.max(np.abs(a[s] @ ad[t] + ad[t] @ a[s] - (s == t) * eye))
        for s in range(4)
        for t in range(4)
    )
    zero = max(np.max(np.abs(a[s] @ a[t] + a[t] @ a[s])) for s in range(4) for t in range(4))
    vac = max(np.max(np.abs(a[s] @ fock.vacuum_state())) for s in range(4))
    counts = fock.OCCUPATION.sum(axis=1)
    ntot = fock.total_number_operator()
    number = max(
        np.max(np.abs(np.diag(ntot).real - counts)),
        np.max(np.abs(ntot - np.diag(np.diag(ntot)))),
    )
    expected = np.sort(
        np.concatenate([[-2.0], [-1.0] * 4, [0.0] * 6, [1.0] * 4, [2.0]]) * consts.q
    )
    spectrum = np.max(np.abs(np.linalg.eigvalsh(fock.charge_operator(consts)) - expected))
    larmor = max(fock.larmor_evolution_check(omega=0.7, t=2.3).values())
    return [
        _check("fock.car_mixed", tag, mixed, _TIGHT),
        _check("fock.car_zero", tag, zero, _TIGHT),
        _check("fock.vacuum_annihilation", tag, vac, _TIGHT),
        _check("fock.number_count", tag, number, _TIGHT),
        _check("fock.charge_spectrum", tag, spectrum, _TIGHT),
        _check("fock.larmor_precession", tag, larmor, _LOOSE),
    ]


# samples per batch, the default counts of run_suite
_OPERATOR_BATCH = 100
_SPINOR_BATCH = 1000


def _batches(samples, size):
    """Consecutive slices of at most size rows, taken together from every sample array."""
    for start in range(0, len(samples[0]), size):
        yield tuple(a[start : start + size] for a in samples)


def _worst(values) -> float:
    """The largest of some residuals; np.max, unlike max, keeps a NaN."""
    return float(np.max(list(values)))


def _spinor_checks(rng, n, kappa):
    ks = _sample_wave_vectors(rng, n, kappa)
    kps = _sample_wave_vectors(rng, n, kappa)
    suites = [identity_suite_batch(k, kp, kappa) for k, kp in _batches((ks, kps), _SPINOR_BATCH)]
    return [
        _check(f"spinor.{key}", "spinor-identity", _worst(s[key] for s in suites), _LOOSE)
        for key in suites[0]
    ]


def _amax(a) -> float:
    return float(np.max(np.abs(a)))


# the operator checks in report order; all but the exact charge commutator are loose
_OPERATOR_CHECKS = (
    "field.dirac_equation", "field.adjoint_equation", "field.inverse_relations",
    "field.heisenberg_evolution", "field.anticommutators", "current.hermiticity_swap",
    "current.split", "current.diag_contraction", "current.off_contraction",
    "current.divergence_free", "current.charge_commutator", "current.integrated_charge",
)


def _operator_batch(k, kp, x, y, consts: PhysicalConstants, charges) -> dict:
    """The worst residual of every operator check on one batch, by check name."""
    kappa = consts.kappa
    out = {"current.integrated_charge": currents.integrated_charge_check(k, kappa, consts)}
    out["field.heisenberg_evolution"] = [
        fields.heisenberg_residual(s, k, x, consts) for s in (1, 2, 3, 4)
    ]
    p = fields._scattered_psi(k, x, kappa)
    out["field.inverse_relations"] = [fields._inverse_norm(s, k, x, p, kappa) for s in (1, 2, 3, 4)]
    out["field.anticommutators"] = fields._mixed_car(
        k, kp, x, y, p, fields._scattered_psi(kp, y, kappa), kappa
    )
    pa = fields._adjoint(p)
    ik, minus_less_plus = fields._derivative_factors(k, x, kappa)
    out["field.dirac_equation"] = fields._dirac_norm(ik, minus_less_plus, p, kappa)
    out["field.adjoint_equation"] = fields._adjoint_dirac_norm(ik, minus_less_plus, pa, kappa)
    del minus_less_plus
    # j(k, k); q_hat is diagonal, so [j, q_hat] is j q_j - q_i j entry by entry, block by block
    j = currents._j_current(currents._r_current(pa, p), p, pa)
    out["current.charge_commutator"] = _amax(j * charges[:, None, :] - charges[:, :, None] * j)
    pp = fields._scattered_psi(kp, x, kappa)
    pap = fields._adjoint(pp)
    r = currents._r_current(pa, pp)
    del pa, pp
    out["current.hermiticity_swap"] = _amax(r.conj().swapaxes(-1, -2) - currents._r_current(pap, p))
    j = currents._j_current(r, p, pap)  # j(k, k')
    del p, pap, r
    minus = currents._cov(k, kappa) - currents._cov(kp, kappa)
    plus = currents._cov(k, kappa) + currents._cov(kp, kappa)
    halves = currents._diag_half(k, kp, x, kappa), currents._diag_half(kp, k, x, kappa)
    diag = halves[0] + halves[1]
    out["current.diag_contraction"] = currents._contraction_norm(minus, diag)
    divergence = [_amax(currents._diag_divergence(minus, *halves))]
    del halves
    parts = currents._off_parts(k, kp, x, kappa) + currents._off_parts(kp, k, x, kappa)
    off = parts[0] + parts[1] + parts[2] + parts[3]
    out["current.off_contraction"] = currents._contraction_norm(plus, off)
    divergence.append(_amax(currents._off_divergence(plus, *parts)))
    del parts
    out["current.divergence_free"] = divergence
    out["current.split"] = j - (diag + off)
    return {name: _amax(value) for name, value in out.items()}


def _operator_checks(rng, n, consts: PhysicalConstants):
    kappa = consts.kappa
    ks = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    kps = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    xs = rng.normal(scale=1.5, size=(n, 4))
    ys = rng.normal(scale=1.5, size=(n, 4))
    # the diagonal of q_hat by parity sector, as the graded current blocks hold their rows
    charges = np.diag(fock.charge_operator(consts))[fock.SECTORS]
    # every check over one batch at a time, each batch reduced to its worst values
    worst = [
        _operator_batch(*batch, consts, charges)
        for batch in _batches((ks, kps, xs, ys), _OPERATOR_BATCH)
    ]
    return [
        _check(
            name, name.split(".")[0] + "-operator", _worst(w[name] for w in worst),
            _TIGHT if name == "current.charge_commutator" else _LOOSE,
        )
        for name in _OPERATOR_CHECKS
    ]


def _conjugation_checks(rng, consts: PhysicalConstants):
    tag = "charge-conjugation"
    kappa = consts.kappa
    sample = _sample_wave_vectors(rng, 3, kappa, lo=-0.5, hi=0.5)
    heldout = _sample_wave_vectors(rng, 5, kappa, lo=-1.0, hi=1.0)
    chat, residual = fields.fock_charge_conjugation(kappa, sample, heldout)
    unitary = np.max(np.abs(chat.conj().T @ chat - np.eye(fock.DIM)))
    a, b = fields._conjugation_relations(heldout, kappa)  # relation 1: C_hat psi_a = -(C psi) C_hat
    adjoint = _amax(chat @ a[..., 1, :, :] - b[..., 1, :, :] @ chat)
    qhat = fock.charge_operator(consts)
    flip = np.max(np.abs(chat @ qhat @ chat.conj().T + qhat))
    # ten (k, k', x) triples drawn one at a time, so a seed keeps its samples
    draws = [
        (
            _sample_wave_vectors(rng, 1, kappa, lo=-1.0, hi=1.0)[0],
            _sample_wave_vectors(rng, 1, kappa, lo=-1.0, hi=1.0)[0],
            rng.normal(scale=1.5, size=4),
        )
        for _ in range(10)
    ]
    k, kp, x = (np.array(a) for a in zip(*draws))
    normal = currents.j_diag_stack(k, kp, x, kappa) + currents.j_off_stack(k, kp, x, kappa)
    conj_split = _amax(currents.j_current_conjugated_stack(k, kp, x, kappa) - normal)
    return [
        _check("conjugation.solver_unitary", tag, unitary, _LOOSE),
        _check("conjugation.intertwining_heldout", tag, residual, fields.INTERTWINING_TOL),
        _check("conjugation.adjoint_relation", tag, adjoint, fields.INTERTWINING_TOL),
        _check("conjugation.charge_flip", tag, flip, _LOOSE),
        _check("conjugation.current_conjugated_split", tag, conj_split, _LOOSE),
    ]


def run_suite(
    seed: int = 0,
    n_spinor: int = 1000,
    n_operator: int = 100,
    consts: PhysicalConstants | None = None,
    perturb: float = 0.0,
) -> VerificationReport:
    """Evaluate every named check with deterministic sampling."""
    seed = config_integer(seed, "seed")
    n_spinor = config_integer(n_spinor, "n_spinor", minimum=1)
    n_operator = config_integer(n_operator, "n_operator", minimum=1)
    consts = consts or natural_units()
    rng = np.random.default_rng(seed)
    checks = []
    checks += _gamma_checks(perturb)
    checks += _fock_checks(consts)
    checks += _spinor_checks(rng, n_spinor, consts.kappa)
    checks += _operator_checks(rng, n_operator, consts)
    checks += _conjugation_checks(rng, consts)
    return VerificationReport(checks=tuple(checks))
