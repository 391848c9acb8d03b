"""Named identity checks across every layer of the package.

run_suite draws wave vectors and spacetime points from a seeded
generator, evaluates each identity, and reports one named residual per
check.  Everything is deterministic for a fixed seed, so two runs emit
identical reports byte for byte.

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
    # occupation numbers read off the binary index
    counts = np.array([bin(i).count("1") for i in range(fock.DIM)], dtype=float)
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


def _spinor_checks(rng, n, kappa):
    ks = _sample_wave_vectors(rng, n, kappa)
    kps = _sample_wave_vectors(rng, n, kappa)
    suite = identity_suite_batch(ks, kps, kappa)
    return [_check(f"spinor.{key}", "spinor-identity", r, _LOOSE) for key, r in suite.items()]


def _amax(a) -> float:
    return float(np.max(np.abs(a)))


def _operator_checks(rng, n, consts: PhysicalConstants):
    kappa = consts.kappa
    ks = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    kps = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    xs = rng.normal(scale=1.5, size=(n, 4))
    ys = rng.normal(scale=1.5, size=(n, 4))
    field_tag, cur_tag = "field-operator", "current-operator"
    # every residual below holds all n samples; each check takes the worst
    one, pair = (ks, xs, kappa), (ks, kps, xs, kappa)
    inverse = [fields.inverse_relation_residual(s, *one) for s in (1, 2, 3, 4)]
    heisenberg = [fields.heisenberg_residual(s, ks, xs, consts) for s in (1, 2, 3, 4)]
    car = fields.mixed_car_residual(ks, kps, xs, ys, kappa)
    r_kpk = currents.r_current_stack(kps, ks, xs, kappa)
    swap = currents.r_current_stack(*pair).conj().swapaxes(-1, -2) - r_kpk
    parts = currents.j_diag_stack(*pair) + currents.j_off_stack(*pair)
    split = currents.j_current_stack(*pair) - parts
    div = [currents.j_diag_divergence(*pair), currents.j_off_divergence(*pair)]
    jstack = currents.j_current_stack(ks, ks, xs, kappa)
    qhat = fock.charge_operator(consts)
    charge = currents.integrated_charge_check(ks, kappa, consts)
    checks = [
        ("field.dirac_equation", field_tag, fields.dirac_residual(*one), _LOOSE),
        ("field.adjoint_equation", field_tag, fields.adjoint_dirac_residual(*one), _LOOSE),
        ("field.inverse_relations", field_tag, inverse, _LOOSE),
        ("field.heisenberg_evolution", field_tag, heisenberg, _LOOSE),
        ("field.anticommutators", field_tag, car, _LOOSE),
        ("current.hermiticity_swap", cur_tag, swap, _LOOSE),
        ("current.split", cur_tag, split, _LOOSE),
        ("current.diag_contraction", cur_tag, currents.j_diag_symmetry_residual(*pair), _LOOSE),
        ("current.off_contraction", cur_tag, currents.j_off_symmetry_residual(*pair), _LOOSE),
        ("current.divergence_free", cur_tag, div, _LOOSE),
        ("current.charge_commutator", cur_tag, jstack @ qhat - qhat @ jstack, _TIGHT),
        ("current.integrated_charge", cur_tag, charge, _LOOSE),
    ]
    return [_check(name, tag, _amax(r), tol) for name, tag, r, tol in checks]


def _conjugation_checks(rng, consts: PhysicalConstants):
    tag = "charge-conjugation"
    kappa = consts.kappa
    sample = _sample_wave_vectors(rng, 3, kappa, lo=-0.5, hi=0.5)
    heldout = _sample_wave_vectors(rng, 5, kappa, lo=-1.0, hi=1.0)
    chat, residual = fields.fock_charge_conjugation(kappa, sample, heldout)
    unitary = np.max(np.abs(chat.conj().T @ chat - np.eye(fock.DIM)))
    x0 = np.zeros(4)
    p = fields.psi_matrices(heldout, x0, kappa)
    pa = fields.psi_adjoint_matrices(heldout, x0, kappa)
    target = -fields.conjugation_mix(p)
    adjoint = _amax(chat @ pa - target @ chat)
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
    conj_split = _amax(currents.j_current_conjugated_stack(k, kp, x, kappa, chat) - normal)
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
