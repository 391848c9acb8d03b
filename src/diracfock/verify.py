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

_TIGHT = 1e-13
_LOOSE = 1e-12
_SOLVER_TOL = 1e-8


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


def _operator_checks(rng, n, consts: PhysicalConstants):
    kappa = consts.kappa
    ks = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    kps = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    xs = rng.normal(scale=1.5, size=(n, 4))
    ys = rng.normal(scale=1.5, size=(n, 4))
    field_tag, cur_tag = "field-operator", "current-operator"
    worst = {
        "dirac": 0.0,
        "adjoint": 0.0,
        "inverse": 0.0,
        "heisenberg": 0.0,
        "car": 0.0,
        "swap": 0.0,
        "split": 0.0,
        "diag_sym": 0.0,
        "off_sym": 0.0,
        "div": 0.0,
        "charge_comm": 0.0,
        "charge_int": 0.0,
    }
    qhat = fock.charge_operator(consts)
    for k, kp, x, y in zip(ks, kps, xs, ys):
        worst["dirac"] = max(worst["dirac"], fields.dirac_residual(k, x, kappa))
        worst["adjoint"] = max(worst["adjoint"], fields.adjoint_dirac_residual(k, x, kappa))
        worst["inverse"] = max(
            worst["inverse"],
            max(fields.inverse_relation_residual(s, k, x, kappa) for s in (1, 2, 3, 4)),
        )
        worst["heisenberg"] = max(
            worst["heisenberg"],
            max(fields.heisenberg_residual(s, k, x, consts) for s in (1, 2, 3, 4)),
        )
        worst["car"] = max(worst["car"], fields.mixed_car_residual(k, kp, x, y, kappa))
        r_kkp = currents.r_current_stack(k, kp, x, kappa)
        r_kpk = currents.r_current_stack(kp, k, x, kappa)
        worst["swap"] = max(
            worst["swap"], np.max(np.abs(r_kkp.conj().transpose(0, 2, 1) - r_kpk))
        )
        split = currents.j_current_stack(k, kp, x, kappa) - (
            currents.j_diag_stack(k, kp, x, kappa) + currents.j_off_stack(k, kp, x, kappa)
        )
        worst["split"] = max(worst["split"], np.max(np.abs(split)))
        worst["diag_sym"] = max(
            worst["diag_sym"], currents.j_diag_symmetry_residual(k, kp, x, kappa)
        )
        worst["off_sym"] = max(
            worst["off_sym"], currents.j_off_symmetry_residual(k, kp, x, kappa)
        )
        worst["div"] = max(
            worst["div"],
            np.max(np.abs(currents.j_diag_divergence(k, kp, x, kappa))),
            np.max(np.abs(currents.j_off_divergence(k, kp, x, kappa))),
        )
        jstack = currents.j_current_stack(k, k, x, kappa)
        worst["charge_comm"] = max(
            worst["charge_comm"],
            np.max(np.abs(np.einsum("mij,jl->mil", jstack, qhat) - np.einsum("ij,mjl->mil", qhat, jstack))),
        )
        worst["charge_int"] = max(worst["charge_int"], currents.integrated_charge_check(k, kappa, consts))
    return [
        _check("field.dirac_equation", field_tag, worst["dirac"], _LOOSE),
        _check("field.adjoint_equation", field_tag, worst["adjoint"], _LOOSE),
        _check("field.inverse_relations", field_tag, worst["inverse"], _LOOSE),
        _check("field.heisenberg_evolution", field_tag, worst["heisenberg"], _LOOSE),
        _check("field.anticommutators", field_tag, worst["car"], _LOOSE),
        _check("current.hermiticity_swap", cur_tag, worst["swap"], _LOOSE),
        _check("current.split", cur_tag, worst["split"], _LOOSE),
        _check("current.diag_contraction", cur_tag, worst["diag_sym"], _LOOSE),
        _check("current.off_contraction", cur_tag, worst["off_sym"], _LOOSE),
        _check("current.divergence_free", cur_tag, worst["div"], _LOOSE),
        _check("current.charge_commutator", cur_tag, worst["charge_comm"], _TIGHT),
        _check("current.integrated_charge", cur_tag, worst["charge_int"], _LOOSE),
    ]


def _conjugation_checks(rng, consts: PhysicalConstants):
    tag = "charge-conjugation"
    kappa = consts.kappa
    sample = _sample_wave_vectors(rng, 3, kappa, lo=-0.5, hi=0.5)
    heldout = _sample_wave_vectors(rng, 5, kappa, lo=-1.0, hi=1.0)
    chat, residual = fields.fock_charge_conjugation(kappa, sample, heldout)
    unitary = np.max(np.abs(chat.conj().T @ chat - np.eye(fock.DIM)))
    x0 = np.zeros(4)
    adjoint = 0.0
    for k in heldout:
        p = fields.psi_matrices(k, x0, kappa)
        pa = fields.psi_adjoint_matrices(k, x0, kappa)
        for r in range(4):
            target = -np.einsum("p,pij->ij", CONJUGATION[r], p)
            adjoint = max(adjoint, np.max(np.abs(chat @ pa[r] - target @ chat)))
    qhat = fock.charge_operator(consts)
    flip = np.max(np.abs(chat @ qhat @ chat.conj().T + qhat))
    conj_split = 0.0
    for _ in range(10):
        k = _sample_wave_vectors(rng, 1, kappa, lo=-1.0, hi=1.0)[0]
        kp = _sample_wave_vectors(rng, 1, kappa, lo=-1.0, hi=1.0)[0]
        x = rng.normal(scale=1.5, size=4)
        normal = currents.j_diag_stack(k, kp, x, kappa) + currents.j_off_stack(k, kp, x, kappa)
        conj_form = currents.j_current_conjugated_stack(k, kp, x, kappa, chat)
        conj_split = max(conj_split, np.max(np.abs(conj_form - normal)))
    return [
        _check("conjugation.solver_unitary", tag, unitary, _LOOSE),
        _check("conjugation.intertwining_heldout", tag, residual, _SOLVER_TOL),
        _check("conjugation.adjoint_relation", tag, adjoint, _SOLVER_TOL),
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
    consts = consts or natural_units()
    rng = np.random.default_rng(seed)
    checks = []
    checks += _gamma_checks(perturb)
    checks += _fock_checks(consts)
    checks += _spinor_checks(rng, n_spinor, consts.kappa)
    checks += _operator_checks(rng, n_operator, consts)
    checks += _conjugation_checks(rng, consts)
    return VerificationReport(checks=tuple(checks))
