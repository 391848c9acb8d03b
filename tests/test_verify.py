"""The check suite: determinism, grouping, and the fault-injection hook."""

import numpy as np
import pytest

from diracfock import currents, fields
from diracfock.constants import natural_units
from diracfock.fock import charge_operator
from diracfock.verify import (
    Check,
    VerificationReport,
    _operator_checks,
    _sample_wave_vectors,
    run_suite,
)


def test_small_suite_passes():
    report = run_suite(seed=1, n_spinor=40, n_operator=8)
    assert report.passed
    assert report.n_failed == 0
    assert len(report.checks) >= 25
    groups = {c.name.split(".")[0] for c in report.checks}
    assert groups == {"gamma", "fock", "spinor", "field", "current", "conjugation"}


def test_checks_have_unique_names_and_tags():
    report = run_suite(seed=1, n_spinor=40, n_operator=8)
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    assert all(c.tag for c in report.checks)
    assert all(c.tolerance > 0 for c in report.checks)


def test_same_seed_same_report():
    a = run_suite(seed=7, n_spinor=30, n_operator=5)
    b = run_suite(seed=7, n_spinor=30, n_operator=5)
    assert a.as_dict() == b.as_dict()


@pytest.mark.parametrize(
    "options, message",
    [
        ({"n_operator": 0}, "n_operator must be at least 1, got 0"),
        ({"n_spinor": 0}, "n_spinor must be at least 1, got 0"),
        ({"n_operator": 2.7}, "n_operator must be an integer, got 2.7"),
        ({"n_spinor": True}, "n_spinor must be an integer, got True"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ],
)
def test_suite_rejects_bad_counts(options, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_suite(**{"n_spinor": 30, "n_operator": 5, **options})


def test_different_seed_moves_sampled_residuals():
    a = run_suite(seed=1, n_spinor=30, n_operator=5)
    b = run_suite(seed=2, n_spinor=30, n_operator=5)
    ra = {c.name: c.residual for c in a.checks}
    rb = {c.name: c.residual for c in b.checks}
    assert any(ra[n] != rb[n] for n in ra)


def test_perturbation_fails_only_the_anticommutator():
    report = run_suite(seed=1, n_spinor=30, n_operator=5, perturb=1e-6)
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["gamma.anticommutation"]
    assert report.n_failed == 1
    assert not report.passed


def test_check_record_round_trip():
    c = Check(name="x.y", tag="layer", residual=1e-14, tolerance=1e-12, passed=True)
    d = c.as_dict()
    assert d == {
        "name": "x.y",
        "tag": "layer",
        "residual": 1e-14,
        "tolerance": 1e-12,
        "passed": True,
    }
    rep = VerificationReport(checks=(c,))
    assert rep.as_dict()["summary"] == {"total": 1, "failed": 0, "all_passed": True}


def test_operator_checks_match_a_per_sample_loop():
    # the batched checks against the loop they replaced, one sample per call
    consts = natural_units()
    kappa, n = consts.kappa, 8
    batched = {c.name: c.residual for c in _operator_checks(np.random.default_rng(5), n, consts)}
    rng = np.random.default_rng(5)
    ks = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    kps = _sample_wave_vectors(rng, n, kappa, lo=-2.0, hi=2.0)
    xs = rng.normal(scale=1.5, size=(n, 4))
    ys = rng.normal(scale=1.5, size=(n, 4))
    qhat = charge_operator(consts)
    worst = dict.fromkeys(batched, 0.0)

    def keep(name, value):
        worst[name] = max(worst[name], float(np.max(np.abs(value))))

    for k, kp, x, y in zip(ks, kps, xs, ys):
        keep("field.dirac_equation", fields.dirac_residual(k, x, kappa))
        keep("field.adjoint_equation", fields.adjoint_dirac_residual(k, x, kappa))
        for s in (1, 2, 3, 4):
            keep("field.inverse_relations", fields.inverse_relation_residual(s, k, x, kappa))
            keep("field.heisenberg_evolution", fields.heisenberg_residual(s, k, x, consts))
        keep("field.anticommutators", fields.mixed_car_residual(k, kp, x, y, kappa))
        forward = currents.r_current_stack(k, kp, x, kappa)
        backward = currents.r_current_stack(kp, k, x, kappa)
        keep("current.hermiticity_swap", forward.conj().transpose(0, 2, 1) - backward)
        parts = currents.j_diag_stack(k, kp, x, kappa) + currents.j_off_stack(k, kp, x, kappa)
        keep("current.split", currents.j_current_stack(k, kp, x, kappa) - parts)
        keep("current.diag_contraction", currents.j_diag_symmetry_residual(k, kp, x, kappa))
        keep("current.off_contraction", currents.j_off_symmetry_residual(k, kp, x, kappa))
        keep("current.divergence_free", currents.j_diag_divergence(k, kp, x, kappa))
        keep("current.divergence_free", currents.j_off_divergence(k, kp, x, kappa))
        j = currents.j_current_stack(k, k, x, kappa)
        keep("current.charge_commutator", j @ qhat - qhat @ j)
        keep("current.integrated_charge", currents.integrated_charge_check(k, kappa, consts))
    for name, residual in batched.items():
        assert residual == pytest.approx(worst[name], abs=1e-15), name
