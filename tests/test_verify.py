"""The check suite: determinism, grouping, batching, and the fault-injection hook."""

import tracemalloc

import numpy as np
import pytest

from diracfock import currents, fields, verify
from diracfock.constants import natural_units
from diracfock.fock import charge_operator
from diracfock.spinors import identity_suite_batch
from diracfock.verify import (
    Check,
    VerificationReport,
    _operator_checks,
    _sample_wave_vectors,
    _spinor_checks,
    run_suite,
)
from test_currents import j_diag_symmetry_residual, j_off_symmetry_residual


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
        keep("current.diag_contraction", j_diag_symmetry_residual(k, kp, x, kappa))
        keep("current.off_contraction", j_off_symmetry_residual(k, kp, x, kappa))
        keep("current.divergence_free", currents.j_diag_divergence(k, kp, x, kappa))
        keep("current.divergence_free", currents.j_off_divergence(k, kp, x, kappa))
        j = currents.j_current_stack(k, k, x, kappa)
        keep("current.charge_commutator", j @ qhat - qhat @ j)
        keep("current.integrated_charge", currents.integrated_charge_check(k, kappa, consts))
    for name, residual in batched.items():
        assert residual == pytest.approx(worst[name], abs=1e-15), name


def test_spinor_checks_match_a_per_sample_loop():
    kappa, n = natural_units().kappa, 8
    batched = {c.name: c.residual for c in _spinor_checks(np.random.default_rng(5), n, kappa)}
    rng = np.random.default_rng(5)
    ks, kps = _sample_wave_vectors(rng, n, kappa), _sample_wave_vectors(rng, n, kappa)
    singles = [identity_suite_batch(k, kp, kappa) for k, kp in zip(ks, kps)]
    assert len(batched) == len(singles[0])
    for key in singles[0]:
        worst = max(single[key] for single in singles)
        assert batched[f"spinor.{key}"] == pytest.approx(worst, abs=1e-15), key


@pytest.mark.parametrize(
    "batch, loop",
    [
        ("_OPERATOR_BATCH", test_operator_checks_match_a_per_sample_loop),
        ("_SPINOR_BATCH", test_spinor_checks_match_a_per_sample_loop),
    ],
    ids=["operator", "spinor"],
)
def test_checks_across_batch_boundaries(batch, loop, monkeypatch):
    # the loops' 8 samples in batches of 3: three batches, the last one short
    monkeypatch.setattr(verify, batch, 3)
    loop()


def _poison_call(owner, attr, monkeypatch, call, poison):
    """Wrap owner.attr so that its result on the given call (1-based) goes through poison."""
    original, calls = getattr(owner, attr), []

    def poisoned(*args):
        calls.append(len(args[0]))
        result = original(*args)
        return poison(result) if len(calls) == call else result

    monkeypatch.setattr(owner, attr, poisoned)
    return calls


def test_nan_in_a_later_operator_batch_fails_its_check(monkeypatch):
    # Python's max(a, nan) returns a: the batches must be combined with np.max
    monkeypatch.setattr(verify, "_OPERATOR_BATCH", 3)

    def poison(residual):
        residual[-1] = np.nan
        return residual

    # the Dirac check's norm, called once per batch on the shared psi stacks
    calls = _poison_call(fields, "_dirac_norm", monkeypatch, 3, poison)
    checks = {c.name: c for c in _operator_checks(np.random.default_rng(5), 8, natural_units())}
    assert calls == [3, 3, 2]
    assert np.isnan(checks["field.dirac_equation"].residual)
    assert not checks["field.dirac_equation"].passed
    assert [c.name for c in checks.values() if not c.passed] == ["field.dirac_equation"]


@pytest.mark.parametrize(
    "owner, builder, readers",
    [
        (fields, "_scattered_psi", ["current.hermiticity_swap", "current.split"]),
        (currents, "_diag_half",
         ["current.split", "current.diag_contraction", "current.divergence_free"]),
        (currents, "_off_parts",
         ["current.split", "current.off_contraction", "current.divergence_free"]),
    ],
    ids=["psi_k_prime", "diag_half", "off_parts"],
)
def test_nan_in_a_shared_stack_fails_every_check_that_reads_it(
    owner, builder, readers, monkeypatch
):
    # the third batch's psi(k', x), (k, k') current half or (k, k') pair parts gets a NaN
    monkeypatch.setattr(verify, "_OPERATOR_BATCH", 3)
    consts = natural_units()
    rng = np.random.default_rng(5)
    ks, kps = (_sample_wave_vectors(rng, 8, consts.kappa, lo=-2.0, hi=2.0) for _ in range(2))
    xs = rng.normal(scale=1.5, size=(8, 4))
    wanted = (kps[6:], xs[6:]) if builder == "_scattered_psi" else (ks[6:], kps[6:], xs[6:])
    original, hits = getattr(owner, builder), []

    def poisoned(*args):
        result = original(*args)
        if all(np.array_equal(a, w) for a, w in zip(args, wanted)):
            hits.append(args)
            # component or mu 0, even block, vacuum row, first column: a stored entry
            (result[0] if isinstance(result, tuple) else result)[-1, 0, 0, 0, 0] = np.nan
        return result

    monkeypatch.setattr(owner, builder, poisoned)
    checks = _operator_checks(np.random.default_rng(5), 8, consts)
    assert len(hits) == 1  # built once in its batch
    assert [c.name for c in checks if not c.passed] == readers
    assert all(np.isnan(c.residual) for c in checks if c.name in readers)


def test_nan_in_a_later_spinor_batch_fails_its_check(monkeypatch):
    monkeypatch.setattr(verify, "_SPINOR_BATCH", 3)
    calls = _poison_call(
        verify, "identity_suite_batch", monkeypatch, 3, lambda res: {**res, "eigen.u": np.nan}
    )
    checks = _spinor_checks(np.random.default_rng(5), 8, natural_units().kappa)
    assert calls == [3, 3, 2]
    assert [c.name for c in checks if not c.passed] == ["spinor.eigen.u"]
    assert np.isnan(next(c.residual for c in checks if c.name == "spinor.eigen.u"))


def _suite_peak_mib(**counts) -> float:
    tracemalloc.start()
    try:
        run_suite(seed=0, **counts)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_suite_memory_is_flat_in_the_sample_counts():
    # each check holds one batch of samples at a time; holding every sample's
    # operator stacks at once took 140.7 MiB at these counts, 35.9 at the defaults
    default = _suite_peak_mib()
    large = _suite_peak_mib(n_operator=400, n_spinor=4000)
    assert large <= 10.0
    assert abs(large - default) <= 1.0


def test_suite_peak_holds_half_size_operator_stacks():
    # 9.4 MiB measured with the operators held as fermion-parity blocks, 15.7
    # with dense 16 x 16 stacks: the largest array is the field bilinear's
    # gather of gamma^mu psi, (100, 256, 8) complex, half its dense size
    assert _suite_peak_mib() <= 10.0
