"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with -s or on failure)
and asserts the stated tolerance.  Oracles are scipy.integrate.quad on
the half line, which shares nothing with the engine's Gauss rules.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from diracfock.cli import main
from diracfock.constants import PhysicalConstants, natural_units
from diracfock.currents import (
    integrated_charge_check,
    j_current_stack,
    j_diag_stack,
    j_off_stack,
    r_current_stack,
)
from diracfock.expectation import (
    classical_dirac_residual,
    classical_energy,
    current_reality_residual,
    example_report,
    quantum_energy,
    r_density,
    r_density_residuals,
    two_point,
    two_point_dirac_residual,
)
from diracfock.fields import (
    adjoint_dirac_residual,
    dirac_residual,
    fock_charge_conjugation,
    heisenberg_residual,
    inverse_relation_residual,
    mixed_car_residual,
    psi_adjoint_matrices,
    psi_matrices,
)
from diracfock.fock import DIM, charge_operator, mode_annihilator, mode_creator
from diracfock.gamma import CONJUGATION, GAMMA
from diracfock.quadrature import QuadratureSpec
from diracfock.spinors import identity_suite_batch
from diracfock.states import gaussian_family, sech2_family, step_family
from diracfock.verify import _fock_checks, _gamma_checks, _sample_wave_vectors
from test_signed_permutations import operator_layer_gaps

NAT = natural_units()
SPEC = QuadratureSpec()


def _report(n, ok, label):
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {n} failed: {label}"


def test_criterion_01_example_charge_closed_form(capsys):
    t0 = time.perf_counter()
    code = main(["example", "--json"])
    elapsed = time.perf_counter() - t0
    rep = json.loads(capsys.readouterr().out)
    rel = abs(rep["Q"] - np.pi**3 / 3.0) / (np.pi**3 / 3.0)
    with capsys.disabled():
        _report(1, code == 0 and rel <= 1e-8 and elapsed < 1.0,
                f"Q a^3/(q l^3) vs pi^3/3 rel {rel:.2e}, {elapsed:.2f}s")


def _sech2(r):
    # overflow-free on the half line, unlike cosh(r) ** -2
    e = np.exp(-2.0 * r)
    return 4.0 * e / (1.0 + e) ** 2


def test_criterion_02_ratio_against_independent_oracle(capsys):
    i_q = quad(lambda r: r * r * _sech2(r), 0.0, np.inf)[0]
    worst = 0.0
    ratios = []
    for ka in (10.0, 100.0, 1000.0):
        engine = example_report(1.0, PhysicalConstants(kappa=ka), SPEC).ratio
        i_e = quad(lambda r: r * r * np.hypot(ka, r) * _sech2(r), 0.0, np.inf)[0]
        oracle = i_e / (ka * i_q)
        worst = max(worst, abs(engine - oracle) / oracle)
        ratios.append(engine)
    monotone = ratios[0] > ratios[1] > ratios[2] > 1.0
    with capsys.disabled():
        _report(2, monotone and worst <= 1e-6,
                f"ratio monotone to 1 {monotone}, worst oracle mismatch {worst:.2e}")


def test_criterion_03_classical_energy_below_quantum(capsys):
    scales = np.logspace(-1.0, 1.0, 5)
    kappas = np.logspace(-1.0, 1.0, 5)
    ok = True
    for a in scales:
        for kap in kappas:
            consts = PhysicalConstants(kappa=kap)
            for fam in (sech2_family(a), gaussian_family(a), step_family(1.0 / a)):
                ok = ok and classical_energy(fam, SPEC, consts) < quantum_energy(
                    fam, SPEC, consts
                )
    with capsys.disabled():
        _report(3, ok, "E_cl < E on the 25-point (a, kappa) grid, all profiles")


def test_criterion_04_algebraic_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for check in _gamma_checks(0.0) + _fock_checks(NAT):
        worst = max(worst, check.residual)
    rng = np.random.default_rng(0)
    ks = _sample_wave_vectors(rng, 1000, NAT.kappa)
    kps = _sample_wave_vectors(rng, 1000, NAT.kappa)
    suite = identity_suite_batch(ks, kps, NAT.kappa)
    worst = max(worst, max(suite.values()))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(4, worst <= 1e-12 and elapsed < 10.0,
                f"algebra worst residual {worst:.2e} over 1000 draws, {elapsed:.2f}s")


def test_criterion_05_operator_suite(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        mag = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        k, kp = rng.normal(size=(2, 3))
        k *= mag[0] / np.linalg.norm(k)
        kp *= mag[1] / np.linalg.norm(kp)
        x, y = rng.normal(scale=1.5, size=(2, 4))
        worst = max(
            worst,
            dirac_residual(k, x, NAT.kappa),
            adjoint_dirac_residual(k, x, NAT.kappa),
            max(heisenberg_residual(s, k, x, NAT) for s in (1, 2, 3, 4)),
            max(inverse_relation_residual(s, k, x, NAT.kappa) for s in (1, 2, 3, 4)),
            mixed_car_residual(k, kp, x, y, NAT.kappa),
        )
        rf = r_current_stack(k, kp, x, NAT.kappa)
        rb = r_current_stack(kp, k, x, NAT.kappa)
        worst = max(worst, max(np.max(np.abs(rf[m].conj().T - rb[m])) for m in range(4)))
    with capsys.disabled():
        _report(5, worst <= 1e-12, f"operator suite worst residual {worst:.2e}")


def test_criterion_06_current_split(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        mu = int(rng.integers(0, 4))
        k, kp = rng.normal(size=(2, 3))
        x = rng.normal(size=4)
        full = j_current_stack(k, kp, x, NAT.kappa)[mu]
        parts = j_diag_stack(k, kp, x, NAT.kappa)[mu] + j_off_stack(k, kp, x, NAT.kappa)[mu]
        worst = max(worst, float(np.max(np.abs(full - parts))))
    with capsys.disabled():
        _report(6, worst <= 1e-12, f"current split worst residual {worst:.2e}")


def test_criterion_07_charge_structure(capsys):
    q = 1.3
    consts = PhysicalConstants(q=q)
    qhat = charge_operator(consts)
    spectrum = np.linalg.eigvalsh(qhat)
    expect = np.sort(np.repeat([-2 * q, -q, 0.0, q, 2 * q], [1, 4, 6, 4, 1]))
    spectrum_ok = np.max(np.abs(np.sort(spectrum) - expect)) < 1e-12
    rng = np.random.default_rng(0)
    comm = 0.0
    charge_pattern = 0.0
    for _ in range(20):
        k, kp = rng.normal(size=(2, 3))
        x = rng.normal(size=4)
        j = j_current_stack(k, kp, x, consts.kappa)
        comm = max(comm, max(float(np.max(np.abs(j[m] @ qhat - qhat @ j[m]))) for m in range(4)))
        charge_pattern = max(charge_pattern, integrated_charge_check(k, consts.kappa, consts))
    with capsys.disabled():
        _report(7, spectrum_ok and comm <= 1e-13 and charge_pattern <= 1e-12,
                f"spectrum ok {spectrum_ok}, [J, Q] {comm:.2e}, charge pattern {charge_pattern:.2e}")


def test_criterion_08_charge_conjugation_operator(capsys):
    sample = np.array([[0.3, -0.5, 0.8], [1.2, 0.1, -0.4], [-0.7, 0.9, 0.2]])
    chat, heldout = fock_charge_conjugation(NAT.kappa, sample)
    unitary = float(np.max(np.abs(chat.conj().T @ chat - np.eye(DIM))))
    rng = np.random.default_rng(0)
    adjoint = 0.0
    for _ in range(5):
        k = rng.normal(size=3)
        pa = psi_adjoint_matrices(k, np.zeros(4), NAT.kappa)
        p = psi_matrices(k, np.zeros(4), NAT.kappa)
        for r in range(4):
            lhs = chat @ pa[r] @ chat.conj().T
            rhs = -np.einsum("p,pij->ij", CONJUGATION[r], p)
            adjoint = max(adjoint, float(np.max(np.abs(lhs - rhs))))
    ok = unitary <= 1e-8 and heldout <= 1e-8 and adjoint <= 1e-8
    with capsys.disabled():
        _report(8, ok,
                f"unitarity {unitary:.2e}, held-out intertwining {heldout:.2e}, "
                f"adjoint relation {adjoint:.2e}")


def test_criterion_09_expectation_residuals(capsys, monkeypatch):
    t0 = time.perf_counter()
    limit = 10.0 * SPEC.abs_tol
    fam = sech2_family(1.0)
    xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4], [0.8, -0.6, 0.3, 0.1]])
    cl = classical_dirac_residual(fam, xs, SPEC, NAT, check=False)
    tp = two_point_dirac_residual(fam, fam, xs[1], xs[2], SPEC, NAT)
    audits = r_density_residuals(fam, xs, SPEC, NAT)
    reality = current_reality_residual(fam, gaussian_family(1.0), xs[1], SPEC, NAT)
    # r^mu(x) = Re tr(gamma^mu G(x, x)) with Im tr = 0, relative to max_mu |r^mu(x)|:
    # the densities against the two-point matrix, one field tensor contracted twice
    trace = 0.0
    for family in (fam, gaussian_family(1.0, 3, xi=lambda r: 0.3 * r), step_family(1.5, 4)):
        for x, r in zip(xs, r_density(family, xs, SPEC, NAT)):
            tr = np.einsum("mab,ba->m", GAMMA, two_point(family, family, x, x, SPEC, NAT))
            trace = max(trace, np.max(np.abs(tr - r)) / np.max(np.abs(r)))
    # the smeared currents, which the reality residual alone cannot pin down,
    # against the operator layer's double node sum at 3 x 8 nodes
    operator = max(operator_layer_gaps(monkeypatch))
    elapsed = time.perf_counter() - t0
    ok = (
        cl <= limit
        and tp <= limit
        and audits["continuity"] <= limit
        and audits["imag_max"] <= limit
        and audits["r0_min"] >= -limit
        and reality <= limit
        and trace <= 1e-12
        and operator <= 1e-13
        and elapsed < 60.0
    )
    with capsys.disabled():
        _report(9, ok,
                f"classical {cl:.2e}, two-point {tp:.2e}, continuity "
                f"{audits['continuity']:.2e}, reality {reality:.2e}, trace {trace:.2e}, "
                f"operator layer {operator:.2e}, {elapsed:.1f}s")


def test_criterion_10_verify_reports_reproducible(capsys):
    code_a = main(["verify", "--json", "--seed", "0"])
    first = capsys.readouterr().out
    code_b = main(["verify", "--json", "--seed", "0"])
    second = capsys.readouterr().out
    identical = first == second and first.encode("utf-8") == second.encode("utf-8")
    ok = code_a == 0 and code_b == 0 and identical and len(first) > 0
    with capsys.disabled():
        _report(10, ok, f"two verify runs byte-identical: {identical}")
