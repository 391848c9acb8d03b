import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from diracfock import fock
from diracfock.constants import PhysicalConstants, natural_units
from diracfock.fock import (
    DIM,
    basis_state,
    charge_operator,
    dispersion,
    hamiltonian,
    larmor_evolution_check,
    lift,
    mode_annihilator,
    mode_creator,
    number_operator,
    total_number_operator,
    vacuum_state,
)

MODES = (1, 2, 3, 4)


def test_car_mixed():
    eye = np.eye(DIM)
    for s in MODES:
        assert np.array_equal(fock.ANNIHILATORS[s - 1], mode_annihilator(s))
        assert np.array_equal(fock.CREATORS[s - 1], mode_creator(s))
    for s, t in itertools.product(MODES, MODES):
        anti = mode_annihilator(s) @ mode_creator(t) + mode_creator(t) @ mode_annihilator(s)
        assert np.max(np.abs(anti - (s == t) * eye)) == 0.0


def test_car_nilpotent():
    for s, t in itertools.product(MODES, MODES):
        anti = mode_annihilator(s) @ mode_annihilator(t) + mode_annihilator(t) @ mode_annihilator(s)
        assert np.max(np.abs(anti)) == 0.0


def test_vacuum_annihilated():
    vac = vacuum_state()
    assert vac[0] == 1.0
    for s in MODES:
        assert np.max(np.abs(mode_annihilator(s) @ vac)) == 0.0


def test_basis_states_orthonormal_and_indexed():
    subsets = [set(c) for n in range(5) for c in itertools.combinations(MODES, n)]
    states = [basis_state(sub) for sub in subsets]
    for sub, state in zip(subsets, states):
        idx = sum(1 << (s - 1) for s in sub)
        # all weight sits on the binary-coded index; JW strings only flip sign
        assert abs(abs(state[idx]) - 1.0) < 1e-15
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
    gram = np.array([[abs(a @ b.conj()) for b in states] for a in states])
    assert np.max(np.abs(gram - np.eye(16))) < 1e-15


def test_single_mode_states_positive():
    for s in MODES:
        state = basis_state([s])
        assert state[1 << (s - 1)] == 1.0


def test_number_operator_counts():
    for sub in ([], [2], [1, 3], [1, 2, 3, 4]):
        state = basis_state(sub)
        for s in MODES:
            expected = 1.0 if s in sub else 0.0
            assert np.allclose(number_operator(s) @ state, expected * state)
        assert np.allclose(total_number_operator() @ state, len(sub) * state)


def test_annihilator_kills_empty_mode():
    state = basis_state([1, 4])
    for s in (2, 3):
        assert np.max(np.abs(mode_annihilator(s) @ state)) == 0.0


def test_dispersion_and_hamiltonian():
    consts = PhysicalConstants(hbar=2.0, c=3.0, kappa=0.5)
    k = np.array([0.3, -0.4, 1.2])
    k0, omega = dispersion(k, consts)
    assert k0 == pytest.approx(np.sqrt(0.25 + k @ k))
    assert omega == pytest.approx(3.0 * k0)
    h = hamiltonian(k, consts)
    state = basis_state([1, 3, 4])
    assert np.allclose(h @ state, 3.0 * consts.hbar * omega * state)
    evals = np.linalg.eigvalsh(h)
    assert evals.min() == pytest.approx(0.0, abs=1e-12)
    assert evals.max() == pytest.approx(4.0 * consts.hbar * omega)


def test_charge_spectrum():
    q = 1.7
    op = charge_operator(PhysicalConstants(q=q))
    evals = np.sort(np.linalg.eigvalsh(op))
    expected = np.sort(np.concatenate([[-2.0], [-1.0] * 4, [0.0] * 6, [1.0] * 4, [2.0]]) * q)
    assert np.max(np.abs(evals - expected)) < 1e-12


def test_charge_signs_per_mode():
    consts = natural_units()
    op = charge_operator(consts)
    for s, sign in zip(MODES, (1, 1, -1, -1)):
        state = basis_state([s])
        assert state.conj() @ op @ state == pytest.approx(sign * consts.q)


def test_larmor_precession():
    for omega, t in [(1.0, 0.1), (0.7, 2.3), (3.0, 11.0)]:
        res = larmor_evolution_check(omega, t)
        assert max(res.values()) < 1e-12


def test_propagator_matches_scipy_expm():
    # scipy's expm built the Larmor propagator before; it stays as the oracle
    for omega, t in [(1.0, 0.1), (0.7, 2.3), (3.0, 11.0), (0.25, -4.0)]:
        h = 0.5 * omega * (np.eye(2) - np.diag([1.0, -1.0]))
        assert np.abs(fock._propagator(h, t) - expm(-1.0j * h * t)).max() <= 1e-15


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, diracfock; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_mode_index_validation():
    with pytest.raises(ValueError):
        mode_annihilator(0)
    with pytest.raises(ValueError):
        basis_state([5])


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1.0j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestLift:
    def test_identity_and_zero(self):
        assert np.array_equal(lift(np.eye(4)), np.eye(DIM))
        # the zero map keeps the vacuum alone: Gamma(0) = |0><0|
        assert np.array_equal(lift(np.zeros((4, 4))), np.outer(vacuum_state(), vacuum_state()))

    def test_homomorphism_and_unitarity(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            m, n = _random_unitary(rng), _random_unitary(rng)
            assert np.abs(lift(m) @ lift(n) - lift(m @ n)).max() < 1e-14
            assert np.abs(lift(m).conj().T @ lift(m) - np.eye(DIM)).max() < 1e-14

    def test_maps_each_creator(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            m = _random_unitary(rng)
            g = lift(m)
            for s in MODES:
                mapped = np.einsum("t,tij->ij", m[:, s - 1], fock.CREATORS)
                assert np.abs(g @ fock.CREATORS[s - 1] @ g.conj().T - mapped).max() < 1e-14

    def test_diagonal_map_is_the_translation_phase(self):
        # a phase exp(-i k.a) per particle mode and exp(+i k.a) per antiparticle
        # mode lifts to exp(i k.a (N_a - N_p)), the translation of a state family
        phase = np.array([0.8, -1.3, 0.4]) @ np.array([0.3, -0.2, 0.25])
        charge = fock.OCCUPATION[:, 2:].sum(axis=1) - fock.OCCUPATION[:, :2].sum(axis=1)
        g = lift(np.diag(np.exp(1.0j * phase * np.array([-1, -1, 1, 1]))))
        assert np.abs(g - np.diag(np.exp(1.0j * phase * charge))).max() < 1e-15

    def test_rejects_a_map_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="4 x 4"):
            lift(np.eye(3))
