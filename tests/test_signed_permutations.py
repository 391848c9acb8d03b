"""The mode operators as signed gathers, against their dense 16 x 16 definition.

The engine never multiplies the dense stacks fock.ANNIHILATORS and
fock.CREATORS; these tests keep the dense application as the oracle for
every place that applies the gather tables instead.
"""

import itertools

import numpy as np
import pytest

from diracfock import expectation, fields, fock
from diracfock.constants import natural_units
from diracfock.fock import ANNIHILATORS, CREATORS, DIM, mode_annihilator, mode_creator
from diracfock.quadrature import QuadratureSpec
from diracfock.spinors import u_columns, v_columns
from diracfock.states import GeneralStateFamily, RhoStateFamily

NAT = natural_units()
MODES = (1, 2, 3, 4)
TABLES = {
    "annihilators": (fock.ANNIHILATOR_INDEX, fock.ANNIHILATOR_SIGN, mode_annihilator),
    "creators": (fock.CREATOR_INDEX, fock.CREATOR_SIGN, mode_creator),
}


def _random_z(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, DIM)) + 1.0j * rng.normal(size=(n, DIM))


def _dense_mode_actions(z, dagger=False):
    """The dense application that expectation._mode_actions replaces."""
    if dagger:
        first, second = CREATORS[:2], ANNIHILATORS[2:]
    else:
        first, second = ANNIHILATORS[:2], CREATORS[2:]
    return np.einsum("sij,nj->nsi", first, z), np.einsum("sij,nj->nsi", second, z)


def _dense_psi_halves(k, x, kappa):
    """The u-mode and v-mode halves of psi as dense stacks times the spinor columns."""
    k = np.asarray(k, dtype=float)
    e = fields.plane_phase(k, x, kappa)[..., None, None, None]
    plus = np.einsum("...rs,...sij->...rij", u_columns(k, kappa), e * ANNIHILATORS[:2])
    minus = np.einsum("...rs,...sij->...rij", v_columns(k, kappa), np.conj(e) * CREATORS[2:])
    return plus, minus


@pytest.mark.parametrize("table", sorted(TABLES))
def test_tables_rebuild_the_dense_operators(table):
    index, sign, dense = TABLES[table]
    assert not index.flags.writeable and not sign.flags.writeable
    for s in MODES:
        rebuilt = sign[s - 1, :, None] * (index[s - 1, :, None] == np.arange(DIM))
        assert np.array_equal(rebuilt, dense(s))
        assert np.count_nonzero(sign[s - 1]) == 8


@pytest.mark.parametrize("table", sorted(TABLES))
def test_gather_applies_each_operator(table):
    index, sign, dense = TABLES[table]
    z = _random_z(7, 1)
    for s in MODES:
        assert np.array_equal(z[:, index[s - 1]] * sign[s - 1], z @ dense(s).T)


def test_basis_states_match_dense_creators():
    for n in range(len(MODES) + 1):
        for occupied in itertools.combinations(MODES, n):
            state = fock.vacuum_state()
            for s in occupied:
                state = mode_creator(s) @ state
            assert np.array_equal(fock.basis_state(occupied), state)


@pytest.mark.parametrize("dagger", [False, True])
def test_mode_actions_match_dense_application(dagger):
    z = _random_z(50, 2)
    for got, want in zip(expectation._mode_actions(z, dagger), _dense_mode_actions(z, dagger)):
        assert got.shape == want.shape == (50, 2, DIM)
        assert np.max(np.abs(got - want)) <= 1e-15


def _random_general_family():
    # all sixteen coefficients nonzero, with k-dependent phases; |z_c| = 1/4
    phases = np.random.default_rng(3).normal(size=(3, DIM))
    return GeneralStateFamily(
        lambda kv: 0.25 * np.exp(1.0j * kv @ phases), k_cutoff=2.0, hard_cutoff=True
    )


FAMILIES = {
    "radial": RhoStateFamily(
        3,
        rho=lambda r: 1.0 / np.cosh(r) ** 2,
        xi=lambda r: 0.7 * r,
        k_cutoff=6.0,
        hard_cutoff=True,
    ),
    "general": _random_general_family(),
}
CALLS = {
    "spinor": lambda f, xs, sp: expectation._overlap_spinor(f, xs, sp, NAT, derivatives=True),
    "tensor": lambda f, xs, sp: expectation._field_tensor(f, xs, sp, NAT, derivatives=True),
    "tensor-dagger": lambda f, xs, sp: expectation._field_tensor(
        f, xs, sp, NAT, weighted=False, derivatives=True, dagger=True
    ),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_integrals_match_dense_application(family, call, monkeypatch):
    xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4], [-0.7, 1.1, 0.6, -0.9]])
    spec = QuadratureSpec(n_radial=12, n_theta=6)
    fast = CALLS[call](FAMILIES[family], xs, spec)
    monkeypatch.setattr(expectation, "_mode_actions", _dense_mode_actions)
    dense = CALLS[call](FAMILIES[family], xs, spec)
    for a, b in zip(fast, dense):
        assert np.max(np.abs(a - b)) <= 1e-15 * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("batched", [False, True])
def test_scattered_psi_matches_dense_halves(batched):
    rng = np.random.default_rng(4)
    shape = (6,) if batched else ()
    k, x = rng.normal(size=shape + (3,)), rng.normal(size=shape + (4,))
    plus, minus = _dense_psi_halves(k, x, 1.3)
    for plus_sign, want in ((1.0, plus + minus), (-1.0, minus - plus)):
        got = fields._scattered_psi(k, x, 1.3, plus_sign)
        assert got.shape == shape + (4, DIM, DIM)
        assert np.max(np.abs(got - want)) <= 1e-15
    assert np.max(np.abs(fields.psi_matrices(k, x, 1.3) - (plus + minus))) <= 1e-15
