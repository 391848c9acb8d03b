"""The mode operators as signed gathers, against their dense 16 x 16 definition.

The engine never multiplies the dense stacks fock.ANNIHILATORS and
fock.CREATORS; these tests keep the dense application as the oracle for
every place that applies the gather tables instead.  They also keep the
earlier layout of the spherical product rule as the oracle of its moment
form: many spheres per block, the spinor columns and the mode measure
evaluated at every node, and the spinor sandwich or the mode actions
contracted with those columns node by node.
"""

import itertools

import numpy as np
import pytest

from diracfock import expectation, fields, fock
from diracfock.constants import natural_units
from diracfock.fock import ANNIHILATORS, CREATORS, DIM, mode_annihilator, mode_creator
from diracfock.quadrature import QuadratureSpec, angular_rule, radial_rule
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
    """The dense application that expectation._mode_actions replaces, (Z1, Z2) each (n, 2, DIM)."""
    if dagger:
        first, second = CREATORS[:2], ANNIHILATORS[2:]
    else:
        first, second = ANNIHILATORS[:2], CREATORS[2:]
    return np.einsum("sij,nj->nsi", first, z), np.einsum("sij,nj->nsi", second, z)


def _dense_mode_side(zT, work, dagger=False):
    """expectation._mode_actions from the dense operators: rows (Z1, conj(Z2)), one column per node."""
    Z1, Z2 = _dense_mode_actions(zT.T, dagger)
    return np.concatenate([Z1, Z2.conj()], axis=1).reshape(len(Z1), -1).T


def _dense_sandwich(zT, work):
    """expectation._sandwich from the dense annihilators, over all 256 entries of each."""
    return np.einsum("cn,scd,dn->sn", zT.conj(), ANNIHILATORS, zT)


# the 32 nonzeros of the four annihilators as (row, column, sign) pairs, the
# form the product rule's sandwich took before the bit slices:
# <z| a_s |z> = sum_j conj(z[ROWS[j]]) z[COLS[j]] SIGNS[j, s]
_PAIR_MODE, _PAIR_ROWS = np.nonzero(fock.ANNIHILATOR_SIGN)
_PAIR_COLS = fock.ANNIHILATOR_INDEX[_PAIR_MODE, _PAIR_ROWS]
_PAIR_SIGNS = fock.ANNIHILATOR_SIGN[_PAIR_MODE, _PAIR_ROWS, None] * (_PAIR_MODE[:, None] == range(4))


def _pair_sandwich(z):
    """<z| a_s |z>, (n, 4), as one (n, 32) @ (32, 4) pair-product matrix product."""
    return (z.conj()[:, _PAIR_ROWS] * z[:, _PAIR_COLS]) @ _PAIR_SIGNS


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
    work = np.empty((4 * DIM, 50), dtype=np.complex128)
    got = expectation._mode_actions(np.ascontiguousarray(z.T), work, dagger)
    want = _dense_mode_side(z.T, None, dagger)
    assert got is work
    assert got.shape == want.shape == (4 * DIM, 50)
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
    monkeypatch.setattr(expectation, "_mode_actions", _dense_mode_side)
    monkeypatch.setattr(expectation, "_sandwich", _dense_sandwich)
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
        assert got.shape == shape + (4, 2, DIM // 2, DIM // 2)
        assert np.max(np.abs(fields._dense(got, fields._ODD) - want)) <= 1e-15
    assert np.max(np.abs(fields.psi_matrices(k, x, 1.3) - (plus + minus))) <= 1e-15


# -- the fermion-parity blocks of the operator layer --


def test_sectors_split_the_basis_by_occupation_parity():
    sectors = fields._SECTORS
    assert sorted(sectors.ravel()) == list(range(DIM))
    assert [[bin(n).count("1") % 2 for n in row] for row in sectors] == [[0] * 8, [1] * 8]
    for row in sectors:
        assert np.array_equal(fields._POSITION[row], np.arange(8))


@pytest.mark.parametrize("table", sorted(TABLES))
def test_mode_operators_survive_the_odd_blocks(table):
    for s in MODES:
        op = TABLES[table][2](s)
        assert np.array_equal(fields._dense(fields._blocks(op, fields._ODD), fields._ODD), op)
        assert not np.any(fields._blocks(op, fields._EVEN))


def test_even_operators_survive_the_even_blocks():
    pair = ANNIHILATORS[0] @ CREATORS[3]
    for op in (fock.total_number_operator(), fock.charge_operator(NAT), pair):
        assert np.array_equal(fields._dense(fields._blocks(op, fields._EVEN), fields._EVEN), op)


# two flipped occupation bits keep the parity; three change it, but no one mode acts
@pytest.mark.parametrize("flip", [0b11, 0b111], ids=["parity_preserving", "three_bits"])
def test_grading_check_rejects_a_support_entry_not_flipping_one_bit(flip):
    rows, cols, signs = (a.copy() for a in fields._PLUS_SUPPORT)
    fields._check_grading([(rows, cols, signs)], [])
    cols[0, 3] = rows[0, 3] ^ flip
    with pytest.raises(ImportError, match="does not flip exactly one occupation bit"):
        fields._check_grading([fields._MINUS_SUPPORT, (rows, cols, signs)], [])


def test_grading_check_rejects_an_even_table_between_sectors():
    even = fock.charge_operator(NAT)
    fields._check_grading([], [even])
    with pytest.raises(ImportError, match="an entry between the parity sectors"):
        fields._check_grading([], [even, even + 1e-3 * mode_annihilator(2)])


# -- the product rule in moment form, against the earlier per-node layout --


def _chunked_product_rule(family, spec):
    """The product rule in blocks of whole spheres holding up to 60,000 nodes together."""
    upper = expectation._momentum_limit(family, spec)
    r, wr = radial_rule(upper, spec.n_radial, family.breakpoints)
    dirs, wo = angular_rule(spec.n_theta)
    per = max(1, 60_000 // len(wo))
    for i in range(0, len(r), per):
        rs = r[i : i + per]
        ws = wr[i : i + per] * rs**2
        kv = (rs[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
        yield kv, (ws[:, None] * wo[None, :]).reshape(-1)


def _node_blocks(family, spec, consts, weighted=True):
    """(kv, k0, w, u, v, z) per chunked block: k0, the measure and the spinors at every node."""
    for kv, wq in _chunked_product_rule(family, spec):
        kmag = np.linalg.norm(kv, axis=-1)
        k0 = np.sqrt(consts.kappa**2 + kmag**2)
        w = wq * expectation._weight(kmag, consts) if weighted else wq
        u, v = u_columns(kv, consts.kappa), v_columns(kv, consts.kappa)
        yield kv, k0, w, u, v, family.coefficients(kv)


def _plane_weights(kv, k0, w, derivatives, xs):
    """w exp(-i k.x) per (x, node) and its d/dx^mu, which brings down -i k_mu."""
    E = np.exp(-1.0j * (np.outer(xs[:, 0], k0) - xs[:, 1:] @ kv.T)) * w
    if not derivatives:
        return E, None
    k_cov = np.column_stack([k0, -kv])
    return E, -1.0j * k_cov.T[None, :, :] * E[:, None, :]


def _gathered_sandwich(z):
    """<z| a_s |z> for modes 1, 2 and <z| a_s^dagger |z> for modes 3, 4, from the gather stack."""
    zc = z.conj()
    return tuple(np.einsum("nsc,nc->ns", Z, zc) for Z in _dense_mode_actions(z))


def _chunked_overlap_spinor(family, xs, spec, consts, derivatives=False):
    """expectation._overlap_spinor of a general family, spinor columns at every node."""
    phi = np.zeros((len(xs), 4), dtype=np.complex128)
    dphi = np.zeros((len(xs), 4, 4), dtype=np.complex128)
    for kv, k0, w, u, v, z in _node_blocks(family, spec, consts):
        y1, y2 = _gathered_sandwich(z)
        g1 = np.einsum("nrs,ns->nr", u, y1)
        g2 = np.einsum("nrs,ns->nr", v, y2)
        E, dE = _plane_weights(kv, k0, w, derivatives, xs)
        phi += E @ g1 + E.conj() @ g2
        if derivatives:
            dphi += dE @ g1 + dE.conj() @ g2
    return (phi, dphi) if derivatives else phi


def _chunked_field_tensor(family, xs, spec, consts, weighted=True, derivatives=False, dagger=False):
    """expectation._field_tensor of a general family, spinors and dense operators at every node."""
    T = np.zeros((len(xs), 4, DIM), dtype=np.complex128)
    Td = np.zeros((len(xs), 4, 4, DIM), dtype=np.complex128)
    for kv, k0, w, u, v, z in _node_blocks(family, spec, consts, weighted):
        Z1, Z2 = _dense_mode_actions(z, dagger)
        if dagger:
            u, v = u.conj(), v.conj()
        K1 = np.einsum("nrs,nsc->nrc", u, Z1)
        K2 = np.einsum("nrs,nsc->nrc", v, Z2)
        E, dE = _plane_weights(kv, k0, w, derivatives, xs)
        e1, e2 = (E.conj(), E) if dagger else (E, E.conj())
        T += np.einsum("xn,nrc->xrc", e1, K1) + np.einsum("xn,nrc->xrc", e2, K2)
        if derivatives:
            d1, d2 = (dE.conj(), dE) if dagger else (dE, dE.conj())
            Td += np.einsum("xmn,nrc->xmrc", d1, K1) + np.einsum("xmn,nrc->xmrc", d2, K2)
    return (T, Td) if derivatives else T


def _phased_general_family():
    # all sixteen coefficients nonzero, random magnitudes and k-dependent random phases
    rng = np.random.default_rng(6)
    amp = rng.uniform(0.2, 1.0, DIM)
    amp /= np.linalg.norm(amp)
    phases, offsets = rng.normal(size=(3, DIM)), rng.uniform(0.0, 2.0 * np.pi, DIM)
    return GeneralStateFamily(
        lambda kv: amp * np.exp(1.0j * (kv @ phases + offsets)), k_cutoff=2.0, hard_cutoff=True
    )


PHASED = _phased_general_family()
# 1152 directions per sphere: the chunked layout packs 52 spheres per block, so two blocks
PRODUCT_SPEC = QuadratureSpec(n_radial=60, n_theta=24)
XS = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4], [-0.7, 1.1, 0.6, -0.9]])


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("derivatives", [False, True])
def test_overlap_spinor_matches_chunked_layout(derivatives):
    got = expectation._overlap_spinor(PHASED, XS, PRODUCT_SPEC, NAT, derivatives=derivatives)
    want = _chunked_overlap_spinor(PHASED, XS, PRODUCT_SPEC, NAT, derivatives=derivatives)
    for a, b in zip(got, want) if derivatives else [(got, want)]:
        assert _relative_gap(a, b) <= 1e-14


TENSOR_VARIANTS = {
    "plain": {},
    "unweighted": {"weighted": False},
    "dagger": {"weighted": False, "dagger": True},
}


@pytest.mark.parametrize("dagger", [False, True])
def test_field_tensor_matches_chunked_layout(dagger):
    options = {"weighted": not dagger, "derivatives": True, "dagger": dagger}
    got = expectation._field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    want = _chunked_field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    for a, b in zip(got, want):
        assert _relative_gap(a, b) <= 1e-14


@pytest.mark.parametrize("variant", sorted(TENSOR_VARIANTS))
def test_field_tensor_variants_match_chunked_layout(variant):
    options = TENSOR_VARIANTS[variant]
    got = expectation._field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    want = _chunked_field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    assert _relative_gap(got, want) <= 1e-14


@pytest.mark.parametrize("call", sorted(CALLS))
def test_product_rule_evaluates_six_spinors_per_radius(call, monkeypatch):
    # the moment form reads u and v at k = +-r e_j only, never at the nodes
    counted = []
    for name in ("u_columns", "v_columns"):

        def counting(k, kappa, columns=getattr(expectation, name)):
            counted.append(np.asarray(k).size // 3)
            return columns(k, kappa)

        monkeypatch.setattr(expectation, name, counting)
    CALLS[call](PHASED, XS, PRODUCT_SPEC)
    assert sum(counted) == 2 * 6 * PRODUCT_SPEC.n_radial


def test_general_total_charge_matches_chunked_layout():
    qdiag = np.diag(fock.charge_operator(NAT)).real
    want = sum(
        float(np.sum(wq * (np.abs(PHASED.coefficients(kv)) ** 2 @ qdiag)))
        for kv, wq in _chunked_product_rule(PHASED, PRODUCT_SPEC)
    )
    got = expectation.total_charge(PHASED, PRODUCT_SPEC, NAT)
    assert abs(want) > 1.0  # random magnitudes: the charge does not cancel
    assert abs(got - want) <= 1e-14 * abs(want)


def test_pair_tables_rebuild_the_dense_sandwich():
    signs = expectation._BIT_SIGNS
    assert not signs.flags.writeable
    # eight pairs per mode, each signed +-1
    assert signs.shape == (4, 8)
    assert np.array_equal(np.abs(signs), np.ones((4, 8)))
    z = _random_z(40, 7)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    work = np.empty((expectation._SANDWICH_ROWS, 40), dtype=np.complex128)
    got = expectation._sandwich(np.ascontiguousarray(z.T), work).T
    want = np.einsum("nc,scd,nd->ns", z.conj(), ANNIHILATORS, z)
    assert np.max(np.abs(got - want)) <= 1e-15
    # against the pair-product form it replaces, and the gather stack
    assert np.max(np.abs(got - _pair_sandwich(z))) <= 1e-15
    y1, y2 = _gathered_sandwich(z)
    assert np.max(np.abs(got[:, :2] - y1)) <= 1e-15
    assert np.max(np.abs(got[:, 2:].conj() - y2)) <= 1e-15
