"""The mode operators as signed copies, against their dense 16 x 16 definition.

The engine never multiplies the dense stacks fock.ANNIHILATORS and
fock.CREATORS; these tests keep the dense application as the oracle for
every place that applies fock's basis tables instead, and show that the
one import check on those tables trips on a corrupted stack.  They also
keep the earlier layout of the spherical product rule as the oracle of
its moment form: many spheres per block, the spinor columns and the mode
measure evaluated at every node, and the spinor sandwich or the mode
actions contracted with those columns node by node; and the moments of
the grid-ordered rule, every node's phase taken whole, as the oracle of
the mirrored one.  The engine forms the adjoint field tensor as
gamma^0 C^-1 T(C_hat z) C_hat; its oracle here contracts a state side of
the adjoint operators and conjugates.
"""

import itertools
from functools import partial

import numpy as np
import pytest

from diracfock import currents, expectation, fields, fock
from diracfock.constants import natural_units
from diracfock.fock import ANNIHILATORS, CREATORS, DIM, mode_annihilator, mode_creator
from diracfock.gamma import CONJUGATION, GAMMA, GAMMA0
from diracfock.quadrature import QuadratureSpec, angular_rule
from diracfock.spinors import u_columns, v_columns
from diracfock.states import GeneralStateFamily, RhoStateFamily, gaussian_family, sech2_family

NAT = natural_units()
MODES = (1, 2, 3, 4)
# (rows, cols, dense): each operator has the entries fock.SIGNS at (rows[s - 1], cols[s - 1])
TABLES = {
    "annihilators": (fock.ROWS, fock.COLS, mode_annihilator),
    "creators": (fock.COLS, fock.ROWS, mode_creator),
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


def _dense_mode_side(zT, dagger=False):
    """expectation._mode_actions from the dense operators, one column per node.

    Rows (Z1, conj(Z2)), or with dagger (conj(Z1), Z2): the rows paired with u conjugated.
    """
    Z1, Z2 = _dense_mode_actions(zT.T, dagger)
    rows = [Z1.conj(), Z2] if dagger else [Z1, Z2.conj()]
    return np.concatenate(rows, axis=1).reshape(len(Z1), -1).T


CHAT = fock.CHARGE_CONJUGATION
# gamma^0 C^-1: the adjoint field tensor is D = ADJOINT T(C_hat z) C_hat
ADJOINT = GAMMA0 @ CONJUGATION.conj().T


def _conjugate_side(zT):
    """expectation._mode_actions of C_hat z, C_hat applied as expectation's signed row gather."""
    return expectation._mode_actions(expectation._C_SIGNS * zT[expectation._C_ROWS])


def unweighted_tensor(family, xs, spec, derivatives=False, conjugate=False):
    """The field tensor of z, or of C_hat z, without the mode measure: a smeared-current pass."""
    side = _conjugate_side if conjugate else expectation._mode_actions
    T, Td = expectation._accumulate(family, xs, spec, NAT, side, 4 * DIM, False, derivatives)
    T = T.reshape(-1, 4, DIM)
    return (T, Td.reshape(-1, 4, 4, DIM)) if derivatives else T


def adjoint_tensor(family, xs, spec):
    """The unweighted adjoint field tensor D = ADJOINT T(C_hat z) C_hat and its d/dx^mu."""
    return tuple(ADJOINT @ T @ CHAT for T in unweighted_tensor(family, xs, spec, True, True))


def _dense_adjoint_tensor(family, xs, spec, derivatives=True):
    """adjoint_tensor's oracle: the contraction against the dense dagger side, conjugated."""
    side = partial(_dense_mode_side, dagger=True)
    T, Td = expectation._accumulate(family, xs, spec, NAT, side, 4 * DIM, False, derivatives)
    T = T.conj().reshape(-1, 4, DIM)
    return (T, Td.conj().reshape(-1, 4, 4, DIM)) if derivatives else T


def _dense_sandwich(zT):
    """expectation._sandwich from the dense annihilators, over all 256 entries of each."""
    return np.einsum("cn,scd,dn->sn", zT.conj(), ANNIHILATORS, zT)


# the 32 nonzeros of the four annihilators as (row, column, sign) pairs, read off
# the dense stack, the form the product rule's sandwich took before the bit slices:
# <z| a_s |z> = sum_j conj(z[ROWS[j]]) z[COLS[j]] SIGNS[j, s]
_PAIR_MODE, _PAIR_ROWS, _PAIR_COLS = np.nonzero(ANNIHILATORS)
_PAIR_SIGNS = ANNIHILATORS.real[_PAIR_MODE, _PAIR_ROWS, _PAIR_COLS, None] * (
    _PAIR_MODE[:, None] == range(4)
)


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
    rows, cols, dense = TABLES[table]
    assert not any(a.flags.writeable for a in (rows, cols, fock.SIGNS))
    for s in MODES:
        rebuilt = np.zeros((DIM, DIM))
        rebuilt[rows[s - 1], cols[s - 1]] = fock.SIGNS[s - 1]
        assert np.array_equal(rebuilt, dense(s))
        assert np.array_equal(np.abs(fock.SIGNS[s - 1]), np.ones(8))


@pytest.mark.parametrize("table", sorted(TABLES))
def test_gather_applies_each_operator(table):
    rows, cols, dense = TABLES[table]
    z = _random_z(7, 1)
    for s in MODES:
        got = np.zeros_like(z)
        got[:, rows[s - 1]] = z[:, cols[s - 1]] * fock.SIGNS[s - 1]
        assert np.array_equal(got, z @ dense(s).T)


def test_apply_creator_matches_dense_creators():
    z = _random_z(7, 8)
    for s in MODES:
        for state in z:
            assert np.array_equal(fock.apply_creator(s, state), mode_creator(s) @ state)


def test_bit_slices_are_the_table_rows_and_cols():
    basis = np.arange(DIM).reshape((2,) * len(MODES))
    for s in MODES:
        assert np.array_equal(basis[fock.BIT_CLEAR[s - 1]].ravel(), fock.ROWS[s - 1])
        assert np.array_equal(basis[fock.BIT_SET[s - 1]].ravel(), fock.COLS[s - 1])


def test_occupation_is_the_diagonal_of_the_number_operators():
    assert fock.OCCUPATION.shape == (DIM, len(MODES))
    for s in MODES:
        assert np.array_equal(fock.OCCUPATION[:, s - 1], np.diag(fock.number_operator(s)).real)
        # a_s empties mode s: its rows hold the bit clear, its columns the bit set
        assert not np.any(fock.OCCUPATION[fock.ROWS[s - 1], s - 1])
        assert np.all(fock.OCCUPATION[fock.COLS[s - 1], s - 1])


def test_basis_states_match_dense_creators():
    for n in range(len(MODES) + 1):
        for occupied in itertools.combinations(MODES, n):
            state = fock.vacuum_state()
            for s in occupied:
                state = mode_creator(s) @ state
            assert np.array_equal(fock.basis_state(occupied), state)


@pytest.mark.parametrize("conjugate", [False, True])
def test_mode_actions_match_dense_application(conjugate):
    # with conjugate, the state side of C_hat z: the row gather against the dense C_hat
    z = _random_z(50, 2)
    zT = np.ascontiguousarray(z.T)
    got = _conjugate_side(zT) if conjugate else expectation._mode_actions(zT)
    want = _dense_mode_side(CHAT @ zT if conjugate else zT)
    assert got.shape == want.shape == (4 * DIM, 50)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_conjugation_gather_is_the_dense_charge_conjugation():
    z = _random_z(7, 5).T
    assert np.array_equal(expectation._C_SIGNS * z[expectation._C_ROWS], CHAT @ z)


def _random_general_family():
    # all sixteen coefficients nonzero, with k-dependent phases; |z_c| = 1/4
    phases = np.random.default_rng(3).normal(size=(3, DIM))
    return GeneralStateFamily(
        lambda kv: 0.25 * np.exp(1.0j * kv @ phases), k_cutoff=2.0, hard_cutoff=True
    )


def _mixed_general_family():
    # the live bit slices change from sphere to sphere: the vacuum alone inside
    # |k| < 0.6, the vacuum and mode 3 up to 1.3, all sixteen states beyond
    rng = np.random.default_rng(9)
    amp = rng.uniform(0.2, 1.0, DIM)
    amp /= np.linalg.norm(amp)
    phases = rng.normal(size=(3, DIM))

    def z(kv):
        r = np.linalg.norm(kv, axis=-1)
        out = amp * np.exp(1.0j * kv @ phases)
        one_mode = np.zeros_like(out)
        one_mode[:, 0], one_mode[:, 4] = np.sqrt(0.7), np.sqrt(0.3) * np.exp(1.0j * kv[:, 2])
        out[r < 1.3] = one_mode[r < 1.3]
        out[r < 0.6] = fock.vacuum_state()
        return out

    return GeneralStateFamily(z, k_cutoff=2.0, hard_cutoff=True)


MIXED = _mixed_general_family()
FAMILIES = {
    "mixed": MIXED,
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
    "tensor-dagger": adjoint_tensor,
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


class _PoisonedNumpy:
    """numpy, except that np.empty returns NaN-filled arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        fill = complex(np.nan, np.nan) if np.dtype(dtype).kind == "c" else np.nan
        return np.full(shape, fill, dtype)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_integrals_write_every_allocated_entry(family, monkeypatch):
    # fresh pages are zero, so an entry of an np.empty array that is never
    # written (the source rows _mode_actions zeroes, say) can pass the dense
    # oracles by luck; NaN-filled allocations must leave every bit unchanged
    xs = np.array([[0.0, 0.0, 0.0, 0.0], [0.3, 0.5, -0.2, 0.4], [-0.7, 1.1, 0.6, -0.9]])
    spec = QuadratureSpec(n_radial=12, n_theta=6)
    plain = lambda f, xs, sp: (expectation._field_tensor(f, xs, sp, NAT),)
    calls = {"tensor-plain": plain, **CALLS}
    clean = {name: call(FAMILIES[family], xs, spec) for name, call in calls.items()}
    monkeypatch.setattr(expectation, "np", _PoisonedNumpy())
    for name, call in calls.items():
        poisoned = call(FAMILIES[family], xs, spec)
        assert [a.tobytes() for a in poisoned] == [a.tobytes() for a in clean[name]], name


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
    sectors = fock.SECTORS
    assert sorted(sectors.ravel()) == list(range(DIM))
    assert [[bin(n).count("1") % 2 for n in row] for row in sectors] == [[0] * 8, [1] * 8]
    for parity, row in enumerate(sectors):
        assert np.array_equal(fock.POSITION[row], np.arange(8))
        assert np.all(fock.PARITY[row] == parity)


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


# each sets entries (mode - 1, row, col) of a copy of the annihilator stack
CORRUPTIONS = {
    # two flipped occupation bits keep the parity, so an even product would gain
    # an entry between the sectors; three change it, but no one mode acts
    "parity_preserving": [((0, 0, 0b11), 1.0)],
    "three_bits": [((2, 0, 0b111), -1.0)],
    # a_2's entry in row 0 moved from column 2 to column 7: still 32 entries
    "moved_entry": [((1, 0, 2), 0.0), ((1, 0, 7), 1.0)],
    "scaled_entry": [((3, 0, 8), 0.5)],
    "phased_entry": [((1, 1, 3), 1.0j)],
}


def test_table_check_accepts_the_annihilators():
    fock._check_tables(ANNIHILATORS.copy())


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_table_check_rejects_a_corrupted_stack(corruption):
    stack = ANNIHILATORS.copy()
    for entry, value in CORRUPTIONS[corruption]:
        stack[entry] = value
    assert not np.array_equal(stack, ANNIHILATORS)
    with pytest.raises(ImportError, match="do not pair the basis states"):
        fock._check_tables(stack)


# -- the product rule in moment form, against the earlier per-node layout --


def _chunked_product_rule(family, spec):
    """The product rule in blocks of whole spheres holding up to 60,000 nodes together."""
    r, wr = expectation._radial_nodes(family, spec)
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


def _grid_plane_moments(kvT, k0, w, dirs, derivatives, xs):
    """expectation._plane_moments before the mirrored rule: cos and sin of every node's whole phase."""
    ni, m = w.shape
    W = np.empty((ni, len(xs), 4, m), dtype=np.complex128)
    E = W[:, :, 0]
    phase = np.matmul(xs[:, 1:], kvT)
    phase -= xs[:, :1] * k0[:, None, None]
    np.cos(phase, out=E.real)
    np.sin(phase, out=E.imag)
    E *= w[:, None]
    np.multiply(E[:, :, None], dirs.T, out=W[:, :, 1:])
    if not derivatives:
        return W, None
    dW = np.empty((ni, 3, len(xs), 4, m), dtype=np.complex128)
    np.multiply(W[:, None], 1.0j * kvT[:, :, None, None], out=dW)
    return W, dW


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


def _phased_general_family(seed=6):
    # all sixteen coefficients nonzero, random magnitudes and k-dependent random phases
    rng = np.random.default_rng(seed)
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


# each (engine call, options of _chunked_field_tensor)
TENSOR_VARIANTS = {
    "plain": (lambda: expectation._field_tensor(PHASED, XS, PRODUCT_SPEC, NAT), {}),
    "unweighted": (lambda: unweighted_tensor(PHASED, XS, PRODUCT_SPEC), {"weighted": False}),
    "dagger": (
        lambda: adjoint_tensor(PHASED, XS, PRODUCT_SPEC)[0],
        {"weighted": False, "dagger": True},
    ),
}


@pytest.mark.parametrize("dagger", [False, True])
def test_field_tensor_matches_chunked_layout(dagger):
    options = {"weighted": not dagger, "derivatives": True, "dagger": dagger}
    if dagger:
        got = adjoint_tensor(PHASED, XS, PRODUCT_SPEC)
    else:
        got = expectation._field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, derivatives=True)
    want = _chunked_field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    for a, b in zip(got, want):
        assert _relative_gap(a, b) <= 1e-14


@pytest.mark.parametrize("variant", sorted(TENSOR_VARIANTS))
def test_field_tensor_variants_match_chunked_layout(variant):
    call, options = TENSOR_VARIANTS[variant]
    want = _chunked_field_tensor(PHASED, XS, PRODUCT_SPEC, NAT, **options)
    assert _relative_gap(call(), want) <= 1e-14


ADJOINT_FAMILIES = {
    **FAMILIES,
    "phased": PHASED,
    "sech2-phased": sech2_family(1.0, chi=lambda r: np.full_like(r, 0.4), xi=lambda r: 0.3 * r),
    "gaussian-3": gaussian_family(1.0, occupied=3),
    "sech2-wrapped": GeneralStateFamily(sech2_family(1.0).coefficients, 40.0),
}


@pytest.mark.parametrize("derivatives", [False, True])
@pytest.mark.parametrize("family", sorted(ADJOINT_FAMILIES))
def test_adjoint_tensor_is_the_conjugate_pass_bit_for_bit(family, derivatives):
    # C_hat psi C_hat^dagger = C psi_a: the adjoint side's contraction, conjugated,
    # is gamma^0 C^-1 T(C_hat z) C_hat, not only to roundoff but in every bit
    fam, spec = ADJOINT_FAMILIES[family], QuadratureSpec(n_radial=12, n_theta=6)
    want = _dense_adjoint_tensor(fam, XS, spec, derivatives)
    T = unweighted_tensor(fam, XS, spec, derivatives, conjugate=True)
    for a, b in zip(T, want) if derivatives else [(T, want)]:
        assert np.array_equal(ADJOINT @ a @ CHAT, b)


def _normal_and_antinormal(bra, ket, x, spec):
    """The normal and antinormal terms of the smeared <a| j b>, from T and the adjoint D."""
    g0 = GAMMA0.real
    Ta, Tb = (unweighted_tensor(f, x, spec)[0] for f in (bra, ket))
    Da, Db = (_dense_adjoint_tensor(f, x, spec, derivatives=False)[0] for f in (bra, ket))
    first = np.einsum("mrq,rc,qc->m", GAMMA, (g0 @ Ta).conj(), Tb)
    second = np.einsum("mqr,rc,qc->m", GAMMA, Da.conj(), g0 @ Db)
    return first, second


SMEARED_PAIRS = {
    "radial": (FAMILIES["radial"], gaussian_family(1.0, occupied=2, xi=lambda r: 0.3 * r)),
    "general": (FAMILIES["general"], FAMILIES["radial"]),
    "mixed": (MIXED, PHASED),
}
SMEARED_SPEC = QuadratureSpec(n_radial=24, n_theta=8)


@pytest.mark.parametrize("pair", sorted(SMEARED_PAIRS))
def test_smeared_currents_match_normal_minus_antinormal(pair, monkeypatch):
    # X = <a| j b> and Y = <b| j a> as current_reality_residual forms them, at spec alone
    values = []

    def first_run(run, spec, *args, **kwargs):
        values.append(run(spec))
        return values[-1]

    monkeypatch.setattr(expectation, "_field_guard", first_run)
    fa, fb = SMEARED_PAIRS[pair]
    x = XS[2]
    expectation.current_reality_residual(fa, fb, x, SMEARED_SPEC, NAT)
    pref = 0.5 * NAT.q * NAT.c / (2.0 * np.pi) ** 3
    for got, (bra, ket) in zip(values[0], [(fa, fb), (fb, fa)]):
        first, second = _normal_and_antinormal(bra, ket, x, SMEARED_SPEC)
        scale = pref * max(np.max(np.abs(first)), np.max(np.abs(second)))
        assert np.max(np.abs(got - pref * (first - second))) <= 1e-14 * scale


def _operator_smeared_current(bra, ket, x, spec, current=currents.j_current_conjugated_stack):
    """<a| j b> smeared as the operator layer writes it, every pair of nodes at once.

    X^mu = q c / (2 pi)^3 sum_{n n'} w_n w_n' a(k_n)^dagger J^mu(k_n, k_n', x) b(k_n'),
    w the product-rule weights without the mode measure; the two families
    share their cutoff, so one rule serves both sides.
    """
    r, wr = expectation._radial_nodes(bra, spec)
    dirs, wo = angular_rule(spec.n_theta)
    k = (r[:, None, None] * dirs).reshape(-1, 3)
    w = np.outer(wr * r**2, wo).ravel()
    za, zb = (w[:, None] * f.coefficients(k) for f in (bra, ket))
    J = current(k[:, None], k[None, :], x, NAT.kappa)  # (n, n', mu, 16, 16)
    return NAT.q * NAT.c / (2.0 * np.pi) ** 3 * np.einsum("nc,nmucd,md->u", za.conj(), J, zb)


# two dense families at 3 x 8 nodes: 576 node pairs, and the 64-row state side of
# each family's field-tensor pass takes all three spheres in one block
OPERATOR_PAIR = (PHASED, _phased_general_family(seed=11))
OPERATOR_SPEC = QuadratureSpec(n_radial=3, n_theta=2)


def operator_layer_gaps(monkeypatch, current=currents.j_current_conjugated_stack):
    """Relative gaps of current_reality_residual's <a| j b> and <b| j a> from the operator layer.

    OPERATOR_PAIR at XS[2] and OPERATOR_SPEC, the tensor form taken at the
    spec alone; current replaces the operator layer's current stack.
    """
    values = []

    def first_run(run, spec, *args, **kwargs):
        values.append(run(spec))
        return values[-1]

    fa, fb = OPERATOR_PAIR
    x = XS[2]
    with monkeypatch.context() as patch:
        patch.setattr(expectation, "_field_guard", first_run)
        expectation.current_reality_residual(fa, fb, x, OPERATOR_SPEC, NAT)
    return [
        _relative_gap(got, _operator_smeared_current(bra, ket, x, OPERATOR_SPEC, current))
        for got, (bra, ket) in zip(values[0], [(fa, fb), (fb, fa)])
    ]


@pytest.mark.parametrize("control", [False, True])
def test_smeared_currents_match_the_operator_layer(control, monkeypatch):
    # the tensor form pref [B(T_a, T_b) - B(T_Ca, T_Cb)] of current_reality_residual
    # against the double node sum of currents.j_current_conjugated_stack; the
    # control puts the r-current, which has no conjugation-odd projection, in its place
    assert _block_counts(OPERATOR_SPEC) == [1, 1]
    current = currents.r_current_stack if control else currents.j_current_conjugated_stack
    for gap in operator_layer_gaps(monkeypatch, current):
        assert gap > 0.5 if control else gap <= 1e-13


def _count_spinors(monkeypatch):
    """A list that grows by the number of wave vectors of each u_columns or v_columns call."""
    counted = []
    for name in ("u_columns", "v_columns"):

        def counting(k, kappa, columns=getattr(expectation, name)):
            counted.append(np.asarray(k).size // 3)
            return columns(k, kappa)

        monkeypatch.setattr(expectation, name, counting)
    return counted


@pytest.mark.parametrize("call", sorted(CALLS))
def test_product_rule_evaluates_six_spinors_per_radius(call, monkeypatch):
    # the moment form reads u and v at k = +-r e_j only, never at the nodes
    counted = _count_spinors(monkeypatch)
    CALLS[call](PHASED, XS, PRODUCT_SPEC)
    assert sum(counted) == 2 * 6 * PRODUCT_SPEC.n_radial


@pytest.mark.parametrize("derivatives", [False, True])
def test_sandwich_skips_match_chunked_layout(derivatives):
    got = expectation._overlap_spinor(MIXED, XS, PRODUCT_SPEC, NAT, derivatives=derivatives)
    want = _chunked_overlap_spinor(MIXED, XS, PRODUCT_SPEC, NAT, derivatives=derivatives)
    for a, b in zip(got, want) if derivatives else [(got, want)]:
        assert _relative_gap(a, b) <= 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("rows", [(0,), (5,), (0, 4), (3, 12), tuple(range(DIM))])
def test_sandwich_skips_lose_no_nan_or_inf(rows, bad):
    # a skipped mode's row is zero where the full product had 0 * NaN = NaN: a
    # non-finite entry must still leave its node of the result non-finite
    zT = np.zeros((DIM, 6), dtype=np.complex128)
    zT[list(rows)] = _random_z(6, 3).T[: len(rows)]
    zT[rows[-1], 2] = bad
    with np.errstate(invalid="ignore"):  # 0 * inf
        got = expectation._sandwich(zT)
        want = _pair_sandwich(zT.T).T
    assert np.array_equal(np.isfinite(got).all(axis=0), np.isfinite(want).all(axis=0))
    assert np.array_equal(np.isfinite(got).all(axis=0), np.arange(6) != 2)


def _small_supports():
    """Every set of one, two or three basis rows."""
    return [rows for n in (1, 2, 3) for rows in itertools.combinations(range(DIM), n)]


def test_live_pair_sandwich_matches_the_oracles_on_small_supports():
    # pairs of one mode are disjoint, so up to three rows give each mode at most
    # one live pair: the pair-product oracle's sum over zero products must give
    # the one signed product the sandwich forms, bit for bit (the dense einsum
    # rounds its triple products its own way)
    rng = np.random.default_rng(13)
    for rows in _small_supports():
        zT = np.zeros((DIM, 5), dtype=np.complex128)
        zT[list(rows)] = rng.normal(size=(len(rows), 5)) + 1.0j * rng.normal(size=(len(rows), 5))
        zT /= np.linalg.norm(zT, axis=0)
        got, pair = expectation._sandwich(zT), _pair_sandwich(zT.T).T
        assert got.tobytes() == pair.tobytes(), rows
        assert np.max(np.abs(got - _dense_sandwich(zT))) <= 1e-15, rows


class _SignsSpy:
    """fock.SIGNS that records, per read, the mode and the number of signs read."""

    def __init__(self):
        self.reads = []

    def __getitem__(self, key):
        signs = fock.SIGNS[key]
        self.reads.append((int(key[0]), signs.size))
        return signs


def test_sandwich_forms_one_mode_for_the_wrapped_two_component_family(monkeypatch):
    # sech^2 wrapped as a general family, as the benchmark's field_audit has it,
    # fills the vacuum and mode 1 only: of the 32 basis pairs only (vacuum, mode 1)
    # has both rows live, so each block of spheres forms that one pair product
    radial = sech2_family(1.0)
    wrapped = GeneralStateFamily(radial.coefficients, radial.k_cutoff)
    side = expectation._sandwich
    blocks = sum(1 for _ in expectation._blocks(wrapped, PRODUCT_SPEC, NAT, side, 4, True, False))
    assert blocks < PRODUCT_SPEC.n_radial  # several spheres per block
    spy = _SignsSpy()
    monkeypatch.setattr(expectation, "SIGNS", spy)
    got = expectation._overlap_spinor(wrapped, XS, PRODUCT_SPEC, NAT)
    assert spy.reads == [(0, 1)] * blocks
    assert _relative_gap(got, _chunked_overlap_spinor(wrapped, XS, PRODUCT_SPEC, NAT)) <= 1e-14


def _einsum_contraction(u, v, S):
    """expectation._radial_contraction as the two einsums it replaced."""
    ni = len(u)
    S = S.reshape(4, -1, ni)
    K1 = np.einsum("iars,sci->iarc", u, S[:2]).reshape(4 * ni, -1)
    K2 = np.einsum("iars,sci->iarc", v, S[2:].conj()).reshape(4 * ni, -1)

    def contract(W):
        W = W.reshape(*W.shape[:-2], 4 * ni)
        return [W @ K1 + W.conj() @ K2]

    return lambda W, dW: (contract(W), () if dW is None else contract(dW))


RADIAL_VARIANTS = {
    "spinor": lambda f: (expectation._overlap_spinor(f, XS, PRODUCT_SPEC, NAT),),
    "spinor-derivatives": lambda f: expectation._overlap_spinor(
        f, XS, PRODUCT_SPEC, NAT, derivatives=True
    ),
    "tensor-plain": lambda f: (expectation._field_tensor(f, XS, PRODUCT_SPEC, NAT),),
    "tensor-derivatives": lambda f: expectation._field_tensor(
        f, XS, PRODUCT_SPEC, NAT, derivatives=True
    ),
    "tensor-unweighted": lambda f: (unweighted_tensor(f, XS, PRODUCT_SPEC),),
    "tensor-dagger": lambda f: adjoint_tensor(f, XS, PRODUCT_SPEC),
}


@pytest.mark.parametrize("variant", sorted(RADIAL_VARIANTS))
def test_radial_contraction_matches_einsum_bit_for_bit(variant, monkeypatch):
    call = RADIAL_VARIANTS[variant]
    constant_phase = sech2_family(1.0, occupied=2, chi=lambda r: np.full_like(r, 0.4))
    for radial in (FAMILIES["radial"], constant_phase):
        batched = call(radial)
        with monkeypatch.context() as patch:
            patch.setattr(expectation, "_radial_contraction", _einsum_contraction)
            oracle = call(radial)
        assert [a.tobytes() for a in batched] == [a.tobytes() for a in oracle]


# 128 directions per sphere: the 4-row sandwich takes 36 spheres per block, the
# 64-row mode actions 9, so both sides contract several spheres in one product
BLOCK_SPEC = QuadratureSpec(n_radial=60, n_theta=8)
BLOCK_CALLS = {
    "spinor": lambda: (expectation._overlap_spinor(PHASED, XS, BLOCK_SPEC, NAT),),
    "spinor-derivatives": lambda: expectation._overlap_spinor(
        PHASED, XS, BLOCK_SPEC, NAT, derivatives=True
    ),
    "tensor": lambda: (expectation._field_tensor(PHASED, XS, BLOCK_SPEC, NAT),),
    "tensor-derivatives": lambda: expectation._field_tensor(
        PHASED, XS, BLOCK_SPEC, NAT, derivatives=True
    ),
}


def _block_counts(spec):
    """The number of product-rule blocks for the sandwich's and the mode actions' state side."""
    sides = [(expectation._sandwich, 4), (expectation._mode_actions, 4 * DIM)]
    return [
        sum(1 for _ in expectation._blocks(PHASED, spec, NAT, side, rows, True, False))
        for side, rows in sides
    ]


@pytest.mark.parametrize("call", sorted(BLOCK_CALLS))
def test_blocks_of_several_spheres_match_one_sphere_blocks(call, monkeypatch):
    # the one-sphere layout, each sphere contracted and its d/dt taken on its
    # own, is the oracle of blocks that contract several spheres in one product
    assert max(_block_counts(BLOCK_SPEC)) < BLOCK_SPEC.n_radial / 8
    got = BLOCK_CALLS[call]()
    monkeypatch.setattr(expectation, "_BLOCK_BYTES", 1)  # below one sphere: one sphere a block
    assert _block_counts(BLOCK_SPEC) == [BLOCK_SPEC.n_radial] * 2
    want = BLOCK_CALLS[call]()
    for a, b in zip(got, want):
        assert _relative_gap(a, b) <= 1e-15


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
    signs = fock.SIGNS
    assert not signs.flags.writeable
    # eight pairs per mode, each signed +-1
    assert signs.shape == (4, 8)
    assert np.array_equal(np.abs(signs), np.ones((4, 8)))
    z = _random_z(40, 7)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    # mode-major, and node-major as a product-rule block holds the state
    for zT in (np.ascontiguousarray(z.T), z.T):
        got = expectation._sandwich(zT).T
        want = np.einsum("nc,scd,nd->ns", z.conj(), ANNIHILATORS, z)
        assert np.max(np.abs(got - want)) <= 1e-15
        # against the pair-product form it replaces, and the gather stack
        assert np.max(np.abs(got - _pair_sandwich(z))) <= 1e-15
        y1, y2 = _gathered_sandwich(z)
        assert np.max(np.abs(got[:, :2] - y1)) <= 1e-15
        assert np.max(np.abs(got[:, 2:].conj() - y2)) <= 1e-15
