import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ryddecay.lattice import LatticeSpec, build_lattice, neighbor_table
from ryddecay.operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    atomic_hamiltonian,
    driven_hamiltonian,
    excitation_count_vector,
    excited_bonds,
    excited_neighbours,
    jump_operators,
    neighborhood_projector,
    occupation_vector,
    occupations,
    site_operator,
)

CHAIN4 = LatticeSpec(1, (4,), "periodic")
TABLE4 = neighbor_table(CHAIN4)


def dense(op):
    return np.asarray(op.todense()) if sp.issparse(op) else np.asarray(op)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(gamma=0.0)
    with pytest.raises(ValueError):
        ModelParams(gamma=-1.0)


def test_single_site_number_operator():
    lat = LatticeSpec(1, (1,), "open")
    num = dense(site_operator(lat, 0, "number"))
    assert np.array_equal(num, np.diag([0.0, 1.0]))


def test_sigma_minus_structure():
    lat = LatticeSpec(1, (2,), "open")
    sm = site_operator(lat, 0, "sigma_minus")
    assert sm.nnz == 2
    assert np.all(sm.data == 1.0)
    # site 0 is the most significant bit: |10> -> |00>, |11> -> |01>
    d = dense(sm)
    assert d[0, 2] == 1.0 and d[1, 3] == 1.0


def test_sigma_y_convention():
    # sigma_y = -i sigma_+ + i sigma_-, so [n, sigma_x] = i sigma_y
    lat = LatticeSpec(1, (1,), "open")
    n = dense(site_operator(lat, 0, "number"))
    sx = dense(site_operator(lat, 0, "sigma_x"))
    sy = dense(site_operator(lat, 0, "sigma_y"))
    assert np.allclose(n @ sx - sx @ n, 1j * sy)
    assert np.array_equal(sy, sy.conj().T)


def test_site_index_out_of_range():
    with pytest.raises(ValueError):
        site_operator(CHAIN4, 4, "number")
    with pytest.raises(ValueError):
        site_operator(CHAIN4, 0, "sigma_z")


def test_projector_ranks_three_ring():
    lat = LatticeSpec(1, (3,), "periodic")
    table = neighbor_table(lat)
    p0 = neighborhood_projector(lat, table, 0, 0)
    p1 = neighborhood_projector(lat, table, 0, 1)
    assert int(p0.diagonal().sum()) == 2
    assert int(p1.diagonal().sum()) == 4


def test_projector_xi_out_of_range():
    with pytest.raises(ValueError):
        neighborhood_projector(CHAIN4, TABLE4, 0, 3)
    with pytest.raises(ValueError):
        neighborhood_projector(CHAIN4, TABLE4, 0, -1)


@pytest.mark.parametrize(
    "lat",
    [
        LatticeSpec(1, (4,), "periodic"),
        LatticeSpec(1, (5,), "periodic"),
        LatticeSpec(2, (3, 3), "periodic"),
    ],
    ids=["chain4", "chain5", "square33"],
)
def test_projector_algebra(lat):
    table = neighbor_table(lat)
    dim = 1 << lat.site_count
    eye = sp.identity(dim, format="csr")
    for k in range(lat.site_count):
        n_nb = len(table.neighbors[k])
        projectors = [
            neighborhood_projector(lat, table, k, xi) for xi in range(n_nb + 1)
        ]
        total = sum(projectors)
        assert (total - eye).nnz == 0
        weighted = sum(xi * p for xi, p in enumerate(projectors))
        nb_sum = sum(
            site_operator(lat, m, "number") for m in table.neighbors[k]
        )
        assert (weighted - nb_sum).nnz == 0
        for xi, p in enumerate(projectors):
            assert (p @ p - p).nnz == 0
            for eta in range(xi + 1, n_nb + 1):
                assert (p @ projectors[eta]).nnz == 0
        # [n_k', P_l^xi] = 0 for every pair (diagonal operators commute)
        for kp in range(lat.site_count):
            nk = site_operator(lat, kp, "number")
            assert (nk @ projectors[0] - projectors[0] @ nk).nnz == 0


def test_projector_selects_neighbor_count():
    # nonzero action of P_k^xi sigma_k^- lands only on basis states whose
    # excited-neighbor count of k equals xi
    for k in range(4):
        cnt = excited_neighbours(occupations(4), TABLE4)[:, k]
        for xi in range(3):
            op = neighborhood_projector(CHAIN4, TABLE4, k, xi) @ site_operator(
                CHAIN4, k, "sigma_minus"
            )
            rows = op.tocoo().row
            assert np.all(cnt[rows] == xi)


def test_atomic_hamiltonian_energies():
    lat = LatticeSpec(1, (3,), "periodic")
    table = neighbor_table(lat)
    h = atomic_hamiltonian(lat, table, ModelParams(omega_a=1.0, V=10.0))
    diag = h.diagonal().real
    assert diag[0b111] == pytest.approx(33.0)
    assert diag[0] == 0.0

    h4 = atomic_hamiltonian(CHAIN4, TABLE4, ModelParams(omega_a=0.0, V=10.0))
    assert h4.diagonal().real[0b1100] == pytest.approx(10.0)


def test_atomic_hamiltonian_is_diagonal_hermitian():
    h = atomic_hamiltonian(CHAIN4, TABLE4, ModelParams(omega_a=0.7, V=3.0))
    assert (h - sp.diags(h.diagonal())).nnz == 0
    assert (h - h.conj().T).nnz == 0


def test_driven_hamiltonian_structure():
    mp = ModelParams(omega_a=5.0, V=10.0, Omega=0.0, Delta=-2.0)
    h = driven_hamiltonian(CHAIN4, TABLE4, mp)
    # diagonal equals the atomic Hamiltonian with omega_a -> Delta
    ref = atomic_hamiltonian(CHAIN4, TABLE4, ModelParams(omega_a=-2.0, V=10.0))
    assert np.allclose(dense(h), dense(ref))

    lat1 = LatticeSpec(1, (1,), "open")
    h1 = driven_hamiltonian(lat1, neighbor_table(lat1), ModelParams(Omega=1.3))
    vals = np.linalg.eigvalsh(dense(h1))
    assert np.allclose(vals, [-1.3, 1.3])

    same = driven_hamiltonian(
        CHAIN4, TABLE4, ModelParams(omega_a=4.0, V=10.0, Delta=4.0)
    )
    atom = atomic_hamiltonian(CHAIN4, TABLE4, ModelParams(omega_a=4.0, V=10.0))
    assert np.allclose(dense(same), dense(atom))


def test_jump_operator_counts_and_labels():
    singles = jump_operators(CHAIN4, TABLE4, ModelParams(), SINGLE)
    assert len(singles) == 4
    assert all(j.xi is None for j in singles)
    coll = jump_operators(CHAIN4, TABLE4, ModelParams(), COLLECTIVE)
    assert len(coll) == 12  # 4 sites x xi in {0,1,2}
    assert sorted({(j.site, j.xi) for j in coll}) == [
        (k, xi) for k in range(4) for xi in range(3)
    ]


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_jump_rate_resolution(model):
    jumps = jump_operators(CHAIN4, TABLE4, ModelParams(gamma=1.0), model)
    acc = sum((j.matrix.conj().T @ j.matrix for j in jumps))
    target = sp.diags(excitation_count_vector(CHAIN4).astype(complex))
    assert np.allclose(dense(acc), dense(target), atol=1e-15)


def test_occupation_vectors():
    occ0 = occupation_vector(CHAIN4, 0)
    assert occ0[0b1000] == 1 and occ0[0b0111] == 0
    assert np.array_equal(
        excitation_count_vector(CHAIN4),
        sum(occupation_vector(CHAIN4, k) for k in range(4)),
    )



@st.composite
def small_lattices(draw):
    """Periodic and open chains, and the 3 x 3 torus."""
    kind = draw(st.sampled_from(["periodic", "open", "torus"]))
    if kind == "torus":
        return build_lattice(2, [3, 3], "periodic")
    return build_lattice(1, [draw(st.integers(3 if kind == "periodic" else 1, 8))], kind)


@settings(max_examples=30)
@given(small_lattices(), st.data())
def test_basis_helpers_match_a_per_state_loop(lat, data):
    n = lat.site_count
    table = neighbor_table(lat)
    bits = occupations(n)
    xi, bonds = excited_neighbours(bits, table), excited_bonds(bits, table)
    for s in range(1 << n):
        occ = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        assert list(bits[s]) == occ
        assert list(xi[s]) == [sum(occ[m] for m in nb) for nb in table.neighbors]
        assert bonds[s] == sum(occ[k] * occ[m] for k, m in table.bond_list)
    picked = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    assert np.array_equal(occupations(n, np.array(picked, dtype=np.int64)), bits[picked])


@settings(max_examples=30)
@given(small_lattices(), st.floats(-50, 50), st.floats(-50, 50))
def test_atomic_hamiltonian_sums_v_once_per_bond(lat, omega_a, V):
    # the diagonal is omega_a n + V + V + ..., one term per excited bond in
    # bond_list order, bit for bit: V times the bond count rounds differently
    table = neighbor_table(lat)
    n = lat.site_count
    diag = atomic_hamiltonian(lat, table, ModelParams(omega_a=omega_a, V=V)).diagonal()
    expect = np.zeros(1 << n)
    for s in range(1 << n):
        occ = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        expect[s] = omega_a * float(sum(occ))
        for k, m in table.bond_list:
            expect[s] += V * occ[k] * occ[m]
    assert np.array_equal(diag, expect)


@settings(max_examples=20)
@given(small_lattices(), st.sampled_from([SINGLE, COLLECTIVE]), st.sampled_from([0.3, 1.0, 2.5]))
def test_jump_operators_equal_projected_sigma_minus(lat, model, gamma):
    # the products sqrt(gamma) P_k^xi sigma_k^- are the oracle of the
    # channels built straight from the neighbour counts
    table = neighbor_table(lat)
    jumps = jump_operators(lat, table, ModelParams(gamma=gamma), model)
    assert [(j.site, j.xi) for j in jumps] == [
        (k, xi) for k, nb in enumerate(table.neighbors)
        for xi in ([None] if model == SINGLE else range(len(nb) + 1))
    ]
    for j in jumps:
        sm = site_operator(lat, j.site, "sigma_minus")
        proj = sp.identity(sm.shape[0]) if j.xi is None else neighborhood_projector(
            lat, table, j.site, j.xi)
        oracle = sp.csr_matrix(np.sqrt(gamma) * (proj @ sm))
        assert j.matrix.nnz == oracle.nnz
        assert np.array_equal(j.matrix.toarray(), oracle.toarray())
