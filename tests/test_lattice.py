import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ryddecay.lattice import (
    LatticeSpec,
    build_lattice,
    all_coords,
    neighbor_table,
    site_index,
)


def test_chain_of_four():
    lat = build_lattice(1, [4], "periodic")
    assert lat.site_count == 4
    assert lat.extents == (4,)


def test_square_three_by_three():
    lat = build_lattice(2, [3, 3], "periodic")
    assert lat.site_count == 9
    table = neighbor_table(lat)
    assert all(len(nb) == 4 for nb in table.neighbors)


def test_periodic_extent_two_rejected():
    with pytest.raises(ValueError):
        build_lattice(1, [2], "periodic")


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        build_lattice(2, [4], "periodic")
    with pytest.raises(ValueError):
        build_lattice(0, [], "periodic")


def test_bad_boundary_rejected():
    with pytest.raises(ValueError):
        build_lattice(1, [4], "twisted")


def test_chain_neighbors_and_bonds():
    lat = build_lattice(1, [4], "periodic")
    table = neighbor_table(lat)
    assert table.neighbors[0] == (1, 3)
    assert set(table.bond_list) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert len(table.bond_list) == 1 * 4  # d * N


def test_open_chain_neighbors():
    lat = build_lattice(1, [3], "open")
    table = neighbor_table(lat)
    assert table.neighbors[1] == (0, 2)
    assert table.neighbors[0] == (1,)


def test_row_major_round_trip():
    lat = build_lattice(2, [3, 4], "open")
    for idx, coords in enumerate(itertools.product(range(3), range(4))):
        assert site_index(lat, coords) == idx
    assert [tuple(c) for c in all_coords(lat)] == list(
        itertools.product(range(3), range(4))
    )


def test_periodic_bond_count_2d():
    lat = build_lattice(2, [3, 3], "periodic")
    assert len(neighbor_table(lat).bond_list) == 2 * 9


@st.composite
def lattice_specs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    boundary = draw(st.sampled_from(["periodic", "open"]))
    lo = 3 if boundary == "periodic" else 1
    hi = {1: 7, 2: 4, 3: 3}[dim]
    extents = draw(
        st.lists(st.integers(min_value=lo, max_value=max(lo, hi)), min_size=dim, max_size=dim)
    )
    return build_lattice(dim, extents, boundary)


@settings(max_examples=40)
@given(lattice_specs())
def test_adjacency_symmetric(lat):
    table = neighbor_table(lat)
    for k, nbs in enumerate(table.neighbors):
        assert list(nbs) == sorted(nbs)
        for m in nbs:
            assert k in table.neighbors[m]


@settings(max_examples=40)
@given(lattice_specs())
def test_periodic_coordination_and_bond_dedup(lat):
    table = neighbor_table(lat)
    if lat.boundary == "periodic":
        for nbs in table.neighbors:
            assert len(nbs) == 2 * lat.dimension
        assert len(table.bond_list) == lat.dimension * lat.site_count
    assert len(set(table.bond_list)) == len(table.bond_list)
    for a, b in table.bond_list:
        assert a < b


@settings(max_examples=30)
@given(lattice_specs())
def test_index_round_trip_property(lat):
    for idx, coords in enumerate(all_coords(lat)):
        assert site_index(lat, coords) == idx


def test_immutability():
    lat = build_lattice(1, [4], "periodic")
    with pytest.raises(AttributeError):
        lat.dimension = 2
    table = neighbor_table(lat)
    assert isinstance(table.neighbors, tuple)
