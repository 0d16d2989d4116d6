"""Hypercubic lattice geometry and nearest-neighbor adjacency.

Sites are indexed 0..N-1 in row-major order over the axis coordinates
(axis 0 slowest). This ordering is relied upon by the operator layer, which
maps site k to bit N-1-k of the computational basis index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import prod


@dataclass(frozen=True)
class LatticeSpec:
    """Validated d-dimensional hypercubic lattice."""

    dimension: int
    extents: tuple[int, ...]
    boundary: str  # 'periodic' or 'open'

    @property
    def site_count(self) -> int:
        return prod(self.extents)


@dataclass(frozen=True)
class NeighborTable:
    """Nearest-neighbor adjacency of a LatticeSpec.

    neighbors[k] is sorted; bond_list holds each unordered pair {k, m} once,
    matching the 1/2 double-count convention of the interaction sum.
    """

    neighbors: tuple[tuple[int, ...], ...]
    bond_list: tuple[tuple[int, int], ...] = field(repr=False)


def build_lattice(dimension: int, extents: list[int] | tuple[int, ...], boundary: str) -> LatticeSpec:
    """Validate and construct a LatticeSpec."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    extents = tuple(int(e) for e in extents)
    if len(extents) != dimension:
        raise ValueError(f"expected {dimension} extents, got {len(extents)}")
    if any(e < 1 for e in extents):
        raise ValueError(f"extents must be positive, got {extents}")
    if boundary not in ("periodic", "open"):
        raise ValueError(f"boundary must be 'periodic' or 'open', got {boundary!r}")
    if boundary == "periodic" and any(e < 3 for e in extents):
        # extent 2 would make a pair of sites mutual neighbors along both ring
        # directions, double counting the bond
        raise ValueError(f"periodic boundaries require every extent >= 3, got {extents}")
    return LatticeSpec(dimension, extents, boundary)


def site_index(lattice: LatticeSpec, coords: tuple[int, ...]) -> int:
    """Row-major site index of a coordinate tuple (axis 0 slowest)."""
    idx = 0
    for c, e in zip(coords, lattice.extents):
        if not 0 <= c < e:
            raise ValueError(f"coordinate {coords} outside extents {lattice.extents}")
        idx = idx * e + c
    return idx


def all_coords(lattice: LatticeSpec):
    """Iterate coordinate tuples in site-index order."""
    return itertools.product(*(range(e) for e in lattice.extents))


@lru_cache(maxsize=None)
def neighbor_table(lattice: LatticeSpec) -> NeighborTable:
    """Nearest-neighbor table for a lattice.

    Periodic axes wrap; open axes drop out-of-range neighbors. For periodic
    boundaries every site ends up with exactly 2d neighbors.
    """
    periodic = lattice.boundary == "periodic"
    neighbors: list[tuple[int, ...]] = []
    bonds: set[tuple[int, int]] = set()
    for k, coords in enumerate(all_coords(lattice)):
        here: set[int] = set()
        for axis, e in enumerate(lattice.extents):
            for step in (-1, 1):
                c = coords[axis] + step
                if periodic:
                    c %= e
                elif not 0 <= c < e:
                    continue
                other = list(coords)
                other[axis] = c
                m = site_index(lattice, tuple(other))
                if m != k:
                    here.add(m)
        neighbors.append(tuple(sorted(here)))
        bonds.update((min(k, m), max(k, m)) for m in here)
    return NeighborTable(tuple(neighbors), tuple(sorted(bonds)))
