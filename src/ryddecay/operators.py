"""Sparse many-body operators on the 2^N computational basis.

Basis convention (fixed for reproducibility): a basis state is an N-bit
integer, site 0 is the most significant bit, bit value 1 means the atom is in
the excited state. This module is the one place that knows the encoding:
site_masks gives each site's bit and occupations the 0/1 table of site
occupations, and excited_neighbours and excited_bonds count on that table
the excited neighbours of each site (the collective channel's label xi) and
the excited bonds (the interaction energy). The full-space operators below
and the symmetry-reduced generator of master_equation are both built from
these four helpers. The helpers need numpy alone; the operators are
scipy.sparse matrices, and scipy.sparse is imported inside each function
that builds one, so importing this module does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .lattice import LatticeSpec, NeighborTable, neighbor_table

if TYPE_CHECKING:
    import scipy.sparse as sp

SINGLE = "single"
COLLECTIVE = "collective"
MODELS = (SINGLE, COLLECTIVE)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters. gamma is the single-atom decay rate (default 1,
    i.e. rates and times are expressed in units of gamma)."""

    omega_a: float = 0.0
    V: float = 0.0
    gamma: float = 1.0
    Omega: float = 0.0
    Delta: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")


def check_model(model: str) -> str:
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return model


def site_masks(n: int) -> np.ndarray:
    """The bit of each of n sites in a basis index: site k is bit n - 1 - k,
    so site 0 is the most significant."""
    return 1 << (n - 1 - np.arange(n, dtype=np.int64))


def occupations(n: int, states=None) -> np.ndarray:
    """0/1 site occupations of the basis states (default: all 2^n of them),
    shape (len(states), n), with site k in column k."""
    states = np.arange(1 << n, dtype=np.int64) if states is None else np.asarray(states)
    return ((states[:, None] & site_masks(n)) != 0).astype(np.int64)


def excited_neighbours(bits: np.ndarray, table: NeighborTable) -> np.ndarray:
    """The excited neighbours of every site, shape (len(bits), N), from the
    site occupations bits of shape (len(bits), N)."""
    return np.stack([bits[:, list(nb)].sum(axis=1) for nb in table.neighbors], axis=1)


def excited_bonds(bits: np.ndarray, table: NeighborTable) -> np.ndarray:
    """The excited-excited bonds of each state, from the site occupations
    bits of shape (len(bits), N)."""
    bonds = np.array(table.bond_list, dtype=int).reshape(-1, 2).T
    return (bits[:, bonds[0]] & bits[:, bonds[1]]).sum(axis=1)


def _check_site(lattice: LatticeSpec, k: int) -> None:
    if not 0 <= k < lattice.site_count:
        raise ValueError(f"site index {k} out of range for N={lattice.site_count}")


def occupation_vector(lattice: LatticeSpec, k: int) -> np.ndarray:
    """0/1 vector over basis states: occupation of site k."""
    _check_site(lattice, k)
    return occupations(lattice.site_count)[:, k].astype(np.float64)


def excitation_count_vector(lattice: LatticeSpec) -> np.ndarray:
    """Total number of excited sites per basis state."""
    return occupations(lattice.site_count).sum(axis=1).astype(np.float64)


def site_operator(lattice: LatticeSpec, k: int, which: str) -> sp.csr_matrix:
    """Single-site operator embedded at site k (identity elsewhere)."""
    import scipy.sparse as sp

    _check_site(lattice, k)
    n = lattice.site_count
    dim = 1 << n
    mask = site_masks(n)[k]
    up = np.flatnonzero(np.arange(dim) & mask)  # states with site k excited
    down = up ^ mask                            # same states with site k de-excited
    if which == "number":
        return sp.csr_matrix((np.ones(len(up)), (up, up)), shape=(dim, dim))
    if which == "sigma_minus":
        return sp.csr_matrix((np.ones(len(up)), (down, up)), shape=(dim, dim))
    if which == "sigma_x":
        rows = np.concatenate([down, up])
        cols = np.concatenate([up, down])
        return sp.csr_matrix((np.ones(2 * len(up)), (rows, cols)), shape=(dim, dim))
    if which == "sigma_y":
        # sigma_y = -i sigma^+ + i sigma^-
        rows = np.concatenate([down, up])
        cols = np.concatenate([up, down])
        vals = np.concatenate([1j * np.ones(len(up)), -1j * np.ones(len(up))])
        return sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    raise ValueError(f"unknown operator kind {which!r}")


def neighborhood_projector(
    lattice: LatticeSpec, table: NeighborTable, k: int, xi: int
) -> sp.csr_matrix:
    """Diagonal projector onto basis states with exactly xi excited neighbors
    of site k."""
    import scipy.sparse as sp

    if not 0 <= xi <= len(table.neighbors[k]):
        raise ValueError(
            f"xi={xi} out of range for site {k} with {len(table.neighbors[k])} neighbors"
        )
    count = excited_neighbours(occupations(lattice.site_count), table)[:, k]
    return sp.diags((count == xi).astype(np.float64), format="csr")


def atomic_hamiltonian(
    lattice: LatticeSpec, table: NeighborTable, params: ModelParams
) -> sp.csr_matrix:
    """Bare Hamiltonian: omega_a per excitation plus V per excited-excited
    nearest-neighbor bond (each bond counted once)."""
    import scipy.sparse as sp

    bits = occupations(lattice.site_count)
    bonds = excited_bonds(bits, table)
    diag = params.omega_a * bits.sum(axis=1, dtype=np.float64)
    # V is added once per excited bond: V times the count rounds differently
    for count in range(1, bonds.max() + 1):
        diag[bonds >= count] += params.V
    return sp.diags(diag, format="csr")


def driven_hamiltonian(
    lattice: LatticeSpec, table: NeighborTable, params: ModelParams
) -> sp.csr_matrix:
    """Rotating-frame driven Hamiltonian: detuning Delta per excitation, the
    interaction term, and a transverse drive Omega on every site. The lab
    frequency omega_a cancels exactly."""
    import scipy.sparse as sp

    h = atomic_hamiltonian(lattice, table, replace(params, omega_a=params.Delta))
    if params.Omega != 0.0:
        for k in range(lattice.site_count):
            h = h + params.Omega * site_operator(lattice, k, "sigma_x")
    return sp.csr_matrix(h)


@dataclass(frozen=True)
class JumpOperator:
    """One decay channel: site index, neighborhood excitation label xi
    (None for the single-atom model), and the sparse matrix sqrt(gamma) * ...
    """

    site: int
    xi: int | None
    matrix: sp.csr_matrix


def jump_operators(
    lattice: LatticeSpec, table: NeighborTable, params: ModelParams, model: str
) -> list[JumpOperator]:
    """Decay channels for the requested dissipation model.

    single:     one channel sqrt(gamma) sigma_k^- per site.
    collective: one channel sqrt(gamma) P_k^xi sigma_k^- per site and per
                neighborhood excitation number xi = 0..|neighbors(k)|.
    """
    import scipy.sparse as sp

    check_model(model)
    n = lattice.site_count
    dim = 1 << n
    bits = occupations(n)
    xi_of = excited_neighbours(bits, table)
    root = np.sqrt(params.gamma)
    ops: list[JumpOperator] = []
    for k, mask in enumerate(site_masks(n)):
        up = np.flatnonzero(bits[:, k])  # states with site k excited
        labels = [None] if model == SINGLE else range(len(table.neighbors[k]) + 1)
        for xi in labels:
            cols = up if xi is None else up[xi_of[up, k] == xi]
            matrix = sp.csr_matrix((np.full(len(cols), root), (cols ^ mask, cols)),
                                   shape=(dim, dim))
            ops.append(JumpOperator(k, xi, matrix))
    return ops


def effective_hamiltonian(H, jumps) -> sp.csr_matrix:
    """H_eff = H - (i/2) sum_j L_j^dag L_j. Its anti-Hermitian part is
    -(i gamma/2) sum_k n_k for both dissipation models, by completeness of
    the neighborhood projectors."""
    import scipy.sparse as sp

    acc = sp.csr_matrix(H, dtype=complex)
    for j in jumps:
        acc = acc - 0.5j * (j.matrix.conj().T @ j.matrix)
    return acc.tocsr()


def build_system(lattice: LatticeSpec, params: ModelParams, model: str):
    """Driven Hamiltonian and jump operators of one (lattice, params, model)."""
    table = neighbor_table(lattice)
    return driven_hamiltonian(lattice, table, params), jump_operators(lattice, table, params, model)
