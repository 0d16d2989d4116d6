"""Sparse many-body operators on the 2^N computational basis.

Basis convention (fixed for reproducibility): a basis state is an N-bit
integer, site 0 is the most significant bit, bit value 1 means the atom is in
the excited state. All diagonal operators are built from vectorized bit
predicates over the index range; off-diagonal single-site operators are built
from explicit (row, col) coordinate lists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, NeighborTable, neighbor_table

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


def _bit_shift(lattice: LatticeSpec, k: int) -> int:
    # site 0 occupies the most significant bit
    return lattice.site_count - 1 - k


def occupation_vector(lattice: LatticeSpec, k: int) -> np.ndarray:
    """0/1 vector over basis states: occupation of site k."""
    n = lattice.site_count
    if not 0 <= k < n:
        raise ValueError(f"site index {k} out of range for N={n}")
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx >> _bit_shift(lattice, k)) & 1).astype(np.float64)


def excitation_count_vector(lattice: LatticeSpec) -> np.ndarray:
    """Total number of excited sites per basis state."""
    dim = 1 << lattice.site_count
    total = np.zeros(dim)
    for k in range(lattice.site_count):
        total += occupation_vector(lattice, k)
    return total


def neighbor_count_vector(lattice: LatticeSpec, table: NeighborTable, k: int) -> np.ndarray:
    """Number of excited neighbors of site k per basis state."""
    count = np.zeros(1 << lattice.site_count)
    for m in table.neighbors[k]:
        count += occupation_vector(lattice, m)
    return count


def site_operator(lattice: LatticeSpec, k: int, which: str) -> sp.csr_matrix:
    """Single-site operator embedded at site k (identity elsewhere)."""
    n = lattice.site_count
    if not 0 <= k < n:
        raise ValueError(f"site index {k} out of range for N={n}")
    dim = 1 << n
    mask = 1 << _bit_shift(lattice, k)
    idx = np.arange(dim, dtype=np.int64)
    up = idx[(idx & mask) != 0]      # states with site k excited
    down = up ^ mask                 # same states with site k de-excited
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
    if not 0 <= xi <= len(table.neighbors[k]):
        raise ValueError(
            f"xi={xi} out of range for site {k} with {len(table.neighbors[k])} neighbors"
        )
    count = neighbor_count_vector(lattice, table, k)
    diag = (count == xi).astype(np.float64)
    return sp.diags(diag, format="csr")


def atomic_hamiltonian(
    lattice: LatticeSpec, table: NeighborTable, params: ModelParams
) -> sp.csr_matrix:
    """Bare Hamiltonian: omega_a per excitation plus V per excited-excited
    nearest-neighbor bond (each bond counted once)."""
    diag = params.omega_a * excitation_count_vector(lattice)
    for k, m in table.bond_list:
        diag += params.V * occupation_vector(lattice, k) * occupation_vector(lattice, m)
    return sp.diags(diag, format="csr")


def driven_hamiltonian(
    lattice: LatticeSpec, table: NeighborTable, params: ModelParams
) -> sp.csr_matrix:
    """Rotating-frame driven Hamiltonian: detuning Delta per excitation, the
    interaction term, and a transverse drive Omega on every site. The lab
    frequency omega_a cancels exactly."""
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
    check_model(model)
    root = np.sqrt(params.gamma)
    ops: list[JumpOperator] = []
    for k in range(lattice.site_count):
        sm = site_operator(lattice, k, "sigma_minus")
        if model == SINGLE:
            ops.append(JumpOperator(k, None, sp.csr_matrix(root * sm)))
        else:
            for xi in range(len(table.neighbors[k]) + 1):
                proj = neighborhood_projector(lattice, table, k, xi)
                ops.append(JumpOperator(k, xi, sp.csr_matrix(root * (proj @ sm))))
    return ops


def effective_hamiltonian(H, jumps) -> sp.csr_matrix:
    """H_eff = H - (i/2) sum_j L_j^dag L_j. Its anti-Hermitian part is
    -(i gamma/2) sum_k n_k for both dissipation models, by completeness of
    the neighborhood projectors."""
    acc = sp.csr_matrix(H, dtype=complex)
    for j in jumps:
        acc = acc - 0.5j * (j.matrix.conj().T @ j.matrix)
    return acc.tocsr()


def build_system(lattice: LatticeSpec, params: ModelParams, model: str):
    """Driven Hamiltonian and jump operators of one (lattice, params, model)."""
    table = neighbor_table(lattice)
    return driven_hamiltonian(lattice, table, params), jump_operators(lattice, table, params, model)
