"""Lindblad master equation: exact propagation, observables, grid scans.

Exact Lindblad propagation: sparse Liouvillian + expm_multiply. liouvillian
assembles the generator on row-major vec(rho) once, and propagate evaluates
exp(tL) vec(rho0) on an equally spaced sample grid with
scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)). Every snapshot is checked for trace and hermiticity drift.
Dimensions up to 2^MAX_SITES (N <= 10 sites) are supported. integrate_exact
propagates one system this way; lindblad_rhs applies the generator as
operator products and is kept as the independent oracle for liouvillian.

The workflows propagate in the symmetry-invariant operator subspace instead
(Buca & Prosen, NJP 14, 073007 (2012)): the steady-state scan
(scan_steady_state) and the coherence cross-check
(coherence.exact_mode_series). Their Hamiltonians, dissipators, start states
and observables are invariant under the lattice's site symmetries (rotations
and reflections of a ring, the reflection of an open chain), so rho(t) stays
in the span of the orbit sums of |i><j|. Pairing each orbit with its
transpose makes the basis real for Hermitian rho (Orbits). The reduced
generator is assembled directly, one row (i, j) per orbit representative
(reduced_liouvillian), as are the start states, the trace row and the
observable rows: neither workflow builds a 4^N-row or 4^N x 4^N object.
_propagate_reduced is the one propagation core of both: it takes
numpy.linalg.eig of L_red, L_red = R diag(lam) R^-1, and evaluates
v(t) = R diag(exp(lam t)) R^-1 v0 in closed form; above EIG_MAX_DIM or
COND_LIMIT it runs expm_multiply on L_red instead. liouvillian, propagate
and integrate_exact stay the full-space oracle of both, and Orbits.basis
builds the 4^N-row basis B for the tests that compare with them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, all_coords, neighbor_table
from .operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    check_model,
    effective_hamiltonian,
    excitation_count_vector,
)

# Largest condition number of an eigenvector matrix for which the eigenbasis
# is trusted: R of L_red = R diag(lam) R^-1 here, V of H_eff in the jump
# trajectories. The N = 1 atom at Delta = 0, Omega = gamma/4 is an
# exceptional point of H_eff; there cond(V) reads about 9e7 and the closed
# form is off by 3.5e-9 from expm.
COND_LIMIT = 1e6
# Largest lattice of the exact layer and of the CLI's lattice workflows. At
# N = 10 a steady-state cell holds the 4^N-entry orbit array and a reduced
# generator of dimension 53,764 (10 s, 250 MiB peak); eig of the 2^N x 2^N
# H_eff of a trajectory cell takes 4.7 s.
MAX_SITES = 10
WINDOW = (4.75, 5.00)
WINDOW_POINTS = 100
# trace/hermiticity drift that fails a propagation, and trace drift above
# which a snapshot is renormalized (and counted)
DRIFT_LIMIT = 1e-6
RENORM_THRESHOLD = 1e-12
# Largest dimension of the symmetric subspace at which _propagate_reduced
# takes the eig closed form; above it expm_multiply on L_red is faster. The
# switch is by dimension alone, so the steady-state scan and the coherence
# cross-check take the same route on the same lattice. Per steady-state cell
# on one BLAS thread (12 cells, both models), eig vs expm_multiply:
# 3.3 vs 58 ms at 55 (N = 4 ring), 13-17 vs 68-79 ms at 136 (N = 5 ring,
# N = 4 open chain), 193 vs 86 ms at 430 (N = 6 ring), 409 vs 94 ms at 544
# (N = 5 open chain). eig grows as about dim^2.2 there, crossing near 290;
# no chain has a dimension between 136 and 430. The coherence cross-check
# per model (one BLAS thread, omega_a = 0.37, V = 10, median of 5): 6-7 ms
# on the N = 4 ring (eig, 201 times to t = 2); 22-23 ms on the N = 6 ring
# (expm_multiply, 26 times to t = 0.25), about 150 ms for 201 times to t = 2.
EIG_MAX_DIM = 256


@dataclass
class IntegrationResult:
    """Snapshots of rho at the requested times plus drift diagnostics."""

    times: np.ndarray
    states: list[np.ndarray]
    renormalizations: int = 0
    max_trace_drift: float = 0.0
    max_herm_drift: float = 0.0


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Hermiticity, unit trace, and diagonal positivity spot-check."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T)) if rho.size else 0.0
    if herm > tol:
        raise ValueError(f"density matrix not Hermitian: drift {herm:.2e}")
    tr = abs(rho.trace() - 1.0)
    if tr > tol:
        raise ValueError(f"density matrix trace off by {tr:.2e}")
    mindiag = np.min(rho.diagonal().real)
    if mindiag < -tol:
        raise ValueError(f"negative diagonal entry {mindiag:.2e}")


def vacuum_density(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def product_density(single_site_rho: np.ndarray, n_sites: int) -> np.ndarray:
    """N-fold tensor power of a single-site density matrix."""
    rho = np.asarray(single_site_rho, dtype=complex)
    out = rho
    for _ in range(n_sites - 1):
        out = np.kron(out, rho)
    return out


def lindblad_rhs(rho: np.ndarray, H, jumps) -> np.ndarray:
    """-i[H, rho] + sum_j (L_j rho L_j^dag - 1/2 {L_j^dag L_j, rho})."""
    rho = np.asarray(rho, dtype=complex)
    if H.shape != rho.shape:
        raise ValueError(f"dimension mismatch: H {H.shape} vs rho {rho.shape}")
    out = -1j * (H @ rho - rho @ H)
    for j in jumps:
        L = j.matrix
        if L.shape != rho.shape:
            raise ValueError("dimension mismatch in jump operator")
        Ld = L.conj().T
        LdL = Ld @ L
        out += L @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def liouvillian(H, jumps) -> sp.csr_matrix:
    """Sparse Lindblad generator acting on row-major vec(rho).

    With vec(A rho B) = (A kron B^T) vec(rho) and H_eff from
    effective_hamiltonian, the generator is
    -i H_eff kron 1 + i 1 kron conj(H_eff) + sum_j L_j kron conj(L_j).
    """
    heff = effective_hamiltonian(H, jumps)
    eye = sp.identity(heff.shape[0], dtype=complex, format="csr")
    gen = -1j * sp.kron(heff, eye) + 1j * sp.kron(eye, heff.conj())
    for j in jumps:
        L = sp.csr_matrix(j.matrix, dtype=complex)
        gen = gen + sp.kron(L, L.conj())
    return gen.tocsr()


def _check_sample_grid(times: np.ndarray) -> None:
    """Raise ValueError unless times is a non-empty 1-D grid from t >= 0,
    strictly increasing and equally spaced: the interval form of
    expm_multiply needs equal steps, and callers pair the samples with
    their own grid, which a sorted or merged copy would misalign."""
    if times.ndim != 1 or times.size == 0:
        raise ValueError("sample times must be a non-empty 1-D grid")
    if times[0] < 0:
        raise ValueError(f"sample times must be >= 0, got {times[0]:g}")
    steps = np.diff(times)
    if np.any(steps <= 0) or not np.allclose(
            steps, (times[-1] - times[0]) / max(len(times) - 1, 1), rtol=1e-9, atol=0):
        raise ValueError("sample times must be strictly increasing and equally spaced")


# an L too large for float64 overflows expm_multiply's norm estimates, which
# warn before scipy raises OverflowError
@np.errstate(over="ignore", invalid="ignore")
def _expm_samples(L, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(tL) v at equally spaced, increasing times >= 0, one row per time.

    The first sample time is reached with one expm_multiply call, the rest
    of the grid with its interval form. That form starts at 0 because with
    start > 0 and a large ||L|| t it overflowed (scipy 1.17). Its 1-norm
    estimate draws from numpy's global RNG, so the global seed is pinned for
    the call and the caller's RNG state restored afterwards: equal inputs
    give equal bytes.
    """
    # imported here: scipy.sparse.linalg adds ~0.15 s to `import ryddecay.cli`
    from scipy.sparse.linalg import expm_multiply

    span = times[-1] - times[0]
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        if times[0] > 0:
            v = expm_multiply(L * times[0], v)
        if len(times) > 1:
            v = expm_multiply(L, v, start=0.0, stop=span, num=len(times), endpoint=True)
    finally:
        np.random.set_state(rng_state)
    return v.reshape(len(times), -1)


def _check_drift(acc, traces: np.ndarray, herm_drifts: np.ndarray) -> np.ndarray:
    """Drift checks of a window of samples, given their traces and
    hermiticity drifts max |rho - rho^dag|. A drift above DRIFT_LIMIT raises
    RuntimeError; otherwise the largest drifts are folded into acc (an
    IntegrationResult or a PropagationStats) and the samples whose trace
    drifts by more than RENORM_THRESHOLD are counted there and returned as a
    mask, for the caller to divide by their trace."""
    trace_drifts = np.abs(traces - 1.0)
    bad = ~((trace_drifts <= DRIFT_LIMIT) & (herm_drifts <= DRIFT_LIMIT))
    if bad.any():
        k = np.argmax(bad)
        raise RuntimeError(
            f"propagation drift above {DRIFT_LIMIT:g}: trace {trace_drifts[k]:.2e}, "
            f"hermiticity {herm_drifts[k]:.2e}"
        )
    acc.max_trace_drift = max(acc.max_trace_drift, float(trace_drifts.max()))
    acc.max_herm_drift = max(acc.max_herm_drift, float(herm_drifts.max()))
    renorm = trace_drifts > RENORM_THRESHOLD
    acc.renormalizations += int(renorm.sum())
    return renorm


# a non-finite snapshot fails the drift check without warning
@np.errstate(invalid="ignore")
def propagate(L: sp.csr_matrix, rho0: np.ndarray, times) -> IntegrationResult:
    """rho(t) = exp(tL) rho0 at equally spaced, increasing times >= 0, by
    expm_multiply (see _expm_samples); any other grid raises ValueError. A
    trace or hermiticity drift above DRIFT_LIMIT raises RuntimeError;
    snapshots whose trace drifts by more than RENORM_THRESHOLD are
    renormalized and counted.
    """
    times = np.asarray(times, dtype=float)
    _check_sample_grid(times)
    dim = rho0.shape[0]
    v = np.array(rho0, dtype=complex).reshape(-1)
    states = _expm_samples(L, v, times).reshape(len(times), dim, dim)
    result = IntegrationResult(times=times, states=list(states))
    renorm = _check_drift(
        result,
        np.trace(states, axis1=1, axis2=2),
        np.array([np.max(np.abs(rho - rho.conj().T)) for rho in states]),
    )
    for k in np.flatnonzero(renorm):
        states[k] /= states[k].trace()
    return result


def integrate_exact(
    rho0: np.ndarray,
    H,
    jumps,
    t_final: float,
    sample_times=None,
) -> IntegrationResult:
    """Exact propagation of the Lindblad equation, with one snapshot per
    sample time (default: t_final alone). The times must be a strictly
    increasing, equally spaced grid in [0, t_final]; any other grid raises
    ValueError. See propagate for the drift checks.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[0] > 1 << MAX_SITES:
        raise ValueError(f"exact integration supports dim <= {1 << MAX_SITES} (N <= {MAX_SITES})")
    check_density_matrix(rho0)
    if sample_times is None:
        sample_times = np.array([t_final])
    sample_times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    _check_sample_grid(sample_times)
    if sample_times[-1] > t_final + 1e-12:
        raise ValueError("sample times must lie in [0, t_final]")
    return propagate(liouvillian(H, jumps), rho0, sample_times)


def excitation_density(rho: np.ndarray, lattice: LatticeSpec) -> float:
    """Site-averaged excitation density (1/N) sum_k <n_k>."""
    exc = excitation_count_vector(lattice)
    return float(np.real(np.sum(np.asarray(rho).diagonal() * exc)) / lattice.site_count)


def window_times(gamma: float = 1.0) -> np.ndarray:
    """The 100 linearly spaced sampling times in [4.75, 5.00]/gamma."""
    return np.linspace(WINDOW[0] / gamma, WINDOW[1] / gamma, WINDOW_POINTS)


def check_window(t_final: float, gamma: float) -> None:
    """Raise unless a run to t_final reaches the end of the averaging window."""
    if t_final < window_times(gamma)[-1] - 1e-12:
        raise ValueError("t_final must cover the averaging window")


# ---------------------------------------------------------------------------
# (Delta, Omega) steady-state scan in the symmetry-invariant subspace
# ---------------------------------------------------------------------------


def _site_symmetries(lattice: LatticeSpec) -> np.ndarray:
    """Site images under the lattice's symmetries, shape (|G|, N): per axis
    the 2e rotations and reflections of a periodic extent e, or the
    reflection of an open one, combined over the axes."""
    coords = np.array(list(all_coords(lattice)))
    per_axis = []
    for e in lattice.extents:
        c = np.arange(e)
        if lattice.boundary == "periodic":
            per_axis.append([(s + sign * c) % e for s in range(e) for sign in (1, -1)])
        else:
            per_axis.append([c, e - 1 - c])
    return np.array([
        np.ravel_multi_index(tuple(m[coords[:, a]] for a, m in enumerate(maps)), lattice.extents)
        for maps in itertools.product(*per_axis)
    ])


@dataclass(frozen=True)
class Orbits:
    """The orbits of the pairs (i, j) of |i><j| under the lattice's site
    symmetries, and the real orthonormal basis B of the invariant operators
    they span, on row-major vec(rho).

    reps holds each orbit's representative, the pair i 2^N + j least in it;
    orbit is the orbit of every pair (length 4^N) and size the orbit sizes
    |o|. With e_o the normalised sum over an orbit, an orbit closed under
    transposition gives the column e_o of B, and any other orbit and its
    transpose t give (e_o + e_t)/sqrt(2) and i (e_o - e_t)/sqrt(2). So
    B = E U, where E has the columns e_o and the sparse unitary U maps orbit
    coordinates to these paired columns. A Hermitian invariant rho has real
    coordinates B^dag vec(rho), and B^dag L B is real for an invariant L that
    preserves hermiticity.

    An invariant X is fixed by its values at the representatives, and
    e_o^dag vec(X) = sqrt|o| X_ij at the representative (i, j) of o, so
    coords, row and reduce need nothing of length 4^N but orbit.
    """

    n_sites: int
    reps: np.ndarray
    orbit: np.ndarray
    size: np.ndarray
    unitary: sp.csr_matrix

    @property
    def dim(self) -> int:
        """The dimension of the invariant subspace."""
        return len(self.reps)

    @property
    def diagonal(self) -> np.ndarray:
        """Whether each representative (i, j) has i = j."""
        return self.reps >> self.n_sites == self.reps & ((1 << self.n_sites) - 1)

    def pair_bits(self) -> tuple[np.ndarray, np.ndarray]:
        """The site occupations of i and of j at each representative (i, j),
        each of shape (dim, N), with site k (bit N - 1 - k) in column k."""
        shifts = self.n_sites - 1 - np.arange(self.n_sites)
        pairs = self.reps[:, None]
        return (pairs >> (self.n_sites + shifts)) & 1, (pairs >> shifts) & 1

    def coords(self, values: np.ndarray) -> np.ndarray:
        """B^dag vec(X) of a Hermitian invariant X, given X_ij at the
        representatives."""
        return (self.unitary.conj().T @ (np.sqrt(self.size) * values)).real

    def row(self, values: np.ndarray) -> np.ndarray:
        """The row r with tr(A rho) = r . v for rho = B v and an invariant A,
        given A_ji at the representatives (i, j)."""
        return self.unitary.T @ (np.sqrt(self.size) * values)

    def reduce(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
        """B^dag L B of an invariant L preserving hermiticity, given its
        entries (rows, cols, values): in the row of the representative of
        orbit rows[k], on the pair cols[k]. With M_{o,o'} the sum of
        values sqrt(|o| / |o'|) over the entries of o's row in orbit o',
        E^dag L E = M and B^dag L B = Re(U^dag M U)."""
        target = self.orbit[cols]
        m = sp.csr_matrix((values * np.sqrt(self.size[rows] / self.size[target]),
                           (rows, target)), shape=(self.dim, self.dim))
        return sp.csr_matrix((self.unitary.conj().T @ m @ self.unitary).real)

    def basis(self) -> sp.csr_matrix:
        """B itself, 4^N rows: only the tests that compare with the
        full-space liouvillian build it."""
        pairs = np.arange(len(self.orbit))
        e = sp.csr_matrix((1.0 / np.sqrt(self.size[self.orbit]), (pairs, self.orbit)))
        return sp.csr_matrix(e @ self.unitary)


def symmetry_orbits(lattice: LatticeSpec) -> Orbits:
    """The orbits of the pairs (i, j) under the lattice's site symmetries."""
    n = lattice.site_count
    if n > MAX_SITES:
        raise ValueError(f"exact propagation supports dim <= {1 << MAX_SITES} (N <= {MAX_SITES})")
    dim = 1 << n
    shifts = n - 1 - np.arange(n)  # site k is bit n - 1 - k
    bits = (np.arange(dim)[:, None] >> shifts) & 1
    rep = None
    for images in _site_symmetries(lattice):
        perm = bits @ (1 << shifts[images])  # site k's bit moved to site images[k]
        pairs = (perm[:, None] * dim + perm[None, :]).ravel()
        rep = pairs if rep is None else np.minimum(rep, pairs)
    reps, orbit = np.unique(rep, return_inverse=True)
    own = np.arange(len(reps))
    partner = orbit[(reps % dim) * dim + reps // dim]  # the orbit of the transposes
    width = np.where(partner == own, 1, 0) + np.where(partner > own, 2, 0)
    column = (np.cumsum(width) - width)[np.minimum(own, partner)]
    paired = np.flatnonzero(partner != own)
    unitary = sp.csr_matrix((
        np.concatenate([np.where(partner == own, 1.0, np.sqrt(0.5)),
                        np.where(partner[paired] > paired, 1j, -1j) * np.sqrt(0.5)]),
        (np.concatenate([own, paired]), np.concatenate([column, column[paired] + 1])),
    ), shape=(len(reps), len(reps)))
    return Orbits(n, reps, orbit, np.bincount(orbit), unitary)


def _excited_neighbours(bits: np.ndarray, table) -> np.ndarray:
    """The excited neighbours of every site, shape (len(bits), N), from the
    site occupations bits of shape (len(bits), N)."""
    return np.stack([bits[:, list(nb)].sum(axis=1) for nb in table.neighbors], axis=1)


def reduced_liouvillian(orbits: Orbits, lattice: LatticeSpec, params: ModelParams,
                        model: str) -> sp.csr_matrix:
    """L0 of the reduced generator L_red = L0 + Delta L_Delta + Omega L_Omega
    of the driven Lindbladian with H = Delta n + V b + Omega sum_k sigma_x^k
    (n excitations, b excited bonds) and the dissipator of model, assembled
    one row (i, j) per orbit representative:

        (L rho)_ij = [-i (Delta (n_i - n_j) + V (b_i - b_j)) - (gamma/2) (n_i + n_j)] rho_ij
                     - i Omega sum_k (rho_{i^m_k, j} - rho_{i, j^m_k})
                     + gamma sum_k rho_{i|m_k, j|m_k},

    m_k being site k's bit; the last sum runs over the sites k unexcited in
    both i and j, and for collective decay also having as many excited
    neighbours in i as in j. L_Delta and L_Omega depend on the orbits alone
    (reduced_detuning, reduced_drive); the coherence cross-check's
    H = omega_a n + V b has the generator L0 + omega_a L_Delta.
    """
    check_model(model)
    table = neighbor_table(lattice)
    n = lattice.site_count
    dim = 1 << n
    bits_i, bits_j = orbits.pair_bits()
    i, j = orbits.reps[:, None] >> n, orbits.reps[:, None] & (dim - 1)
    masks = 1 << (n - 1 - np.arange(n))
    rows = np.arange(orbits.dim)
    site_rows = np.repeat(rows, n)

    bonds = np.array(table.bond_list, dtype=int).reshape(-1, 2).T
    n_i, n_j = bits_i.sum(axis=1), bits_j.sum(axis=1)
    decays = (bits_i == 0) & (bits_j == 0)
    if model == COLLECTIVE:
        decays &= _excited_neighbours(bits_i, table) == _excited_neighbours(bits_j, table)
    excited_bonds = [(bits[:, bonds[0]] & bits[:, bonds[1]]).sum(axis=1) for bits in (bits_i, bits_j)]
    diagonal = (-1j * params.V * (excited_bonds[0] - excited_bonds[1])
                - 0.5 * params.gamma * (n_i + n_j))
    return orbits.reduce(
        np.concatenate([rows, site_rows[decays.ravel()]]),
        np.concatenate([orbits.reps, ((i | masks) * dim + (j | masks))[decays]]),
        np.concatenate([diagonal, np.full(decays.sum(), params.gamma)]))


def reduced_detuning(orbits: Orbits) -> sp.csr_matrix:
    """L_Delta of reduced_liouvillian."""
    bits_i, bits_j = orbits.pair_bits()
    return orbits.reduce(np.arange(orbits.dim), orbits.reps,
                         -1j * (bits_i.sum(axis=1) - bits_j.sum(axis=1)))


def reduced_drive(orbits: Orbits) -> sp.csr_matrix:
    """L_Omega of reduced_liouvillian, which holds most of L_red's non-zeros."""
    n, dim = orbits.n_sites, 1 << orbits.n_sites
    i, j = orbits.reps[:, None] >> n, orbits.reps[:, None] & (dim - 1)
    masks = 1 << (n - 1 - np.arange(n))
    site_rows = np.repeat(np.arange(orbits.dim), n)
    return orbits.reduce(
        np.concatenate([site_rows, site_rows]),
        np.concatenate([((i ^ masks) * dim + j).ravel(), (i * dim + (j ^ masks)).ravel()]),
        np.repeat([-1j, 1j], site_rows.size))


@dataclass(kw_only=True)
class PropagationStats:
    """Diagnostics of propagations in the symmetric subspace, accumulated by
    _propagate_reduced over the runs (cells) of one caller: the subspace
    dimension, the runs evaluated in closed form (eig) and by
    expm_multiply, the largest cond(R) met, the smallest Liouvillian gap of
    the eig runs (NaN without any), and the drift checks' largest drifts
    and renormalizations."""

    reduced_dim: int = 0
    eig_cells: int = 0
    expm_cells: int = 0
    max_cond: float = 0.0
    min_gap: float = np.nan
    max_trace_drift: float = 0.0
    max_herm_drift: float = 0.0
    renormalizations: int = 0


@dataclass
class SteadyStateScan(PropagationStats):
    """Window-averaged excitation densities over a (Delta, Omega) grid,
    with the propagation diagnostics over all cells and the cells that
    failed the drift checks."""

    delta_values: np.ndarray
    omega_values: np.ndarray
    n_single: np.ndarray      # shape (len(delta), len(omega))
    n_collective: np.ndarray
    t_final: float
    errors: list[str] = field(default_factory=list)


def _eig_window(gen: np.ndarray, v0: np.ndarray, times: np.ndarray, stats: PropagationStats):
    """v(t) = R diag(exp(lam t)) R^-1 v0 at the times, one column per time,
    or None when cond(R) exceeds COND_LIMIT. Updates stats' cond and gap
    (the least decay rate -Re lam besides the steady state's 0)."""
    lam, vecs = np.linalg.eig(gen)
    cond = float(np.linalg.cond(vecs))
    stats.max_cond = max(stats.max_cond, cond)
    if not cond <= COND_LIMIT:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.exp(np.outer(lam, times))
        states = vecs @ (growth * np.linalg.solve(vecs, v0)[:, None])
    if not np.all(np.isfinite(states)):
        # rounding in eig of a huge L_red left some Re lam >> 0
        raise OverflowError("the reduced Liouvillian's eigenvalues lost to rounding")
    stats.min_gap = float(np.fmin(stats.min_gap, -np.sort(lam.real)[-2]))
    return states


def _propagate_reduced(gen, v0: np.ndarray, times: np.ndarray, orbits: Orbits,
                       stats: PropagationStats) -> np.ndarray:
    """v(t) = exp(t L_red) v0 in the symmetric basis of orbits, one column
    per time.

    gen is L_red (dense or sparse). Up to EIG_MAX_DIM it takes the eig
    closed form, else (or when cond(R) > COND_LIMIT) expm_multiply. The
    drift checks and renormalization of propagate apply: the trace is the
    trace row applied to v, and the hermiticity drift is
    max |rho - rho^dag| = 2 max |B Im v| = 2 max_o |(U Im v)_o| / sqrt|o|,
    which only the complex eig route can have. times must be a non-empty,
    strictly increasing and equally spaced grid from t >= 0 (ValueError); a
    drift above DRIFT_LIMIT raises RuntimeError. The dimension, route, cond,
    gap and drifts are recorded in stats.
    """
    stats.reduced_dim = gen.shape[0]
    _check_sample_grid(times)
    states = None
    if gen.shape[0] <= EIG_MAX_DIM:
        states = _eig_window(gen.toarray() if sp.issparse(gen) else gen, v0, times, stats)
    if states is None:
        states = _expm_samples(sp.csr_matrix(gen), v0, times).T
        stats.expm_cells += 1
    else:
        stats.eig_cells += 1
    traces = orbits.row(orbits.diagonal).real @ states
    herm = (2 * (np.abs(orbits.unitary @ states.imag) / np.sqrt(orbits.size)[:, None]).max(axis=0)
            if np.iscomplexobj(states) else np.zeros(len(times)))
    renorm = _check_drift(stats, traces, herm)
    states[:, renorm] /= traces[renorm]
    return states


def scan_steady_state(
    lattice: LatticeSpec,
    params: ModelParams,
    delta_values: np.ndarray,
    omega_values: np.ndarray,
    models=(SINGLE, COLLECTIVE),
    t_final: float = 5.0,
) -> SteadyStateScan:
    """Driven protocol of the steady-state figure over a parameter grid.

    Every (Delta, Omega, model) cell is propagated from the all-down state;
    <n>(t) is sampled at the 100 window times and averaged. The driven
    Hamiltonian is linear in Delta and Omega and the dissipator depends on
    neither, so the reduced generator L_red(Delta, Omega) = L0 + Delta L_Delta
    + Omega L_Omega is assembled from the orbit representatives once per scan,
    L0 once per model, and each cell's window is propagated by
    _propagate_reduced, whose drift checks apply to every window. A cell
    that fails them is left NaN and named in errors.
    """
    for m in models:
        check_model(m)
    delta_values = np.asarray(delta_values, dtype=float)
    omega_values = np.asarray(omega_values, dtype=float)
    check_window(t_final, params.gamma)
    tw = window_times(params.gamma)

    orbits = symmetry_orbits(lattice)
    v0 = orbits.coords(orbits.reps == 0)  # the vacuum |0><0|
    # <n>/N = tr(diag(n) rho) / N
    excitations = orbits.pair_bits()[0].sum(axis=1)
    obs_row = orbits.row(orbits.diagonal * excitations).real / lattice.site_count

    scan = SteadyStateScan(
        delta_values=delta_values,
        omega_values=omega_values,
        n_single=np.full((len(delta_values), len(omega_values)), np.nan),
        n_collective=np.full((len(delta_values), len(omega_values)), np.nan),
        t_final=t_final,
    )
    def dense(part):
        # dense L_red makes the per-cell sums cheap on the eig route
        return part.toarray() if orbits.dim <= EIG_MAX_DIM else part

    l_delta, l_omega = dense(reduced_detuning(orbits)), dense(reduced_drive(orbits))
    for m in models:
        l0 = dense(reduced_liouvillian(orbits, lattice, params, m))
        out = scan.n_single if m == SINGLE else scan.n_collective
        for i, delta in enumerate(delta_values):
            for j, omega in enumerate(omega_values):
                try:
                    states = _propagate_reduced(
                        l0 + delta * l_delta + omega * l_omega, v0, tw, orbits, scan)
                except RuntimeError as err:
                    scan.errors.append(f"model={m} Delta={delta} Omega={omega}: {err}")
                    continue
                out[i, j] = np.mean((obs_row @ states).real)
    return scan
