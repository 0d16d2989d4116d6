"""Lindblad master equation: exact propagation, observables, grid scans.

Exact Lindblad propagation: sparse Liouvillian + truncated Taylor series.
liouvillian assembles the generator on row-major vec(rho) once, and
propagate evaluates exp(tL) vec(rho0) on an equally spaced sample grid with
the module's Taylor core (_expm_samples), which follows Al-Mohy & Higham,
SIAM J. Sci. Comput. 33, 488 (2011), algorithms 3.2 and 5.2: the shift
mu = tr L / n, the exact 1-norm of L - mu I, and one power basis and one
matrix product per block of samples. It draws no random numbers, and it
refuses (ValueError) a plan whose sparse products times the non-zeros of
L - mu I exceed MAX_TAYLOR_WORK. Every snapshot is checked for trace and
hermiticity drift. Dimensions up to 2^MAX_SITES (N <= 10 sites, check_sites)
are supported. integrate_exact propagates one system this way; lindblad_rhs
applies the generator as operator products and is kept as the independent
oracle for liouvillian.

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
observable rows: neither workflow builds a 4^N-row or 4^N x 4^N object. The
site occupations of i and j and their excited-neighbour and excited-bond
counts come from operators, the one module that knows the basis encoding,
so the reduced generator and its full-space oracle share them.
The package's one closed form, EigenForm, is exp(tau G) =
vecs diag(exp(tau lam)) inv of a dense generator, from its one
numpy.linalg.eig and its one test against COND_LIMIT (eigen_form).
propagate_reduced, the one propagation core of both workflows, takes it for
L_red up to EIG_MAX_DIM when the eigenbasis is trusted, else the Taylor core;
the jump trajectories take it for G = -i H_eff. liouvillian, propagate and
integrate_exact stay the full-space oracle of propagate_reduced, and
Orbits.basis builds the 4^N-row basis B for the tests that compare with them.

scipy.sparse is imported inside each function that builds or multiplies a
sparse matrix, so importing this module loads numpy alone and the first
exact call in a process pays the scipy.sparse import (about 0.2 s). Only the
expm fallback loads scipy.linalg, and no path scipy.sparse.linalg.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .lattice import LatticeSpec, all_coords, neighbor_table
from .operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    check_model,
    effective_hamiltonian,
    excitation_count_vector,
    excited_bonds,
    excited_neighbours,
    occupations,
    site_masks,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

# Largest condition number of an eigenvector matrix for which eigen_form
# trusts the eigenbasis: R of L_red = R diag(lam) R^-1 here, V of H_eff in
# the jump trajectories. The N = 1 atom at Delta = 0, Omega = gamma/4 is an
# exceptional point of H_eff; there cond(V) reads about 9e7 and the closed
# form is off by 3.5e-9 from expm.
COND_LIMIT = 1e6
# Largest lattice of the exact layer and of the CLI's lattice workflows,
# compared in check_sites alone. At N = 10 a steady-state cell holds the
# 4^N-entry orbit array and a reduced generator of dimension 53,764 (10 s,
# 250 MiB peak); eig of the 2^N x 2^N H_eff of a trajectory cell takes 4.7 s.
MAX_SITES = 10
WINDOW = (4.75, 5.00)
WINDOW_POINTS = 100
# trace/hermiticity drift that fails a propagation, and trace drift above
# which a snapshot is renormalized (and counted)
DRIFT_LIMIT = 1e-6
RENORM_THRESHOLD = 1e-12
# Largest dimension of the symmetric subspace at which propagate_reduced
# takes the eig closed form; above it the Taylor core (_expm_samples) on
# L_red is faster. The switch is by dimension alone, so the steady-state scan
# and the coherence cross-check take the same route on the same lattice. Per
# steady-state cell on one BLAS thread (12 cells, both models, V = 10; the
# best of 3-8 scans, over several runs on a shared machine), eig vs Taylor
# core: 2 vs 16-21 ms at 55 (N = 4 ring), 11-14 vs 18-28 ms at 136 (N = 5
# ring, N = 4 open chain), 139-166 vs 33-57 ms at 430 (N = 6 ring), 292-309
# vs 29-48 ms at 544 (N = 5 open chain). eig grows as about dim^2.2 there,
# crossing near 200; no chain has a dimension between 136 and 430. The
# coherence cross-check per model (one BLAS thread, omega_a = 0.37, V = 10,
# median of 5): 3 ms on the N = 4 ring (eig, 201 times to t = 2); 4-5 ms on
# the N = 6 ring (Taylor, 26 times to t = 0.25), 9-12 ms for 201 times to
# t = 2.
EIG_MAX_DIM = 256
# theta_m of Al-Mohy & Higham (2011): the largest ||tA||_1 for which the
# degree-m truncated Taylor series of exp(tA) has a backward error within
# double precision (m <= 30 from Higham's Functions of Matrices, table A.3;
# the rest from the paper's table 3.1).
TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2,
    50: 8.5, 55: 9.9,
}
# the relative size below which the last two Taylor terms end a series
TAYLOR_TOL = 2.0**-53
# Most multiply-adds one _expm_samples call may plan: sparse products times
# the non-zeros of L - mu I. The products grow as ||tL||_1, so linearly in V,
# Delta and Omega. One N = 6 ring steady-state cell (Delta = -6, Omega = 2.5,
# one model, about 5,000 non-zeros) plans 2,200 products at V = 10, 1.67e6 at
# V = 1e4 (10 s) and 1.67e7 at V = 1e5, which is refused. The N = 10 ring
# (1.2e6 non-zeros, 1.2 ms a product) is held to about 16,000 products (20 s).
MAX_TAYLOR_WORK = 2e10


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
    import scipy.sparse as sp

    heff = effective_hamiltonian(H, jumps)
    eye = sp.identity(heff.shape[0], dtype=complex, format="csr")
    gen = -1j * sp.kron(heff, eye) + 1j * sp.kron(eye, heff.conj())
    for j in jumps:
        L = sp.csr_matrix(j.matrix, dtype=complex)
        gen = gen + sp.kron(L, L.conj())
    return gen.tocsr()


def _check_sample_grid(times: np.ndarray) -> None:
    """Raise ValueError unless times is a non-empty 1-D grid from t >= 0,
    strictly increasing and equally spaced: the Taylor core (_expm_samples)
    gets a block of samples from one power basis, which needs equal steps,
    and callers pair the samples with their own grid, which a sorted or
    merged copy would misalign."""
    if times.ndim != 1 or times.size == 0:
        raise ValueError("sample times must be a non-empty 1-D grid")
    if times[0] < 0:
        raise ValueError(f"sample times must be >= 0, got {times[0]:g}")
    steps = np.diff(times)
    if np.any(steps <= 0) or not np.allclose(
            steps, (times[-1] - times[0]) / max(len(times) - 1, 1), rtol=1e-9, atol=0):
        raise ValueError("sample times must be strictly increasing and equally spaced")


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(m, s) minimising m s with s = ceil(norm / theta_m): s Taylor steps
    of degree at most m reach exp(tA) x where ||tA||_1 = norm. This is the
    exact-norm branch of Al-Mohy & Higham's fragment 3.1."""
    if norm == 0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in TAYLOR_THETA.items()),
               key=lambda plan: plan[0] * plan[1])


def _taylor_blocks(q: int, s: int) -> tuple[int, int]:
    """(r, blocks) for q equal intervals of a span that s Taylor steps
    cross: each interval is cut into r substeps, and the q r substeps are
    split evenly into blocks of at most floor(q r / s) substeps, so that no
    block spans more than span / s."""
    r = -(-s // q)
    return r, -(-q * r // (q * r // s))


def _taylor_grid(A, mu: float, x: np.ndarray, h: float, m: int, s: int,
                 out: np.ndarray) -> None:
    """Write exp(k h (A + mu I)) x into row k - 1 of out, k = 1..len(out),
    by the plan (m, s) of the whole span len(out) h (Al-Mohy & Higham's
    algorithm 5.2).

    Each block of substeps from x_b builds one power basis
    K_p = ((d h)^p / p!) A^p x_b over its span d h, stopping at degree m or
    once the last two terms fall below TAYLOR_TOL times the partial sum (the
    paper's stop, taken at the block's last substep), and gets its samples
    in one matrix product: exp(k mu h) sum_p (k / d)^p K_p for the substeps
    k = 1..d of the block that are sample times.
    """
    q = len(out)
    r, blocks = _taylor_blocks(q, s)
    h /= r
    basis = np.empty((m + 1, x.size), dtype=out.dtype)
    lo = 0
    for b in range(1, blocks + 1):
        hi = q * r * b // blocks
        d = hi - lo
        basis[0] = x
        total = x.copy()
        last = bound = np.abs(x).max()  # bound >= ||total||, to skip most norms of total
        p = 0
        while p < m:
            p += 1
            np.multiply(A @ basis[p - 1], d * h / p, out=basis[p])
            total += basis[p]
            term = np.abs(basis[p]).max()
            bound += term
            if (last + term <= TAYLOR_TOL * bound
                    and last + term <= TAYLOR_TOL * np.abs(total).max()):
                break
            last = term
        k = np.arange(-(-(lo + 1) // r) * r, hi + 1, r) - lo  # the block's sample substeps
        if k.size:
            rows = out[(lo + k[0]) // r - 1:(lo + k[-1]) // r]
            np.matmul((k[:, None] / d) ** np.arange(p + 1), basis[:p + 1], out=rows)
            rows *= np.exp(mu * h * k)[:, None]
        x, lo = np.exp(mu * h * d) * total, hi


def _expm_samples(L, v: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(tL) v at equally spaced, increasing times >= 0, one row per time,
    by truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011), algorithms 3.2 and 5.2) on the shifted A = L - mu I,
    mu = tr L / n, with ||A||_1 taken exactly.

    The first sample time is reached in s Taylor steps, and the rest of the
    grid in blocks of samples that share one power basis (_taylor_grid).
    The plans fix the number of sparse products before the first one: a
    non-finite ||A||_1, or products times A's non-zeros above MAX_TAYLOR_WORK
    (the work grows as ||t L||_1, so as V), raises ValueError. No step draws
    random numbers, so equal inputs give equal bytes.
    """
    import scipy.sparse as sp

    n = L.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mu = L.diagonal().sum() / n
        A = sp.csr_matrix(L - mu * sp.identity(n, dtype=L.dtype, format="csr"))
        norm = float(abs(A).sum(axis=0).max())
        reach = float(times[-1] * norm)  # ||tA||_1 at the last time
    if not np.isfinite(reach):
        raise ValueError(f"||tL||_1 is not finite (||L - mu I||_1 = {norm:.3g}); "
                         "Delta, Omega or V too large")
    q, span = len(times) - 1, times[-1] - times[0]
    first = _taylor_plan(times[0] * norm) if times[0] > 0 else None
    grid = _taylor_plan(span * norm) if q else None
    products = ((first[0] * first[1] if first else 0)
                + (grid[0] * _taylor_blocks(q, grid[1])[1] if grid else 0))
    if products * A.nnz > MAX_TAYLOR_WORK:
        raise ValueError(
            f"exp(tL) would take {products:,} sparse products of {A.nnz:,} non-zeros, "
            f"over {MAX_TAYLOR_WORK:.0e} multiply-adds (||L - mu I||_1 = {norm:.3g}, "
            f"t up to {times[-1]:g}); Delta, Omega or V too large")
    out = np.empty((len(times), n), dtype=np.result_type(A.dtype, v.dtype))
    out[0] = v
    if first:
        _taylor_grid(A, mu, out[0], times[0], *first, out=out[:1])
    if grid:
        _taylor_grid(A, mu, out[0], span / q, *grid, out=out[1:])
    return out


@dataclass
class EigenForm:
    """exp(tau G) of a dense generator G: vecs diag(exp(tau lam)) inv, or dense
    expm of gen where eigen_form distrusts the eigenbasis (lam, vecs, inv None)."""

    gen: np.ndarray
    cond: float
    lam: np.ndarray | None = None
    vecs: np.ndarray | None = None
    inv: np.ndarray | None = None

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """What rows propagates: inv @ v, or v itself on the expm route."""
        return v if self.vecs is None else self.inv @ v

    def rows(self, coefs: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """exp(taus[r] G) v_r, one row per tau, from the coefficients
        coefs[r] of v_r; on the closed form one row may serve every tau."""
        if self.vecs is None:
            from scipy.linalg import expm

            return np.array([expm(tau * self.gen) @ c for c, tau in zip(coefs, taus)])
        phases = np.exp(np.multiply.outer(taus, self.lam)) * coefs
        if len(taus) == 1:
            # OpenBLAS sends a one-row product down its matrix-vector path,
            # whose last bits differ from those of a row of a larger batch
            return (np.repeat(phases, 2, axis=0) @ self.vecs.T)[:1]
        return phases @ self.vecs.T


def eigen_form(mat, scale: complex = 1.0) -> EigenForm:
    """The EigenForm of G = scale mat from numpy.linalg.eig of the sparse or
    dense mat; -i H_eff takes scale -1j to keep the rounding of H_eff's eig."""
    import scipy.sparse as sp

    mat = mat.toarray() if sp.issparse(mat) else np.asarray(mat)
    lam, vecs = np.linalg.eig(mat)
    cond = float(np.linalg.cond(vecs))
    if not cond <= COND_LIMIT:
        return EigenForm(scale * mat, cond)
    return EigenForm(scale * mat, cond, scale * lam, vecs, np.linalg.inv(vecs))


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
    the Taylor core (see _expm_samples); any other grid, or an L whose plan
    needs more than MAX_TAYLOR_WORK multiply-adds, raises ValueError.
    A trace or hermiticity drift above DRIFT_LIMIT raises RuntimeError;
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
    check_sites((rho0.shape[0] - 1).bit_length())
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


def check_sites(n: int) -> None:
    """Raise unless n sites are within MAX_SITES: the one size check of every
    lattice path, made before anything of that size is built."""
    if n > MAX_SITES:
        raise ValueError(f"N <= {MAX_SITES} is required (at N = 10 steady-state holds a 4^N-entry "
                         f"orbit array and a generator of dimension 53,764, 250 MiB; trajectories "
                         f"a dense 2^N x 2^N H_eff), got N = {n}")


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
        each of shape (dim, N), with site k in column k (occupations)."""
        n = self.n_sites
        return occupations(n, self.reps >> n), occupations(n, self.reps & ((1 << n) - 1))

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
        import scipy.sparse as sp

        target = self.orbit[cols]
        m = sp.csr_matrix((values * np.sqrt(self.size[rows] / self.size[target]),
                           (rows, target)), shape=(self.dim, self.dim))
        return sp.csr_matrix((self.unitary.conj().T @ m @ self.unitary).real)

    def basis(self) -> sp.csr_matrix:
        """B itself, 4^N rows: only the tests that compare with the
        full-space liouvillian build it."""
        import scipy.sparse as sp

        pairs = np.arange(len(self.orbit))
        e = sp.csr_matrix((1.0 / np.sqrt(self.size[self.orbit]), (pairs, self.orbit)))
        return sp.csr_matrix(e @ self.unitary)


def symmetry_orbits(lattice: LatticeSpec) -> Orbits:
    """The orbits of the pairs (i, j) under the lattice's site symmetries."""
    import scipy.sparse as sp

    n = lattice.site_count
    check_sites(n)
    dim = 1 << n
    bits, masks = occupations(n), site_masks(n)
    rep = None
    for images in _site_symmetries(lattice):
        perm = bits @ masks[images]  # site k's bit moved to site images[k]
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
    masks = site_masks(n)
    rows = np.arange(orbits.dim)
    site_rows = np.repeat(rows, n)

    n_i, n_j = bits_i.sum(axis=1), bits_j.sum(axis=1)
    decays = (bits_i == 0) & (bits_j == 0)
    if model == COLLECTIVE:
        decays &= excited_neighbours(bits_i, table) == excited_neighbours(bits_j, table)
    diagonal = (-1j * params.V * (excited_bonds(bits_i, table) - excited_bonds(bits_j, table))
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
    masks = site_masks(n)
    site_rows = np.repeat(np.arange(orbits.dim), n)
    return orbits.reduce(
        np.concatenate([site_rows, site_rows]),
        np.concatenate([((i ^ masks) * dim + j).ravel(), (i * dim + (j ^ masks)).ravel()]),
        np.repeat([-1j, 1j], site_rows.size))


@dataclass(kw_only=True)
class PropagationStats:
    """Diagnostics of propagations in the symmetric subspace, accumulated by
    propagate_reduced over the runs (cells) of one caller: the subspace
    dimension, the runs evaluated in closed form (eig) and by the Taylor
    core (expm), the largest cond(R) met, the smallest Liouvillian gap of
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


def propagate_reduced(gen, v0: np.ndarray, times: np.ndarray, orbits: Orbits,
                      stats: PropagationStats) -> np.ndarray:
    """v(t) = exp(t L_red) v0 in the symmetric basis of orbits, one column
    per time.

    gen is L_red (dense or sparse). Up to EIG_MAX_DIM it takes its
    EigenForm's closed form (OverflowError if that overflows), else, or when
    cond(R) > COND_LIMIT, the Taylor core (_expm_samples, ValueError when its
    plan is too long). The drift checks and renormalization of propagate
    apply: the trace is the trace row applied to v, and the hermiticity drift
    is max |rho - rho^dag| = 2 max |B Im v| = 2 max_o |(U Im v)_o| / sqrt|o|,
    which only the complex eig route can have. times must be a non-empty,
    strictly increasing and equally spaced grid from t >= 0 (ValueError); a
    drift above DRIFT_LIMIT raises RuntimeError. The dimension, route, cond,
    gap and drifts are recorded in stats.
    """
    import scipy.sparse as sp

    stats.reduced_dim = gen.shape[0]
    _check_sample_grid(times)
    form = eigen_form(gen) if gen.shape[0] <= EIG_MAX_DIM else None
    stats.max_cond = max(stats.max_cond, form.cond if form else 0.0)
    if form is None or form.lam is None:
        states = _expm_samples(sp.csr_matrix(gen), v0, times).T
        stats.expm_cells += 1
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            states = form.rows(form.coefficients(v0), times).T
        if not np.all(np.isfinite(states)):
            # rounding in eig of a huge L_red left some Re lam >> 0
            raise OverflowError("the reduced Liouvillian's eigenvalues lost to rounding")
        # the gap: the least decay rate -Re lam besides the steady state's 0
        stats.min_gap = float(np.fmin(stats.min_gap, -np.sort(form.lam.real)[-2]))
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
    propagate_reduced, whose drift checks apply to every window. A cell
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
                    states = propagate_reduced(
                        l0 + delta * l_delta + omega * l_omega, v0, tw, orbits, scan)
                except RuntimeError as err:
                    scan.errors.append(f"model={m} Delta={delta} Omega={omega}: {err}")
                    continue
                out[i, j] = np.mean((obs_row @ states).real)
    return scan
