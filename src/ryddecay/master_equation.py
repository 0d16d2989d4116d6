"""Lindblad master equation: exact propagation, observables, grid scans.

Exact Lindblad propagation: sparse Liouvillian + expm_multiply. liouvillian
assembles the generator on row-major vec(rho) once, and propagate evaluates
exp(tL) vec(rho0) on an equally spaced sample grid with
scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)). Every snapshot is checked for trace and hermiticity drift.
Dimensions up to 2^10 (N <= 10 sites) are supported.

integrate_exact propagates one system; scan_steady_state runs the driven
steady-state protocol over a (Delta, Omega) grid for both dissipation models
through the same two functions. lindblad_rhs applies the generator as
operator products and is kept as the independent oracle for liouvillian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, neighbor_table
from .operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    check_model,
    driven_hamiltonian,
    effective_hamiltonian,
    excitation_count_vector,
    jump_operators,
)

WINDOW = (4.75, 5.00)
WINDOW_POINTS = 100
# trace/hermiticity drift that fails a propagation, and trace drift above
# which a snapshot is renormalized (and counted)
DRIFT_LIMIT = 1e-6
RENORM_THRESHOLD = 1e-12


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


# an L too large for float64 overflows expm_multiply's norm estimates, which
# warn before scipy raises OverflowError
@np.errstate(over="ignore", invalid="ignore")
def propagate(L: sp.csr_matrix, rho0: np.ndarray, times) -> IntegrationResult:
    """rho(t) = exp(tL) rho0 at equally spaced, increasing times >= 0.

    The first sample time is reached with one expm_multiply call, the rest
    of the grid with its interval form. That form starts at 0 because with
    start > 0 and a large ||L|| t it overflowed (scipy 1.17). Its 1-norm
    estimate draws from numpy's global RNG, so the global seed is pinned for
    the call and the caller's RNG state restored afterwards: equal inputs
    give equal bytes. A trace or hermiticity drift above DRIFT_LIMIT raises
    RuntimeError; snapshots whose trace drifts by more than RENORM_THRESHOLD
    are renormalized and counted.
    """
    # imported here: scipy.sparse.linalg adds ~0.15 s to `import ryddecay.cli`
    from scipy.sparse.linalg import expm_multiply

    times = np.asarray(times, dtype=float)
    span = times[-1] - times[0]
    if len(times) > 2 and not np.allclose(
        np.diff(times), span / (len(times) - 1), rtol=1e-9, atol=0
    ):
        raise ValueError("sample times must be equally spaced")
    dim = rho0.shape[0]
    v = np.array(rho0, dtype=complex).reshape(-1)
    rng_state = np.random.get_state()
    np.random.seed(0)
    try:
        if times[0] > 0:
            v = expm_multiply(L * times[0], v)
        if len(times) > 1:
            v = expm_multiply(L, v, start=0.0, stop=span, num=len(times), endpoint=True)
    finally:
        np.random.set_state(rng_state)

    result = IntegrationResult(times=times, states=list(v.reshape(len(times), dim, dim)))
    for rho in result.states:
        tr = rho.trace()
        trace_drift = abs(tr - 1.0)
        herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
        if not (trace_drift <= DRIFT_LIMIT and herm_drift <= DRIFT_LIMIT):
            raise RuntimeError(
                f"propagation drift above {DRIFT_LIMIT:g}: trace {trace_drift:.2e}, "
                f"hermiticity {herm_drift:.2e}"
            )
        result.max_trace_drift = max(result.max_trace_drift, trace_drift)
        result.max_herm_drift = max(result.max_herm_drift, herm_drift)
        if trace_drift > RENORM_THRESHOLD:
            rho /= tr
            result.renormalizations += 1
    return result


def integrate_exact(
    rho0: np.ndarray,
    H,
    jumps,
    t_final: float,
    sample_times=None,
) -> IntegrationResult:
    """Exact propagation of the Lindblad equation, with snapshots at
    equally spaced sample times in [0, t_final] (default: t_final alone).

    Any other grid raises ValueError; see propagate for the drift checks.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[0] > 1024:
        raise ValueError("exact integration supports dim <= 1024 (N <= 10)")
    check_density_matrix(rho0)
    if sample_times is None:
        sample_times = np.array([t_final])
    sample_times = np.unique(np.atleast_1d(np.asarray(sample_times, dtype=float)))
    if len(sample_times) == 0:
        raise ValueError("sample times must not be empty")
    if np.any(sample_times < 0) or np.any(sample_times > t_final + 1e-12):
        raise ValueError("sample times must lie in [0, t_final]")
    return propagate(liouvillian(H, jumps), rho0, sample_times)


def excitation_density(rho: np.ndarray, lattice: LatticeSpec) -> float:
    """Site-averaged excitation density (1/N) sum_k <n_k>."""
    exc = excitation_count_vector(lattice)
    return float(np.real(np.sum(np.asarray(rho).diagonal() * exc)) / lattice.site_count)


def window_times(gamma: float = 1.0) -> np.ndarray:
    """The 100 linearly spaced sampling times in [4.75, 5.00]/gamma."""
    return np.linspace(WINDOW[0] / gamma, WINDOW[1] / gamma, WINDOW_POINTS)


# ---------------------------------------------------------------------------
# (Delta, Omega) steady-state scan
# ---------------------------------------------------------------------------


@dataclass
class SteadyStateScan:
    """Window-averaged excitation densities over a (Delta, Omega) grid,
    with the largest drift that propagate saw over all cells."""

    delta_values: np.ndarray
    omega_values: np.ndarray
    n_single: np.ndarray      # shape (len(delta), len(omega))
    n_collective: np.ndarray
    t_final: float
    max_trace_drift: float = 0.0
    max_herm_drift: float = 0.0
    errors: list[str] = field(default_factory=list)


def scan_steady_state(
    lattice: LatticeSpec,
    params: ModelParams,
    delta_values: np.ndarray,
    omega_values: np.ndarray,
    models=(SINGLE, COLLECTIVE),
    t_final: float = 5.0,
    rho0: np.ndarray | None = None,
) -> SteadyStateScan:
    """Driven protocol of the steady-state figure over a parameter grid.

    Every (Delta, Omega, model) cell is propagated from the all-down state
    (or rho0); <n>(t) is sampled at the 100 window times and averaged. The
    driven Hamiltonian is linear in Delta and Omega and the dissipator
    depends on neither, so each model's generator is assembled once as
    L(Delta, Omega) = L0 + Delta L_Delta + Omega L_Omega. A cell whose
    propagation fails its drift check is left NaN and named in errors.
    """
    for m in models:
        check_model(m)
    delta_values = np.asarray(delta_values, dtype=float)
    omega_values = np.asarray(omega_values, dtype=float)
    n = lattice.site_count
    dim = 1 << n
    if dim > 1024:
        raise ValueError("exact scan supports dim <= 1024 (N <= 10)")
    tw = window_times(params.gamma)
    if t_final < tw[-1] - 1e-12:
        raise ValueError("t_final must cover the averaging window")
    if rho0 is None:
        rho0 = vacuum_density(dim)
    check_density_matrix(rho0)

    table = neighbor_table(lattice)

    def hamiltonian(**terms):
        return driven_hamiltonian(lattice, table, ModelParams(**terms))

    l_delta = liouvillian(hamiltonian(Delta=1.0), ())
    l_omega = liouvillian(hamiltonian(Omega=1.0), ())
    h_bonds = hamiltonian(V=params.V)
    exc = excitation_count_vector(lattice)

    scan = SteadyStateScan(
        delta_values=delta_values,
        omega_values=omega_values,
        n_single=np.full((len(delta_values), len(omega_values)), np.nan),
        n_collective=np.full((len(delta_values), len(omega_values)), np.nan),
        t_final=t_final,
    )
    for m in models:
        l0 = liouvillian(h_bonds, jump_operators(lattice, table, params, m))
        out = scan.n_single if m == SINGLE else scan.n_collective
        for i, delta in enumerate(delta_values):
            for j, omega in enumerate(omega_values):
                try:
                    res = propagate(l0 + delta * l_delta + omega * l_omega, rho0, tw)
                except RuntimeError as err:
                    scan.errors.append(f"model={m} Delta={delta} Omega={omega}: {err}")
                    continue
                out[i, j] = np.mean([exc @ rho.diagonal().real for rho in res.states]) / n
                scan.max_trace_drift = max(scan.max_trace_drift, res.max_trace_drift)
                scan.max_herm_drift = max(scan.max_herm_drift, res.max_herm_drift)
                del res  # free this cell's window before the next one is propagated
    return scan
