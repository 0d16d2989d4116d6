"""Lindblad master equation: assembly, exact integration, observables.

The right-hand side is always applied as operator products (the dim^2 x dim^2
superoperator is never formed). Integration is fixed-step RK4, dt = 1e-3/gamma
by default, with trace/hermiticity drift monitoring and automatic step halving
on alarm. Dimensions up to 2^10 are supported; beyond that use the quantum
jump trajectory module.

scan_steady_state runs the driven steady-state protocol over a (Delta, Omega)
grid for both dissipation models, integrating all grid cells as one stacked
array batch. It reuses the identical RK4 rule; equivalence with
integrate_exact is covered by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, neighbor_table
from .operators import (
    COLLECTIVE,
    SINGLE,
    JumpOperator,
    ModelParams,
    check_model,
    excitation_count_vector,
    neighbor_count_vector,
    occupation_vector,
)

DEFAULT_DT = 1e-3
WINDOW = (4.75, 5.00)
WINDOW_POINTS = 100

# densify operators below this dimension: scipy sparse products carry ~10x
# call overhead at dim 16
_DENSE_DIM = 256


@dataclass
class ObservableSeries:
    """A real observable sampled on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass
class IntegrationResult:
    """Snapshots of rho at the requested times plus drift diagnostics."""

    times: np.ndarray
    states: list[np.ndarray]
    dt: float
    renormalizations: int = 0
    max_trace_drift: float = 0.0
    max_herm_drift: float = 0.0
    halvings: int = 0


def _as_matrix(op) -> np.ndarray | sp.csr_matrix:
    if sp.issparse(op):
        return op.toarray() if op.shape[0] <= _DENSE_DIM else op.tocsr()
    return np.asarray(op)


def _jump_matrices(jumps) -> list:
    mats = []
    for j in jumps:
        mats.append(j.matrix if isinstance(j, JumpOperator) else j)
    return mats


def check_dt(dt: float) -> None:
    """Reject a step that is not finite and positive: a fixed-step loop
    would never reach its end time with it."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


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


def pure_state_density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def vacuum_density(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def product_state_vector(single_site: np.ndarray, n_sites: int) -> np.ndarray:
    """N-fold tensor power of a normalized single-site state."""
    v = np.asarray(single_site, dtype=complex)
    v = v / np.linalg.norm(v)
    psi = v
    for _ in range(n_sites - 1):
        psi = np.kron(psi, v)
    return psi


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
    Hm = _as_matrix(H)
    if Hm.shape[0] != rho.shape[0]:
        raise ValueError(f"dimension mismatch: H {Hm.shape} vs rho {rho.shape}")
    out = -1j * (Hm @ rho - rho @ Hm)
    for L in _jump_matrices(jumps):
        Lm = _as_matrix(L)
        if Lm.shape[0] != rho.shape[0]:
            raise ValueError("dimension mismatch in jump operator")
        Ld = Lm.conj().T
        LdL = Ld @ Lm
        out += Lm @ rho @ Ld - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def _make_rhs(H, jumps):
    """Closure computing the RHS with everything precomputed.

    Uses H_eff = H - (i/2) sum L^dag L so the drift is two products; the
    recycling term is a stacked batch product when operators are dense.
    """
    Hm = _as_matrix(H)
    mats = [_as_matrix(L) for L in _jump_matrices(jumps)]
    dense = not sp.issparse(Hm) and all(not sp.issparse(m) for m in mats)
    if dense:
        dim = Hm.shape[0]
        Ls = np.stack(mats).astype(complex) if mats else np.zeros((0, dim, dim), complex)
        ldl = sum(L.conj().T @ L for L in Ls) if len(Ls) else np.zeros((dim, dim))
        heff = Hm.astype(complex) - 0.5j * ldl
        heff_dag = heff.conj().T.copy()
        Lds = Ls.conj().transpose(0, 2, 1).copy()

        def rhs(rho):
            out = -1j * (heff @ rho) + 1j * (rho @ heff_dag)
            if len(Ls):
                out += np.add.reduce(Ls @ rho @ Lds)
            return out

    else:
        ldl_s = sum((L.conj().T @ L for L in mats), sp.csr_matrix(Hm.shape))
        heff_s = sp.csr_matrix(Hm - 0.5j * ldl_s)
        heff_dag_s = heff_s.conj().T.tocsr()
        pairs = [(L.tocsr(), L.conj().T.tocsr()) for L in mats]

        def rhs(rho):
            out = -1j * (heff_s @ rho) + 1j * (rho @ heff_dag_s)
            for L, Ld in pairs:
                out += L @ rho @ Ld
            return out

    return rhs


def _rk4_step(rhs, rho, h):
    k1 = rhs(rho)
    k2 = rhs(rho + (0.5 * h) * k1)
    k3 = rhs(rho + (0.5 * h) * k2)
    k4 = rhs(rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_exact(
    rho0: np.ndarray,
    H,
    jumps,
    t_final: float,
    dt: float = DEFAULT_DT,
    sample_times=None,
    check_every: int = 200,
) -> IntegrationResult:
    """Fixed-step RK4 propagation with snapshots at the requested times.

    Steps are shortened where needed to land exactly on sample times. Trace
    and hermiticity drift above 1e-6 abort the attempt and restart with dt/2
    (up to 6 halvings); snapshots are trace-renormalized when the drift
    exceeds 1e-12 (the event is counted, not hidden).
    """
    check_dt(dt)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[0] > 1024:
        raise ValueError("exact integration supports dim <= 1024 (N <= 10)")
    check_density_matrix(rho0)
    if sample_times is None:
        sample_times = np.array([t_final])
    sample_times = np.unique(np.atleast_1d(np.asarray(sample_times, dtype=float)))
    if np.any(sample_times < 0) or np.any(sample_times > t_final + 1e-12):
        raise ValueError("sample times must lie in [0, t_final]")
    rhs = _make_rhs(H, jumps)

    for halvings in range(7):
        step = dt / (2**halvings)
        result = _integrate_attempt(rhs, rho0, t_final, step, sample_times, check_every)
        if result is not None:
            result.halvings = halvings
            return result
    raise RuntimeError(
        "integration unstable: trace/hermiticity drift exceeded 1e-6 even after 6 step halvings"
    )


def _integrate_attempt(rhs, rho0, t_final, dt, sample_times, check_every):
    rho = rho0.copy()
    t = 0.0
    out: list[np.ndarray] = []
    renorms = 0
    max_tr = 0.0
    max_herm = 0.0
    events = sorted(set(np.concatenate([sample_times, [t_final]])))
    steps_done = 0
    for target in events:
        while t < target - 1e-15:
            h = min(dt, target - t)
            rho = _rk4_step(rhs, rho, h)
            t += h
            steps_done += 1
            if steps_done % check_every == 0:
                drift = abs(rho.trace().real - 1.0) + abs(rho.trace().imag)
                if drift > 1e-6 or not np.isfinite(drift):
                    return None
        t = target
        if np.any(np.isclose(sample_times, target, rtol=0, atol=1e-12)):
            tr = rho.trace()
            trace_drift = abs(tr - 1.0)
            herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
            max_tr = max(max_tr, trace_drift)
            max_herm = max(max_herm, herm_drift)
            if trace_drift > 1e-6 or herm_drift > 1e-6:
                return None
            snap = rho.copy()
            if trace_drift > 1e-12:
                snap /= tr
                renorms += 1
            out.append(snap)
    return IntegrationResult(
        times=np.asarray(sample_times, dtype=float),
        states=out,
        dt=dt,
        renormalizations=renorms,
        max_trace_drift=max_tr,
        max_herm_drift=max_herm,
    )


def excitation_density(rho: np.ndarray, lattice: LatticeSpec) -> float:
    """Site-averaged excitation density (1/N) sum_k <n_k>."""
    exc = excitation_count_vector(lattice)
    return float(np.real(np.sum(np.asarray(rho).diagonal() * exc)) / lattice.site_count)


def window_times(gamma: float = 1.0) -> np.ndarray:
    """The 100 linearly spaced sampling times in [4.75, 5.00]/gamma."""
    return np.linspace(WINDOW[0] / gamma, WINDOW[1] / gamma, WINDOW_POINTS)


def steady_state_window_average(series: ObservableSeries, gamma: float = 1.0) -> float:
    """Mean of the observable over the 100-point late-time window.

    Values at the window times are taken from the series by linear
    interpolation; grids that contain the window points exactly reproduce
    direct sampling.
    """
    tw = window_times(gamma)
    if series.times[0] > tw[0] + 1e-12 or series.times[-1] < tw[-1] - 1e-12:
        raise ValueError(
            f"series [{series.times[0]}, {series.times[-1]}] does not cover "
            f"the window [{tw[0]}, {tw[-1]}]"
        )
    return float(np.mean(np.interp(tw, series.times, series.values)))


def relative_difference(n_c: float, n_s: float) -> float:
    """(n_c - n_s) / n_s with a division guard."""
    if abs(n_s) < 1e-12:
        raise ValueError("single-model steady-state density too small for a relative difference")
    return (n_c - n_s) / n_s


# ---------------------------------------------------------------------------
# batched (Delta, Omega) steady-state scan
# ---------------------------------------------------------------------------


@dataclass
class SteadyStateScan:
    """Window-averaged excitation densities over a (Delta, Omega) grid."""

    delta_values: np.ndarray
    omega_values: np.ndarray
    n_single: np.ndarray      # shape (len(delta), len(omega))
    n_collective: np.ndarray
    t_final: float
    dt: float
    errors: list[str] = field(default_factory=list)

    @property
    def contrast(self) -> np.ndarray:
        """delta n_ss = (n_c - n_s)/n_s elementwise (nan where guarded)."""
        out = np.full_like(self.n_single, np.nan)
        ok = np.abs(self.n_single) >= 1e-12
        out[ok] = (self.n_collective[ok] - self.n_single[ok]) / self.n_single[ok]
        return out


def _collective_masks(lattice: LatticeSpec) -> list[np.ndarray]:
    """Per site k: 0/1 matrix M[i,j] = 1 iff i and j have the same excited
    neighbor count of k. sum_xi P^xi A P^xi = A * M elementwise."""
    table = neighbor_table(lattice)
    masks = []
    for k in range(lattice.site_count):
        cnt = neighbor_count_vector(lattice, table, k)
        masks.append((cnt[:, None] == cnt[None, :]).astype(float))
    return masks


def scan_steady_state(
    lattice: LatticeSpec,
    params: ModelParams,
    delta_values: np.ndarray,
    omega_values: np.ndarray,
    models=(SINGLE, COLLECTIVE),
    t_final: float = 5.0,
    dt: float = DEFAULT_DT,
    rho0: np.ndarray | None = None,
    max_batch_bytes: int = 256 * 2**20,
) -> SteadyStateScan:
    """Driven protocol of the steady-state figure over a parameter grid.

    Every (Delta, Omega, model) cell is integrated from the all-down state
    (or rho0) to t_final with the shared RK4 rule, all cells stacked into one
    array batch; <n>(t) is recorded at the 100 window times and averaged.
    """
    for m in models:
        check_model(m)
    check_dt(dt)
    delta_values = np.asarray(delta_values, dtype=float)
    omega_values = np.asarray(omega_values, dtype=float)
    n = lattice.site_count
    dim = 1 << n
    if dim > 1024:
        raise ValueError("exact scan supports dim <= 1024 (N <= 10)")
    gamma = params.gamma
    tw = window_times(gamma)
    if t_final < tw[-1] - 1e-12:
        raise ValueError("t_final must cover the averaging window")

    exc = excitation_count_vector(lattice)
    table = neighbor_table(lattice)
    vdiag = np.zeros(dim)
    for a, b in table.bond_list:
        vdiag += params.V * occupation_vector(lattice, a) * occupation_vector(lattice, b)
    sx_pattern = np.zeros((dim, dim))
    idx = np.arange(dim)
    for k in range(n):
        mask_bit = 1 << (n - 1 - k)
        sx_pattern[idx ^ mask_bit, idx] += 1.0
    masks = _collective_masks(lattice)

    if rho0 is None:
        rho0 = vacuum_density(dim)
    check_density_matrix(rho0)

    cells = [(i, j) for i in range(len(delta_values)) for j in range(len(omega_values))]
    per_cell_bytes = 16 * dim * dim * 8  # rho + RK4 temporaries
    chunk = max(1, min(len(cells), max_batch_bytes // per_cell_bytes))

    results = {m: np.full((len(delta_values), len(omega_values)), np.nan) for m in models}
    errors: list[str] = []
    for m in models:
        for start in range(0, len(cells), chunk):
            batch = cells[start : start + chunk]
            navg = _scan_batch(
                batch, delta_values, omega_values, exc, vdiag, sx_pattern, masks,
                gamma, m, rho0, t_final, dt, tw, n,
            )
            for (i, j), val in zip(batch, navg):
                if np.isfinite(val):
                    results[m][i, j] = val
                else:
                    errors.append(f"model={m} Delta={delta_values[i]} Omega={omega_values[j]}: non-finite")
    return SteadyStateScan(
        delta_values=delta_values,
        omega_values=omega_values,
        n_single=results.get(SINGLE, np.full((len(delta_values), len(omega_values)), np.nan)),
        n_collective=results.get(COLLECTIVE, np.full((len(delta_values), len(omega_values)), np.nan)),
        t_final=t_final,
        dt=dt,
        errors=errors,
    )


def _scan_batch(
    batch, delta_values, omega_values, exc, vdiag, sx_pattern, masks,
    gamma, model, rho0, t_final, dt, tw, n_sites,
):
    dim = len(exc)
    C = len(batch)
    deltas = np.array([delta_values[i] for i, _ in batch])
    omegas = np.array([omega_values[j] for _, j in batch])
    # H_eff = diag(Delta*exc + V*bonds) + Omega*S - (i gamma/2) diag(exc)
    heff = omegas[:, None, None] * sx_pattern[None, :, :] + 0.0j
    diag = deltas[:, None] * exc[None, :] + vdiag[None, :] - 0.5j * gamma * exc[None, :]
    heff[:, np.arange(dim), np.arange(dim)] += diag
    heff_dag = heff.conj().transpose(0, 2, 1).copy()

    single = model == SINGLE
    site_views = []
    for k in range(n_sites):
        s = n_sites - 1 - k
        hi = 1 << (n_sites - 1 - s)
        lo = 1 << s
        blk_mask = None
        if not single:
            m = masks[k]
            blk_mask = m.reshape(hi, 2, lo, hi, 2, lo)[:, 1, :, :, 1, :]
        site_views.append((hi, lo, blk_mask))

    def rhs(rho):
        out = -1j * (heff @ rho) + 1j * (rho @ heff_dag)
        for hi, lo, blk_mask in site_views:
            r6 = rho.reshape(C, hi, 2, lo, hi, 2, lo)
            o6 = out.reshape(C, hi, 2, lo, hi, 2, lo)
            blk = r6[:, :, 1, :, :, 1, :]
            if blk_mask is not None:
                o6[:, :, 0, :, :, 0, :] += gamma * (blk * blk_mask)
            else:
                o6[:, :, 0, :, :, 0, :] += gamma * blk
        return out

    rho = np.broadcast_to(rho0, (C, dim, dim)).astype(complex).copy()
    t = 0.0
    samples = np.zeros((len(tw), C))
    events = list(tw)
    if events[-1] < t_final - 1e-12:
        events.append(t_final)
    ptr = 0
    for target in events:
        while t < target - 1e-15:
            h = min(dt, target - t)
            k1 = rhs(rho)
            k2 = rhs(rho + (0.5 * h) * k1)
            k3 = rhs(rho + (0.5 * h) * k2)
            k4 = rhs(rho + h * k3)
            rho += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = target
        if ptr < len(tw) and abs(target - tw[ptr]) < 1e-12:
            samples[ptr] = np.einsum("cii,i->c", rho, exc).real / n_sites
            ptr += 1
    return samples.mean(axis=0)
