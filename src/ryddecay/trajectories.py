"""Quantum-jump Monte Carlo unraveling of either dissipation model.

Waiting-time (norm-threshold) algorithm: the state evolves non-unitarily
under H_eff = H - (i/2) sum_j L_j^dag L_j with fixed-step RK4; a jump fires
when the squared norm falls below a uniform draw, the jump time is refined by
bisection to 1e-10/gamma, the channel is drawn proportionally to
||L_j psi||^2, and the state is projected and renormalized. The squared norm
is monotone non-increasing between jumps, so the threshold crossing inside a
step is unique.

Per-trajectory seeds are spawned from the master seed with
numpy.random.SeedSequence, so trajectory i sees the same random stream no
matter how the ensemble is scheduled; the merge reduces in trajectory-index
order, making ensemble output bytes a function of (master_seed, n_traj, dt)
alone.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, neighbor_table
from .master_equation import DEFAULT_DT, check_dt
from .operators import (
    ModelParams,
    check_model,
    excitation_count_vector,
    jump_operators,
    driven_hamiltonian,
)

JUMP_TIME_TOL = 1e-10


@dataclass
class JumpEvent:
    time: float
    site: int
    xi: int | None


@dataclass
class TrajectoryResult:
    times: np.ndarray
    values: np.ndarray          # site-averaged excitation density
    jumps: list[JumpEvent]


@dataclass
class TrajectoryEnsembleResult:
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    master_seed: int
    samples: np.ndarray = field(repr=False, default=None)  # (n_traj, n_times)

    def window_statistics(self, window_times: np.ndarray) -> tuple[float, float]:
        """Across-trajectory mean and standard error of the per-trajectory
        window average."""
        if self.samples is None:
            raise ValueError("per-trajectory samples were not retained")
        per_traj = np.array(
            [np.mean(np.interp(window_times, self.times, s)) for s in self.samples]
        )
        mean = float(np.mean(per_traj))
        if self.n_traj < 2:
            return mean, 0.0
        return mean, float(np.std(per_traj, ddof=1) / np.sqrt(self.n_traj))


def effective_hamiltonian(H, jumps) -> sp.csr_matrix:
    """H - (i/2) sum_j L_j^dag L_j; anti-Hermitian part is -(i gamma/2) sum_k
    n_k for both dissipation models."""
    acc = sp.csr_matrix(H, dtype=complex)
    for j in jumps:
        L = j.matrix if hasattr(j, "matrix") else j
        acc = acc - 0.5j * (L.conj().T @ L)
    return acc.tocsr()


def _dense(op):
    if sp.issparse(op):
        return op.toarray() if op.shape[0] <= 512 else op.tocsr()
    return np.asarray(op)


class _Stepper:
    """RK4 propagation of d psi/dt = -i H_eff psi."""

    def __init__(self, h_eff):
        self.h = _dense(h_eff)

    def derivative(self, psi):
        return -1j * (self.h @ psi)

    def step(self, psi, h):
        k1 = self.derivative(psi)
        k2 = self.derivative(psi + (0.5 * h) * k1)
        k3 = self.derivative(psi + (0.5 * h) * k2)
        k4 = self.derivative(psi + h * k3)
        return psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _norm2(psi):
    return float(np.real(np.vdot(psi, psi)))


def evolve_trajectory(
    psi0: np.ndarray,
    h_eff,
    jumps,
    t_final: float,
    dt: float = DEFAULT_DT,
    seed=0,
    sample_times=None,
    observable_diag: np.ndarray | None = None,
) -> TrajectoryResult:
    """One quantum-jump trajectory with observable samples on a fixed grid.

    observable_diag is the diagonal of the sampled observable in the
    computational basis (defaults to nothing; pass excitation density /
    use run_ensemble for the standard protocol). Samples are taken from the
    normalized state.
    """
    check_dt(dt)
    psi = np.asarray(psi0, dtype=complex).copy()
    nrm = np.sqrt(_norm2(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    psi /= nrm
    if sample_times is None:
        sample_times = np.array([t_final])
    sample_times = np.asarray(sample_times, dtype=float)
    if np.any(np.diff(sample_times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    if sample_times[-1] > t_final + 1e-12:
        raise ValueError("sample times must lie within [0, t_final]")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    stepper = _Stepper(h_eff)
    channels = list(jumps)
    mats = [(c.matrix if hasattr(c, "matrix") else c) for c in channels]
    labels = [
        (c.site, c.xi) if hasattr(c, "site") else (i, None)
        for i, c in enumerate(channels)
    ]

    values = np.zeros(len(sample_times))
    jump_log: list[JumpEvent] = []
    threshold = rng.random()
    t = 0.0
    ptr = 0
    alive = True  # False once the vacuum is reached (all weights zero)

    def record(upto):
        nonlocal ptr
        while ptr < len(sample_times) and sample_times[ptr] <= upto + 1e-15:
            if observable_diag is not None:
                n2 = _norm2(psi)
                values[ptr] = float(
                    np.real(np.sum(observable_diag * np.abs(psi) ** 2)) / n2
                )
            ptr += 1

    record(0.0)
    events = [float(s) for s in sample_times if s > 1e-15]
    if not events or events[-1] < t_final - 1e-12:
        events.append(t_final)
    for target in events:
        while t < target - 1e-15:
            h = min(dt, target - t)
            prev = psi
            prev_t = t
            psi = stepper.step(psi, h)
            t += h
            while alive and _norm2(psi) <= threshold:
                # bisect the crossing time within (prev_t, prev_t + h_cur]
                lo, hi = 0.0, t - prev_t
                while hi - lo > JUMP_TIME_TOL:
                    mid = 0.5 * (lo + hi)
                    if _norm2(stepper.step(prev, mid)) <= threshold:
                        hi = mid
                    else:
                        lo = mid
                t_jump = prev_t + hi
                psi_at = stepper.step(prev, hi)
                weights = np.array([_norm2(m @ psi_at) for m in mats])
                total = weights.sum()
                if total <= 0.0:
                    alive = False
                    psi = psi_at / np.sqrt(_norm2(psi_at))
                    t = t_jump
                    break
                j = int(rng.choice(len(mats), p=weights / total))
                site, xi = labels[j]
                jump_log.append(JumpEvent(t_jump, site, xi))
                psi = mats[j] @ psi_at
                psi /= np.sqrt(_norm2(psi))
                threshold = rng.random()
                # finish the interrupted step from the jump time
                prev = psi
                prev_t = t_jump
                rest = t - t_jump
                psi = stepper.step(psi, rest) if rest > 0 else psi
        t = target
        record(t)
    return TrajectoryResult(sample_times, values, jump_log)


def _run_one(args):
    (idx, child, psi0, h_eff, jumps, t_final, dt, sample_times, obs) = args
    rng = np.random.default_rng(child)
    res = evolve_trajectory(psi0, h_eff, jumps, t_final, dt, rng, sample_times, obs)
    return idx, res.values


def run_ensemble(
    lattice: LatticeSpec,
    params: ModelParams,
    model: str,
    psi0: np.ndarray,
    n_traj: int,
    master_seed: int,
    t_final: float = 5.0,
    dt: float = DEFAULT_DT,
    sample_times=None,
    threads: int = 1,
) -> TrajectoryEnsembleResult:
    """Ensemble of independent trajectories with deterministic child seeds."""
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    check_model(model)
    table = neighbor_table(lattice)
    h = driven_hamiltonian(lattice, table, params)
    jumps = jump_operators(lattice, table, params, model)
    h_eff = effective_hamiltonian(h, jumps)
    obs = excitation_count_vector(lattice) / lattice.site_count
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 51)
    sample_times = np.asarray(sample_times, dtype=float)

    children = np.random.SeedSequence(master_seed).spawn(n_traj)
    samples = np.zeros((n_traj, len(sample_times)))
    workers = min(threads, n_traj, os.cpu_count() or 1)
    if workers <= 1:
        for i, child in enumerate(children):
            rng = np.random.default_rng(child)
            res = evolve_trajectory(psi0, h_eff, jumps, t_final, dt, rng, sample_times, obs)
            samples[i] = res.values
    else:
        tasks = [
            (i, child, psi0, h_eff, jumps, t_final, dt, sample_times, obs)
            for i, child in enumerate(children)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, vals in pool.map(_run_one, tasks, chunksize=8):
                samples[idx] = vals
    # reduce in trajectory-index order: byte-identical for any scheduling
    mean = samples.mean(axis=0)
    if n_traj > 1:
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return TrajectoryEnsembleResult(
        times=sample_times,
        mean=mean,
        stderr=stderr,
        n_traj=n_traj,
        master_seed=master_seed,
        samples=samples,
    )
