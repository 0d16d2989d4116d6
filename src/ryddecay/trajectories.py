"""Quantum-jump Monte Carlo unraveling of either dissipation model.

Waiting-time algorithm (Dalibard, Castin & Molmer, PRL 68, 580 (1992)):
between jumps psi(t0 + tau) = V exp(-i lam tau) V^-1 psi(t0), from one
eigendecomposition H_eff = H - (i/2) sum_j L_j^dag L_j = V diag(lam) V^-1 per
(Delta, Omega) cell, shared by both models (dense expm if cond(V) >
COND_LIMIT). A stretch between jumps is evaluated on the sample grid in
chunks of FIRST_CHUNK rows that double, up to the first sample at or below a
uniform threshold r; the norm does not increase between jumps, so that
sample and the one before it bracket the jump. Its time is the root of
||psi(tau)||^2 - r, found to JUMP_TIME_TOL by Newton steps on single rows
with the exact slope -sum_j ||L_j psi||^2, safeguarded by bisection; the
channel is drawn by ||L_j psi||^2 at that time.

Per-trajectory seeds are spawned from the master seed with
numpy.random.SeedSequence, so trajectory i sees the same random stream no
matter how the ensemble is scheduled; the merge reduces in trajectory-index
order, making ensemble output bytes a function of (master_seed, n_traj)
alone.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import LatticeSpec, neighbor_table
from .operators import (
    ModelParams,
    check_model,
    excitation_count_vector,
    jump_operators,
    driven_hamiltonian,
    effective_hamiltonian,
)

JUMP_TIME_TOL = 1e-10
# Largest cond(V) for which the eigenbasis is trusted. The N = 1 atom at
# Delta = 0, Omega = gamma/4 is an exceptional point of H_eff; there cond(V)
# reads about 9e7 and the closed form is off by 3.5e-9 from expm.
COND_LIMIT = 1e6
# rows of the first chunk of a stretch; each further chunk doubles
FIRST_CHUNK = 4


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
    rows_evaluated: int = 0     # states computed, on chunks and in root steps
    root_steps: int = 0         # single-row steps of the jump-time searches


@dataclass
class TrajectoryEnsembleResult:
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_traj: int
    master_seed: int
    samples: np.ndarray = field(repr=False, default=None)  # (n_traj, n_times)
    jump_counts: dict = field(default_factory=dict)  # xi (None: single) -> jumps
    propagator: NoJumpPropagator | None = field(repr=False, default=None)
    # rows_evaluated, samples_kept and root_steps summed over the trajectories
    evaluation: dict = field(default_factory=dict)

    @property
    def cond(self) -> float:
        """cond(V) of H_eff; above COND_LIMIT expm was used."""
        return self.propagator.cond if self.propagator is not None else float("nan")

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


@dataclass
class NoJumpPropagator:
    """exp(-i H_eff tau) from H_eff = vecs diag(lam) inv, or from dense expm
    of h when cond exceeds COND_LIMIT (then lam, vecs and inv are None)."""

    h: np.ndarray
    cond: float
    lam: np.ndarray | None = None
    vecs: np.ndarray | None = None
    inv: np.ndarray | None = None

    def __call__(self, psi: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """The states at offsets taus from psi, one row per offset."""
        if self.vecs is None:
            from scipy.linalg import expm

            return np.array([expm(-1j * tau * self.h) @ psi for tau in taus])
        phases = np.exp(-1j * np.multiply.outer(taus, self.lam))
        return (phases * (self.inv @ psi)) @ self.vecs.T


def no_jump_propagator(h_eff) -> NoJumpPropagator:
    """Diagonalise H_eff (sparse or dense) once, for any number of trajectories."""
    h = h_eff.toarray() if sp.issparse(h_eff) else np.asarray(h_eff, dtype=complex)
    lam, vecs = np.linalg.eig(h)
    cond = float(np.linalg.cond(vecs))
    if not cond <= COND_LIMIT:
        return NoJumpPropagator(h, cond)
    return NoJumpPropagator(h, cond, lam, vecs, np.linalg.inv(vecs))


def _norm2(psi):
    return float(np.real(np.vdot(psi, psi)))


@dataclass
class JumpChannels:
    """The jump operators stacked into one sparse matrix, whose one product
    gives every L_j psi; built once per ensemble by run_ensemble."""

    stacked: sp.csr_matrix
    labels: list[tuple[int, int | None]]  # (site, xi) per channel

    @classmethod
    def of(cls, jumps) -> JumpChannels:
        jumps = list(jumps)
        return cls(sp.vstack([c.matrix for c in jumps]).tocsr(), [(c.site, c.xi) for c in jumps])

    def amplitudes(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """L_j psi per channel (rows) and their squared norms."""
        amps = (self.stacked @ psi).reshape(len(self.labels), -1)
        return amps, np.sum(np.abs(amps) ** 2, axis=1)


def _jump_time(prop, psi, channels, threshold, lo, f_lo, hi, f_hi):
    """Root of f(tau) = ||psi(tau)||^2 - threshold in (lo, hi], where f_lo > 0
    >= f_hi, to JUMP_TIME_TOL.

    Newton steps start from linear interpolation and use the exact slope
    f' = -sum_j ||L_j psi(tau)||^2. A step is replaced by bisection when it
    leaves the bracket, when the slope is not negative (a dark state, or
    jumps that do not match H_eff) or when it does not halve the step
    before it, so the search always ends: once a Newton step is below
    JUMP_TIME_TOL / 100 (tau is then off by about that step) or the bracket
    below JUMP_TIME_TOL. With jumps that do not match H_eff the first
    ending trusts a wrong slope, and tau's error grows by the factor the
    slope is off. Returns tau, psi(tau), the L_j psi(tau) with their
    squared norms, and the number of steps.
    """
    tau = lo + (hi - lo) * f_lo / (f_lo - f_hi)
    last = hi - lo
    steps = 0
    while True:
        psi_at = prop(psi, np.array([tau]))[0]
        amps, weights = channels.amplitudes(psi_at)
        steps += 1
        f, slope = _norm2(psi_at) - threshold, -weights.sum()
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        step = f / slope if slope < 0.0 else np.inf
        if abs(step) <= 0.01 * JUMP_TIME_TOL or hi - lo <= JUMP_TIME_TOL:
            return tau, psi_at, amps, weights, steps
        if not (lo < tau - step < hi and abs(step) <= 0.5 * last):
            step = tau - 0.5 * (lo + hi)
        tau, last = tau - step, abs(step)


def evolve_trajectory(
    psi0: np.ndarray,
    h_eff,
    jumps,
    t_final: float,
    seed=0,
    sample_times=None,
    observable_diag: np.ndarray | None = None,
) -> TrajectoryResult:
    """One quantum-jump trajectory with observable samples on a fixed grid.

    h_eff is the effective Hamiltonian or its NoJumpPropagator, and jumps
    the jump operators or their JumpChannels; run_ensemble shares both
    among its trajectories.
    observable_diag is the diagonal of the sampled observable in the
    computational basis (defaults to nothing; pass excitation density /
    use run_ensemble for the standard protocol). Samples are taken from the
    normalized state.
    """
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
    prop = h_eff if isinstance(h_eff, NoJumpPropagator) else no_jump_propagator(h_eff)
    channels = jumps if isinstance(jumps, JumpChannels) else JumpChannels.of(jumps)

    # jumps are looked for up to t_final, also past the last sample
    grid = sample_times
    if grid[-1] < t_final - 1e-12:
        grid = np.append(grid, t_final)
    values = np.zeros(len(sample_times))
    jump_log: list[JumpEvent] = []
    threshold = rng.random()
    t0 = 0.0
    lo, n2_lo = 0.0, 1.0  # latest offset known above the threshold, and its norm^2
    ptr = 0  # first grid point not yet reached
    chunk = FIRST_CHUNK
    rows = root_steps = 0
    while ptr < len(grid):
        end = min(ptr + chunk, len(grid))
        states = prop(psi, grid[ptr:end] - t0)
        rows += end - ptr
        p2 = np.abs(states) ** 2
        n2 = np.sum(p2, axis=1)
        below = np.flatnonzero(n2 <= threshold)
        reached = int(below[0]) if below.size else end - ptr
        stop = min(ptr + reached, len(sample_times))
        if observable_diag is not None and stop > ptr:
            # per-row sums: a sample's bits do not depend on the chunk size
            values[ptr:stop] = np.sum(p2[: stop - ptr] * observable_diag, axis=1) / n2[: stop - ptr]
        if reached:
            lo, n2_lo = grid[ptr + reached - 1] - t0, n2[reached - 1]
        if not below.size:
            ptr, chunk = end, 2 * chunk
            continue
        # the norm crosses the threshold once, in (lo, hi]
        hi = grid[ptr + reached] - t0
        tau, psi_at, amps, weights, steps = _jump_time(
            prop, psi, channels, threshold, lo, n2_lo - threshold, hi, n2[reached] - threshold)
        rows += steps
        root_steps += steps
        t0 += tau
        ptr += reached
        lo, n2_lo, chunk = 0.0, 1.0, FIRST_CHUNK
        total = weights.sum()
        if total <= 0.0:
            # no channel can fire: continue without jumps
            psi = psi_at / np.sqrt(_norm2(psi_at))
            threshold = -np.inf
            continue
        j = int(rng.choice(len(weights), p=weights / total))
        jump_log.append(JumpEvent(t0, *channels.labels[j]))
        psi = amps[j] / np.sqrt(weights[j])
        threshold = rng.random()
    return TrajectoryResult(sample_times, values, jump_log, rows, root_steps)


def _run_one(args):
    child, psi0, prop, channels, t_final, sample_times, obs = args
    rng = np.random.default_rng(child)
    res = evolve_trajectory(psi0, prop, channels, t_final, rng, sample_times, obs)
    return res.values, [ev.xi for ev in res.jumps], (res.rows_evaluated, res.root_steps)


def run_ensemble(
    lattice: LatticeSpec,
    params: ModelParams,
    model: str,
    psi0: np.ndarray,
    n_traj: int,
    master_seed: int,
    t_final: float = 5.0,
    sample_times=None,
    threads: int = 1,
    propagator: NoJumpPropagator | None = None,
) -> TrajectoryEnsembleResult:
    """Ensemble of independent trajectories with deterministic child seeds.

    propagator is the NoJumpPropagator of the cell's H_eff, built here when
    not given. H_eff does not depend on the model, so the one returned in
    the result serves the other model of the same cell.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    check_model(model)
    table = neighbor_table(lattice)
    jumps = jump_operators(lattice, table, params, model)
    if propagator is None:
        h = driven_hamiltonian(lattice, table, params)
        propagator = no_jump_propagator(effective_hamiltonian(h, jumps))
    obs = excitation_count_vector(lattice) / lattice.site_count
    if sample_times is None:
        sample_times = np.linspace(0.0, t_final, 51)
    sample_times = np.asarray(sample_times, dtype=float)

    channels = JumpChannels.of(jumps)
    children = np.random.SeedSequence(master_seed).spawn(n_traj)
    tasks = [(child, psi0, propagator, channels, t_final, sample_times, obs) for child in children]
    workers = min(threads, n_traj, os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_one(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks, chunksize=8))
    # reduce in trajectory-index order: byte-identical for any scheduling
    samples = np.array([values for values, _, _ in results])
    jump_counts = Counter(xi for _, xis, _ in results for xi in xis)
    rows = sum(counts[0] for _, _, counts in results)
    steps = sum(counts[1] for _, _, counts in results)
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
        jump_counts=jump_counts,
        propagator=propagator,
        evaluation={"rows_evaluated": rows, "samples_kept": samples.size, "root_steps": steps},
    )
