"""Quantum-jump Monte Carlo unraveling of either dissipation model.

Waiting-time algorithm (Dalibard, Castin & Molmer, PRL 68, 580 (1992)):
between jumps psi(t0 + tau) = V exp(-i lam tau) V^-1 psi(t0), from one
eigendecomposition H_eff = H - (i/2) sum_j L_j^dag L_j = V diag(lam) V^-1 per
(Delta, Omega) cell, shared by both models (dense expm if cond(V) >
COND_LIMIT), on all remaining sample times at once. The norm does not increase between jumps, so the first sample at or
below a uniform threshold brackets the jump, whose time is refined on the
closed form to JUMP_TIME_TOL; the channel is drawn by ||L_j psi||^2.

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
# intervals per pass of the jump-time search: a 0.1 bracket reaches
# JUMP_TIME_TOL in 6 passes
BRACKET_POINTS = 32


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
    jump_counts: dict = field(default_factory=dict)  # xi (None: single) -> jumps
    propagator: NoJumpPropagator | None = field(repr=False, default=None)

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

    h_eff is the effective Hamiltonian or its NoJumpPropagator, which
    run_ensemble shares among its trajectories.
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
    channels = list(jumps)
    # one product gives every L_j psi
    stacked = sp.vstack([c.matrix for c in channels]).tocsr()

    # jumps are looked for up to t_final, also past the last sample
    grid = sample_times
    if grid[-1] < t_final - 1e-12:
        grid = np.append(grid, t_final)
    values = np.zeros(len(sample_times))
    jump_log: list[JumpEvent] = []
    threshold = rng.random()
    t0 = 0.0
    ptr = 0  # first grid point not yet reached
    while ptr < len(grid):
        states = prop(psi, grid[ptr:] - t0)
        p2 = np.abs(states) ** 2
        n2 = np.sum(p2, axis=1)
        below = np.flatnonzero(n2 <= threshold)
        reached = below[0] if below.size else len(n2)
        stop = min(ptr + reached, len(sample_times))
        if observable_diag is not None:
            # per-row sums over the whole block: a sample's bits do not
            # depend on how many samples precede the jump
            dens = np.sum(p2 * observable_diag, axis=1) / n2
            values[ptr:stop] = dens[: stop - ptr]
        if not below.size:
            break
        # the norm crosses the threshold once, in (lo, hi]: shrink that bracket
        lo = grid[ptr + reached - 1] - t0 if reached else 0.0
        hi, psi_at = grid[ptr + reached] - t0, states[reached]
        while hi - lo > JUMP_TIME_TOL:
            taus = np.linspace(lo, hi, BRACKET_POINTS + 1)
            block = prop(psi, taus)
            below = np.sum(np.abs(block) ** 2, axis=1) <= threshold
            below[0], below[-1] = False, True  # known at the bracket's ends
            k = int(np.argmax(below))
            lo, hi, psi_at = taus[k - 1], taus[k], block[k]
        t0 += hi
        ptr += reached
        amps = (stacked @ psi_at).reshape(len(channels), -1)
        weights = np.sum(np.abs(amps) ** 2, axis=1)
        total = weights.sum()
        if total <= 0.0:
            # no channel can fire: continue without jumps
            psi = psi_at / np.sqrt(_norm2(psi_at))
            threshold = -np.inf
            continue
        j = int(rng.choice(len(channels), p=weights / total))
        jump_log.append(JumpEvent(t0, channels[j].site, channels[j].xi))
        psi = amps[j] / np.sqrt(weights[j])
        threshold = rng.random()
    return TrajectoryResult(sample_times, values, jump_log)


def _run_one(args):
    child, psi0, prop, jumps, t_final, sample_times, obs = args
    rng = np.random.default_rng(child)
    res = evolve_trajectory(psi0, prop, jumps, t_final, rng, sample_times, obs)
    return res.values, [ev.xi for ev in res.jumps]


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

    children = np.random.SeedSequence(master_seed).spawn(n_traj)
    tasks = [(child, psi0, propagator, jumps, t_final, sample_times, obs) for child in children]
    workers = min(threads, n_traj, os.cpu_count() or 1)
    if workers <= 1:
        results = [_run_one(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, tasks, chunksize=8))
    # reduce in trajectory-index order: byte-identical for any scheduling
    samples = np.array([values for values, _ in results])
    jump_counts = Counter(xi for _, xis in results for xi in xis)
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
    )
