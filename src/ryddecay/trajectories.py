"""Quantum-jump Monte Carlo unraveling of either dissipation model.

Waiting-time algorithm (Dalibard, Castin & Molmer, PRL 68, 580 (1992)):
between jumps psi(t0 + tau) = exp(-i H_eff tau) psi(t0), H_eff = H - (i/2)
sum_j L_j^dag L_j, in the exact layer's closed form
(master_equation.EigenForm, G = -i H_eff), which no_jump_propagator builds
from one numpy.linalg.eig of H_eff per (Delta, Omega) cell for both models;
where the eigenbasis is not trusted (cond(V) > COND_LIMIT), its rows come
from dense expm. A stretch between jumps is evaluated on the sample grid in
chunks of FIRST_CHUNK rows that double, up to the first sample at or below a
uniform threshold r; the norm does not increase between jumps, so that
sample and the one before it bracket the jump. Its time is the root of
||psi(tau)||^2 - r, found to JUMP_TIME_TOL by Newton steps with the exact
slope -sum_j ||L_j psi||^2, safeguarded by bisection; the channel is drawn
by ||L_j psi||^2 at that time, and only its L_j is applied. Each L_j^dag L_j
is diagonal in both models, so ||L_j psi||^2 = |psi|^2 @ diag(L_j^dag L_j).

One lockstep core, _evolve, runs every trajectory in one process: a batch of
one for evolve_trajectory, of n_traj for run_ensemble. Each pass evaluates
the next chunk of every trajectory still scanning and one Newton step of
every trajectory still searching for its jump time, in products of at most
BLOCK_ROWS rows. Per-trajectory seeds are spawned from the master seed with
numpy.random.SeedSequence, so trajectory i draws the same thresholds and
channels in any batch; ensemble output bytes are a function of
(master_seed, n_traj) alone.

Importing this module loads numpy alone. H and the jump operators are
scipy.sparse matrices, and scipy.sparse is imported when the first one is
built; the expm route imports scipy.linalg on its first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, neighbor_table
from .master_equation import EigenForm, eigen_form
from .operators import (
    ModelParams,
    check_model,
    excitation_count_vector,
    jump_operators,
    driven_hamiltonian,
    effective_hamiltonian,
)

JUMP_TIME_TOL = 1e-10
# rows of the first chunk of a stretch; each further chunk doubles
FIRST_CHUNK = 4
# most state rows in one product, so memory does not grow with the batch
BLOCK_ROWS = 512


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
    propagator: EigenForm | None = field(repr=False, default=None)
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


def no_jump_propagator(h_eff) -> EigenForm:
    """exp(-i H_eff tau) from one eigendecomposition of H_eff (sparse or
    dense), for any number of trajectories."""
    return eigen_form(h_eff, -1j)


def _weight_table(jumps) -> np.ndarray:
    """diag(L_j^dag L_j), one column per channel, so that the weights of a
    state are ||L_j psi||^2 = |psi|^2 @ table. That needs L_j^dag L_j
    diagonal, which holds when no row of L_j has two non-zeros."""
    columns = []
    for c in jumps:
        m = c.matrix.tocsr()
        if np.any(np.diff(m.indptr) > 1):
            raise ValueError(f"the jump at site {c.site}, xi {c.xi} has two non-zeros in a row")
        columns.append(np.bincount(m.indices, np.abs(m.data) ** 2, minlength=m.shape[1]))
    return np.column_stack(columns)


def _evolve(prop, jumps, psi0, t_final, sample_times, rngs, obs) -> list[TrajectoryResult]:
    """One trajectory per generator in rngs, all advanced in lockstep."""
    times = np.asarray(sample_times, dtype=float)
    if times.ndim != 1 or not times.size:
        raise ValueError("sample times must be a non-empty list")
    if not np.all(np.diff(times) > 0):
        raise ValueError("sample times must be strictly increasing")
    if not (times[0] >= 0.0 and times[-1] <= t_final + 1e-12):
        raise ValueError(f"sample times must lie within [0, t_final = {t_final}], "
                         f"got [{times[0]}, {times[-1]}]")
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.sqrt(np.real(np.vdot(psi0, psi0)))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    table = _weight_table(jumps)
    rate = table.sum(axis=1)  # minus the slope of ||psi||^2, per |psi_i|^2
    obs = np.zeros(len(psi0)) if obs is None else obs
    # jumps are looked for up to t_final, also past the last sample
    grid = times if times[-1] >= t_final - 1e-12 else np.append(times, t_final)

    n = len(rngs)
    coefs = np.tile(prop.coefficients(psi0 / nrm), (n, 1))
    thr = np.array([rng.random() for rng in rngs])
    t0, lo, hi, tau, last = (np.zeros(n) for _ in range(5))
    n2_lo = np.ones(n)  # lo: latest offset known above the threshold
    ptr = np.zeros(n, dtype=int)  # first grid point not yet reached
    chunk = np.full(n, FIRST_CHUNK)
    searching = np.zeros(n, dtype=bool)
    evaluated, steps = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    values = np.zeros((n, len(times)))
    logs: list[list[JumpEvent]] = [[] for _ in range(n)]

    def jump(i, psi_at, p2, n2):
        t0[i] += tau[i]
        lo[i], n2_lo[i], chunk[i], searching[i] = 0.0, 1.0, FIRST_CHUNK, False
        weights = p2 @ table
        total = weights.sum()
        if total <= 0.0:
            # no channel can fire: continue without jumps
            psi, thr[i] = psi_at / np.sqrt(n2), -np.inf
        else:
            j = int(rngs[i].choice(len(weights), p=weights / total))
            logs[i].append(JumpEvent(float(t0[i]), jumps[j].site, jumps[j].xi))
            psi, thr[i] = jumps[j].matrix @ psi_at / np.sqrt(weights[j]), rngs[i].random()
        coefs[i] = prop.coefficients(psi)

    while True:
        scan = np.flatnonzero(~searching & (ptr < len(grid)))
        if scan.size:
            # the next chunk of every scanning trajectory, as one list of rows
            lens = np.minimum(ptr[scan] + chunk[scan], len(grid)) - ptr[scan]
            starts = np.cumsum(lens) - lens
            owner = np.repeat(scan, lens)
            local = np.arange(lens.sum()) - np.repeat(starts, lens)
            at = ptr[owner] + local
            n2, dens = np.empty(len(at)), np.empty(len(at))
            # a row past a jump may underflow to n2 = 0 (never kept), and
            # rounding in eig of a huge H_eff overflows the phases; n2 tells
            with np.errstate(over="ignore", invalid="ignore"):
                for b in range(0, len(at), BLOCK_ROWS):
                    part = slice(b, b + BLOCK_ROWS)
                    p2 = np.abs(prop.rows(coefs[owner[part]],
                                          grid[at[part]] - t0[owner[part]])) ** 2
                    # per-row sums: a sample's bits do not depend on the batch
                    n2[part] = np.sum(p2, axis=1)
                    dens[part] = np.sum(p2 * obs, axis=1) / n2[part]
            if not np.isfinite(n2).all():
                raise OverflowError("the no-jump state overflowed")
            evaluated[scan] += lens
            # rows before the first at or below the threshold, per trajectory
            first = np.where(n2 <= thr[owner], local, np.repeat(lens, lens))
            reached = np.minimum.reduceat(first, starts)
            kept = (local < np.repeat(reached, lens)) & (at < len(times))
            values[owner[kept], at[kept]] = dens[kept]
            moved = reached > 0
            row, k = (starts + reached - 1)[moved], scan[moved]
            lo[k], n2_lo[k] = grid[at[row]] - t0[k], n2[row]
            crossed = reached < lens
            row, k = (starts + reached)[crossed], scan[crossed]
            # the norm crosses the threshold once, in (lo, hi]
            hi[k] = grid[at[row]] - t0[k]
            f_lo, f_hi = n2_lo[k] - thr[k], n2[row] - thr[k]
            tau[k] = lo[k] + (hi[k] - lo[k]) * f_lo / (f_lo - f_hi)
            last[k] = hi[k] - lo[k]
            searching[k] = True
            ptr[scan] += reached
            chunk[scan[~crossed]] *= 2
        search = np.flatnonzero(searching)
        if not scan.size and not search.size:
            break
        # one Newton step of every search; bisection replaces a step that
        # leaves the bracket, has no negative slope (a dark state, or jumps
        # that do not match H_eff) or does not halve the step before it. A
        # search ends once a step is below JUMP_TIME_TOL / 100 (with jumps
        # that do not match H_eff, tau is then off by the slope's factor) or
        # the bracket below JUMP_TIME_TOL.
        for b in range(0, len(search), BLOCK_ROWS):
            k = search[b:b + BLOCK_ROWS]
            t = tau[k]
            states = prop.rows(coefs[k], t)
            p2 = np.abs(states) ** 2
            n2 = np.sum(p2, axis=1)
            slope = -np.sum(p2 * rate, axis=1)
            f = n2 - thr[k]
            t_lo, t_hi = np.where(f > 0.0, t, lo[k]), np.where(f > 0.0, hi[k], t)
            step = np.divide(f, slope, out=np.full(len(k), np.inf), where=slope < 0.0)
            done = (np.abs(step) <= 0.01 * JUMP_TIME_TOL) | (t_hi - t_lo <= JUMP_TIME_TOL)
            keep = (t_lo < t - step) & (t - step < t_hi) & (np.abs(step) <= 0.5 * last[k])
            step = np.where(keep, step, t - 0.5 * (t_lo + t_hi))
            lo[k], hi[k], tau[k], last[k] = t_lo, t_hi, np.where(done, t, t - step), np.abs(step)
            evaluated[k], steps[k] = evaluated[k] + 1, steps[k] + 1
            for r in np.flatnonzero(done):
                jump(k[r], states[r], p2[r], n2[r])
    return [TrajectoryResult(times, values[i], logs[i], int(evaluated[i]), int(steps[i]))
            for i in range(n)]


def evolve_trajectory(
    psi0: np.ndarray,
    h_eff,
    jumps,
    t_final: float,
    seed=0,
    sample_times=None,
    observable_diag: np.ndarray | None = None,
) -> TrajectoryResult:
    """One quantum-jump trajectory with observable samples on a fixed grid:
    the lockstep core on a batch of one.

    h_eff is the effective Hamiltonian or its no_jump_propagator.
    observable_diag is the diagonal of the sampled observable in the
    computational basis (defaults to nothing; pass excitation density /
    use run_ensemble for the standard protocol). Samples are taken from the
    normalized state; sample_times defaults to [t_final].
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    prop = h_eff if isinstance(h_eff, EigenForm) else no_jump_propagator(h_eff)
    sample_times = [t_final] if sample_times is None else sample_times
    return _evolve(prop, list(jumps), psi0, t_final, sample_times, [rng], observable_diag)[0]


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
    propagator: EigenForm | None = None,
) -> TrajectoryEnsembleResult:
    """Ensemble of independent trajectories with deterministic child seeds,
    all advanced together by the lockstep core in this process; threads is
    accepted for old callers and starts nothing.

    propagator is the no_jump_propagator of the cell's H_eff, built here when
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
    sample_times = np.linspace(0.0, t_final, 51) if sample_times is None else sample_times
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(master_seed).spawn(n_traj)]
    results = _evolve(propagator, jumps, psi0, t_final, sample_times, rngs, obs)
    samples = np.array([res.values for res in results])
    mean = samples.mean(axis=0)
    if n_traj > 1:
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return TrajectoryEnsembleResult(
        times=results[0].times,
        mean=mean,
        stderr=stderr,
        n_traj=n_traj,
        master_seed=master_seed,
        samples=samples,
        jump_counts=Counter(ev.xi for res in results for ev in res.jumps),
        propagator=propagator,
        evaluation={"rows_evaluated": sum(res.rows_evaluated for res in results),
                    "samples_kept": samples.size,
                    "root_steps": sum(res.root_steps for res in results)},
    )
