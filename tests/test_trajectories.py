import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

import ryddecay

from ryddecay.lattice import LatticeSpec, neighbor_table
from ryddecay.master_equation import (
    excitation_density,
    integrate_exact,
    vacuum_density,
)
from ryddecay.operators import (
    COLLECTIVE,
    SINGLE,
    ModelParams,
    driven_hamiltonian,
    excitation_count_vector,
    jump_operators,
)
from ryddecay.operators import JumpOperator
from ryddecay.trajectories import (
    JUMP_TIME_TOL,
    TrajectoryEnsembleResult,
    effective_hamiltonian,
    evolve_trajectory,
    no_jump_propagator,
    run_ensemble,
)

CHAIN4 = LatticeSpec(1, (4,), "periodic")


def up_state(n_sites, dim=None):
    dim = dim or 2**n_sites
    psi = np.zeros(dim, dtype=complex)
    psi[dim - 1] = 1.0  # all sites excited (bit set for every site)
    return psi


def vacuum(n_sites):
    psi = np.zeros(2**n_sites, dtype=complex)
    psi[0] = 1.0
    return psi


def test_effective_hamiltonian_model_independent():
    # both jump decompositions share the anticommutator, so H_eff is the
    # same sparse matrix for either model
    table = neighbor_table(CHAIN4)
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    h = driven_hamiltonian(CHAIN4, table, params)
    h_s = effective_hamiltonian(h, jump_operators(CHAIN4, table, params, SINGLE))
    h_c = effective_hamiltonian(h, jump_operators(CHAIN4, table, params, COLLECTIVE))
    assert (h_s - h_c).nnz == 0


def test_effective_hamiltonian_antihermitian_part():
    table = neighbor_table(CHAIN4)
    params = ModelParams(gamma=2.0)
    h = driven_hamiltonian(CHAIN4, table, params)
    h_eff = effective_hamiltonian(h, jump_operators(CHAIN4, table, params, COLLECTIVE))
    anti = (h_eff - h_eff.conj().T).toarray() / 2.0
    expect = -0.5j * 2.0 * np.diag(excitation_count_vector(CHAIN4))
    assert np.allclose(anti, expect, atol=1e-14)


def test_single_site_jump_time_matches_threshold():
    # undriven single atom: |psi(t)|^2 = exp(-gamma t), so the logged jump
    # time must equal -ln(u)/gamma for the first uniform draw u of the stream
    lat = LatticeSpec(1, (1,), "open")
    table = neighbor_table(lat)
    params = ModelParams(gamma=1.0)
    h = driven_hamiltonian(lat, table, params)
    jumps = jump_operators(lat, table, params, SINGLE)
    h_eff = effective_hamiltonian(h, jumps)
    seed = 1234
    u = np.random.default_rng(seed).random()
    res = evolve_trajectory(up_state(1), h_eff, jumps, t_final=30.0, seed=seed)
    assert len(res.jumps) == 1
    assert res.jumps[0].time == pytest.approx(-np.log(u), abs=1e-8)
    assert res.jumps[0].site == 0
    assert res.jumps[0].xi is None


def test_single_site_jump_statistics():
    lat = LatticeSpec(1, (1,), "open")
    table = neighbor_table(lat)
    params = ModelParams(gamma=1.0)
    h = driven_hamiltonian(lat, table, params)
    jumps = jump_operators(lat, table, params, SINGLE)
    h_eff = effective_hamiltonian(h, jumps)
    times = []
    for k in range(200):
        res = evolve_trajectory(up_state(1), h_eff, jumps, t_final=40.0, seed=k)
        assert len(res.jumps) == 1
        times.append(res.jumps[0].time)
    # exponential with unit mean; 200 samples, stderr ~ 1/sqrt(200)
    assert np.mean(times) == pytest.approx(1.0, abs=4 / np.sqrt(200))


def test_vacuum_never_jumps():
    table = neighbor_table(CHAIN4)
    params = ModelParams(V=10.0, gamma=1.0)
    h = driven_hamiltonian(CHAIN4, table, params)
    for model in (SINGLE, COLLECTIVE):
        jumps = jump_operators(CHAIN4, table, params, model)
        h_eff = effective_hamiltonian(h, jumps)
        res = evolve_trajectory(
            vacuum(4),
            h_eff,
            jumps,
            t_final=3.0,
            seed=5,
            sample_times=np.linspace(0.0, 3.0, 7),
            observable_diag=np.zeros(16),
        )
        assert res.jumps == []


def test_input_validation():
    table = neighbor_table(CHAIN4)
    params = ModelParams(gamma=1.0)
    h = driven_hamiltonian(CHAIN4, table, params)
    jumps = jump_operators(CHAIN4, table, params, SINGLE)
    h_eff = effective_hamiltonian(h, jumps)
    with pytest.raises(ValueError, match="normalized"):
        evolve_trajectory(2.0 * vacuum(4), h_eff, jumps, 1.0)
    with pytest.raises(ValueError, match="increasing"):
        evolve_trajectory(
            vacuum(4), h_eff, jumps, 1.0, sample_times=np.array([0.5, 0.5])
        )
    with pytest.raises(ValueError, match="within"):
        evolve_trajectory(
            vacuum(4), h_eff, jumps, 1.0, sample_times=np.array([0.5, 1.5])
        )
    with pytest.raises(ValueError):
        run_ensemble(CHAIN4, params, SINGLE, vacuum(4), n_traj=0, master_seed=1)


def test_collective_jump_labels():
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    table = neighbor_table(CHAIN4)
    h = driven_hamiltonian(CHAIN4, table, params)
    jumps = jump_operators(CHAIN4, table, params, COLLECTIVE)
    h_eff = effective_hamiltonian(h, jumps)
    seen = set()
    for seed in range(12):
        res = evolve_trajectory(up_state(4), h_eff, jumps, t_final=6.0, seed=seed)
        for ev in res.jumps:
            assert 0 <= ev.site < 4
            assert ev.xi is not None and 0 <= ev.xi <= 2
            seen.add(ev.xi)
    # from the fully excited ring the first jump always sees two excited
    # neighbors; later jumps populate lower occupancy classes
    assert 2 in seen and len(seen) >= 2


def test_ensemble_mean_tracks_exact_solution():
    params = ModelParams(V=4.0, gamma=1.0, Omega=2.0, Delta=-2.0)
    lat = LatticeSpec(1, (3,), "periodic")
    ts = np.linspace(0.2, 3.0, 8)
    from ryddecay.operators import build_system

    for model in (SINGLE, COLLECTIVE):
        h, jumps = build_system(lat, params, model)
        res = integrate_exact(vacuum_density(8), h, jumps, 3.0, sample_times=ts)
        exact = np.array([excitation_density(r, lat) for r in res.states])
        ens = run_ensemble(
            lat, params, model, vacuum(3), n_traj=120, master_seed=42,
            t_final=3.0, sample_times=ts,
        )
        z = np.abs(ens.mean - exact) / np.maximum(ens.stderr, 1e-12)
        assert np.max(z) < 4.0


def test_ensemble_determinism_bitwise():
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    kw = dict(n_traj=25, master_seed=99, t_final=2.0,
              sample_times=np.linspace(0.0, 2.0, 9))
    a = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), **kw)
    b = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), **kw)
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.stderr.tobytes() == b.stderr.tobytes()
    assert a.samples.tobytes() == b.samples.tobytes()


def test_different_seeds_differ():
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    kw = dict(n_traj=10, master_seed=1, t_final=2.0,
              sample_times=np.linspace(0.0, 2.0, 9))
    a = run_ensemble(CHAIN4, params, SINGLE, vacuum(4), **kw)
    kw["master_seed"] = 2
    b = run_ensemble(CHAIN4, params, SINGLE, vacuum(4), **kw)
    assert a.mean.tobytes() != b.mean.tobytes()


def test_thread_count_does_not_change_bytes():
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    kw = dict(n_traj=8, master_seed=7, t_final=1.0,
              sample_times=np.linspace(0.0, 1.0, 5))
    serial = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), threads=1, **kw)
    pooled = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), threads=2, **kw)
    assert serial.samples.tobytes() == pooled.samples.tobytes()


def test_single_trajectory_has_zero_stderr():
    params = ModelParams(gamma=1.0)
    ens = run_ensemble(
        CHAIN4, params, SINGLE, vacuum(4), n_traj=1, master_seed=3,
        t_final=1.0, sample_times=np.linspace(0.0, 1.0, 5),
    )
    assert np.all(ens.stderr == 0.0)


def test_stderr_vanishes_before_first_jump():
    # driven from the vacuum every trajectory follows the same deterministic
    # non-unitary flow until its first jump, so very early samples agree
    # exactly across the ensemble
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    ens = run_ensemble(
        CHAIN4, params, COLLECTIVE, vacuum(4), n_traj=40, master_seed=11,
        t_final=1.0, sample_times=np.array([0.005, 0.5, 1.0]),
    )
    assert np.all(ens.samples[:, 0] == ens.samples[0, 0])
    # identical samples; anything left in stderr is mean-subtraction roundoff
    assert ens.stderr[0] < 1e-15
    assert ens.stderr[-1] > 1e-4


def test_window_statistics():
    times = np.linspace(0.0, 1.0, 11)
    samples = np.vstack([np.full(11, 0.2), np.full(11, 0.4)])
    ens = TrajectoryEnsembleResult(
        times=times, mean=samples.mean(axis=0), stderr=samples.std(axis=0, ddof=1) / np.sqrt(2),
        n_traj=2, master_seed=0, samples=samples,
    )
    mean, err = ens.window_statistics(np.linspace(0.9, 1.0, 5))
    assert mean == pytest.approx(0.3)
    assert err == pytest.approx(np.std([0.2, 0.4], ddof=1) / np.sqrt(2))
    bare = TrajectoryEnsembleResult(times, samples.mean(axis=0), None, 2, 0)
    with pytest.raises(ValueError):
        bare.window_statistics(times)


def test_norm_decay_matches_excitation_rate():
    # between jumps d|psi|^2/dt = -gamma <sum_k n_k>, identical for both
    # decompositions; check the RK4 flow reproduces it from a random state
    rng = np.random.default_rng(8)
    psi0 = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi0 /= np.linalg.norm(psi0)
    table = neighbor_table(CHAIN4)
    params = ModelParams(V=3.0, gamma=1.3, Omega=1.0, Delta=0.5)
    h = driven_hamiltonian(CHAIN4, table, params)
    from scipy.linalg import expm

    norms = {}
    for model in (SINGLE, COLLECTIVE):
        jumps = jump_operators(CHAIN4, table, params, model)
        h_eff = effective_hamiltonian(h, jumps).toarray()

        prop = expm(-1j * h_eff * 0.3)
        norms[model] = np.linalg.norm(prop @ psi0)
    assert norms[SINGLE] == pytest.approx(norms[COLLECTIVE], rel=1e-12)
    # norm loss rate at t=0 equals gamma times the excitation expectation
    counts = excitation_count_vector(CHAIN4)
    rate = params.gamma * float(np.sum(counts * np.abs(psi0) ** 2))
    h0 = 1e-5
    jumps = jump_operators(CHAIN4, table, params, SINGLE)
    h_eff = effective_hamiltonian(h, jumps).toarray()
    short = expm(-1j * h_eff * h0)
    drop = (1.0 - np.linalg.norm(short @ psi0) ** 2) / h0
    assert drop == pytest.approx(rate, rel=1e-4)


def _system(lat, params, model):
    table = neighbor_table(lat)
    h = driven_hamiltonian(lat, table, params)
    jumps = jump_operators(lat, table, params, model)
    return effective_hamiltonian(h, jumps), jumps


def _no_jump_density(h_eff, psi0, lat, times):
    """Excitation density of the normalized expm(-i H_eff t) psi0."""
    obs = excitation_count_vector(lat) / lat.site_count
    out = []
    for t in times:
        p2 = np.abs(expm(-1j * h_eff.toarray() * t) @ psi0) ** 2
        out.append(np.sum(obs * p2) / np.sum(p2))
    return np.array(out)


@pytest.mark.parametrize("delta, omega", [(-6.0, 2.5), (-30.0, 10.0)])
def test_samples_before_first_jump_match_expm(delta, omega):
    params = ModelParams(V=10.0, gamma=1.0, Omega=omega, Delta=delta)
    h_eff, jumps = _system(CHAIN4, params, COLLECTIVE)
    ts = np.linspace(0.0, 3.0, 301)
    obs = excitation_count_vector(CHAIN4) / 4
    res = evolve_trajectory(vacuum(4), h_eff, jumps, 3.0, seed=3,
                            sample_times=ts, observable_diag=obs)
    first = res.jumps[0].time if res.jumps else np.inf
    early = ts < first
    assert early.sum() >= 5
    expect = _no_jump_density(h_eff, vacuum(4), CHAIN4, ts[early])
    assert np.max(np.abs(res.values[early] - expect)) < 1e-12


def test_undriven_jump_time_is_minus_log_u():
    lat = LatticeSpec(1, (1,), "open")
    h_eff, jumps = _system(lat, ModelParams(gamma=1.0), SINGLE)
    for seed in range(20):
        u = np.random.default_rng(seed).random()
        res = evolve_trajectory(up_state(1), h_eff, jumps, t_final=40.0, seed=seed)
        assert len(res.jumps) == 1
        assert abs(res.jumps[0].time + np.log(u)) < 1e-9


def _first_jump_errors(h_eff, jumps, psi0, seeds, sample_times=None):
    """|first jump time - brentq root of ||expm(-i H_eff tau) psi0||^2 - u|."""
    from scipy.optimize import brentq

    h = h_eff.toarray()
    prop = no_jump_propagator(h_eff)
    errors = []
    for seed in seeds:
        u = np.random.default_rng(seed).random()
        res = evolve_trajectory(psi0, prop, jumps, 60.0, seed, sample_times)
        t = res.jumps[0].time
        ref = brentq(lambda tau: np.linalg.norm(expm(-1j * tau * h) @ psi0) ** 2 - u,
                     0.0, t + 1.0, xtol=1e-15)
        errors.append(abs(t - ref))
    return np.array(errors), prop


@pytest.mark.parametrize("delta, omega", [(-6.0, 10.0), (-30.0, 10.0), (-6.0, 2.5)])
def test_first_jump_time_matches_brentq(delta, omega):
    params = ModelParams(V=10.0, gamma=1.0, Omega=omega, Delta=delta)
    h_eff, jumps = _system(CHAIN4, params, COLLECTIVE)
    errors, _ = _first_jump_errors(h_eff, jumps, vacuum(4), range(30),
                                   np.linspace(0.0, 60.0, 1801))
    assert np.max(errors) < JUMP_TIME_TOL


def test_first_jump_time_matches_brentq_at_exceptional_point():
    lat = LatticeSpec(1, (1,), "open")
    h_eff, jumps = _system(lat, ModelParams(gamma=1.0, Omega=0.25, Delta=0.0), SINGLE)
    errors, prop = _first_jump_errors(h_eff, jumps, vacuum(1), range(30))
    assert prop.vecs is None  # the expm route
    assert np.max(errors) < JUMP_TIME_TOL


@pytest.mark.parametrize("scale", [0.1, 3.0])
def test_jump_time_search_survives_a_wrong_slope(scale):
    # jumps that do not match H_eff give Newton a slope scale^2 times the
    # true one: 100 times too small (steps leave the bracket) or 9 times too
    # large (steps too short, and the last one under-reads the error 9 times)
    params = ModelParams(V=10.0, gamma=1.0, Omega=10.0, Delta=-6.0)
    h_eff, jumps = _system(CHAIN4, params, COLLECTIVE)
    scaled = [JumpOperator(c.site, c.xi, scale * c.matrix) for c in jumps]
    errors, _ = _first_jump_errors(h_eff, scaled, vacuum(4), range(5),
                                   np.linspace(0.0, 60.0, 1801))
    assert np.max(errors) < JUMP_TIME_TOL


def test_no_jump_when_no_channel_can_fire():
    # the norm crosses the threshold but every L_j psi vanishes: the search
    # bisects on a zero slope, and the trajectory continues without jumps
    params = ModelParams(V=10.0, gamma=1.0, Omega=10.0, Delta=-6.0)
    h_eff, jumps = _system(CHAIN4, params, COLLECTIVE)
    dark = [JumpOperator(c.site, c.xi, 0.0 * c.matrix) for c in jumps]
    res = evolve_trajectory(vacuum(4), h_eff, dark, 5.0, 3, np.linspace(0.0, 5.0, 11))
    assert res.jumps == [] and res.root_steps > 0


def test_rows_that_underflow_past_a_jump_do_not_warn():
    # one decaying atom sampled 1000/gamma apart: the chunk that brackets its
    # jump also holds rows whose ||psi||^2 underflows to 0; they are never
    # kept, and their 0/0 density must not warn (an error in this suite)
    lat = LatticeSpec(1, (1,), "open")
    ens = run_ensemble(lat, ModelParams(), SINGLE, up_state(1), n_traj=4, master_seed=1,
                       t_final=2000.0, sample_times=np.array([0.0, 1000.0, 2000.0]))
    assert ens.mean.tolist() == [1.0, 0.0, 0.0]
    assert ens.jump_counts == {None: 4}


def test_exceptional_point_falls_back_to_expm():
    # Delta = 0, Omega = gamma/4: the two eigenvectors of the single atom's
    # H_eff coalesce, and the eigenbasis is too ill-conditioned to trust
    lat = LatticeSpec(1, (1,), "open")
    params = ModelParams(gamma=1.0, Omega=0.25, Delta=0.0)
    h_eff, jumps = _system(lat, params, SINGLE)
    prop = no_jump_propagator(h_eff)
    assert prop.vecs is None
    ts = np.linspace(0.0, 8.0, 81)
    res = evolve_trajectory(vacuum(1), prop, jumps, 8.0, seed=2, sample_times=ts,
                            observable_diag=np.array([0.0, 1.0]))
    first = res.jumps[0].time if res.jumps else np.inf
    early = ts < first
    assert early.sum() >= 5
    expect = _no_jump_density(h_eff, vacuum(1), lat, ts[early])
    assert np.max(np.abs(res.values[early] - expect)) < 1e-10
    ens = run_ensemble(lat, params, SINGLE, vacuum(1), n_traj=2, master_seed=1,
                       t_final=1.0, sample_times=np.linspace(0.0, 1.0, 3))
    assert ens.cond > 1e6


def test_jump_counts_match_logs_for_any_thread_count():
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    kw = dict(n_traj=10, master_seed=5, t_final=2.0,
              sample_times=np.linspace(0.0, 2.0, 5))
    serial = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), threads=1, **kw)
    pooled = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), threads=2, **kw)
    h_eff, jumps = _system(CHAIN4, params, COLLECTIVE)
    logged, rows, steps = Counter(), 0, 0
    for child in np.random.SeedSequence(5).spawn(10):
        res = evolve_trajectory(vacuum(4), h_eff, jumps, 2.0, np.random.default_rng(child),
                                kw["sample_times"])
        logged.update(ev.xi for ev in res.jumps)
        rows, steps = rows + res.rows_evaluated, steps + res.root_steps
    assert sum(logged.values()) > 0
    assert serial.jump_counts == dict(logged)
    assert pooled.jump_counts == serial.jump_counts
    assert serial.evaluation == {"rows_evaluated": rows, "samples_kept": 50, "root_steps": steps}
    assert pooled.evaluation == serial.evaluation
    assert serial.cond < 1e6


def test_shared_propagator_gives_the_same_ensemble():
    # the propagator built for the single model serves the collective one
    # with the same bytes as a propagator built from the collective channels
    params = ModelParams(V=10.0, gamma=0.7, Omega=2.5, Delta=-6.0)
    kw = dict(n_traj=6, master_seed=11, t_final=2.0,
              sample_times=np.linspace(0.0, 2.0, 5))
    single = run_ensemble(CHAIN4, params, SINGLE, vacuum(4), **kw)
    shared = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4),
                          propagator=single.propagator, **kw)
    own = run_ensemble(CHAIN4, params, COLLECTIVE, vacuum(4), **kw)
    assert shared.propagator is single.propagator
    assert sum(own.jump_counts.values()) > 0
    assert shared.samples.tobytes() == own.samples.tobytes()
    assert shared.jump_counts == own.jump_counts


def test_cli_import_leaves_out_dense_linalg_and_optimize():
    # nor a process pool: trajectories run in one process
    src = str(Path(ryddecay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ryddecay.cli; "
         "print([m for m in ('scipy.linalg', 'scipy.optimize', 'scipy.integrate', "
         "'concurrent.futures.process', 'multiprocessing') if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("times, message", [
    ([], "non-empty"),
    ([-1.0, 0.5], "within"),
    ([0.5, 0.5], "increasing"),
    ([0.5, 1.5], "within"),
])
def test_sample_grid_rejected_by_both_entries(times, message):
    # run_ensemble and evolve_trajectory share one check: a sample before 0
    # would be back-propagated, an empty grid has no last sample
    params = ModelParams(V=10.0, gamma=1.0, Omega=2.5, Delta=-6.0)
    h_eff, jumps = _system(CHAIN4, params, SINGLE)
    with pytest.raises(ValueError, match=message):
        evolve_trajectory(vacuum(4), h_eff, jumps, 1.0, sample_times=np.array(times))
    with pytest.raises(ValueError, match=message):
        run_ensemble(CHAIN4, params, SINGLE, vacuum(4), n_traj=2, master_seed=1,
                     t_final=1.0, sample_times=np.array(times))


def test_jumps_without_diagonal_weights_rejected():
    # the weights ||L_j psi||^2 = |psi|^2 @ diag(L_j^dag L_j) need L_j^dag L_j
    # diagonal, which a row with two non-zeros breaks
    lat = LatticeSpec(1, (1,), "open")
    h_eff, _ = _system(lat, ModelParams(gamma=1.0), SINGLE)
    mixing = [JumpOperator(0, None, sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]])))]
    with pytest.raises(ValueError, match="two non-zeros"):
        evolve_trajectory(up_state(1), h_eff, mixing, 1.0)


@pytest.mark.parametrize("model", [SINGLE, COLLECTIVE])
def test_trajectory_samples_alone_match_ensembles(model):
    # the lockstep core pads one-row products, so a trajectory run alone and
    # inside ensembles of 7 and 40 takes the same matrix-matrix path (seen
    # bit-identical for all 40 at N = 3, 4, 6 and 8)
    params = ModelParams(V=10.0, gamma=1.0, Omega=10.0, Delta=-6.0)
    ts = np.linspace(0.0, 5.0, 51)
    big = run_ensemble(CHAIN4, params, model, vacuum(4), n_traj=40, master_seed=5,
                       sample_times=ts)
    small = run_ensemble(CHAIN4, params, model, vacuum(4), n_traj=7, master_seed=5,
                         sample_times=ts, propagator=big.propagator)
    _, jumps = _system(CHAIN4, params, model)
    obs = excitation_count_vector(CHAIN4) / 4
    for i, child in enumerate(np.random.SeedSequence(5).spawn(40)):
        alone = evolve_trajectory(vacuum(4), big.propagator, jumps, 5.0,
                                  np.random.default_rng(child), ts, obs).values
        assert np.max(np.abs(alone - big.samples[i])) < 1e-13
        if i < 7:
            assert np.max(np.abs(alone - small.samples[i])) < 1e-13
    assert sum(big.jump_counts.values()) > 100
