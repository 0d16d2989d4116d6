"""The four workloads: the CLI calls of one round, made from the seed.

A round is a fixed list of (command, config) pairs passed to
``ryddecay.cli.main``. The seed moves the parameter grids by less than one
grid spacing and sets the lab frequency of the coherence runs; it changes no
grid size, step size, trajectory count or search range, so every seed costs
the same work.
``jumps-ring4`` ignores the seed: its accuracy check is a z-test on a fixed
master seed, which must pass or fail the same way on every run.

Smoke sizes keep each workload's structure (same commands, both models, the
same N) at the smallest inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-ring4", "exact-ring6", "jumps-ring4", "meanfield-chain")

MODELS = ["single", "collective"]
DT = 0.001
TRAJ_MASTER_SEED = 7041


def _steady_state(n_sites, deltas, omegas, n_delta, n_omega):
    return {
        "N": n_sites, "boundary": "periodic", "V": 10.0, "gamma": 1.0, "omega_a": 0.0,
        "delta_min": deltas[0], "delta_max": deltas[1], "n_delta": n_delta,
        "omega_min": omegas[0], "omega_max": omegas[1], "n_omega": n_omega,
        "model": "both", "t_final": 5.0, "dt": DT,
    }


def _coherence(verify_n, omega_a, t_max, n_times):
    return {
        "d": 1, "V": 10.0, "gamma": 1.0, "omega_a": omega_a, "t_max": t_max,
        "n_times": n_times, "models": MODELS, "verify_N": verify_n, "dt": DT,
    }


def round_calls(name: str, seed: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """The (command, config) pairs of one round of a workload."""
    u = random.Random(f"{name}/{seed}").random

    def r4(x):
        return round(x, 4)

    if name == "exact-ring4":
        # a sub-grid of the default (Delta, Omega) range, corners moved inward
        n_delta, n_omega = (2, 2) if smoke else (4, 3)
        grid = _steady_state(4, (r4(-30 + 2 * u()), r4(10 - 2 * u())),
                             (r4(0.5 + 0.5 * u()), r4(10 - u())), n_delta, n_omega)
        return [("steady-state", grid),
                ("coherence", _coherence(4, r4(u()), 2.0, 201))]
    if name == "exact-ring6":
        delta, omega = r4(-14 + 8 * u()), r4(2 + 2 * u())
        cell = _steady_state(6, (delta, delta), (omega, omega), 1, 1)
        t_max, n_times = (0.05, 6) if smoke else (0.25, 26)
        return [("steady-state", cell),
                ("coherence", _coherence(6, r4(u()), t_max, n_times))]
    if name == "jumps-ring4":
        # at the strongest default drive, far-detuned (about 2 jumps per
        # trajectory) and near-resonant (about 9); weaker drive at Delta = -30
        # gives under one jump per trajectory, and the z-test of a small
        # ensemble that samples no jump is not valid. threads keeps the CLI
        # default.
        cfg = {
            "N": 4, "boundary": "periodic", "V": 10.0, "gamma": 1.0, "omega_a": 0.0,
            "delta_min": -30.0, "delta_max": -6.0, "n_delta": 2,
            "omega_min": 10.0, "omega_max": 10.0, "n_omega": 1,
            "model": "both", "n_traj": 2 if smoke else 12, "seed": TRAJ_MASTER_SEED,
            "t_final": 5.0, "dt": DT,
        }
        return [("trajectories", cfg)]
    if name == "meanfield-chain":
        # the Omega grid moves by under one spacing and the cut by under 0.5;
        # the Delta range and omega_max stay at the defaults because the cusp
        # continuation searches over them and its cost depends on them
        # (45,864 solves at the default Delta range, 165,742 at -29.708..10.292)
        n, n_cut = (11, 41) if smoke else (101, 401)
        cfg = {
            "d": 1, "V": 10.0, "gamma": 1.0,
            "delta_min": -30.0, "delta_max": 10.0, "n_delta": n,
            "omega_min": r4(u() * 10.0 / (n - 1)), "omega_max": 10.0, "n_omega": n,
            "sign_convention": "oracle_verified", "model": "collective",
            "cut_omega": r4(2.25 + 0.5 * u()), "cut_n_delta": n_cut,
            "refine_critical": True, "critical_omega_start": 2.5,
        }
        return [("meanfield", cfg)]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def work_counts(calls) -> dict[str, int]:
    """Units of work per round that the per-layer rates divide by."""
    counts = {"scan_cells": 0, "trajectories": 0, "mf_cells": 0}
    for command, cfg in calls:
        cells = cfg.get("n_delta", 0) * cfg.get("n_omega", 0)
        if command == "steady-state":
            counts["scan_cells"] += cells * len(MODELS)
        elif command == "trajectories":
            counts["trajectories"] += cells * len(MODELS) * cfg["n_traj"]
        elif command == "meanfield":
            counts["mf_cells"] += cells
    return counts
