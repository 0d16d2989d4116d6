"""Checks of the program's outputs against bench/reference.py.

Every check is one operation: it passes or fails on its own, and each round
of a workload makes the same checks, so the share of failed operations does
not depend on how many rounds a run fits in. The references are computed
once per run and reused for every round.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

import reference

# RK4 at dt = 1e-3 agrees with the expm_multiply reference to ~3e-10
# (N = 4 and 6, corners of the default grid)
STEADY_TOL = 1e-8
# the collective modes are the same closed form; the cascade ODE is solved
# to rtol 1e-12
COLLECTIVE_TOL = 1e-12
SINGLE_TOL = 1e-9
# the coherence CSV's own exact cross-check columns
DEV_LIMIT = 1e-6
# window means of the jump ensembles, in their own standard errors; no
# tighter than the acceptance suite's 3
Z_LIMIT = 4.0
# the refined cusp against the triple root of the stationarity cubic
CUSP_TOL = 1e-2


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def read_csv(path: Path) -> dict[str, np.ndarray]:
    columns, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# columns: "):
                columns = line[len("# columns: "):].strip().split(",")
            elif not line.startswith("#"):
                rows.append([float(x) if x else np.nan for x in line.rstrip("\n").split(",")])
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return {c: data[:, i] for i, c in enumerate(columns)}


@lru_cache(maxsize=None)
def window_density(n_sites, delta, omega, V, gamma, model):
    return reference.window_density(n_sites, delta, omega, V, gamma, model)


def _grid(cfg):
    deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["n_delta"])
    omegas = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["n_omega"])
    return [(float(d), float(o)) for d in deltas for o in omegas]


def _grid_ok(table, cfg, what, checks) -> bool:
    """Whether a grid CSV's rows are the configured cells, in order."""
    grid = _grid(cfg)
    ok = (len(table["Delta"]) == len(grid)
          and np.allclose(np.c_[table["Delta"], table["Omega"]], grid, rtol=0, atol=1e-12))
    checks.expect(ok, f"{what}: grid rows differ from the configured grid")
    return ok


def check_steady_state(out: Path, cfg: dict, checks: Checks) -> None:
    table = read_csv(out / "steady_state.csv")
    grid_ok = _grid_ok(table, cfg, "steady-state", checks)
    for k, (delta, omega) in enumerate(_grid(cfg)):
        for model in ("single", "collective"):
            ref = window_density(cfg["N"], delta, omega, cfg["V"], cfg["gamma"], model)
            got = table[f"n_ss_{model}"][k] if grid_ok else np.nan
            checks.expect(abs(got - ref) <= STEADY_TOL,
                          f"steady-state N={cfg['N']} Delta={delta} Omega={omega} {model}: "
                          f"{got!r} vs reference {ref!r}")
    n_s, n_c = table["n_ss_single"], table["n_ss_collective"]
    ok = grid_ok and np.allclose(table["delta_n_ss"], (n_c - n_s) / n_s, rtol=1e-12, atol=0)
    checks.expect(ok, "steady-state: delta_n_ss is not (n_c - n_s)/n_s")


def check_coherence(out: Path, cfg: dict, checks: Checks) -> None:
    table = read_csv(out / "coherence.csv")
    t = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    args = (cfg["d"], cfg["omega_a"], cfg["V"], cfg["gamma"], t)
    same_t = len(table["t"]) == len(t) and np.array_equal(table["t"], t)
    checks.expect(same_t, "coherence: time column differs from the configured grid")
    for model, ref, tol in (("collective", reference.collective_modes(*args), COLLECTIVE_TOL),
                            ("single", reference.single_modes(*args), SINGLE_TOL)):
        pairs = [(f"abs_X_{model}_xi{xi}", ref[xi]) for xi in range(len(ref))]
        pairs.append((f"abs_X_{model}", ref.sum(axis=0)))
        for column, expected in pairs:
            dev = np.max(np.abs(table[column] - np.abs(expected))) if same_t else np.inf
            checks.expect(dev <= tol, f"coherence {column}: off by {dev:.3g} (limit {tol:g})")
    for model in cfg["models"]:
        dev = np.nanmax(table[f"dev_{model}"])
        checks.expect(dev < DEV_LIMIT, f"coherence dev_{model} = {dev:.3g} (limit {DEV_LIMIT:g})")


def check_trajectories(out: Path, cfg: dict, checks: Checks) -> None:
    table = read_csv(out / "trajectories.csv")
    grid_ok = _grid_ok(table, cfg, "trajectories", checks)
    for k, (delta, omega) in enumerate(_grid(cfg)):
        for model in ("single", "collective"):
            ref = window_density(cfg["N"], delta, omega, cfg["V"], cfg["gamma"], model)
            mean = table[f"n_ss_{model}"][k] if grid_ok else np.nan
            err = table[f"stderr_{model}"][k] if grid_ok else np.nan
            z = abs(mean - ref) / err if err > 0 else np.inf
            checks.expect(z < Z_LIMIT,
                          f"trajectories Delta={delta} Omega={omega} {model}: mean {mean!r} "
                          f"+- {err!r} vs reference {ref!r} (|z| {z:.2f}, limit {Z_LIMIT})")


@lru_cache(maxsize=None)
def _cusp(V, d, gamma):
    return reference.cusp(V, d, gamma)


def check_meanfield(out: Path, cfg: dict, checks: Checks) -> None:
    table = read_csv(out / "meanfield_phase_diagram.csv")
    counts = table["stable_count"]
    checks.expect(len(counts) == cfg["n_delta"] * cfg["n_omega"],
                  f"meanfield: {len(counts)} phase-diagram rows")
    bad = sorted(set(counts.tolist()) - {1.0, 2.0})
    checks.expect(not bad, f"meanfield: stable counts {bad} outside {{1, 2}}")
    bistable = counts == 2
    checks.expect(bistable.any() and np.all(table["Delta"][bistable] < 0),
                  "meanfield: no bistable cell, or a bistable cell at Delta >= 0")
    doc = json.loads((out / "meanfield_critical_points.json").read_text())
    d_ref, o_ref, _ = _cusp(cfg["V"], cfg["d"], cfg["gamma"])
    points = doc.get("critical_points") or [{}]
    got = (points[0].get("Delta", np.nan), points[0].get("Omega", np.nan))
    checks.expect(abs(got[0] - d_ref) <= CUSP_TOL and abs(got[1] - o_ref) <= CUSP_TOL,
                  f"meanfield cusp {got} vs triple root ({d_ref:.5f}, {o_ref:.5f}), "
                  f"error {doc.get('error')!r}")


CHECKERS = {
    "steady-state": check_steady_state,
    "coherence": check_coherence,
    "trajectories": check_trajectories,
    "meanfield": check_meanfield,
}

CSV_NAMES = {
    "steady-state": ["steady_state.csv"],
    "coherence": ["coherence.csv"],
    "trajectories": ["trajectories.csv"],
    "meanfield": ["meanfield_phase_diagram.csv", "meanfield_cut.csv"],
}


def check_rounds(calls, rounds) -> Checks:
    """Check every round's outputs; CSVs must equal the first round's byte for byte."""
    checks = Checks()
    first = Path(rounds[0]["dir"])
    for r in rounds:
        for i, ((command, cfg), code) in enumerate(zip(calls, r["exit_codes"])):
            checks.expect(code == 0, f"{command} exited with {code}")
            if code != 0:
                continue
            sub = f"{i}-{command}"
            CHECKERS[command](Path(r["dir"]) / sub, cfg, checks)
            for name in CSV_NAMES[command]:
                same = (Path(r["dir"]) / sub / name).read_bytes() == (first / sub / name).read_bytes()
                checks.expect(same, f"{command} {name} differs from the first round's")
    return checks
