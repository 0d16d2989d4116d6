"""Command-line front end for the four study workflows.

Subcommands: coherence (analytic decay of the neighborhood-resolved
coherences), steady-state (exact window-averaged excitation density over a
drive/detuning grid), trajectories (the same grid estimated by jump Monte
Carlo), meanfield (phase diagram, bistable cut, critical point).

All inputs are in units of gamma (gamma = 1 internally); times in 1/gamma.
Parameters come from a JSON config file (--config), with built-in defaults
underneath and, for trajectories, --seed/--threads overriding on top. A JSON
manifest written next to each CSV carries the fully resolved configuration;
passing a manifest back via --config reproduces the CSV byte for byte.

Every lattice (steady-state, trajectories, the verify_N ring of coherence)
is built by _chain, whose check_sites refuses N > 10 before anything of
that size exists. Both lattice workflows propagate to the end of the
averaging window, 5/gamma, since nothing later reaches a CSV; t_final must
cover the window and is recorded, like dt and threads, but moves nothing.

CSV layout: '#'-prefixed comment lines (metadata, then 'columns: ...'),
followed by comma-delimited data rows, 17 significant digits; non-finite
and absent values are empty fields.

Only the exact layer uses scipy, and it imports scipy inside the functions
that need it. Importing this module, meanfield, and coherence without
verify_N load numpy alone. steady-state, trajectories and coherence with
verify_N import scipy.sparse on their first call in a process (about 0.2 s),
and that call's manifest wall_time_s includes it.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .coherence import exact_mode_series, initial_coherence, mode_series
from .lattice import build_lattice
from .master_equation import (
    COND_LIMIT,
    PropagationStats,
    check_sites,
    check_window,
    scan_steady_state,
    window_times,
)
from .meanfield import (
    MeanFieldParams,
    SIGN_CONVENTIONS,
    ORACLE_VERIFIED,
    refine_critical_point,
    scan_phase_diagram,
)
from .operators import COLLECTIVE, SINGLE, ModelParams, check_model
from .trajectories import run_ensemble

# no workflow steps in time; older configs and manifests still carry dt
DEFAULT_DT = 1e-3
# largest half-coordination whose initial coherence profile fits in float64
MAX_COHERENCE_D = 511

DEFAULTS: dict[str, dict] = {
    "coherence": {
        "d": 1,
        "V": 10.0,
        "gamma": 1.0,
        "omega_a": 0.0,
        "t_max": 2.0,
        "n_times": 201,
        "models": [SINGLE, COLLECTIVE],
        "verify_N": None,   # periodic chain length for the exact cross-check columns
        "dt": DEFAULT_DT,
    },
    "steady-state": {
        "N": 4,
        "boundary": "periodic",
        "V": 10.0,
        "gamma": 1.0,
        "omega_a": 0.0,
        "delta_min": -30.0,
        "delta_max": 10.0,
        "n_delta": 41,
        "omega_min": None,  # None: omega_max / n_omega, so the grid covers (0, omega_max]
        "omega_max": 10.0,
        "n_omega": 21,
        "model": "both",
        "t_final": 5.0,
        "dt": DEFAULT_DT,
    },
    "meanfield": {
        "d": 1,
        "V": 10.0,
        "gamma": 1.0,
        "delta_min": -30.0,
        "delta_max": 10.0,
        "n_delta": 201,
        "omega_min": 0.0,
        "omega_max": 10.0,
        "n_omega": 201,
        "sign_convention": ORACLE_VERIFIED,
        "model": COLLECTIVE,
        "cut_omega": 2.5,
        "cut_n_delta": 401,
        "refine_critical": True,
        "critical_omega_start": 2.5,
    },
}
# the steady-state grid, with fewer cells for the Monte Carlo estimate
DEFAULTS["trajectories"] = {**DEFAULTS["steady-state"], "n_delta": 9, "n_omega": 3,
                            "n_traj": 300, "seed": 7041, "threads": 1}

# the type of a non-None value for keys whose default is None
NONE_DEFAULT_TYPES = {"verify_N": int, "omega_min": float}
# integer keys that must be >= 1
COUNT_KEYS = ("n_delta", "n_omega", "n_times", "cut_n_delta", "threads")
# float keys that must be > 0; every other float key must be finite
POSITIVE_KEYS = ("gamma", "t_final", "t_max", "dt")
# (lower, upper) bounds of the parameter grids; equal bounds give one cell
RANGE_KEYS = (("delta_min", "delta_max"), ("omega_min", "omega_max"))
TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
              list: "a list"}


def _fmt(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else ""


def write_csv(path: Path, meta: dict, columns: list[str], data: np.ndarray) -> None:
    """The '#' header, then one line per row of the 2-D float array data; a
    non-finite value is written as an empty field.

    Each distinct float64 bit pattern is formatted once by _fmt, and the body
    is one %-format of the gathered strings. Patterns are compared as bits,
    not values: -0.0 == 0.0, yet they print as "-0" and "0"; and every NaN
    payload stays a pattern of its own, each written as the empty field."""
    data = np.asarray(data, dtype=np.float64)
    bits, inverse = np.unique(data.ravel().view(np.int64), return_inverse=True)
    text = np.array([_fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    line = ",".join(["%s"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in meta.items():
            fh.write(f"# {key}: {val}\n")
        fh.write(f"# columns: {','.join(columns)}\n")
        fh.write(line * data.shape[0] % tuple(text[inverse].tolist()))


def write_manifest(path: Path, command: str, config: dict, outputs: list[str],
                   wall_time: float, extra: dict | None = None) -> None:
    doc = {
        "command": command,
        "config": config,
        "outputs": outputs,
        "wall_time_s": round(wall_time, 3),
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    write_json(path, doc)


def write_json(path: Path, doc: dict) -> None:
    """doc as JSON: indent 2, sorted keys, a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path: str | Path) -> tuple[dict, str | None]:
    """Read a config file; a manifest (output of a previous run) is accepted
    and unwrapped. Returns (config, embedded command or None)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    if "config" in doc and "command" in doc:
        return doc["config"], doc["command"]
    return doc, None


def resolve_config(command: str, file_cfg: dict | None, overrides: dict) -> dict:
    cfg = copy.deepcopy(DEFAULTS[command])
    if file_cfg:
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, val in overrides.items():
        if val is not None:
            cfg[key] = val
    for key, default in DEFAULTS[command].items():
        _check_value(key, cfg[key], default)
    for key in COUNT_KEYS:
        if key in cfg and cfg[key] < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {cfg[key]!r}")
    for lo, hi in RANGE_KEYS:
        if lo not in cfg:
            continue
        name, low = lo, cfg[lo]
        if low is None:  # see _omega_grid
            name, low = f"{hi} / n_omega (the default {lo})", cfg[hi] / cfg["n_omega"]
        if low > cfg[hi]:
            raise ValueError(f"{name} must be <= {hi}, got {low!r} > {cfg[hi]!r}")
    return cfg


def _check_value(key: str, value, default) -> None:
    """A value must have its default's type: a float key takes any JSON
    number except a bool, an integer key a JSON integer only, and None is
    accepted where it is the default. A float must be finite, and positive
    for POSITIVE_KEYS."""
    if value is None and default is None:
        return
    expected = NONE_DEFAULT_TYPES.get(key, type(default))
    if expected is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif expected is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, expected)
    if not ok:
        raise ValueError(f"{key} must be {TYPE_NAMES[expected]}, got {value!r}")
    if expected is float and key in POSITIVE_KEYS and not (np.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be finite and positive, got {value!r}")
    if expected is float and not np.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")


def _omega_grid(cfg) -> np.ndarray:
    lo = cfg["omega_min"]
    if lo is None:
        lo = cfg["omega_max"] / cfg["n_omega"]
    return np.linspace(lo, cfg["omega_max"], cfg["n_omega"])


def _delta_grid(cfg) -> np.ndarray:
    return np.linspace(cfg["delta_min"], cfg["delta_max"], cfg["n_delta"])


def _chain(n_sites: int, boundary: str):
    """A chain of n_sites, checked by check_sites before any operator is built."""
    check_sites(n_sites)
    return build_lattice(1, (n_sites,), boundary)


def _models(cfg) -> tuple[str, ...]:
    m = cfg["model"]
    if m == "both":
        return (SINGLE, COLLECTIVE)
    check_model(m)
    return (m,)


def _propagation_block(stats: PropagationStats) -> dict:
    """Manifest fields of the exact layer's propagation diagnostics."""
    return {"reduced_dim": stats.reduced_dim,
            "max_cond": stats.max_cond,
            "min_gap": None if np.isnan(stats.min_gap) else stats.min_gap,
            "max_trace_drift": stats.max_trace_drift,
            "max_herm_drift": stats.max_herm_drift,
            "renormalizations": stats.renormalizations}


def cmd_coherence(cfg: dict, out_dir: Path) -> list[Path]:
    t0 = time.monotonic()
    d = int(cfg["d"])
    if not 1 <= d <= MAX_COHERENCE_D:
        raise ValueError(f"d must be between 1 and {MAX_COHERENCE_D} (at d = "
                         f"{MAX_COHERENCE_D + 1} the initial profile's 2^(2d+1) "
                         f"overflows float64), got d = {d}")
    if not cfg["models"]:
        raise ValueError("models must name at least one model")
    for m in cfg["models"]:
        check_model(m)
    if len(set(cfg["models"])) != len(cfg["models"]):
        raise ValueError(f"models must be distinct, got {cfg['models']!r}")
    lat = None  # the exact cross-check's ring, checked before any mode is computed
    if cfg["verify_N"] is not None:
        if d != 1:
            raise ValueError("the exact cross-check runs on a chain (d = 1)")
        lat = _chain(cfg["verify_N"], "periodic")
    t = np.linspace(0.0, float(cfg["t_max"]), int(cfg["n_times"]))

    per_model: dict[str, np.ndarray] = {}
    for m in cfg["models"]:
        state = initial_coherence(d, cfg["omega_a"], cfg["V"], cfg["gamma"], m)
        per_model[m] = mode_series(state, t)

    columns = ["t", "abs_X_single", "abs_X_collective"]
    n_modes = 2 * d + 1
    for m in (SINGLE, COLLECTIVE):
        columns += [f"abs_X_{m}_xi{xi}" for xi in range(n_modes)]

    dev: dict[str, np.ndarray] = {}
    cross_check: dict[str, dict] = {}
    if lat is not None:
        mp = ModelParams(omega_a=cfg["omega_a"], V=cfg["V"], gamma=cfg["gamma"])
        for m in cfg["models"]:
            stats = PropagationStats()
            exact = exact_mode_series(lat, mp, m, t, stats)
            dev[m] = np.max(np.abs(exact - per_model[m]), axis=0)
            cross_check[m] = {"route": "eig" if stats.eig_cells else "expm",
                              **_propagation_block(stats)}
        columns += [f"dev_{m}" for m in cfg["models"]]

    absent = np.full((n_modes, len(t)), np.nan)
    modes = [per_model.get(m, absent) for m in (SINGLE, COLLECTIVE)]
    # each time's modes summed as one contiguous row, then Python's abs: an
    # axis-0 sum and np.abs each move the last bit of some totals
    totals = [[abs(z) for z in x.T.copy().sum(axis=1)] for x in modes]
    data = np.column_stack([t, *totals, *(np.abs(x).T for x in modes), *dev.values()])

    csv_path = out_dir / "coherence.csv"
    write_csv(csv_path, {"command": "coherence", "d": d, "V": cfg["V"],
                         "gamma": cfg["gamma"], "omega_a": cfg["omega_a"]}, columns, data)
    manifest = out_dir / "coherence_manifest.json"
    write_manifest(manifest, "coherence", cfg, [csv_path.name], time.monotonic() - t0,
                   extra={"cross_check": cross_check})
    return [csv_path, manifest]


def _grid_rows(deltas, omegas, *fields) -> np.ndarray:
    """One row (Delta, Omega, field values) per grid cell, Delta slowest;
    each field has shape (len(deltas), len(omegas))."""
    grid = np.meshgrid(deltas, omegas, indexing="ij")
    return np.column_stack([np.ravel(a) for a in (*grid, *fields)])


def _contrast(n_c, n_s):
    """(n_c - n_s) / n_s, NaN where |n_s| < 1e-12 or either input is NaN."""
    n_c, n_s = np.asarray(n_c, dtype=float), np.asarray(n_s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(n_s) < 1e-12, np.nan, (n_c - n_s) / n_s)


def cmd_steady_state(cfg: dict, out_dir: Path) -> list[Path]:
    t0 = time.monotonic()
    n_sites = int(cfg["N"])
    lat = _chain(n_sites, cfg["boundary"])
    mp = ModelParams(omega_a=cfg["omega_a"], V=cfg["V"], gamma=cfg["gamma"])
    deltas, omegas = _delta_grid(cfg), _omega_grid(cfg)
    scan = scan_steady_state(
        lat, mp, deltas, omegas, models=_models(cfg), t_final=cfg["t_final"],
    )
    columns = ["Delta", "Omega", "n_ss_single", "n_ss_collective", "delta_n_ss"]
    csv_path = out_dir / "steady_state.csv"
    write_csv(csv_path, {"command": "steady-state", "N": n_sites, "V": cfg["V"],
                         "gamma": cfg["gamma"]}, columns,
              _grid_rows(deltas, omegas, scan.n_single, scan.n_collective,
                         _contrast(scan.n_collective, scan.n_single)))
    manifest = out_dir / "steady_state_manifest.json"
    write_manifest(
        manifest, "steady-state", cfg, [csv_path.name], time.monotonic() - t0,
        extra={
            "lattice": {"dimension": 1, "extents": [n_sites], "boundary": cfg["boundary"]},
            "integrator": {"method": "symmetry_reduced", "t_final": cfg["t_final"],
                           "window": [float(window_times(cfg["gamma"])[0]),
                                      float(window_times(cfg["gamma"])[-1])],
                           "routes": {"eig": scan.eig_cells, "expm_multiply": scan.expm_cells},
                           "cond_limit": COND_LIMIT,
                           **_propagation_block(scan)},
            "errors": scan.errors,
        },
    )
    return [csv_path, manifest]


def cmd_trajectories(cfg: dict, out_dir: Path) -> list[Path]:
    t0 = time.monotonic()
    n_sites = int(cfg["N"])
    lat = _chain(n_sites, cfg["boundary"])
    deltas, omegas = _delta_grid(cfg), _omega_grid(cfg)
    models = _models(cfg)
    gamma = cfg["gamma"]
    check_window(cfg["t_final"], gamma)
    # nothing after the window's end reaches the CSV: every run stops there
    tw = window_times(gamma)
    sample_times = np.union1d(np.linspace(0.0, tw[-1], 51), tw)
    psi0 = np.zeros(1 << n_sites, dtype=complex)
    psi0[0] = 1.0

    # independent, reproducible seed per (model, cell) derived from the
    # master seed; a shared seed would correlate neighboring cells
    n_delta, n_omega = len(deltas), len(omegas)
    cell_seeds = np.random.SeedSequence(int(cfg["seed"])).generate_state(
        len(models) * n_delta * n_omega, dtype=np.uint64
    )

    # window mean and stderr per model and cell; NaN (empty) for a model not run
    stats = {m: np.full((2, n_delta, n_omega), np.nan) for m in (SINGLE, COLLECTIVE)}
    # jumps per xi ("all" for the single model), per model and per CSV row
    jump_counts: dict[str, list[dict[str, int]]] = {m: [] for m in models}
    expm_cells: dict[str, list[dict]] = {m: [] for m in models}
    evaluation: dict[str, Counter] = {m: Counter() for m in models}
    max_cond = 0.0
    for i, D in enumerate(deltas):
        for j, O in enumerate(omegas):
            mp = ModelParams(omega_a=cfg["omega_a"], V=cfg["V"], gamma=gamma,
                             Omega=float(O), Delta=float(D))
            prop = None  # H_eff is model-independent: one propagator per cell
            for k, m in enumerate(models):
                ens = run_ensemble(
                    lat, mp, m, psi0, int(cfg["n_traj"]),
                    int(cell_seeds[(k * n_delta + i) * n_omega + j]),
                    t_final=tw[-1], sample_times=sample_times,
                    threads=cfg["threads"], propagator=prop,
                )
                prop = ens.propagator
                stats[m][:, i, j] = ens.window_statistics(tw)
                jump_counts[m].append({"all" if xi is None else str(xi): n
                                       for xi, n in ens.jump_counts.items()})
                evaluation[m].update(ens.evaluation)
                max_cond = max(max_cond, ens.cond)
                if prop.lam is None:  # no trusted eigenbasis: dense expm
                    expm_cells[m].append({"model": m, "Delta": float(D), "Omega": float(O)})
    propagator = {"cond_limit": COND_LIMIT, "max_cond": max_cond,
                  "expm_cells": [cell for m in models for cell in expm_cells[m]],
                  **{key: {m: evaluation[m][key] for m in models}
                     for key in ("rows_evaluated", "samples_kept", "root_steps")}}
    (n_s, e_s), (n_c, e_c) = stats[SINGLE], stats[COLLECTIVE]
    columns = ["Delta", "Omega", "n_ss_single", "stderr_single",
               "n_ss_collective", "stderr_collective", "delta_n_ss"]
    csv_path = out_dir / "trajectories.csv"
    write_csv(csv_path, {"command": "trajectories", "N": n_sites, "V": cfg["V"],
                         "gamma": gamma, "n_traj": cfg["n_traj"],
                         "master_seed": cfg["seed"]}, columns,
              _grid_rows(deltas, omegas, n_s, e_s, n_c, e_c, _contrast(n_c, n_s)))
    manifest = out_dir / "trajectories_manifest.json"
    write_manifest(
        manifest, "trajectories", cfg, [csv_path.name], time.monotonic() - t0,
        extra={"master_seed": int(cfg["seed"]),
               "lattice": {"dimension": 1, "extents": [n_sites], "boundary": cfg["boundary"]},
               "jump_counts": {m: {"total": dict(sum(map(Counter, rows), Counter())), "rows": rows}
                               for m, rows in jump_counts.items()},
               "no_jump_propagator": propagator},
    )
    return [csv_path, manifest]


def _branches(pd, mask):
    """Lowest and highest root density n among the roots in mask, per cell;
    NaN (an empty CSV field) where there is none, the highest also where
    there is only one."""
    n = np.where(mask, pd.states[..., 0], np.nan)
    high = np.where(mask.sum(axis=-1) > 1, np.fmax.reduce(n, axis=-1), np.nan)
    return np.fmin.reduce(n, axis=-1), high


def cmd_meanfield(cfg: dict, out_dir: Path) -> list[Path]:
    t0 = time.monotonic()
    if cfg["sign_convention"] not in SIGN_CONVENTIONS:
        raise ValueError(f"sign_convention must be one of {SIGN_CONVENTIONS}")
    check_model(cfg["model"])
    params = MeanFieldParams(0.0, 0.0, cfg["gamma"], int(cfg["d"]), cfg["V"])
    deltas, omegas = _delta_grid(cfg), _omega_grid(cfg)
    pd = scan_phase_diagram(deltas, omegas, params, cfg["sign_convention"], cfg["model"])
    low, high = _branches(pd, pd.stable & pd.physical)
    columns = ["Delta", "Omega", "stable_count", "n_ss_branch1", "n_ss_branch2"]
    pd_path = out_dir / "meanfield_phase_diagram.csv"
    write_csv(pd_path, {"command": "meanfield", "d": cfg["d"], "V": cfg["V"],
                        "gamma": cfg["gamma"], "sign_convention": cfg["sign_convention"],
                        "model": cfg["model"]}, columns,
              _grid_rows(deltas, omegas, pd.stable_count, low, high))

    cut_deltas = np.linspace(cfg["delta_min"], cfg["delta_max"], int(cfg["cut_n_delta"]))
    cut = scan_phase_diagram(cut_deltas, [cfg["cut_omega"]], params,
                             cfg["sign_convention"], cfg["model"])
    stable_low, stable_high = _branches(cut, cut.stable & cut.physical)
    unstable_low, _ = _branches(cut, ~cut.stable & cut.physical)
    cut_path = out_dir / "meanfield_cut.csv"
    cut_data = np.column_stack([cut_deltas, stable_low[:, 0], stable_high[:, 0],
                                unstable_low[:, 0]])
    write_csv(cut_path, {"command": "meanfield", "cut_omega": cfg["cut_omega"],
                         "d": cfg["d"], "V": cfg["V"]},
              ["Delta", "n_stable_low", "n_stable_high", "n_unstable"], cut_data)

    crit: list[dict] = []
    crit_error = None
    if cfg["refine_critical"]:
        try:
            Dc, Oc = refine_critical_point(
                params, cfg["sign_convention"], cfg["model"],
                delta_range=(cfg["delta_min"], cfg["delta_max"]),
                omega_range=(cfg["critical_omega_start"], cfg["omega_max"]),
            )
            crit.append({"Delta": Dc, "Omega": Oc})
        except ValueError as exc:
            crit_error = str(exc)
    crit_path = out_dir / "meanfield_critical_points.json"
    write_json(crit_path, {"critical_points": crit, "error": crit_error})

    manifest = out_dir / "meanfield_manifest.json"
    write_manifest(manifest, "meanfield", cfg,
                   [pd_path.name, cut_path.name, crit_path.name],
                   time.monotonic() - t0)
    return [pd_path, cut_path, crit_path, manifest]


COMMANDS = {
    "coherence": cmd_coherence,
    "steady-state": cmd_steady_state,
    "trajectories": cmd_trajectories,
    "meanfield": cmd_meanfield,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ryddecay",
        description="Radiative decay in interacting Rydberg lattices: "
                    "single-atom vs collective dissipation (units of gamma).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("--config", type=str, default=None,
                       help="JSON config (a manifest from a previous run also works)")
        p.add_argument("--out", type=str, default=".", help="output directory")
        if name == "trajectories":
            p.add_argument("--seed", type=int, default=None, help="master seed")
            p.add_argument("--threads", type=int, default=None,
                           help="accepted for old configs; trajectories run in one process")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_cfg, embedded = (None, None)
        if args.config:
            file_cfg, embedded = load_config(args.config)
            if embedded is not None and embedded != args.command:
                raise ValueError(
                    f"manifest was written by '{embedded}', not '{args.command}'"
                )
        overrides = {}
        if args.command == "trajectories":
            overrides = {"seed": args.seed, "threads": args.threads}
        cfg = resolve_config(args.command, file_cfg, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = COMMANDS[args.command](cfg, out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numerical overflow, inputs too large ({exc})", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
