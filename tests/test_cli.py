import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ryddecay
from ryddecay import cli, coherence, master_equation, operators, trajectories
from ryddecay.cli import DEFAULTS, NONE_DEFAULT_TYPES, POSITIVE_KEYS, _contrast, _fmt, main
from ryddecay.master_equation import COND_LIMIT


def read_csv(path):
    """Parse the '#'-comment CSV layout into (meta, columns, rows); empty
    fields come back as None."""
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# columns:"):
            columns = line.split(":", 1)[1].strip().split(",")
        elif line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
        elif line:
            rows.append([float(v) if v else None for v in line.split(",")])
    return meta, columns, rows


def run(tmp_path, command, cfg=None, extra_args=(), expect=0, capsys=None):
    args = [command, "--out", str(tmp_path)]
    if cfg is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        args += ["--config", str(cfg_path)]
    args += list(extra_args)
    rc = main(args)
    assert rc == expect, (rc, capsys.readouterr() if capsys else None)
    return tmp_path


def col(columns, rows, name):
    i = columns.index(name)
    return [r[i] for r in rows]


def test_coherence_initial_row_and_free_decay(tmp_path):
    run(tmp_path, "coherence", {"V": 0.0, "t_max": 2.0, "n_times": 5})
    meta, columns, rows = read_csv(tmp_path / "coherence.csv")
    assert meta["command"] == "coherence"
    ts = col(columns, rows, "t")
    assert ts == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    first = dict(zip(columns, rows[0]))
    assert first["abs_X_single"] == pytest.approx(0.5)
    assert first["abs_X_collective"] == pytest.approx(0.5)
    assert first["abs_X_single_xi0"] == pytest.approx(1 / 8)
    assert first["abs_X_single_xi1"] == pytest.approx(1 / 4)
    # without interaction phases the single-model total is a pure exponential
    for t, x in zip(ts, col(columns, rows, "abs_X_single")):
        assert x == pytest.approx(0.5 * np.exp(-t / 2), rel=1e-12)


def test_coherence_single_resums_at_large_d(tmp_path):
    run(tmp_path, "coherence", {"d": 40, "V": 0.0, "n_times": 21})
    _, columns, rows = read_csv(tmp_path / "coherence.csv")
    for t, x in zip(col(columns, rows, "t"), col(columns, rows, "abs_X_single")):
        assert abs(x - 0.5 * np.exp(-t / 2)) < 1e-12


def test_coherence_short_time_slope_ratio(tmp_path):
    run(tmp_path, "coherence", {"V": 10.0, "t_max": 2e-3, "n_times": 3})
    _, columns, rows = read_csv(tmp_path / "coherence.csv")
    t1 = rows[1]
    row = dict(zip(columns, t1))
    slope_s = (row["abs_X_single"] - 0.5) / row["t"]
    slope_c = (row["abs_X_collective"] - 0.5) / row["t"]
    # initial decay rates 3 gamma / 4 vs gamma / 4 for d = 1
    assert slope_c / slope_s == pytest.approx(3.0, rel=5e-2)


def test_coherence_cross_check_columns(tmp_path):
    run(tmp_path, "coherence",
        {"V": 4.0, "t_max": 1.0, "n_times": 5, "verify_N": 3})
    _, columns, rows = read_csv(tmp_path / "coherence.csv")
    assert "dev_single" in columns and "dev_collective" in columns
    for name in ("dev_single", "dev_collective"):
        assert max(col(columns, rows, name)) < 1e-6
    manifest = json.loads((tmp_path / "coherence_manifest.json").read_text())
    cross_check = manifest["cross_check"]
    assert set(cross_check) == {"single", "collective"}
    for block in cross_check.values():
        assert set(block) == {"route", "reduced_dim", "max_cond", "min_gap", "max_trace_drift",
                              "max_herm_drift", "renormalizations"}
        # N = 3 ring: 20 invariant operator coordinates, closed form
        assert block["route"] == "eig" and block["reduced_dim"] == 20
        assert 1.0 <= block["max_cond"] < COND_LIMIT and block["min_gap"] > 0.0
        assert 0.0 <= block["max_trace_drift"] < 1e-10
        assert 0.0 <= block["max_herm_drift"] < 1e-10
        assert block["renormalizations"] == 0


def test_coherence_without_cross_check_has_empty_block(tmp_path):
    run(tmp_path, "coherence", {"t_max": 1.0, "n_times": 3})
    manifest = json.loads((tmp_path / "coherence_manifest.json").read_text())
    assert manifest["cross_check"] == {}


def test_coherence_absent_model_columns_are_empty(tmp_path):
    run(tmp_path, "coherence", {"models": ["collective"], "verify_N": 3, "t_max": 1.0,
                                "n_times": 5})
    _, columns, rows = read_csv(tmp_path / "coherence.csv")
    assert [c for c in columns if c.startswith("dev_")] == ["dev_collective"]
    for name in columns:
        values = col(columns, rows, name)
        if name.startswith("abs_X_single"):
            assert values == [None] * 5, name
        else:
            assert None not in values, name


@pytest.mark.parametrize("d", [2, 5])
def test_coherence_totals_are_bit_exact(tmp_path, d):
    # each total is Python's abs of one time's modes summed in order; np.abs
    # or a sum over the mode axis of the whole array moves the last bit
    run(tmp_path, "coherence", {"d": d})
    _, columns, rows = read_csv(tmp_path / "coherence.csv")
    cfg = DEFAULTS["coherence"]
    t = np.linspace(0.0, cfg["t_max"], cfg["n_times"])
    assert col(columns, rows, "t") == t.tolist()
    for m in (operators.SINGLE, operators.COLLECTIVE):
        state = coherence.initial_coherence(d, cfg["omega_a"], cfg["V"], cfg["gamma"], m)
        modes = coherence.mode_series(state, t)
        assert col(columns, rows, f"abs_X_{m}") == [abs(modes[:, i].sum())
                                                    for i in range(len(t))]


def test_coherence_round_trip_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "coherence", {"V": 4.0, "omega_a": 0.37, "t_max": 1.0, "n_times": 11,
                         "verify_N": 4})
    rc = main(["coherence", "--out", str(b),
               "--config", str(a / "coherence_manifest.json")])
    assert rc == 0
    assert (a / "coherence.csv").read_bytes() == (b / "coherence.csv").read_bytes()
    manifests = [json.loads((d / "coherence_manifest.json").read_text()) for d in (a, b)]
    assert manifests[0]["cross_check"] == manifests[1]["cross_check"]


def test_coherence_cross_check_is_not_cached(tmp_path, monkeypatch):
    # every coherence call builds its own orbits and generator per model
    calls = []
    real = coherence.symmetry_orbits
    monkeypatch.setattr(coherence, "symmetry_orbits", lambda lat: calls.append(lat) or real(lat))
    cfg = {"V": 4.0, "t_max": 1.0, "n_times": 3, "verify_N": 3}
    run(tmp_path, "coherence", cfg)
    run(tmp_path, "coherence", cfg)
    assert len(calls) == 4


def test_generator_parts_built_once_and_only_where_used(tmp_path, monkeypatch):
    # the scan builds the model-independent L_Delta and L_Omega once and L0
    # per model; the cross-check has no drive and never builds L_Omega
    calls = []
    for name in ("reduced_liouvillian", "reduced_detuning", "reduced_drive"):
        real = getattr(master_equation, name)
        spy = (lambda real, name: lambda *args: calls.append(name) or real(*args))(real, name)
        for module in (master_equation, coherence):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)
    run(tmp_path, "steady-state", {
        "N": 4, "delta_min": -6.0, "delta_max": 0.0, "n_delta": 2,
        "omega_min": 1.0, "omega_max": 2.5, "n_omega": 2,
    })
    assert Counter(calls) == {"reduced_liouvillian": 2, "reduced_detuning": 1, "reduced_drive": 1}
    calls.clear()
    run(tmp_path, "coherence", {"V": 4.0, "t_max": 1.0, "n_times": 5, "verify_N": 4})
    assert Counter(calls) == {"reduced_liouvillian": 2, "reduced_detuning": 2}


FULL_SPACE_BUILDERS = ("liouvillian", "jump_operators", "driven_hamiltonian", "atomic_hamiltonian")


def test_exact_paths_build_no_full_space_operator(tmp_path, monkeypatch):
    # the scan and the cross-check assemble their reduced generators from the
    # orbit representatives; any 2^N- or 4^N-dimensional builder would raise
    def refuse(*args, **kwargs):
        raise AssertionError("full-space operator built")

    for module in (ryddecay, cli, coherence, master_equation, operators, trajectories):
        for name in FULL_SPACE_BUILDERS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    run(tmp_path, "steady-state", {
        "N": 4, "delta_min": -6.0, "delta_max": 0.0, "n_delta": 2,
        "omega_min": 1.0, "omega_max": 2.5, "n_omega": 2,
    })
    run(tmp_path, "coherence", {"V": 4.0, "t_max": 1.0, "n_times": 5, "verify_N": 4})
    assert json.loads((tmp_path / "steady_state_manifest.json").read_text())["errors"] == []


def test_coherence_rejects_unknown_key(tmp_path, capsys):
    run(tmp_path, "coherence", {"nope": 1}, expect=1)
    assert "unknown config keys" in capsys.readouterr().err


def test_steady_state_small_grid(tmp_path):
    run(tmp_path, "steady-state", {
        "N": 2, "boundary": "open", "delta_min": -6.0, "delta_max": 0.0, "n_delta": 2,
        "omega_min": 1.0, "omega_max": 2.5, "n_omega": 2,
    })
    meta, columns, rows = read_csv(tmp_path / "steady_state.csv")
    assert len(rows) == 4
    n_s = col(columns, rows, "n_ss_single")
    n_c = col(columns, rows, "n_ss_collective")
    contrast = col(columns, rows, "delta_n_ss")
    for a, b, c in zip(n_s, n_c, contrast):
        assert 0.0 < a < 1.0 and 0.0 < b < 1.0
        assert c == pytest.approx((b - a) / a, rel=1e-10)
    manifest = json.loads((tmp_path / "steady_state_manifest.json").read_text())
    assert manifest["command"] == "steady-state"
    assert manifest["errors"] == []
    integrator = manifest["integrator"]
    assert integrator["window"] == [4.75, 5.0]
    assert integrator["method"] == "symmetry_reduced"
    assert 0.0 <= integrator["max_trace_drift"] < 1e-10
    assert 0.0 <= integrator["max_herm_drift"] < 1e-10
    # N = 2 open: the pairs of |i><j| under the reflection give 10 columns
    assert integrator["reduced_dim"] == 10
    assert integrator["routes"] == {"eig": 8, "expm_multiply": 0}
    assert integrator["renormalizations"] == 0
    assert 1.0 <= integrator["max_cond"] < integrator["cond_limit"] == COND_LIMIT
    assert integrator["min_gap"] > 0.0


def test_steady_state_weak_drive_stays_empty(tmp_path):
    run(tmp_path, "steady-state", {
        "N": 2, "boundary": "open", "delta_min": 0.0, "delta_max": 0.0, "n_delta": 1,
        "omega_min": 1e-3, "omega_max": 1e-3, "n_omega": 1,
    })
    _, columns, rows = read_csv(tmp_path / "steady_state.csv")
    assert col(columns, rows, "n_ss_single")[0] < 1e-4
    assert col(columns, rows, "n_ss_collective")[0] < 1e-4


def test_steady_state_rejects_large_system(tmp_path, capsys):
    run(tmp_path, "steady-state", {"N": 12}, expect=1)
    assert "N <= 10" in capsys.readouterr().err


def test_trajectories_rejects_large_system(tmp_path, capsys):
    with deadline(10):
        run(tmp_path, "trajectories", {"N": 11}, expect=1)
    assert "N <= 10" in capsys.readouterr().err


def test_coherence_refuses_a_huge_verify_ring_before_any_mode(tmp_path, capsys):
    # the ring goes through the one size check before any mode or N-site
    # neighbour table is built; a table of 10**6 sites takes seconds
    start = time.monotonic()
    with deadline(30):
        run(tmp_path, "coherence", {"verify_N": 10**6}, expect=1)
    assert time.monotonic() - start < 1.0
    assert "N <= 10" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("cfg", [{"V": 1e300}, {"omega_min": 1e200, "omega_max": 1e200}])
def test_trajectories_overflow_exits_1(tmp_path, capsys, cfg):
    # rounding in eig of such an H_eff leaves some decay rate far below 0, and
    # the no-jump phases overflow: the run fails instead of writing empty fields
    run(tmp_path, "trajectories",
        one_cell("trajectories", N=4, boundary="periodic", **cfg), expect=1)
    assert "numerical overflow" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, csv_name, absent", [
    ("steady-state", "steady_state.csv", ["n_ss_collective", "delta_n_ss"]),
    ("trajectories", "trajectories.csv", ["n_ss_collective", "stderr_collective", "delta_n_ss"]),
])
def test_single_model_leaves_collective_fields_empty(tmp_path, command, csv_name, absent):
    run(tmp_path, command, one_cell(command))
    _, columns, rows = read_csv(tmp_path / csv_name)
    row = dict(zip(columns, rows[0]))
    assert row["Delta"] == -6.0 and row["Omega"] == 2.5
    assert 0.0 < row["n_ss_single"] < 1.0
    assert [name for name in columns if row[name] is None] == absent


def test_steady_state_failed_cell_is_empty(tmp_path):
    # at V = 1e10 the closed form's trace drift exceeds DRIFT_LIMIT in both models
    run(tmp_path, "steady-state", {
        "N": 3, "boundary": "open", "V": 1e10, "delta_min": -6.0, "delta_max": -6.0,
        "n_delta": 1, "omega_min": 2.5, "omega_max": 2.5, "n_omega": 1,
    })
    assert (tmp_path / "steady_state.csv").read_text().splitlines()[-1] == "-6,2.5,,,"
    errors = json.loads((tmp_path / "steady_state_manifest.json").read_text())["errors"]
    assert [e.split()[0] for e in errors] == ["model=single", "model=collective"]


TRAJ_CFG = {
    "N": 2, "boundary": "open", "V": 10.0,
    "delta_min": -6.0, "delta_max": -6.0, "n_delta": 1,
    "omega_min": 2.5, "omega_max": 2.5, "n_omega": 1, "n_traj": 12,
    "t_final": 5.0, "seed": 4242,
}


@pytest.mark.parametrize("t_final", [10.0, 1e300])
def test_trajectories_stop_at_the_window_end(tmp_path, t_final):
    # nothing after 5/gamma reaches the CSV, so every run stops there: a
    # longer t_final, even 1e300, is recorded and changes no byte and no
    # jump count
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "trajectories", TRAJ_CFG)
    with deadline(30):
        run(b, "trajectories", {**TRAJ_CFG, "t_final": t_final})
    assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()
    manifests = [json.loads((d / "trajectories_manifest.json").read_text()) for d in (a, b)]
    assert manifests[1]["config"]["t_final"] == t_final
    assert manifests[0]["jump_counts"] == manifests[1]["jump_counts"]


class Hung(Exception):
    """Raised by the alarm; not an OSError, so main() does not catch it."""


@contextmanager
def deadline(seconds):
    def fail(signum, frame):
        raise Hung(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def one_cell(command, **cfg):
    """A one-cell, one-model config for command, updated with cfg."""
    base = {"N": 2, "boundary": "open", "delta_min": -6.0, "delta_max": -6.0,
            "n_delta": 1, "omega_min": 2.5, "omega_max": 2.5, "n_omega": 1,
            "model": "single"}
    if command == "trajectories":
        base["n_traj"] = 1
    return {**base, **cfg}


@pytest.mark.parametrize("command", ["steady-state", "trajectories"])
@pytest.mark.parametrize("lattice, message", [
    ({"N": 4, "boundary": "sideways"}, "boundary must be"),
    ({"N": 2, "boundary": "periodic"}, "periodic boundaries require"),
])
def test_lattice_rejected(tmp_path, capsys, command, lattice, message):
    run(tmp_path, command, one_cell(command, **lattice), expect=1)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steady-state", "trajectories"])
@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_bad_dt_rejected(tmp_path, capsys, command, dt):
    with deadline(30):
        run(tmp_path, command, one_cell(command, dt=dt), expect=1)
    assert "dt must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coherence", "steady-state", "meanfield"])
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_seed_and_threads_only_for_trajectories(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path), flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_bad_threads_rejected(tmp_path, capsys, threads):
    run(tmp_path, "trajectories", one_cell("trajectories"),
        extra_args=["--threads", threads], expect=1)
    assert "threads must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("coherence", {"dt": "x"}, "dt must be a number"),
    ("coherence", {"verify_N": 4.0}, "verify_N must be an integer"),
    ("coherence", {"n_times": 0}, "n_times must be an integer >= 1"),
    ("steady-state", {"V": "10"}, "V must be a number"),
    ("steady-state", {"dt": "x"}, "dt must be a number"),
    ("steady-state", {"omega_min": [1.0]}, "omega_min must be a number"),
    ("steady-state", {"n_delta": 0}, "n_delta must be an integer >= 1"),
    ("trajectories", {"n_traj": 2.0}, "n_traj must be an integer"),
    ("trajectories", {"model": 1}, "model must be a string"),
    ("trajectories", {"n_omega": 0}, "n_omega must be an integer >= 1"),
    ("meanfield", {"V": True}, "V must be a number"),
    ("meanfield", {"refine_critical": 1}, "refine_critical must be true or false"),
    ("meanfield", {"cut_n_delta": 0}, "cut_n_delta must be an integer >= 1"),
    ("meanfield", {"V": float("nan")}, "V must be finite"),
    ("steady-state", {"V": float("nan")}, "V must be finite"),
    ("steady-state", {"gamma": 0.0}, "gamma must be finite and positive"),
    ("coherence", {"t_max": -1.0}, "t_max must be finite and positive"),
    ("trajectories", {"t_final": float("inf")}, "t_final must be finite and positive"),
    ("trajectories", {"omega_max": float("-inf")}, "omega_max must be finite"),
    ("meanfield", {"delta_min": -1e200}, "Delta, Omega or V too large"),
    ("meanfield", {"omega_max": 1e160}, "Delta, Omega or V too large"),
    ("coherence", {"d": 600}, "d must be between 1 and 511"),
    ("coherence", {"d": 512}, "d must be between 1 and 511"),
    ("coherence", {"models": []}, "models must name at least one model"),
    ("coherence", {"models": ["single", "single"]}, "models must be distinct"),
    ("steady-state", {"V": 1e200}, "numerical overflow"),
    ("meanfield", {"delta_min": -1e150}, "Delta, Omega or V too large"),
    ("meanfield", {"omega_max": 1e150}, "Delta, Omega or V too large"),
    ("trajectories", {"gamma": 0.5}, "t_final must cover the averaging window"),
    ("trajectories", {"t_final": 4.0}, "t_final must cover the averaging window"),
    # reversed ranges: the cusp search ran over an empty interval and the
    # steady-state rows came out in reversed order, both with exit 0
    *[(command, {lo: 5.0, hi: 1.0}, f"{lo} must be <= {hi}, got 5.0 > 1.0")
      for command in ("steady-state", "trajectories", "meanfield")
      for lo, hi in (("delta_min", "delta_max"), ("omega_min", "omega_max"))],
    # without omega_min the grid starts at omega_max / n_omega: a negative
    # omega_max gave a descending Omega column with exit 0
    *[(command, {"omega_min": None, "omega_max": -1.0, "n_omega": 3},
       "omega_max / n_omega (the default omega_min) must be <= omega_max, "
       "got -0.3333333333333333 > -1.0")
      for command in ("steady-state", "trajectories")],
])
def test_bad_config_value_rejected(tmp_path, capsys, command, cfg, message):
    if command in ("steady-state", "trajectories"):
        cfg = one_cell(command, **cfg)
    with deadline(30):
        run(tmp_path, command, cfg, expect=1)
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


WRONG_TYPED = {
    float: st.one_of(st.text(max_size=3), st.booleans(), st.none(),
                     st.lists(st.integers(), max_size=2),
                     st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    int: st.one_of(st.floats(), st.text(max_size=3), st.booleans(), st.none()),
    str: st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                   st.lists(st.text(max_size=2), max_size=2)),
    bool: st.one_of(st.integers(), st.text(max_size=3), st.none()),
    list: st.one_of(st.text(max_size=3), st.integers(), st.none()),
}


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_typed_config_exits_1(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(DEFAULTS)))
    key = data.draw(st.sampled_from(sorted(DEFAULTS[command])))
    default = DEFAULTS[command][key]
    wrong = WRONG_TYPED[NONE_DEFAULT_TYPES.get(key, type(default))]
    if default is None:
        wrong = wrong.filter(lambda v: v is not None)
    if key in POSITIVE_KEYS:
        wrong = st.one_of(wrong, st.floats(max_value=0.0))
    with deadline(30):
        run(tmp_path, command, {key: data.draw(wrong)}, expect=1)


def test_contrast():
    assert _contrast(0.4, 0.2) == pytest.approx(1.0)
    assert _contrast(0.3, 0.3) == 0.0
    assert _contrast(0.3, 0.1) == pytest.approx(2.0)
    # a guarded n_s gives NaN, written as an empty CSV field
    assert np.isnan(_contrast(0.3, 0.0))
    assert _fmt(_contrast(0.3, 0.0)) == ""


def test_steady_state_round_trip_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "steady-state", one_cell("steady-state", model="both"))
    rc = main(["steady-state", "--out", str(b),
               "--config", str(a / "steady_state_manifest.json")])
    assert rc == 0
    assert (a / "steady_state.csv").read_bytes() == (b / "steady_state.csv").read_bytes()
    manifests = [json.loads((d / "steady_state_manifest.json").read_text()) for d in (a, b)]
    assert manifests[0]["integrator"] == manifests[1]["integrator"]
    assert manifests[0]["integrator"]["routes"] == {"eig": 2, "expm_multiply": 0}


def test_trajectories_output_and_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "trajectories", TRAJ_CFG)
    run(b, "trajectories", TRAJ_CFG)
    assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()
    _, columns, rows = read_csv(a / "trajectories.csv")
    row = dict(zip(columns, rows[0]))
    assert row["Delta"] == -6.0 and row["Omega"] == 2.5
    assert 0.0 < row["n_ss_single"] < 1.0
    assert row["stderr_single"] > 0.0
    assert row["delta_n_ss"] is not None


def test_trajectories_manifest_jump_counts(tmp_path):
    cfg = {**TRAJ_CFG, "delta_min": -30.0, "n_delta": 2}
    run(tmp_path, "trajectories", cfg)
    _, columns, rows = read_csv(tmp_path / "trajectories.csv")
    manifest = json.loads((tmp_path / "trajectories_manifest.json").read_text())
    counts = manifest["jump_counts"]
    assert sorted(counts) == ["collective", "single"]
    for model, keys in (("single", {"all"}), ("collective", {"0", "1"})):
        per_row = counts[model]["rows"]
        assert len(per_row) == len(rows)
        assert all(set(row) <= keys for row in per_row)
        total = {k: sum(row.get(k, 0) for row in per_row) for k in keys}
        assert counts[model]["total"] == {k: n for k, n in total.items() if n}
        assert sum(total.values()) > 0
    assert not any("jump" in c for c in columns)
    prop = manifest["no_jump_propagator"]
    assert prop["expm_cells"] == [] and 1.0 <= prop["max_cond"] < COND_LIMIT


def test_trajectories_expm_cells_listed(tmp_path):
    # the N = 1 atom at Delta = 0, Omega = gamma/4 is an exceptional point of
    # H_eff (cond(V) about 9e7), so both models take the expm route
    cfg = {"N": 1, "boundary": "open", "delta_min": 0.0, "delta_max": 0.0, "n_delta": 1,
           "omega_min": 0.25, "omega_max": 0.25, "n_omega": 1, "n_traj": 2}
    run(tmp_path, "trajectories", cfg)
    prop = json.loads((tmp_path / "trajectories_manifest.json").read_text())["no_jump_propagator"]
    assert prop["max_cond"] > COND_LIMIT
    assert prop["expm_cells"] == [{"model": m, "Delta": 0.0, "Omega": 0.25}
                                  for m in ("single", "collective")]


def test_trajectories_evaluate_few_rows_per_sample(tmp_path):
    # a stretch between jumps is evaluated in doubling chunks up to the
    # jump, not on every remaining sample (about 15 rows per sample before)
    cfg = {"N": 6, "delta_min": -6.0, "delta_max": -6.0, "n_delta": 1,
           "omega_min": 10.0, "omega_max": 10.0, "n_omega": 1, "n_traj": 12}
    run(tmp_path, "trajectories", cfg)
    prop = json.loads((tmp_path / "trajectories_manifest.json").read_text())["no_jump_propagator"]
    n_samples = len(np.union1d(np.linspace(0.0, 5.0, 51), master_equation.window_times(1.0)))
    for model in ("single", "collective"):
        assert prop["samples_kept"][model] == 12 * n_samples
        assert 0 < prop["root_steps"][model] < prop["rows_evaluated"][model]
        assert prop["rows_evaluated"][model] <= 4 * prop["samples_kept"][model]


def test_trajectories_one_propagator_per_cell(tmp_path, monkeypatch):
    # H_eff does not depend on the model, so both models of a cell share
    # one eigendecomposition
    calls = []
    original = trajectories.no_jump_propagator

    def counting(h_eff):
        calls.append(h_eff.shape)
        return original(h_eff)

    monkeypatch.setattr(trajectories, "no_jump_propagator", counting)
    cfg = {**TRAJ_CFG, "delta_min": -30.0, "n_delta": 2, "omega_min": 2.5,
           "omega_max": 10.0, "n_omega": 2, "n_traj": 2, "model": "both"}
    run(tmp_path, "trajectories", cfg)
    assert len(calls) == 2 * 2


def test_trajectories_seed_flag_changes_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "trajectories", TRAJ_CFG)
    run(b, "trajectories", TRAJ_CFG, extra_args=["--seed", "999"])
    assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()
    manifest = json.loads((b / "trajectories_manifest.json").read_text())
    assert manifest["config"]["seed"] == 999
    assert manifest["master_seed"] == 999


def test_manifest_round_trip_reproduces_csv(tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    first.mkdir(); again.mkdir()
    run(first, "trajectories", TRAJ_CFG)
    rc = main(["trajectories", "--out", str(again),
               "--config", str(first / "trajectories_manifest.json")])
    assert rc == 0
    assert (first / "trajectories.csv").read_bytes() == (again / "trajectories.csv").read_bytes()


def test_manifest_command_mismatch_rejected(tmp_path, capsys):
    first = tmp_path / "first"
    first.mkdir()
    run(first, "trajectories", TRAJ_CFG)
    rc = main(["steady-state", "--out", str(tmp_path),
               "--config", str(first / "trajectories_manifest.json")])
    assert rc == 1
    assert "was written by 'trajectories'" in capsys.readouterr().err


MF_CFG = {
    "delta_min": -14.0, "delta_max": -6.0, "n_delta": 9,
    "omega_min": 1.5, "omega_max": 3.5, "n_omega": 3,
    "cut_n_delta": 41, "refine_critical": False,
}


def test_meanfield_outputs(tmp_path):
    run(tmp_path, "meanfield", MF_CFG)
    meta, columns, rows = read_csv(tmp_path / "meanfield_phase_diagram.csv")
    assert meta["sign_convention"] == "oracle_verified"
    counts = col(columns, rows, "stable_count")
    assert set(counts) <= {1.0, 2.0}
    assert 2.0 in counts  # the grid crosses the bistable lobe
    # wherever two branches exist both columns are filled and ordered
    for row in rows:
        r = dict(zip(columns, row))
        if r["stable_count"] == 2.0:
            assert r["n_ss_branch1"] is not None and r["n_ss_branch2"] is not None
            assert r["n_ss_branch1"] < r["n_ss_branch2"]

    _, ccols, crows = read_csv(tmp_path / "meanfield_cut.csv")
    both = [r for r in crows if dict(zip(ccols, r))["n_stable_high"] is not None]
    assert both  # hysteresis present on the cut
    for r in both:
        d = dict(zip(ccols, r))
        assert d["n_stable_low"] < d["n_unstable"] < d["n_stable_high"]

    crit = json.loads((tmp_path / "meanfield_critical_points.json").read_text())
    assert crit == {"critical_points": [], "error": None}


def test_meanfield_critical_point_refinement(tmp_path):
    cfg = dict(MF_CFG)
    cfg.update({"n_delta": 3, "n_omega": 2, "cut_n_delta": 11,
                "refine_critical": True, "omega_max": 5.0})
    run(tmp_path, "meanfield", cfg)
    crit = json.loads((tmp_path / "meanfield_critical_points.json").read_text())
    assert crit["error"] is None
    (point,) = crit["critical_points"]
    assert point["Omega"] == pytest.approx(3.4604, abs=5e-3)
    assert point["Delta"] == pytest.approx(-11.824, abs=2e-2)


def test_meanfield_no_cusp_below_omega_max(tmp_path):
    cfg = dict(MF_CFG)
    cfg.update({"n_delta": 3, "n_omega": 2, "cut_n_delta": 11,
                "refine_critical": True, "omega_max": 3.4})
    run(tmp_path, "meanfield", cfg)
    crit = json.loads((tmp_path / "meanfield_critical_points.json").read_text())
    assert crit["critical_points"] == []
    assert crit["error"] is not None


def test_meanfield_cusp_with_underflowing_sextic(tmp_path):
    # V = 1e-160 at d = 40: the cusp polynomial's leading coefficients
    # underflow; the run records that no cusp exists instead of warning
    run(tmp_path, "meanfield", {"d": 40, "V": 1e-160, "gamma": 7.0, "n_delta": 5,
                                "n_omega": 5, "cut_n_delta": 5})
    crit = json.loads((tmp_path / "meanfield_critical_points.json").read_text())
    assert crit["critical_points"] == []
    assert "no mean-field cusp" in crit["error"]


def test_meanfield_defaults_leave_eigvals_to_the_sextic_and_fallback_rows(tmp_path, monkeypatch):
    # the stationarity cubics and the Jacobian spectra take the closed form;
    # np.linalg.eigvals sees the cusp's degree-6 polynomial and the rows with
    # a near-repeated root, in one batched call each
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(np.shape(a)) or eigvals(a))
    run(tmp_path, "meanfield")
    assert len(calls) <= 2, calls


def test_meanfield_linear_stationarity(tmp_path):
    # V = 0 with single-atom decay leaves a linear stationarity condition
    # (the cubic's two leading coefficients vanish on the whole grid)
    run(tmp_path, "meanfield", {"model": "single", "V": 0.0, "n_delta": 9,
                                "n_omega": 5, "cut_n_delta": 9})
    _, columns, rows = read_csv(tmp_path / "meanfield_phase_diagram.csv")
    assert len(rows) == 45
    assert col(columns, rows, "stable_count") == [1.0] * 45
    assert col(columns, rows, "n_ss_branch2") == [None] * 45


def test_meanfield_counts_are_scale_free(tmp_path):
    # every rate x 1e-12: the absolute stability threshold -1e-9 once gave
    # every cell of the small-scale run the count 0
    grid = {"n_delta": 41, "n_omega": 41, "cut_n_delta": 11, "refine_critical": False}
    tiny = {**grid, "gamma": 1e-12, "V": 1e-11, "delta_min": -3e-11, "delta_max": 1e-11,
            "omega_min": 0.0, "omega_max": 1e-11, "cut_omega": 2.5e-12}
    counts = []
    for name, cfg in (("unit", grid), ("tiny", tiny)):
        (tmp_path / name).mkdir()
        run(tmp_path / name, "meanfield", cfg)
        _, columns, rows = read_csv(tmp_path / name / "meanfield_phase_diagram.csv")
        counts.append(col(columns, rows, "stable_count"))
    assert counts[0].count(1.0) == 1663 and counts[0].count(2.0) == 18
    assert counts[1] == counts[0]


def test_meanfield_subnormal_leading_coefficient(tmp_path):
    # with single-atom decay the cubic's leading coefficient is (2dV/s)^2,
    # subnormal at V = 1e-160, and its companion matrix overflowed
    # (so did the cusp search's polynomial)
    counts, cusps = [], []
    for V in (0.0, 1e-160):
        out = tmp_path / str(V)
        out.mkdir()
        run(out, "meanfield", {"model": "single", "V": V, "n_delta": 5, "n_omega": 5,
                               "cut_n_delta": 11})
        _, columns, rows = read_csv(out / "meanfield_phase_diagram.csv")
        counts.append(col(columns, rows, "stable_count"))
        cusps.append((out / "meanfield_critical_points.json").read_text())
    assert counts[1] == counts[0] == [1.0] * 25
    assert cusps[1] == cusps[0]


def test_meanfield_round_trip_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(); b.mkdir()
    run(a, "meanfield", MF_CFG)
    rc = main(["meanfield", "--out", str(b),
               "--config", str(a / "meanfield_manifest.json")])
    assert rc == 0
    for name in ("meanfield_phase_diagram.csv", "meanfield_cut.csv",
                 "meanfield_critical_points.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# the Taylor core's work grows as ||tL||_1, so as V: one N = 6 cell plans
# 1.67e6 sparse products per model at V = 1e4 (10 s) and 1.67e7 at V = 1e5.
# The plan is checked before the first product, so a larger V exits at once.
@pytest.mark.parametrize("command, cfg", [
    ("steady-state", one_cell("steady-state", N=6, boundary="periodic", V=1e6)),
    ("steady-state", one_cell("steady-state", N=6, boundary="periodic", V=1e200)),
    ("coherence", {"verify_N": 6, "V": 1e6}),
])
def test_taylor_route_refuses_huge_work_fast(tmp_path, capsys, command, cfg):
    with deadline(10):
        run(tmp_path, command, cfg, expect=1)
    assert "sparse products" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_csv_uses_full_precision(tmp_path):
    run(tmp_path, "coherence", {"V": 10.0, "t_max": 1.0, "n_times": 3})
    body = (tmp_path / "coherence.csv").read_text()
    data = [l for l in body.splitlines() if not l.startswith("#")]
    # 17 significant digits survive a parse round trip
    val = data[1].split(",")[1]
    assert float(val) == pytest.approx(float(format(float(val), ".17g")), abs=0)
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


def _from_bits(*patterns: int) -> list[float]:
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


def _csv_reference(meta, columns, data) -> str:
    """What write_csv must write: one format(x, ".17g") per finite field,
    an empty field otherwise."""
    lines = [f"# {key}: {val}" for key, val in meta.items()]
    lines.append(f"# columns: {','.join(columns)}")
    lines += [",".join(format(x, ".17g") if np.isfinite(x) else "" for x in row)
              for row in np.asarray(data, dtype=np.float64).tolist()]
    return "".join(line + "\n" for line in lines)


def _check_write_csv(tmp_path, data):
    data = np.asarray(data, dtype=np.float64)
    meta, columns = {"command": "test", "V": 10.0}, [f"c{i}" for i in range(data.shape[1])]
    path = tmp_path / "out.csv"
    cli.write_csv(path, meta, columns, data)
    assert path.read_bytes() == _csv_reference(meta, columns, data).encode()


@pytest.mark.parametrize("data", [
    # quiet, negative, payload-carrying and signalling NaNs
    [_from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
                0x7FF0000000000001, 1)],
    [[np.inf, -np.inf, 1.0], [-np.inf, np.nan, np.inf]],
    [[-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]],
    [[5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]],
    [[1.0, -3.0, 0.0], [2.0 ** 53, 1e16, 1.0], [-3.0, 2.0 ** 53, 100.0]],
    np.empty((0, 3)),
    [[0.1], [-0.0], [np.nan], [0.1], [0.0]],
], ids=["nan", "inf", "signed-zero", "extremes", "integer-valued", "zero-rows", "one-column"])
def test_write_csv_matches_per_field_format(tmp_path, data):
    _check_write_csv(tmp_path, data)


@settings(max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
    # a small pool gives repeated values; the bit patterns give every payload
    elements=st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1.0, np.nan]),
                       st.integers(0, 2 ** 64 - 1).map(lambda b: _from_bits(b)[0]))))
def test_write_csv_matches_per_field_format_on_any_array(tmp_path, data):
    _check_write_csv(tmp_path, data)


def test_write_csv_formats_each_bit_pattern_once(tmp_path, monkeypatch):
    data = np.array([[0.5, -0.0, np.nan], [0.5, 0.0, np.nan], [0.25, -0.0, -np.nan],
                     [0.5, 0.0, np.inf]])
    calls = []
    monkeypatch.setattr(cli, "_fmt", lambda x: calls.append(x) or _fmt(x))
    _check_write_csv(tmp_path, data)
    # 0.5, 0.25, -0.0, 0.0, nan, -nan and inf: 7 patterns in 12 fields
    assert len(calls) == len(np.unique(data.view(np.int64))) == 7


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's ryddecay."""
    src = str(Path(ryddecay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120, check=True)


# the modules loaded so far that are scipy, a process pool or a subpackage of either
LOADED = ("sorted(m for m in sys.modules if m.split('.')[0] in "
          "('scipy', 'concurrent', 'multiprocessing'))")


def test_cli_import_loads_no_scipy():
    # the exact layer imports scipy inside the functions that use it, and
    # trajectories run in one process, without a pool
    out = _python(f"import sys, ryddecay.cli; print({LOADED})")
    assert out.stdout.strip() == "[]"


def _loaded_after_each(tmp_path, calls):
    """Run the (command, config) calls in turn in one fresh interpreter.
    Returns [exit code, the modules LOADED so far] per call, and the
    finished process."""
    out = _python(f"""
import json, sys
from ryddecay import cli
for k, (command, cfg) in enumerate(json.loads(sys.argv[2])):
    path = f"{{sys.argv[1]}}/config{{k}}.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    rc = cli.main([command, "--config", path, "--out", f"{{sys.argv[1]}}/out{{k}}"])
    print(json.dumps([rc, {LOADED}]))
""", str(tmp_path), json.dumps(calls))
    return [json.loads(line) for line in out.stdout.splitlines() if line.startswith("[")], out


def test_only_exact_commands_load_scipy(tmp_path):
    calls = [
        ("meanfield", {"n_delta": 11, "n_omega": 11, "cut_n_delta": 41}),
        ("coherence", {"verify_N": None, "n_times": 11}),
        ("steady-state", {"N": 11}),
        ("steady-state", one_cell("steady-state")),
        ("steady-state", one_cell("steady-state", N=6, boundary="periodic")),
    ]
    report, out = _loaded_after_each(tmp_path, calls)
    assert [rc for rc, _ in report] == [0, 0, 1, 0, 0]
    assert [loaded for _, loaded in report[:3]] == [[], [], []]
    assert "N <= 10 is required" in out.stderr
    # the probe sees imports: the exact scan loads scipy.sparse, and the
    # N = 6 ring's Taylor route (above EIG_MAX_DIM) no scipy solver
    assert "scipy.sparse" in report[3][1]
    assert "scipy.sparse" in report[4][1]
    assert "scipy.sparse.linalg" not in report[4][1]


def test_trajectories_load_scipy_linalg_only_for_expm_cells(tmp_path):
    # the closed form takes numpy.linalg alone; dense expm (scipy.linalg)
    # serves only a cell without a trusted eigenbasis, here the N = 1 atom at
    # the exceptional point Delta = 0, Omega = gamma/4, which proves that the
    # probe sees the import
    calls = [
        ("trajectories", one_cell("trajectories", N=4, boundary="periodic", model="both")),
        ("trajectories", one_cell("trajectories", N=1, delta_min=0.0, delta_max=0.0,
                                  omega_min=0.25, omega_max=0.25)),
    ]
    report, _ = _loaded_after_each(tmp_path, calls)
    assert [rc for rc, _ in report] == [0, 0]
    assert "scipy.sparse" in report[0][1] and "scipy.linalg" not in report[0][1]
    assert "scipy.linalg" in report[1][1]
