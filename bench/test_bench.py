"""Tests of the benchmark's own reference and of its output format.

    python3 -m pytest bench -q

The smoke tests run every workload at its smallest inputs, traced and
untraced (a few minutes in all).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("gamma", [1.0, 2.5])
def test_one_atom_decays_exponentially(gamma):
    H, jumps = reference.hamiltonian_and_jumps(1, [], 0.0, 0.0, 0.0, gamma, "single")
    excited = np.diag([0.0, 1.0]).astype(complex)
    rhos = reference.propagate(reference.lindbladian(H, jumps), excited, 0.0, 3.0, 31)
    t = np.linspace(0.0, 3.0, 31)
    assert np.max(np.abs(reference.mean_excitation(rhos, 1) - np.exp(-gamma * t))) < 1e-12


def test_models_agree_on_undriven_diagonal_state():
    rng = np.random.default_rng(3)
    p = rng.random(16)
    rho0 = np.diag(p / p.sum()).astype(complex)
    out = {}
    for model in ("single", "collective"):
        H, jumps = reference.hamiltonian_and_jumps(4, reference.ring_bonds(4), -3.0, 0.0,
                                                   10.0, 1.0, model)
        out[model] = reference.propagate(reference.lindbladian(H, jumps), rho0, 0.0, 2.0, 11)
    assert np.max(np.abs(out["single"] - out["collective"])) < 1e-12
    assert np.max(np.abs(out["single"][-1] - rho0)) > 1e-2  # it did evolve


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
