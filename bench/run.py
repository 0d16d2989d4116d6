"""Benchmark of the four ryddecay workflows, end to end and layer by layer.

    python3 bench/run.py --workload exact-ring4 --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. One run:

1. times five fresh interpreters from start until ``ryddecay.cli`` is
   imported (``setup_s`` is their median);
2. runs the workload's round of CLI calls in one fresh worker process
   (bench/worker.py) for ``--seconds``, at least twice; ``wall_s`` is the
   median round time and ``peak_rss_mib`` the worker's peak resident memory;
3. checks every round's outputs against bench/reference.py (bench/checks.py);
4. prints, as its last line, one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
   ``--trace 0``, its per-layer metrics with ``--trace 1``.

BLAS runs single-threaded in every process. Outputs and traces go to
bench/runs/, which git ignores; round outputs are deleted after the checks.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(env) -> float:
    """Seconds from starting an interpreter until ryddecay.cli is imported."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", "import ryddecay.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=30) != 0 or line.strip() != "ready":
            raise RuntimeError("importing ryddecay.cli failed")
    return elapsed


def run_worker(env, calls, run_dir: Path, seconds: int, trace: bool) -> dict:
    config_paths = []
    for i, (command, cfg) in enumerate(calls):
        path = run_dir / f"config-{i}-{command}.json"
        path.write_text(json.dumps(cfg, indent=1))
        config_paths.append([command, str(path)])
    spec = {
        "calls": config_paths,
        "out_dir": str(run_dir / "out"),
        "seconds": seconds,
        "trace": trace,
        "result_path": str(run_dir / "result.json"),
        "trace_path": str(run_dir / "trace.csv"),
    }
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(run_dir / "worker.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {run_dir / 'worker.log'}")
    return json.loads(Path(spec["result_path"]).read_text())


def metric_block(names_units, values) -> dict:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in names_units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs of each workload, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ryddecay" / "cli.py").is_file():
        print(f"error: no ryddecay sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = workloads.round_calls(args.workload, args.seed, args.smoke)

    env = child_env()
    setup = [setup_time(env) for _ in range(SETUP_SAMPLES)]

    run_dir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    result = run_worker(env, calls, run_dir, args.seconds, bool(args.trace))
    rounds = result["rounds"]
    found = checks.check_rounds(calls, rounds)
    shutil.rmtree(run_dir / "out")

    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r["wall_s"] for r in rounds if r["traced"]]
        overhead = statistics.median(traced) - statistics.median(plain)
        work = workloads.work_counts(calls)
        per_round = [spans.layer_metrics(s, work, overhead) for s in result["summaries"]]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics = metric_block([(m["name"], m["unit"]) for m in spec["per_layer"]], values)
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = metric_block([(m["name"], m["unit"]) for m in spec["end_to_end"]], values)

    for failure in found.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{found.attempted} checks, {len(found.failures)} failed; run files in {run_dir}")
    print(json.dumps({
        "correct": not found.failures,
        "attempted": found.attempted,
        "failed": len(found.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
