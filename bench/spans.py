"""Span tracing from outside the program.

The tracer replaces public functions at the names the CLI and the layer
modules call them by, records one span (name, start, end, parent) per call in
memory, and puts the originals back afterwards. Nothing in ``ryddecay`` is
edited, so a function that a later version stops calling simply records no
spans.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the module is where the caller looks the
# name up, so the same function gets a different span at a different caller.
WRAPS = (
    ("ryddecay.cli", "scan_steady_state", "master_equation.scan"),
    ("ryddecay.coherence", "integrate_exact", "master_equation.integrate_exact"),
    ("ryddecay.cli", "exact_mode_series", "coherence.exact_mode_series"),
    ("ryddecay.cli", "mode_series", "coherence.mode_series"),
    ("ryddecay.coherence", "atomic_hamiltonian", "operators.hamiltonian"),
    ("ryddecay.coherence", "jump_operators", "operators.jumps"),
    ("ryddecay.coherence", "neighborhood_projector", "operators.mode_op"),
    ("ryddecay.coherence", "site_operator", "operators.mode_op"),
    ("ryddecay.trajectories", "driven_hamiltonian", "operators.hamiltonian"),
    ("ryddecay.trajectories", "jump_operators", "operators.jumps"),
    ("ryddecay.cli", "run_ensemble", "trajectories.run_ensemble"),
    ("ryddecay.cli", "scan_phase_diagram", "meanfield.scan"),
    ("ryddecay.cli", "fixed_points_cubic", "meanfield.cut_solve"),
    ("ryddecay.cli", "refine_critical_point", "meanfield.refine"),
    ("ryddecay.meanfield", "fixed_points_cubic", "meanfield.solve"),
    ("ryddecay.cli", "write_csv", "cli.write_csv"),
)

# per-span counters read off the return value
COUNTERS = {
    "master_equation.integrate_exact": lambda result: getattr(result, "halvings", 0),
}


class Tracer:
    """Spans of the calls made while installed: [name, start, end, parent,
    counter], parent being the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                spans[idx][4] = counter(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name in WRAPS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(saved[-1][2], name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def summarise(spans: list[list]) -> dict:
    """Totals per span name (time, self time, calls, counter) and call
    counts per (parent name, child name)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    by_parent: dict[str, int] = {}
    for i, (name, start, end, parent, counter) in enumerate(spans):
        s = by_name.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0, "counter": 0})
        s["total"] += end - start
        s["self"] += end - start - child_time[i]
        s["calls"] += 1
        s["counter"] += counter
        if parent >= 0:
            key = f"{spans[parent][0]}>{name}"
            by_parent[key] = by_parent.get(key, 0) + 1
    return {"by_name": by_name, "by_parent": by_parent}


def layer_metrics(summary: dict, work: dict, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round; a layer the round never
    reached reads 0."""
    by_name, by_parent = summary["by_name"], summary["by_parent"]

    def total(name, key="total"):
        return by_name.get(name, {}).get(key, 0.0)

    def per(value, n, scale):
        return scale * value / n if n else 0.0

    mode_calls = total("coherence.mode_series", "calls")
    return {
        "master_equation.scan_s": total("master_equation.scan"),
        "master_equation.scan_cell_ms": per(total("master_equation.scan"), work["scan_cells"], 1e3),
        "master_equation.integrate_exact_s": total("master_equation.integrate_exact"),
        "master_equation.integrate_exact_halvings": total("master_equation.integrate_exact", "counter"),
        "coherence.exact_mode_series_self_s": total("coherence.exact_mode_series", "self"),
        "coherence.mode_series_us": per(total("coherence.mode_series"), mode_calls, 1e6),
        "operators.build_s": sum(total(n) for n in ("operators.hamiltonian", "operators.jumps",
                                                    "operators.mode_op")),
        "operators.builds": total("operators.jumps", "calls"),
        "trajectories.run_ensemble_s": total("trajectories.run_ensemble"),
        "trajectories.traj_ms": per(total("trajectories.run_ensemble"), work["trajectories"], 1e3),
        "meanfield.scan_s": total("meanfield.scan"),
        "meanfield.cell_us": per(total("meanfield.scan"), work["mf_cells"], 1e6),
        "meanfield.scan_solves": by_parent.get("meanfield.scan>meanfield.solve", 0),
        "meanfield.cut_s": total("meanfield.cut_solve"),
        "meanfield.refine_s": total("meanfield.refine"),
        "meanfield.refine_solves": by_parent.get("meanfield.refine>meanfield.solve", 0),
        "cli.write_csv_s": total("cli.write_csv"),
        "trace.overhead_s": overhead_s,
    }
