"""One workload process: repeat the round of CLI calls and time each round.

Run by run.py in a fresh interpreter as ``python3 bench/worker.py SPEC``,
where SPEC is a JSON file naming the calls, the output directory, the run
length and whether to trace. Rounds repeat until the next one would end past
the run length, with at least two, so that every output can be compared with
a second run of the same config. With tracing on, rounds alternate untraced
and traced, the untraced ones giving the overhead baseline. The result (round
wall times, exit codes, peak resident memory, per-layer summaries) goes to
the spec's result file and the spans to its trace file.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import ryddecay.cli as cli

from spans import Tracer, summarise


def run_round(calls, out_dir: Path) -> list[int]:
    return [
        cli.main([command, "--config", config, "--out", str(out_dir / f"{i}-{command}")])
        for i, (command, config) in enumerate(calls)
    ]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    calls, out, seconds = spec["calls"], Path(spec["out_dir"]), spec["seconds"]
    rounds, traced_spans = [], []
    start = perf_counter()
    while True:
        traced = spec["trace"] and len(rounds) % 2 == 1
        out_dir = out / f"round{len(rounds)}"
        if traced:
            tracer = Tracer()
            with tracer.installed():
                t0 = perf_counter()
                codes = run_round(calls, out_dir)
                wall = perf_counter() - t0
            traced_spans.append(tracer.spans)
        else:
            t0 = perf_counter()
            codes = run_round(calls, out_dir)
            wall = perf_counter() - t0
        rounds.append({"wall_s": wall, "traced": traced, "dir": str(out_dir), "exit_codes": codes})
        typical = statistics.median(r["wall_s"] for r in rounds)
        if len(rounds) >= 2 and perf_counter() - start + typical > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rounds": rounds,
        "peak_rss_mib": peak_rss_mib,
        "summaries": [summarise(spans) for spans in traced_spans],
    }
    Path(spec["result_path"]).write_text(json.dumps(result))
    if traced_spans:
        with open(spec["trace_path"], "w", encoding="utf-8") as fh:
            fh.write("# traced_round,name,start,end,parent,counter\n")
            for r, spans in enumerate(traced_spans):
                for name, s, e, parent, counter in spans:
                    fh.write(f"{r},{name},{s!r},{e!r},{parent},{counter}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
