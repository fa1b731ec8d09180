#!/usr/bin/env python3
"""dgres benchmark: one workload per process, one thread.

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 30 --trace 0

Run from the root of a dgres source checkout; the package is imported
from its `src/` directory, never from an installed copy.  After set-up
the workload's items run in passes until the next pass would end past
`--seconds` (at least one pass).  Every item is checked against frozen
values; an item that raises or fails a check counts as failed.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  The
times of a pass are counted in runs of a fixed reference kernel timed
between its segments (`_ref`, see meter.py), because the host's own speed
drifts too much for bare seconds to compare; the summary lines give the
seconds too.  Each is the median over the passes.  `setup_s` is the
median of three set-ups (this process and two child processes).
`--trace 1` runs one untraced pass, then one pass with every layer
wrapped (see tracing.py), reports the per-layer metrics and writes the
spans to `.bench_trace/`.

A summary goes to stdout first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads
from meter import TICK_S, Meter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def timed_setup(workload: str, seed: int):
    """Build the workload's items; the first call in a process also pays
    for importing dgres (and networkx for certify-small)."""
    start = time.perf_counter()
    items = workloads.WORKLOADS[workload](seed)
    return time.perf_counter() - start, items


def child_setup_s(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_pass(self, items, tracer=None) -> Meter:
        """One timed pass over `items`, traced by `tracer` when given."""
        for item in items:
            item.prepare()
        gc.collect()
        restore = tracing.install(tracer) if tracer else None
        try:
            with Meter(every=None if tracer else TICK_S) as meter:
                for item in items:
                    self.attempted += 1
                    try:
                        errors = item.run(meter)
                    except Exception:  # an item that raises is a failed item
                        errors = [f"raised:\n{traceback.format_exc()}"]
                    if errors:
                        self.failed += 1
                        print(f"perfbench: {item.name} failed: {'; '.join(errors)}", file=sys.stderr)
            return meter
        finally:
            if restore:
                restore()


def measure(items, seconds: float, tally: Tally) -> dict[str, float]:
    """Whole passes until the next would end past `seconds`; each time is
    the median over the passes, in kernel runs (`_ref`) and seconds."""
    meters = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        meters.append(tally.run_pass(items))
        end = time.perf_counter()
        if end - start + (end - begun) > seconds:
            break
    out: dict[str, float] = {"passes": len(meters)}
    for key in ("pass", "classify", "verify"):
        name = "wall" if key == "pass" else key
        out[f"{name}_ref"] = statistics.median(m.ref[key] for m in meters)
        out[f"{name}_s"] = statistics.median(m.seconds[key] for m in meters)
    out["kernel_ms"] = 1000 * statistics.median(k for m in meters for k in m.kernel_s)
    return out


def traced(items, tally: Tally, workload: str, seed: int) -> dict[str, float]:
    untraced_wall = tally.run_pass(items).seconds["pass"]
    tracer = tracing.Tracer()
    traced_wall = tally.run_pass(items, tracer).seconds["pass"]
    tracer.write(ROOT / ".bench_trace" / f"{workload}-seed{seed}.jsonl")
    out = tracing.layer_metrics(tracer)
    out["pass.wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "dgres" / "__init__.py").is_file():
        return fail(f"no dgres sources under {SRC}; run from a dgres checkout")
    sys.path.insert(0, str(SRC))

    setup_s, items = timed_setup(args.workload, args.seed)
    import dgres

    if not Path(dgres.__file__).resolve().is_relative_to(SRC.resolve()):
        return fail(f"imported dgres from {dgres.__file__}, not from {SRC}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    if args.trace:
        values = traced(items, tally, args.workload, args.seed)
        wanted = spec["per_layer"]
        passes = 2
    else:
        values = measure(items, args.seconds, tally)
        passes = values["passes"]
        samples = [setup_s] + [
            child_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        values["setup_s"] = statistics.median(samples)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(
        f"{args.workload} seed {args.seed}: {passes} pass(es) of {len(items)} items, "
        f"{tally.attempted} attempted, {tally.failed} failed"
    )
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        for name in ("wall_s", "classify_s", "verify_s", "kernel_ms"):
            print(f"  {name:40s} {values[name]:>14.6g} (as measured, not scaled; not a metric)")
    print(
        f"  {'failed_frac':40s} {tally.failed / tally.attempted:>14.6g} "
        f"({tally.failed}/{tally.attempted} items)"
    )
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
