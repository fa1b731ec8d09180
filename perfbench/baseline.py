#!/usr/bin/env python3
"""Record a baseline of the benchmark on this machine.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` once for each of RUNS seeds for every workload of
BENCHMARK.json, one process at a time, then once more per workload with
`--trace 1`.  Writes
the median and quartiles of every end-to-end metric, the spread
(interquartile range over median) that the bounds are checked against,
the traced per-layer breakdown, and the Python version, git sha and CPU
count.  Run it from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return result


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(range(1, RUNS + 1))

    out = {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(spec, name, seed, 0) for seed in seeds]
        out["end_to_end"][name] = {
            m["name"]: dict(
                unit=m["unit"],
                bound=m["bound"],
                **summary([r["metrics"][m["name"]]["value"] for r in results]),
            )
            for m in spec["end_to_end"]
        }
        out["end_to_end"][name]["items_attempted"] = sum(r["attempted"] for r in results)
        out["end_to_end"][name]["items_failed"] = sum(r["failed"] for r in results)
        traced = run(spec, name, seeds[0], 1)
        out["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
        for metric, s in out["end_to_end"][name].items():
            if isinstance(s, dict):
                print(
                    f"{name:14s} {metric:12s} median {s['median']:10.4f} {s['unit']:5s} "
                    f"spread {s['spread']:.3f} (bound {s['bound']})",
                    flush=True,
                )
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
