#!/usr/bin/env python3
"""Record a baseline of the benchmark in ``bench/baseline.json``.

    python3 bench/baseline.py

Runs every workload once per seed 1..10 with tracing off and reports, per
end-to-end metric, the median, the quartiles and their distance as a share
of the median (the spread the metric's bound is judged against).  It then
makes two traced runs per workload with seed 1, keeps the first run's
per-layer metrics, and records whether every count metric repeated exactly.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    out = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, bench["run_seconds"], 0) for seed in SEEDS]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values}
            print(f"{workload:7s} {metric['name']:12s} median {median:.6g} {metric['unit']}"
                  f"  spread {(q3 - q1) / median:.3f} (bound {metric['bound']})", flush=True)
        traced = [run(workload, SEEDS[0], bench["run_seconds"], 1) for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        moved = [k for k in counts if first[k]["value"] != second[k]["value"]]
        print(f"{workload:7s} counts repeat exactly: {not moved} {moved or ''}", flush=True)
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in first.items()},
            "counts_repeat_exactly": not moved,
        }
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
