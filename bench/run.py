#!/usr/bin/env python3
"""Benchmark of hillband through its public Python API.

    python3 bench/run.py --workload sweep|verify|arcs --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process, one thread: BLAS and hillband thread counts are pinned to 1
here, before numpy loads.  Every op's answer is checked against
``bench/reference.json``; an op that raises or misses counts as failed.

``--trace 0`` measures set-up in fresh processes, then repeats full passes
over the workload's ops while ``--seconds`` allows (at least one) and reports
the end-to-end metrics as medians over passes.  ``--trace 1`` runs one
untraced and one traced pass (one traced pass, so the counters repeat
exactly), writes the spans to ``.bench_out/`` and reports the per-layer
metrics derived from that file.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "HILLBAND_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import inputs  # noqa: E402  (standard library only; hillband loads lazily)

SETUP_REPEATS = 7
TAIL_BEYOND = 10


def _call(workload: str, op: dict, spec):
    # looked up at call time, so the tracer's wrappers are the ones called
    from hillband import spectrum

    if workload == "sweep":
        return spectrum.classify_spectrum(spec)
    if workload == "verify":
        return spectrum.verify_theorems(spec)
    return spectrum.stability_region(spec, op["window"], op["res"])


def run_pass(workload: str, ops: list[dict], specs: list) -> dict:
    """One pass over all ops; answers are kept for checking after the clock."""
    from hillband import spectrum

    # verify's interior eigenvalues live in the gap report it builds inside
    gap_reports: list = []
    original = spectrum.gap_eigenvalue_report

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        gap_reports.append(report)
        return report

    spectrum.gap_eigenvalue_report = capture
    answers, op_s = [], []
    try:
        start = time.perf_counter()
        for op, spec in zip(ops, specs):
            gap_reports.clear()
            t0 = time.perf_counter()
            try:
                out, err = _call(workload, op, spec), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0)
            answers.append((out, gap_reports[-1] if gap_reports else None, err))
        wall = time.perf_counter() - start
    finally:
        spectrum.gap_eigenvalue_report = original
    return {"wall_s": wall, "op_s": op_s, "answers": answers}


def count_failures(workload: str, ops: list[dict], answers: list, ref: dict) -> int:
    import reference

    failed = 0
    for op, (out, gap_report, err) in zip(ops, answers):
        problems = [err] if err else reference.check(workload, op, out, ref[op["key"]],
                                                      gap_report)
        if problems:
            failed += 1
            print(f"FAIL {workload} {op['key']} z0={op['z0']}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def answers(workload: str, seed: int) -> dict:
    """{op key: (op, result, gap report)} of one pass; used by reference.py."""
    ops = inputs.make_ops(workload, seed)
    done = run_pass(workload, ops, inputs.build_specs(ops))
    for op, (_, _, err) in zip(ops, done["answers"]):
        if err:
            raise SystemExit(f"{workload} {op['key']}: {err}")
    return {op["key"]: (op, out, gap) for op, (out, gap, _) in zip(ops, done["answers"])}


def tail(op_s: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that has
    at least TAIL_BEYOND samples beyond it; the maximum for smaller passes."""
    xs = sorted(op_s)
    k = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def measure_setup(workload: str, seed: int) -> float:
    """Median time to import hillband and build the specs, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_probe(workload: str, seed: int) -> None:
    ops = inputs.make_ops(workload, seed)
    start = time.perf_counter()
    inputs.build_specs(ops)
    print(repr(time.perf_counter() - start))


def untraced_metrics(args, ops, specs, ref) -> tuple[dict, int, int]:
    setup_s = measure_setup(args.workload, args.seed)
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        done = run_pass(args.workload, ops, specs)
        attempted += len(ops)
        failed += count_failures(args.workload, ops, done["answers"], ref)
        passes.append(done)
        if time.perf_counter() - start + done["wall_s"] > args.seconds:
            break
    tails = [tail(p["op_s"]) for p in passes]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(statistics.median(p["op_s"]) for p in passes),
        "op_tail_ms": 1e3 * statistics.median(t[0] for t in tails),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _, pct, beyond = tails[0]
    print(f"passes={len(passes)} ops/pass={len(ops)} setup repeats={SETUP_REPEATS}")
    print(f"op_tail_ms is p{pct:.1f} of each pass ({len(ops)} ops, {beyond} beyond), "
          "median over passes")
    return metrics, attempted, failed


def traced_metrics(args, ops, specs, ref) -> tuple[dict, int, int]:
    import tracing

    plain = run_pass(args.workload, ops, specs)
    failed = count_failures(args.workload, ops, plain["answers"], ref)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("potential.spec_build"):
            traced_specs = inputs.build_specs(ops)
        traced = run_pass(args.workload, ops, traced_specs)
    finally:
        tracer.uninstall()
    failed += count_failures(args.workload, ops, traced["answers"], ref)
    path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracing.write(path, {"workload": args.workload, "seed": args.seed},
                  [{"traced": False, "wall_s": plain["wall_s"]},
                   {"traced": True, "wall_s": traced["wall_s"]}], tracer.spans)
    print(f"spans={len(tracer.spans)} file={path.relative_to(ROOT)}")
    return tracing.derive(tracing.read(path)), 2 * len(ops), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hillband" / "__init__.py").is_file():
        print(f"error: no hillband sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import reference

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    ref = reference.load()["workloads"][args.workload]
    ops = inputs.make_ops(args.workload, args.seed)
    specs = inputs.build_specs(ops)
    measure = traced_metrics if args.trace else untraced_metrics
    print(f"hillband bench: workload={args.workload} seed={args.seed} trace={args.trace}")
    values, attempted, failed = measure(args, ops, specs, ref)

    metrics = {}
    for item in declared:
        metrics[item["name"]] = {"value": values[item["name"]], "unit": item["unit"]}
        print(f"  {item['name']:<48} {values[item['name']]:.6g} {item['unit']}")
    print(f"  {'fail_frac':<48} {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
