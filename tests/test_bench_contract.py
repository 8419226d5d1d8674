"""The bench tracer resolves every function in bench/layers.json by name,
one in-process pass of each bench workload matches bench/reference.json, and
a traced arcs run reports its counters."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.json"


def test_every_traced_function_exists():
    layers = json.loads(LAYERS.read_text())["layers"]
    missing = [
        f"{layer['module']}.{attr}"
        for layer in layers.values()
        for attr in layer["functions"]
        if not callable(getattr(importlib.import_module(layer["module"]), attr, None))
    ]
    assert not missing, f"bench/layers.json names missing functions: {missing}"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py imported in-process; its thread pins and path edits are
    undone when the module's tests end."""
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(BENCH), *sys.path]):
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        yield run


@pytest.mark.parametrize("workload", ["sweep", "verify", "arcs"])
def test_one_pass_matches_reference(bench_run, workload):
    # (3,2,3,3), (3,3,2,3) and (3,3,3,2) at tau = 1.7i hold band-edge pairs
    # 8e-4 apart that a small move of Q's nodes turns into a complex pair;
    # such a move shows here before a bench run
    ops = bench_run.inputs.make_ops(workload, 3)
    done = bench_run.run_pass(workload, ops, bench_run.inputs.build_specs(ops))
    ref = json.loads((BENCH / "reference.json").read_text())["workloads"][workload]
    assert bench_run.count_failures(workload, ops, done["answers"], ref) == 0


def test_traced_arcs_pass():
    # the tracer reads ArcSet.num_points() and stability_region's resolution
    # argument; the traced run is the one place that reads them
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "arcs", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    assert report["correct"] is True and report["failed"] == 0
    assert metrics["spectrum.arc_grid_points"] == 102400
    assert metrics["floquet.discriminant_batch.calls"] == 2
