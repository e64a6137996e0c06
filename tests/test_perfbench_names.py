"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name and reads node attributes such as `node.table.children`, and its set-up
probe (perfbench/setup_probe.py) imports package names and calls
`Simulation.run_until` positionally.  This runs both against the package, so
a renamed or re-shaped name fails here."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from miserysim.experiment import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_live_names_and_stamps_every_request():
    tracer = load_tracing().Tracer()
    try:
        tracer.start_run()
        result = run_experiment(ExperimentConfig(d=3, k=2, j=30.0, rng_seed=1))
        problems = tracer.stop_run(result, 0)
    finally:
        tracer.run_profile.disable()
        tracer.uninstall()
    assert problems == []
    assert result.report.processed > 0
    counts = tracer.run_counts
    for key in ("multicaster.copies", "target.listings", "target.executions"):
        assert counts[key] > 0, key


def load_run():
    """perfbench/run.py as a module; its dataclasses need it registered."""
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


RUN = load_run()


@pytest.mark.parametrize("workload", sorted(RUN.WORKLOADS))
def test_the_setup_probe_times_each_workload_and_prints_one_float(workload):
    # the command perfbench/run.py times, in a fresh isolated interpreter
    proc = subprocess.run(
        [sys.executable, "-I", str(PERFBENCH / "setup_probe.py"), str(RUN.SRC),
         json.dumps(RUN.WORKLOADS[workload])],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    assert float(line) > 0
