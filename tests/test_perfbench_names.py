"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name and reads node attributes such as `node.table.children`.  This runs it
around one short seeded run, so a renamed wrapped name fails here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from miserysim.experiment import ExperimentConfig, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
