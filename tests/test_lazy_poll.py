"""The poller's idle dialogue off the event heap writes what the heap writes.

At a wake where the poller can prove every RS empty, it replays as
arithmetic every whole idle cycle that surely ends before the next due
event, and schedules the wake of the first that might not as a heap event
(`PollingServerNode._replay` up to `Simulation.next_due()`).  With the idle
proof forced to fail, every cycle runs from the event heap.  Both runs must
write the same artifacts, byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from miserysim import reporting, target
from miserysim.experiment import ExperimentConfig, LatencyModel, run_experiment

ARTIFACTS = ("events.jsonl", "requests.csv", "summary.json")

# shapes, seeds, movement periods, think times and poll intervals; exact
# ties between the replay and other events are likeliest at a constant hop
GRID = {
    "d2k2-churn": dict(d=2, k=2, j=300.0, r=5.0, s=64, rng_seed=3),
    "d2k3-constant-hop": dict(d=2, k=3, j=200.0, r=10.0, s=16, rng_seed=6,
                              latency=LatencyModel(hop=(0.002, 0.002))),
    "d3k2-zero-hop": dict(d=3, k=2, j=200.0, r=10.0, s=16, rng_seed=9,
                          latency=LatencyModel(hop=(0.0, 0.0))),
    "d3k2-think0.77": dict(d=3, k=2, j=300.0, rng_seed=1, request_interval=0.77),
    "d3k2-m0.05": dict(d=3, k=2, j=200.0, rng_seed=2, m=0.05, request_interval=0.80),
    "d3k2-m0.3-r20": dict(d=3, k=2, j=300.0, r=20.0, s=16, rng_seed=7, m=0.3),
    "d3k3-m0.2": dict(d=3, k=3, j=150.0, rng_seed=4, m=0.2, request_interval=0.83),
    "d4k2-churn": dict(d=4, k=2, j=200.0, r=5.0, s=64, rng_seed=5,
                       request_interval=0.83),
    "d5k2": dict(d=5, k=2, j=150.0, r=10.0, s=32, rng_seed=8),
}


def heap_driven(monkeypatch):
    """Make every wake fail the idle proof, so the poller replays none."""
    monkeypatch.setattr(target.PollingServerNode, "_proven_idle",
                        lambda self: False)


def run(overrides, outdir):
    """Run like `miserysim run`; returns each artifact's digest and the
    number of events dispatched from the heap."""
    outdir.mkdir()
    result = run_experiment(ExperimentConfig(**overrides))
    result.log.dump(str(outdir / "events.jsonl"))
    reporting.emit_report(result.records, str(outdir))
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in ARTIFACTS}
    return digests, result.sim.events_processed


@pytest.mark.parametrize("name", sorted(GRID))
def test_the_lazy_poller_writes_the_heap_driven_artifacts(name, tmp_path, monkeypatch):
    lazy, lazy_events = run(GRID[name], tmp_path / "lazy")
    heap_driven(monkeypatch)
    stepwise, step_events = run(GRID[name], tmp_path / "stepwise")
    assert lazy == stepwise
    assert lazy_events < step_events, "no idle cycle ran off the heap"


def test_a_steady_run_dispatches_at_most_47_percent_of_the_heap_driven_events(
        tmp_path, monkeypatch):
    # the README shape; more than half of its heap-driven events are idle
    # polls.  The replay from the wake after a busy cycle brings it to 0.44;
    # replaying only after a cycle found every RS idle would give 0.53
    steady = dict(d=3, k=2, r=100.0, s=8, j=120.0, rng_seed=1,
                  request_interval=0.77)
    _, lazy_events = run(steady, tmp_path / "lazy")
    heap_driven(monkeypatch)
    _, step_events = run(steady, tmp_path / "stepwise")
    assert lazy_events <= 0.47 * step_events
