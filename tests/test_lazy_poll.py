"""The poller's dialogue off the event heap writes what the heap writes.

Inside a cycle the poller runs inline each pure round trip (a list ask, or
a delivery no session waits on) that surely ends before the next due event,
`Simulation.next_due()`, and it sleeps inline between cycles up to it too,
so a run of idle cycles crosses no heap event.  With `next_due()` at -inf,
as between two runs, nothing runs inline and every poll message crosses the
event heap.  Both runs must write the same artifacts, byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from miserysim import reporting, target
from miserysim.cloud import Channel
from miserysim.experiment import ExperimentConfig, LatencyModel, run_experiment
from miserysim.sim import Simulation

ARTIFACTS = ("events.jsonl", "requests.csv", "summary.json")

# shapes, seeds, movement periods, think times and poll intervals; exact
# ties between an inline round trip and other events are likeliest at a
# constant hop
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
    # u under the serial cycle of 27 leaves: most sessions time out before
    # their delivery, so listings that hold ids and late deliveries run inline
    "d4k3-late": dict(d=4, k=3, j=60.0, r=10.0, s=16, u=0.15, rng_seed=10),
    "d4k3-late-constant-hop": dict(d=4, k=3, j=60.0, r=10.0, s=16, u=0.15,
                                   rng_seed=11,
                                   latency=LatencyModel(hop=(0.003, 0.003))),
}

# drawn configs beyond the grid, by random_config: 140 take about 12 s on
# two shared CPUs
RANDOM_CONFIGS = 140

# the kinds of round trip each case must run inline at least once
INLINE = {name: {"listing with ids", "late delivery"}
          for name in ("d4k3-late", "d4k3-late-constant-hop")}


def heap_driven(monkeypatch):
    """Make the next due event -inf, as between two runs, so the poller
    runs nothing inline: every message of its dialogue is a heap event."""
    monkeypatch.setattr(Simulation, "next_due", lambda self: -math.inf)


def recording_inline_trips(monkeypatch, kinds):
    """Add the kind of every round trip the poller runs inline to kinds: an
    RS-side listing or delivery that no channel delivery to the RS runs."""
    to_rs = []    # the channel deliveries to an RS end under way
    channel_deliver = Channel._deliver
    list_pending = target.RequestRegistry.list_pending
    deliver = target.RequestsServerNode.deliver

    def delivered_to(channel, data):
        to_rs.append(channel.server)
        try:
            channel_deliver(channel, data)
        finally:
            to_rs.pop()

    def listed(registry):
        listing = list_pending(registry)
        if not any(to_rs):
            kinds.add("listing with ids" if listing[0] else "empty listing")
        return listing

    def handed(node, corr, response):
        late = node.counters["late_deliveries"]
        deliver(node, corr, response)
        if not any(to_rs):
            kinds.add("late delivery" if node.counters["late_deliveries"] > late
                      else "unknown delivery")

    monkeypatch.setattr(Channel, "_deliver", delivered_to)
    monkeypatch.setattr(target.RequestRegistry, "list_pending", listed)
    monkeypatch.setattr(target.RequestsServerNode, "deliver", handed)


def stamping(monkeypatch, stamps):
    """Append (stage, clock, id) to stamps for each id a listing holds and
    each execution, as perfbench's tracer stamps them; no artifact shows
    the clock at these two steps."""
    sims = []
    init = Simulation.__init__
    list_pending = target.RequestRegistry.list_pending
    execute = target.BackendStore.execute

    def kept(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        sims.append(sim)

    def listed(registry):
        listing = list_pending(registry)
        stamps.extend(("listed", sims[-1].now, corr) for corr, _ in listing[0])
        return listing

    def executed(store, corr, payload):
        stamps.append(("executed", sims[-1].now, corr))
        return execute(store, corr, payload)

    monkeypatch.setattr(Simulation, "__init__", kept)
    monkeypatch.setattr(target.RequestRegistry, "list_pending", listed)
    monkeypatch.setattr(target.BackendStore, "execute", executed)


def run(overrides, outdir):
    """Run like `miserysim run`; returns each artifact's digest and the
    run's result."""
    outdir.mkdir()
    result = run_experiment(ExperimentConfig(**overrides))
    result.log.dump(str(outdir / "events.jsonl"))
    reporting.emit_report(result.records, str(outdir))
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in ARTIFACTS}
    return digests, result


@pytest.mark.parametrize("name", sorted(GRID))
def test_the_lazy_poller_writes_the_heap_driven_artifacts(name, tmp_path, monkeypatch):
    kinds, lazy_stamps, step_stamps = set(), [], []
    with monkeypatch.context() as patch:
        recording_inline_trips(patch, kinds)
        stamping(patch, lazy_stamps)
        lazy, lazy_result = run(GRID[name], tmp_path / "lazy")
    assert INLINE.get(name, set()) <= kinds
    heap_driven(monkeypatch)
    stamping(monkeypatch, step_stamps)
    stepwise, step_result = run(GRID[name], tmp_path / "stepwise")
    assert lazy == stepwise
    assert lazy_stamps == step_stamps
    assert (lazy_result.sim.events_processed
            < step_result.sim.events_processed), "nothing ran off the heap"


def random_config(i):
    """Config i of the random sweep: any shape up to d=5, k=3 (81 leaves),
    hop ranges from [0, 0] to [0.01, 0.03], constant hops included, and
    the other durations and the pool across their useful ranges."""
    rng = random.Random(i)
    lo = rng.choice((0.0, rng.uniform(0.0, 0.01)))
    hi = rng.choice((lo, lo + rng.uniform(0.0, 0.02)))
    return dict(d=rng.randint(2, 5), k=rng.randint(1, 3),
                j=rng.uniform(30.0, 300.0), r=rng.uniform(2.0, 60.0),
                u=rng.uniform(0.05, 2.0), m=rng.uniform(0.02, 0.5),
                s=rng.choice((0, 2, 8, 64)),
                request_interval=rng.uniform(0.3, 1.5), rng_seed=i,
                latency=LatencyModel(hop=(lo, hi)))


@pytest.mark.parametrize("i", range(RANDOM_CONFIGS))
def test_a_random_config_runs_lazily_as_heap_driven_and_keeps_the_invariants(
        i, tmp_path, monkeypatch):
    config = random_config(i)
    where = f"random config {i}: {config}"
    lazy, result = run(config, tmp_path / "lazy")
    counts = result.store.execution_counts()
    assert [corr for corr, n in counts.items() if n != 1] == [], where
    report = result.report
    assert report.processed + report.failed == report.issued, where
    assert result.consistency == [], where
    heap_driven(monkeypatch)
    stepwise, _ = run(config, tmp_path / "stepwise")
    assert lazy == stepwise, where


def test_a_steady_run_dispatches_at_most_28_5_percent_of_the_heap_driven_events(
        tmp_path, monkeypatch):
    # the README shape; more than half of its heap-driven events are poll
    # messages.  Running each pure round trip and each sleep that surely
    # ends before the next due event inline brings it to 3,384 / 11,893
    steady = dict(d=3, k=2, r=100.0, s=8, j=120.0, rng_seed=1,
                  request_interval=0.77)
    _, lazy = run(steady, tmp_path / "lazy")
    heap_driven(monkeypatch)
    _, stepwise = run(steady, tmp_path / "stepwise")
    assert lazy.sim.events_processed <= 0.285 * stepwise.sim.events_processed
