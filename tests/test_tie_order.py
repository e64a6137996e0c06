"""Tie-order harness: the run's guarantees hold whatever order same-instant
events run in.

The kernel runs same-instant events in schedule order, and every pinned
digest depends on that order.  Here the kernel's `_seq` key stream is
replaced by seeded random keys, which stay unique, so ties break at random
while events at different instants keep their order.  Each run must still
execute every id once, answer every processed request as the d=0 chain
does, leave routing consistent and account for every issued request.
"""

from __future__ import annotations

import itertools
import random

import pytest

from miserysim import experiment
from miserysim.experiment import ExperimentConfig, LatencyModel, run_experiment
from miserysim.sim import Simulation

SHAPES = {
    "d3k2-r10": dict(d=3, k=2, r=10.0),
    "d4k2-r5-s64": dict(d=4, k=2, r=5.0, s=64),
    "d3k3-r2-s32": dict(d=3, k=3, r=2.0, s=32),
}
# constant latencies put far more events at one instant than uniform ones
LATENCIES = {
    "uniform": LatencyModel(),
    "constant": LatencyModel(hop=(0.002, 0.002), api=(0.1, 0.1),
                             notify=(1.0, 1.0)),
}


def shuffled_ties(tie_seed: int) -> type[Simulation]:
    class ShuffledTies(Simulation):
        def __init__(self, seed: int = 0):
            super().__init__(seed)
            rng = random.Random(f"{tie_seed}/ties")
            self._seq = ((rng.random(), n) for n in itertools.count())
    return ShuffledTies


@pytest.mark.parametrize("latency", LATENCIES.values(), ids=LATENCIES.keys())
@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
@pytest.mark.parametrize("tie_seed", [1, 2])
def test_guarantees_hold_under_random_tie_order(monkeypatch, tie_seed, shape,
                                                latency):
    simulation = shuffled_ties(tie_seed)
    monkeypatch.setattr(experiment, "Simulation", simulation)
    result = run_experiment(ExperimentConfig(j=120.0, latency=latency, **shape))
    assert isinstance(result.sim, simulation)
    report = result.report
    assert report.transformations > 0
    assert report.processed + report.failed == report.issued

    counts = result.store.execution_counts()
    assert len(counts) >= report.processed
    assert all(n == 1 for n in counts.values())
    assert result.consistency == []

    monkeypatch.undo()    # the oracle runs on the stock kernel
    issued = sorted(result.log.of_kind("request.issued"), key=lambda r: r["i"])
    oracle = run_experiment(
        ExperimentConfig(d=0, k=0, j=120.0, latency=latency),
        replay=[r["command"] for r in issued])
    expected = {r["i"]: r["response"] for r in oracle.log.of_kind("request.done")
                if r["outcome"] == "processed"}
    answered = {r["i"]: r["response"] for r in result.log.of_kind("request.done")
                if r["outcome"] == "processed"}
    assert answered and all(expected[i] == response
                            for i, response in answered.items())
