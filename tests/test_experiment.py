"""Experiment config, workload causality, and the end-to-end runner."""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from dataclasses import asdict

import pytest

from miserysim.errors import ConfigError
from miserysim.eventlog import serialize_record
from miserysim.experiment import (
    DRAIN,
    MAX_INSTANCES,
    MAX_MOVEMENT_CYCLES,
    MAX_POLL_CYCLES,
    ExperimentConfig,
    LatencyModel,
    LoadGenerator,
    WorkloadGenerator,
    build_experiment_digraph,
    run_experiment,
)
from miserysim.target import RequestsServerNode

KEY = re.compile(r"k(\d{5})")


# --- build -------------------------------------------------------------------

# SHA-256 of the digraph document `miserysim build` writes (sorted keys)
BUILD_DIGESTS = {
    (3, 2): "4974856d61776e6bcd9c299dce6798e2be6ab45d13bb6dc65249f512d8e10e6e",
    (4, 2): "45d66e19c9a722657349af3311d741e857b3c53784bc039e6918871dcc890864",
    (5, 3): "81ad0bb4c5d456314f83253456b2873c0a46cd1a15a8da99015978d29f65bc7c",
}


@pytest.mark.parametrize("shape", sorted(BUILD_DIGESTS))
def test_build_output_is_pinned(shape):
    d, k = shape
    doc = build_experiment_digraph(ExperimentConfig(d=d, k=k)).to_json_dict()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == BUILD_DIGESTS[shape]


# --- config -------------------------------------------------------------------

def test_config_round_trips_through_json():
    cfg = ExperimentConfig(d=4, k=3, j=120.0, r=10.0, rng_seed=7,
                           n_requests=50,
                           latency=LatencyModel(hop=(0.002, 0.004)))
    assert ExperimentConfig.from_json_dict(asdict(cfg)) == cfg


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        ExperimentConfig(d=0, k=2).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(d=1, k=2).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(d=3, k=0).validate()
    ExperimentConfig(d=0, k=0).validate()


def test_config_rejects_bad_durations_and_counts():
    for overrides in ({"j": 0.0}, {"r": -1.0}, {"u": 0.0}, {"m": 0.0},
                      {"request_interval": 0.0}, {"s": -1},
                      {"compress": -0.5}, {"n_requests": 0},
                      {"j": float("nan")}, {"r": float("nan")},
                      {"u": float("inf")}, {"m": float("nan")},
                      {"request_interval": float("inf")},
                      {"compress": float("inf")},
                      # wrong types; bool subclasses int but is no number here
                      {"d": 3.0}, {"k": True}, {"s": "8"}, {"rng_seed": 1.5},
                      {"n_requests": 5.0}, {"j": "600"}, {"u": True},
                      {"compress": None}):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides).validate()


def test_config_rejects_a_poll_interval_the_clock_cannot_add():
    # with zero hop latency a poll cycle takes no time, so an m below half
    # an ulp of t=300 would wake the poller at one instant forever
    with pytest.raises(ConfigError, match="poll interval"):
        ExperimentConfig(d=2, k=2, j=10, m=1e-14,
                         latency=LatencyModel(hop=(0.0, 0.0))).validate()
    # m = 1e-12 advances the clock, but its 1.5e13 poll cycles are over the
    # cap; an m whose cycles are just under the cap validates
    m_at_cap = (10 + 2 * 1.0 + 0.8 + DRAIN) / MAX_POLL_CYCLES
    for m in (1e-12, m_at_cap * 0.999):
        with pytest.raises(ConfigError, match="poll cycles, above the cap"):
            ExperimentConfig(d=2, k=2, j=10, m=m,
                             latency=LatencyModel(hop=(0.0, 0.0))).validate()
    ExperimentConfig(d=2, k=2, j=10, m=m_at_cap * 1.001,
                     latency=LatencyModel(hop=(0.0, 0.0))).validate()


def test_the_poll_cycle_cap_counts_the_tail_of_an_empty_pool():
    # with s=0 the last movement cycle, which may start at j, waits out two
    # provisioning runs and six API calls, and the run waits for its tables
    zero_hop = LatencyModel(hop=(0.0, 0.0))
    span = 10 + 2 * 1.0 + 0.8 + DRAIN
    tail = 2 * 300.0 + 6 * 0.2 + 1.5
    m = span / MAX_POLL_CYCLES * 1.001
    ExperimentConfig(d=2, k=2, j=10, m=m, s=1, latency=zero_hop).validate()
    with pytest.raises(ConfigError, match=r"\+ 2 provisioning \+ 6 api_hi "
                                          r"\+ notify_hi\) / \(m \+ 2 hop_lo\)"):
        ExperimentConfig(d=2, k=2, j=10, m=m, s=0, latency=zero_hop).validate()
    ExperimentConfig(d=2, k=2, j=10, m=(span + tail) / MAX_POLL_CYCLES * 1.001,
                     s=0, latency=zero_hop).validate()
    # the plain chain runs no movement, so it has no tail
    ExperimentConfig(d=0, k=0, j=10, m=m, s=0, latency=zero_hop).validate()


def test_config_rejects_a_movement_period_the_clock_cannot_add():
    # a skipped cycle takes no time, so once next_t + r == next_t the
    # movement loop schedules its next cycle at one instant forever
    with pytest.raises(ConfigError, match="movement period r=1e-300"):
        ExperimentConfig(j=20, r=1e-300, s=2).validate()
    # r = 1e-12 advances the clock, but its 2e13 cycles are over the cap
    r_at_cap = 20 / MAX_MOVEMENT_CYCLES
    for r in (1e-12, r_at_cap * 0.999):
        with pytest.raises(ConfigError, match="movement cycles, above the cap"):
            ExperimentConfig(j=20, r=r, s=2).validate()
    ExperimentConfig(j=20, r=r_at_cap * 1.001, s=2).validate()


@pytest.mark.parametrize("d, k", [(17, 2), (28, 2), (10**9, 1), (3, 10**9)])
def test_config_caps_the_instances_of_a_shape(d, k):
    # counted layer by layer and stopped past the cap, so a huge d or k
    # costs no more than a small one
    with pytest.raises(ConfigError, match="instances"):
        ExperimentConfig(d=d, k=k).validate()


def test_config_accepts_a_shape_just_under_the_instance_cap():
    ExperimentConfig(d=16, k=2).validate()     # 2**16 - 1 = 65,535 instances
    # the s standbys count too: d=3 k=2 is 7 instances before them
    ExperimentConfig(d=3, k=2, s=MAX_INSTANCES - 7).validate()
    with pytest.raises(ConfigError, match=r"plus s\), above the cap"):
        ExperimentConfig(d=3, k=2, s=MAX_INSTANCES - 6).validate()


@pytest.mark.parametrize("shape", [
    {}, dict(j=600.0, request_interval=0.77),
    dict(d=5, k=3, j=300.0, request_interval=0.77),
    dict(d=4, k=2, r=5.0, s=64, j=600.0, request_interval=0.83),
], ids=["default", "steady", "wide", "churn"])
def test_the_default_and_the_benchmark_shapes_validate(shape):
    ExperimentConfig(**shape).validate()


def test_config_file_rejects_wrongly_typed_values():
    for doc in ({"hop": 5}, {"api": [0.1]}, {"notify": [0.5, "1"]},
                {"hop": [0, True]}, {"provisioning": "300"}):
        with pytest.raises(ConfigError):
            LatencyModel.from_json_dict(doc)
    for doc in ([], {"latency": 5}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(doc)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"d": 3, "w": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"latency": {"hop": [0, 0.01],
                                                     "jitter": [0, 1]}})


def test_latency_validation():
    with pytest.raises(ConfigError):
        LatencyModel(hop=(0.005, 0.001)).validate()
    with pytest.raises(ConfigError):
        LatencyModel(notify=(-0.1, 0.5)).validate()
    with pytest.raises(ConfigError):
        LatencyModel(provisioning=-1.0).validate()
    for bad in ({"hop": (0.001, float("inf"))}, {"api": (float("nan"), 0.1)},
                {"notify": (0.0, float("nan"))},
                {"provisioning": float("nan")}, {"provisioning": float("inf")},
                # wrong types in a model built in code
                {"hop": ("a", "b")}, {"api": (0.1,)}):
        with pytest.raises(ConfigError):
            LatencyModel(**bad).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(latency={"hop": (0.001, 0.005)}).validate()


def test_overrides_skip_none():
    cfg = ExperimentConfig()
    out = cfg.with_overrides(d=4, k=None, rng_seed=9)
    assert (out.d, out.k, out.rng_seed) == (4, 2, 9)
    assert cfg.d == 3


# --- workload causality ---------------------------------------------------------

def drive(seed: int, n: int, fail_at=frozenset()) -> list[str]:
    gen = WorkloadGenerator(seed)
    commands = []
    for i in range(n):
        commands.append(gen.next(i))
        gen.record_outcome(i, i not in fail_at)
    return commands


def test_workload_is_deterministic_given_outcomes():
    assert drive(11, 300) == drive(11, 300)
    assert drive(11, 300) != drive(12, 300)
    # outcomes feed back into eligibility, so they shape the stream
    assert drive(11, 300) != drive(11, 300, fail_at=frozenset(range(0, 120, 3)))


def test_workload_writes_are_fresh_and_unique():
    commands = drive(5, 500)
    put_keys = [c.split()[1] for c in commands if c.startswith("PUT")]
    assert len(set(put_keys)) == len(put_keys)
    for i, command in enumerate(commands):
        if command.startswith("PUT"):
            assert command == f"PUT k{i:05d} v{i:05d}"
    # nothing is eligible to read until MIN_AGE confirmed writes exist
    assert all(c.startswith("PUT") for c in commands[:WorkloadGenerator.MIN_AGE])


def test_workload_reads_only_settled_confirmed_keys():
    commands = drive(5, 800)
    written_at: dict[str, int] = {}
    deleted: set[str] = set()
    for i, command in enumerate(commands):
        op, key = command.split()[0], command.split()[1]
        if op == "PUT":
            written_at[key] = i
        else:
            assert key in written_at, command
            assert key not in deleted, command
            assert i - written_at[key] >= WorkloadGenerator.MIN_AGE
            if op == "DEL":
                deleted.add(key)


def test_workload_quarantines_failed_writes():
    fail_at = frozenset(range(0, 400, 7))
    commands = drive(5, 400, fail_at=fail_at)
    poisoned = {c.split()[1] for i, c in enumerate(commands)
                if c.startswith("PUT") and i in fail_at}
    for i, command in enumerate(commands):
        if not command.startswith("PUT"):
            assert command.split()[1] not in poisoned


class EagerWorkload(WorkloadGenerator):
    """The rule as first written: the eligible keys built for every roll."""

    def next(self, i: int) -> str:
        roll = self._rng.random()
        eligible = self._eligible(i)
        if roll < 0.9 or not eligible:
            if roll < 0.6 or not eligible:
                key = f"k{i:05d}"
                self._outstanding[i] = ("PUT", key)
                return f"PUT {key} v{i:05d}"
            key = self._rng.choice(eligible)
            self._outstanding[i] = ("GET", key)
            return f"GET {key}"
        key = self._rng.choice(eligible)
        self._outstanding[i] = ("DEL", key)
        return f"DEL {key}"


@pytest.mark.parametrize("seed", [0, 7])
def test_workload_builds_the_eligible_keys_only_for_reads_and_deletes(seed):
    lazy, eager = WorkloadGenerator(seed), EagerWorkload(seed)
    outcomes = random.Random(f"{seed}/outcomes")
    rolls, scans = [], []
    roll, eligible = lazy._rng.random, lazy._eligible
    lazy._rng.random = lambda: rolls.append(roll()) or rolls[-1]
    lazy._eligible = lambda i: scans.append(i) or eligible(i)
    for i in range(3000):
        assert lazy.next(i) == eager.next(i), f"request {i}"
        processed = outcomes.random() < 0.8
        lazy.record_outcome(i, processed)
        eager.record_outcome(i, processed)
    # only a roll of 0.6 or more reads the eligible keys
    assert len(scans) == sum(r >= 0.6 for r in rolls) < 1500


@pytest.mark.parametrize("seed, failure_rate, max_lag", [
    (0, 0.2, 0), (3, 0.05, 0), (7, 0.5, 0), (11, 0.2, 4)])
def test_eligible_keys_equal_the_age_scan_at_every_read(seed, failure_rate, max_lag):
    # the keys _eligible drops must be exactly those the full age test
    # rejects, in the same order, whatever the outcomes; max_lag > 0 holds
    # up to that many outcomes back and records them in random order
    gen = WorkloadGenerator(seed)
    outcomes = random.Random(f"{seed}/outcomes")
    eligible, reads = gen._eligible, []

    def checked(i):
        got = eligible(i)
        assert got == [k for k, last in gen._live.items()
                       if i - last >= gen.MIN_AGE], f"request {i}"
        reads.append(len(got))
        return got

    gen._eligible = checked
    held = []
    for i in range(4000):
        gen.next(i)
        held.append(i)
        while len(held) > outcomes.randint(0, max_lag):
            j = held.pop(outcomes.randrange(len(held)))
            gen.record_outcome(j, outcomes.random() >= failure_rate)
    assert len(reads) > 1000 and max(reads) > 100


def test_workload_mix_is_roughly_sixty_thirty_ten():
    commands = drive(3, 2000)
    ops = [c.split()[0] for c in commands]
    assert 0.55 < ops.count("PUT") / len(ops) < 0.75
    assert 0.18 < ops.count("GET") / len(ops) < 0.38
    assert 0.04 < ops.count("DEL") / len(ops) < 0.16


# --- the runner ------------------------------------------------------------------

def test_load_generator_needs_exactly_one_source():
    with pytest.raises(ValueError):
        LoadGenerator(None, "10.0.0.1", ExperimentConfig())
    with pytest.raises(ValueError):
        LoadGenerator(None, "10.0.0.1", ExperimentConfig(),
                      workload=WorkloadGenerator(0), replay=["PUT a b"])


def test_run_caps_at_n_requests():
    cfg = ExperimentConfig(n_requests=12, j=60.0, rng_seed=3)
    result = run_experiment(cfg)
    done = result.log.of_kind("request.done")
    assert len(done) == 12
    assert [r["i"] for r in done] == list(range(12))
    assert result.consistency == []
    assert result.log.records[0]["kind"] == "experiment.config"
    assert result.log.records[-1]["kind"] == "experiment.summary"
    assert result.report.issued == 12


def test_processed_requests_carry_store_replies():
    cfg = ExperimentConfig(n_requests=15, j=60.0, rng_seed=1)
    result = run_experiment(cfg)
    issued = {r["i"]: r["command"] for r in result.log.of_kind("request.issued")}
    for record in result.log.of_kind("request.done"):
        assert record["outcome"] == "processed"
        assert record["status"] == 200
        command = issued[record["i"]]
        op, key = command.split()[0], command.split()[1]
        expected = f"VAL v{KEY.fullmatch(key).group(1)}" if op == "GET" else "OK"
        assert record["response"] == expected
        assert re.fullmatch(r"[0-9a-f]{32}", record["corr"])
        assert 0 < record["latency"] <= cfg.u


def assert_matches_d0_replay(misery) -> None:
    """Every processed response of a misery run equals the d=0 chain's
    replay of its commands, and the store executed every id once."""
    cfg = misery.config
    issued = sorted(misery.log.of_kind("request.issued"), key=lambda r: r["i"])
    commands = [r["command"] for r in issued]

    oracle = run_experiment(
        ExperimentConfig(d=0, k=0, n_requests=len(commands), j=600.0,
                         rng_seed=cfg.rng_seed, latency=cfg.latency),
        replay=commands)
    oracle_done = {r["i"]: r for r in oracle.log.of_kind("request.done")}
    assert all(r["outcome"] == "processed" for r in oracle_done.values())

    processed = [r for r in misery.log.of_kind("request.done")
                 if r["outcome"] == "processed"]
    assert processed
    for record in processed:
        assert record["response"] == oracle_done[record["i"]]["response"]

    # the store executed every correlation id at most once
    counts = misery.store.execution_counts()
    assert counts and all(n == 1 for n in counts.values())


def test_normal_chain_differential_oracle():
    cfg = ExperimentConfig(d=3, k=2, n_requests=40, j=120.0, r=10.0,
                           rng_seed=6)
    assert_matches_d0_replay(run_experiment(cfg))


# constant hop, api and notify latencies: sums of equal delays meet, so
# same-instant events are common, and ties run in schedule order
TIED = LatencyModel(hop=(0.003, 0.003), api=(0.1, 0.1), notify=(1.0, 1.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shape", [dict(d=3, k=2, r=10.0),
                                   dict(d=4, k=2, r=5.0, s=64)],
                         ids=["d3", "d4-churn"])
def test_constant_latency_ties_keep_exactly_once_and_oracle_responses(shape, seed):
    misery = run_experiment(ExperimentConfig(j=120.0, rng_seed=seed,
                                             latency=TIED, **shape))
    times = [r["t"] for r in misery.log.records]
    assert len(set(times)) < len(times)
    assert misery.report.transformations > 0
    assert misery.consistency == []
    assert_matches_d0_replay(misery)


def test_churn_run_leaves_no_answered_entries_at_the_leaves():
    # a delivered entry leaves its RS, so a long churn run holds nothing at
    # the end, and the poller keeps no state for replaced leaves beyond links
    result = run_experiment(ExperimentConfig(d=4, k=2, r=5.0, s=64, j=300.0,
                                             rng_seed=1))
    deployment = result.deployment
    leaves = [node for node in deployment.runtimes.values()
              if isinstance(node, RequestsServerNode)]
    assert len(leaves) == 8
    assert all(node.registry.pending == {} for node in leaves)
    assert result.report.transformations > 0
    ps = deployment.runtimes[deployment.digraph.target]
    assert set(ps._links) <= {node.id for node in leaves}
    assert {rs_id for rs_id, _ in ps.table.children} == {node.id for node in leaves}
    counters = result.log.records[-1]["counters"]
    assert "unknown_deliveries" not in counters


def lines(log):
    """The events.jsonl lines of a run's log."""
    return [serialize_record(record) for record in log.records]


def test_paced_run_emits_the_free_run_records():
    # pacing throttles the wall clock only; the simulated run is the same
    cfg = ExperimentConfig(n_requests=10, j=60.0, r=5.0, rng_seed=2)
    free = run_experiment(cfg)
    t0 = time.monotonic()
    paced = run_experiment(cfg.with_overrides(compress=200.0))
    elapsed = time.monotonic() - t0
    assert paced.log.records[0]["config"]["compress"] == 200.0
    assert lines(paced.log)[1:] == lines(free.log)[1:]
    # compress is simulated seconds per wall-clock second
    issued = paced.log.of_kind("request.issued")
    done = paced.log.of_kind("request.done")
    assert elapsed >= (done[-1]["t"] - issued[0]["t"]) / 200.0


def test_same_seed_reproduces_event_log():
    cfg = ExperimentConfig(n_requests=20, j=60.0, r=15.0, rng_seed=4)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert lines(a.log) == lines(b.log)
    c = run_experiment(cfg.with_overrides(rng_seed=5))
    assert lines(a.log) != lines(c.log)
