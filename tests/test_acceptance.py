"""End-to-end acceptance checks.

Each test verifies one system-level commitment and prints a single verdict
line (visible in the live test output) of the form:

    [acceptance] <name>: PASS (<evidence>)

The batch of seeded throughput runs is shared between the ordering check and
the failure-attribution check so the expensive simulations run once.
"""

from __future__ import annotations

import json
import statistics
import time
from types import SimpleNamespace

import pytest

from miserysim import reporting, wire
from miserysim.addresses import AddressRecord, AddressServer
from miserysim.attacker import Strategy, simulate_attacker
from miserysim.cli import main as cli_main
from miserysim.cloud import CloudProvider, ImageKind, InstanceState
from miserysim.deploy import deploy_misery
from miserysim.eventlog import EventLog
from miserysim.experiment import ExperimentConfig, run_experiment
from miserysim.movement import MovementManager
from miserysim.sim import Simulation
from miserysim.target import (
    BackendStore,
    PollingServerNode,
    RequestsServerNode,
)
from miserysim.topology import (
    PUBLIC_INTERNET,
    FirewallRule,
    MiseryDigraphSpec,
    build_misery_digraph,
    derive_firewall_rules,
)
from signtest import sign_test


def announce(capsys, name: str, ok: bool, evidence: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({evidence})")


def make_digraph(d: int, k: int):
    return build_misery_digraph(MiseryDigraphSpec(d, k))


# --- 1: topology invariants across the whole shape grid -------------------------

def test_topology_invariants_across_shape_grid(capsys):
    t_start = time.monotonic()
    checked = 0
    for d in range(2, 6):
        for k in range(1, 4):
            digraph = make_digraph(d, k)
            digraph.validate()
            for layer_no in range(1, d + 1):
                assert len(digraph.layer(layer_no)) == k ** (layer_no - 1)
            # tree property: every non-root node has exactly one parent
            edges = {(p, c) for i in range(1, d)
                     for p in digraph.layer(i) for c in digraph.children_of(p)}
            children = [c for _, c in edges]
            assert len(children) == len(set(children))
            assert len(edges) == sum(k ** i for i in range(1, d))
            rules = derive_firewall_rules(digraph)
            # target isolation: no inbound rule; polls go outward only
            assert all(r.dst != digraph.target for r in rules)
            # round trip: the rule set alone recovers the tree edges exactly
            recovered = {(r.src, r.dst) for r in rules
                         if r.src not in (PUBLIC_INTERNET, digraph.target)}
            assert recovered == edges
            checked += 1
    elapsed = time.monotonic() - t_start
    ok = checked == 12 and elapsed < 5.0
    announce(capsys, "topology-invariants", ok,
             f"{checked} shapes, round trip exact, {elapsed:.2f}s")
    assert ok


# --- 2: exactly-once execution and differential responses ------------------------

def test_exactly_once_against_differential_oracle(capsys):
    t_start = time.monotonic()
    cfg = ExperimentConfig(d=3, k=2, j=1500.0, r=100.0, n_requests=1000,
                           rng_seed=11)
    misery = run_experiment(cfg)
    issued = sorted(misery.log.of_kind("request.issued"), key=lambda r: r["i"])
    commands = [r["command"] for r in issued]
    assert len(commands) == 1000

    oracle = run_experiment(
        ExperimentConfig(d=0, k=0, j=1500.0, n_requests=1000, rng_seed=11),
        replay=commands)
    oracle_done = {r["i"]: r for r in oracle.log.of_kind("request.done")}
    oracle_clean = all(r["outcome"] == "processed"
                       for r in oracle_done.values())

    counts = misery.store.execution_counts()
    exactly_once = bool(counts) and all(n == 1 for n in counts.values())

    compared = mismatched = 0
    for record in misery.log.of_kind("request.done"):
        if record["outcome"] != "processed":
            continue
        compared += 1
        if record["response"] != oracle_done[record["i"]]["response"]:
            mismatched += 1

    elapsed = time.monotonic() - t_start
    ok = (exactly_once and oracle_clean and compared > 900
          and mismatched == 0 and elapsed < 30.0)
    announce(capsys, "exactly-once-delivery", ok,
             f"{len(counts)} ids executed once, {compared} responses matched, "
             f"{mismatched} mismatches, {elapsed:.1f}s")
    assert ok


# --- 3 + 8: the shared seeded batch ----------------------------------------------

SEEDS = range(20)
BASE = dict(j=600.0, r=100.0, u=1.0, m=0.1, s=8, request_interval=0.8)
SHAPES = {"normal": dict(d=0, k=0), "d3": dict(d=3, k=2), "d4": dict(d=4, k=2)}


def summarize_run(result) -> dict:
    report = result.report
    windows = [(w.t0, w.t1)
               for w in reporting.windows_from_records(result.records)]
    dones = [(r["issued_at"], r["outcome"] == "processed")
             for r in result.log.of_kind("request.done")]
    return {"issued": report.issued, "processed": report.processed,
            "failed": report.failed, "windows": windows, "dones": dones}


@pytest.fixture(scope="module")
def batch():
    t_start = time.monotonic()
    out = {}
    for name, shape in SHAPES.items():
        out[name] = [summarize_run(run_experiment(
            ExperimentConfig(rng_seed=seed, **BASE, **shape)))
            for seed in SEEDS]
    return SimpleNamespace(runs=out, elapsed=time.monotonic() - t_start)


def test_throughput_ordering_with_clean_baseline(capsys, batch):
    medians = {name: statistics.median(r["processed"] for r in rows)
               for name, rows in batch.runs.items()}
    baseline_failed = sum(r["failed"] for r in batch.runs["normal"])
    baseline_issued = sum(r["issued"] for r in batch.runs["normal"])
    failure_fraction = baseline_failed / baseline_issued
    conservation = all(r["processed"] + r["failed"] == r["issued"]
                       for rows in batch.runs.values() for r in rows)
    ok = (medians["normal"] > medians["d3"] > medians["d4"]
          and failure_fraction <= 0.021 + 0.01
          and conservation
          and batch.elapsed < 120.0)
    announce(capsys, "throughput-ordering", ok,
             f"median processed {medians['normal']:.0f} > {medians['d3']:.0f} "
             f"> {medians['d4']:.0f}, baseline failures "
             f"{failure_fraction:.2%}, {batch.elapsed:.1f}s for 60 runs")
    assert ok


def test_failures_concentrate_in_transformation_windows(capsys, batch):
    greater = less = 0
    for name in ("d3", "d4"):
        for row in batch.runs[name]:
            in_n = in_fail = out_n = out_fail = 0
            for issued_at, processed in row["dones"]:
                covered = any(t0 <= issued_at <= t1
                              for t0, t1 in row["windows"])
                if covered:
                    in_n += 1
                    in_fail += 0 if processed else 1
                else:
                    out_n += 1
                    out_fail += 0 if processed else 1
            if in_n == 0 or out_n == 0:
                continue
            window_rate = in_fail / in_n
            ambient_rate = out_fail / out_n
            if window_rate > ambient_rate:
                greater += 1
            elif window_rate < ambient_rate:
                less += 1
    p = sign_test(greater, less)
    ok = greater + less >= 10 and p < 0.05
    announce(capsys, "failure-attribution", ok,
             f"window rate above ambient in {greater}/{greater + less} "
             f"runs, sign test p={p:.2e}")
    assert ok


# --- 12: the depth ordering at every think time ---------------------------------

THINKS = (0.77, 0.80, 0.83)
PHASE_SEEDS = range(3)


def test_depth_ordering_holds_at_every_think_time(capsys):
    # the batch above thinks 0.8 s in every run, and one closed-loop client
    # processes about j / (think + latency): paired by seed and think time,
    # d=3 must beat d=4 at each think time, not at one phase only
    t_start = time.monotonic()
    diffs = {}
    for think in THINKS:
        for seed in PHASE_SEEDS:
            d3, d4 = (run_experiment(ExperimentConfig(
                rng_seed=seed, **{**BASE, "request_interval": think},
                d=d, k=2)).report.processed for d in (3, 4))
            diffs[think, seed] = d3 - d4
    elapsed = time.monotonic() - t_start
    held = sum(diff > 0 for diff in diffs.values())
    ok = held == len(diffs)
    smallest = ", ".join(
        f"{min(diffs[think, seed] for seed in PHASE_SEEDS):+d} at {think:.2f}s"
        for think in THINKS)
    announce(capsys, "depth-ordering-by-think-time", ok,
             f"d=3 > d=4 in {held}/{len(diffs)} (seed, think) pairs, smallest "
             f"difference {smallest}, {elapsed:.1f}s for {2 * len(diffs)} runs")
    assert ok


# --- 4: transformation cycles preserve the shape -----------------------------------

def test_transformation_cycles_preserve_isomorphism(capsys):
    t_start = time.monotonic()
    sim = Simulation(21)
    log = EventLog()
    provider = CloudProvider(sim, log, provisioning_latency=2.0)
    addresses = AddressServer(sim, log)
    counters = provider.counters
    task = sim.spawn(deploy_misery(provider, addresses, make_digraph(4, 2),
                                   u=1.0, m=1.0, s=8))
    deployment = sim.run_until(task.future)
    manager = MovementManager(deployment, 100.0)

    problems: list[str] = []
    for cycle in range(100):
        sim.run_until(sim.spawn(manager._cycle()).future)
        sim.run(until=sim.now + 4.0)   # notifications and pool replenishment
        digraph = deployment.digraph
        digraph.validate()
        for layer_no in range(1, 5):
            if len(digraph.layer(layer_no)) != 2 ** (layer_no - 1):
                problems.append(f"cycle {cycle}: layer {layer_no} width")
        if digraph.layer(1) != ("web",) or digraph.target != "db":
            problems.append(f"cycle {cycle}: edge of the digraph moved")
        if deployment.consistency_check():
            problems.append(f"cycle {cycle}: inconsistent routing")
        for owner in sorted(addresses.dump()):
            for node, address in addresses.lookup(owner).children:
                inst = provider.instances[node]
                if inst.state is not InstanceState.RUNNING:
                    problems.append(f"cycle {cycle}: stale address {node}")
                elif inst.address != address:
                    problems.append(f"cycle {cycle}: wrong address {node}")

    for event in log.of_kind("movement"):
        if not 2 <= event["layer"] <= 4:
            problems.append(f"cycle {event['cycle']}: touched layer {event['layer']}")
    elapsed = time.monotonic() - t_start
    ok = (not problems and counters.get("transformations") == 100
          and elapsed < 30.0)
    announce(capsys, "transformation-correctness", ok,
             f"{counters.get('transformations', 0)} cycles isomorphic, "
             f"sweep clean, {elapsed:.1f}s")
    assert ok, problems[:5]


# --- 5: movement delays the modeled intruder -----------------------------------------

def test_switching_delays_attacker(capsys):
    t_start = time.monotonic()
    seeds = range(1000)
    results = {}
    for d in (3, 4):
        static = simulate_attacker(d, 3, hop_time=1.0,
                                   strategy=Strategy.UNIFORM_CHILD,
                                   r=None, seeds=seeds)
        moving = simulate_attacker(d, 3, hop_time=1.0,
                                   strategy=Strategy.UNIFORM_CHILD,
                                   r=0.5, seeds=seeds)
        greater = sum(1 for a, b in zip(moving, static) if a > b)
        less = sum(1 for a, b in zip(moving, static) if a < b)
        results[d] = {"static": statistics.median(static),
                      "moving": statistics.median(moving),
                      "p": sign_test(greater, less)}
    elapsed = time.monotonic() - t_start
    ok = (all(v["moving"] > v["static"] for v in results.values())
          and all(v["p"] < 0.01 for v in results.values())
          and results[4]["moving"] >= results[3]["moving"]
          and elapsed < 60.0)
    announce(capsys, "attacker-delay", ok,
             f"medians static {results[3]['static']:.0f}/"
             f"{results[4]['static']:.0f}, moving {results[3]['moving']:.2f}/"
             f"{results[4]['moving']:.2f}, p {results[3]['p']:.1e}/"
             f"{results[4]['p']:.1e}, {elapsed:.1f}s")
    assert ok


# --- 6: cross-leaf dedup --------------------------------------------------------------

def corr_of(n: int) -> bytes:
    return n.to_bytes(16, "big")


def test_duplicate_collapse(capsys):
    t_start = time.monotonic()
    sim = Simulation(0)
    log = EventLog()
    provider = CloudProvider(sim, log, provisioning_latency=0.5)
    store = BackendStore()
    provider.create_instance(ImageKind.POLLING_TARGET, instance_id="db")
    nodes = []
    for i in range(4):
        rs_id = f"rs{i}"
        provider.create_instance(ImageKind.REQUESTS_SERVER, instance_id=rs_id)
        provider.rewrite_rules([], [FirewallRule("db", rs_id, 3306)])
        node = RequestsServerNode(provider, rs_id, 5.0)
        provider.bind(rs_id, 3306, on_channel=node.on_poll_channel)
        nodes.append(node)
    sim.run(until=1.0)
    dup = corr_of(99)
    answers = []
    for node in nodes:
        node.open_session(dup, b"PUT shared 1", answers.append)
    leaves = tuple((f"rs{i}", provider.instance(f"rs{i}").address)
                   for i in range(4))
    ps = PollingServerNode(provider, "db", store, 0.05,
                           table=AddressRecord("db", 1, leaves))
    ps.start()
    sim.run(until=sim.now + 2.0)
    # a delivered entry leaves its RS's registry
    deliveries = sum(1 for node in nodes if dup not in node.registry.pending)
    dedup_ok = (store.execution_counts() == {dup: 1} and deliveries == 4
                and answers == [wire.encode_response(dup, b"OK")] * 4)

    elapsed = time.monotonic() - t_start
    ok = dedup_ok and elapsed < 10.0
    announce(capsys, "dedup", ok,
             f"1 execution with {deliveries} deliveries, {elapsed:.2f}s")
    assert ok


# --- 7: byte-identical reruns ------------------------------------------------------------

def test_same_seed_runs_are_byte_identical(capsys, tmp_path):
    t_start = time.monotonic()
    dirs = [tmp_path / "a", tmp_path / "b"]
    for outdir in dirs:
        code = cli_main(["run", "--seed", "42", "--outdir", str(outdir)])
        assert code == 0
    identical = []
    for name in ("events.jsonl", "requests.csv", "summary.json"):
        blobs = [(d / name).read_bytes() for d in dirs]
        identical.append(blobs[0] == blobs[1] and len(blobs[0]) > 0)
    elapsed = time.monotonic() - t_start
    ok = all(identical) and elapsed < 30.0
    announce(capsys, "determinism", ok,
             f"3 artifacts byte-identical across reruns, {elapsed:.1f}s")
    assert ok
