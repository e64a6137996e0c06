"""Movement Manager: layer selection, switch/reset cycles, propagation.

Cycle tests run against a fully deployed topology on the simulated provider,
then compare the live state (instances, rules, address records, runtime
tables) against the digraph rather than against the manager's own bookkeeping.
"""

from __future__ import annotations

import math
import random
import re
from types import SimpleNamespace

import pytest

from miserysim.addresses import AddressServer
from miserysim.cloud import CloudProvider, InstanceState
from miserysim.deploy import deploy_misery
from miserysim.errors import CloudError
from miserysim.eventlog import EventLog
from miserysim.movement import MovementManager, switch_drawer, switch_op
from miserysim.sim import Simulation
from miserysim.topology import (
    MiseryDigraphSpec,
    build_misery_digraph,
    derive_firewall_rules,
)

NEW_ID = re.compile(r"L(\d+)\.s(\d+)\.g(\d+)")


def make_digraph(d=3, k=2):
    return build_misery_digraph(MiseryDigraphSpec(d, k))


def deployed(d=3, k=2, s=8, seed=0, r=100.0):
    sim = Simulation(seed)
    log = EventLog()
    provider = CloudProvider(sim, log)
    addresses = AddressServer(sim, log)
    task = sim.spawn(deploy_misery(provider, addresses, make_digraph(d, k),
                                   u=1.0, m=0.1, s=s))
    deployment = sim.run_until(task.future)
    manager = MovementManager(deployment, r)
    return SimpleNamespace(sim=sim, log=log, provider=provider,
                           addresses=addresses, counters=provider.counters,
                           deployment=deployment, manager=manager)


def settle(env, extra: float = 2.0) -> None:
    # address notifications land within notify_bound (1.5) of the update
    env.sim.run(until=env.sim.now + extra)


def run_one_cycle(env) -> None:
    env.sim.run_until(env.sim.spawn(env.manager._cycle()).future)


# --- schedule and selection --------------------------------------------------

def test_schedule_validates_period():
    deployment = deployed().deployment
    for r in (0, -5.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MovementManager(deployment, r)


def test_select_uniform_over_eligible_layers():
    digraph = make_digraph(d=4, k=2)
    draw = switch_drawer(digraph.spec, random.Random(123))
    draws = 4000
    seen: dict[int, int] = {}
    for _ in range(draws):
        op = switch_op(digraph, *draw())
        seen[op.layer] = seen.get(op.layer, 0) + 1
    assert set(seen) == {2, 3, 4}
    for layer, count in seen.items():
        assert abs(count / draws - 1 / 3) < 0.03, (layer, count)


def test_select_pairs_are_distinct_layer_members():
    digraph = make_digraph(d=3, k=2)
    draw = switch_drawer(digraph.spec, random.Random(7))
    pairs_at_3: set[frozenset[str]] = set()
    for _ in range(500):
        op = switch_op(digraph, *draw())
        u, v = op.nodes
        assert u != v
        layer = set(digraph.layer(op.layer))
        assert {u, v} <= layer
        if op.layer == 3:
            pairs_at_3.add(frozenset((u, v)))
    # 4 leaves -> 6 unordered pairs, all reachable
    assert len(pairs_at_3) == 6


def test_select_rejects_all_narrow_layers():
    digraph = make_digraph(d=3, k=1)
    assert switch_drawer(digraph.spec, random.Random(0)) is None


@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3),
                                 (5, 3), (2, 21), (2, 22)])
def test_switch_drawer_draws_as_choice_then_sample(d, k):
    # widths on both sides of random.sample's switch from a pool to a set
    # of drawn indices at 21 elements
    spec = MiseryDigraphSpec(d, k)
    eligible = [a for a in range(2, d + 1) if k ** (a - 1) >= 2]
    for seed in range(30):
        rng, reference = random.Random(seed), random.Random(seed)
        draw = switch_drawer(spec, rng)
        for _ in range(50):
            layer = reference.choice(eligible)
            pair = reference.sample(range(k ** (layer - 1)), 2)
            assert draw() == (layer, *pair), (seed, layer)
        assert rng.getstate() == reference.getstate()


def test_a_shape_without_eligible_layer_skips_each_cycle():
    # the manager binds its drawer when built: None, so each cycle is skipped
    env = deployed(d=3, k=1)
    run_one_cycle(env)
    run_one_cycle(env)
    assert env.counters["skipped_cycles"] == 2
    assert env.log.of_kind("movement") == []


# --- one full cycle -----------------------------------------------------------

def test_cycle_switches_resets_and_propagates():
    env = deployed(seed=2)
    before = env.deployment.digraph
    old_nodes = set(before.all_nodes())
    run_one_cycle(env)

    events = env.log.of_kind("movement")
    assert [e["op"] for e in events] == ["switch", "reset", "reset"]
    switch = events[0]
    assert switch["versions"] == {}
    assert 2 <= switch["layer"] <= before.d

    digraph = env.deployment.digraph
    replaced = dict.fromkeys(switch["nodes"])
    for reset in events[1:]:
        assert reset["layer"] == switch["layer"]
        (old,), (new,) = reset["nodes"], reset["new_ids"]
        assert old in replaced and replaced[old] is None
        replaced[old] = new
        match = NEW_ID.fullmatch(new)
        assert match and int(match.group(1)) == switch["layer"]
        assert match.group(3) == "1"
        assert env.provider.instances[old].state is InstanceState.TERMINATED
        fresh = env.provider.instances[new]
        assert fresh.state is InstanceState.RUNNING
        assert fresh.tags["role"] == digraph.role_of(new)
        assert reset["versions"], "resets record the propagated table versions"
        assert reset["versions"] == events[1]["versions"]

    # versions name the distinct parents of the new nodes (plus the target
    # record when the leaf layer was hit), and match the address server
    parents = {digraph.parent_of(n) for n in replaced.values()}
    expected_owners = set(parents)
    if switch["layer"] == digraph.d:
        expected_owners.add(digraph.target)
    assert set(events[1]["versions"]) == expected_owners
    for owner, version in events[1]["versions"].items():
        assert env.addresses.lookup(owner).version == version

    # old ids are gone from the digraph, new ids sit at their positions
    assert set(digraph.all_nodes()) == (old_nodes - set(replaced)) | set(
        replaced.values())
    assert env.provider.rules == derive_firewall_rules(digraph)

    window = env.log.of_kind("movement.window")
    assert len(window) == 1
    detail = window[0]["detail"]
    assert detail["nodes"] == switch["nodes"]
    assert detail["new_ids"] == [replaced[n] for n in switch["nodes"]]
    assert detail["layer"] == switch["layer"]
    assert detail["t1"] - detail["t0"] >= env.addresses.notify_bound

    # routing tables lag the digraph until the notifications land
    assert env.deployment.consistency_check() != []
    settle(env)
    assert env.deployment.consistency_check() == []

    # address sweep: no record references a terminated instance
    for owner in sorted(env.addresses.dump()):
        for node, address in env.addresses.lookup(owner).children:
            inst = env.provider.instances[node]
            assert inst.state is InstanceState.RUNNING
            assert inst.address == address


# --- periodic operation -------------------------------------------------------

def test_periodic_cycles_until_horizon():
    env = deployed(seed=5, s=24, r=100.0)
    epoch = env.sim.now
    env.manager.start(epoch, 600.0)
    env.sim.run(until=epoch + 650.0)
    assert env.counters["transformations"] == 6
    assert env.counters["resets"] == 12
    assert "skipped_pool_short" not in env.counters
    windows = env.log.of_kind("movement.window")
    assert len(windows) == 6
    for cycle_no, record in enumerate(windows, start=1):
        assert record["detail"]["cycle"] == cycle_no
        assert record["detail"]["t0"] >= epoch + 100.0 * cycle_no
    d = env.deployment.digraph.d
    assert all(2 <= e["layer"] <= d for e in env.log.of_kind("movement"))
    assert env.provider.rules == derive_firewall_rules(env.deployment.digraph)
    assert env.deployment.consistency_check() == []


def test_period_longer_than_horizon_runs_nothing():
    env = deployed(seed=6, r=100.0)
    epoch = env.sim.now
    env.manager.start(epoch, 50.0)
    env.sim.run(until=epoch + 300.0)
    assert "transformations" not in env.counters
    assert env.log.of_kind("movement.window") == []


# --- pool interaction ----------------------------------------------------------

def test_short_pool_skips_cycle():
    # s=2 leaves one standby per image: not enough for a two-node reset
    env = deployed(seed=1, s=2)
    before = env.deployment.digraph.to_json_dict()
    run_one_cycle(env)
    assert env.counters["skipped_pool_short"] == 1
    assert "transformations" not in env.counters
    skip = env.log.of_kind("movement.skip")
    assert len(skip) == 1
    assert 2 <= skip[0]["detail"]["layer"] <= env.deployment.digraph.d
    assert env.deployment.digraph.to_json_dict() == before


def test_empty_pool_provisions_on_demand():
    env = deployed(seed=3, s=0)
    t0 = env.sim.now
    run_one_cycle(env)
    assert env.counters["transformations"] == 1
    assert env.provider.counters["pool_misses"] == 2
    # two sequential resets each waited out a full provisioning run
    assert env.sim.now - t0 >= 600.0
    settle(env)
    assert env.deployment.consistency_check() == []


def test_abort_on_capacity_error_repairs_tables(monkeypatch):
    # the provider is out of capacity, so the first reset's allocation fails
    # after the switch already landed
    env = deployed(seed=3, s=0)

    def out_of_capacity(image):
        raise CloudError(f"no capacity for a {image.value} instance")

    monkeypatch.setattr(env.provider.pool, "allocate", out_of_capacity)
    run_one_cycle(env)
    assert env.counters["aborted_cycles"] == 1
    assert "transformations" not in env.counters
    aborts = env.log.of_kind("movement.abort")
    assert len(aborts) == 1
    assert aborts[0]["detail"]["error"] == "no capacity for a multicaster instance"
    assert [rec["op"] for rec in env.log.of_kind("movement")] == ["switch"]
    digraph = env.deployment.digraph
    digraph.validate()
    assert env.provider.rules == derive_firewall_rules(digraph)
    settle(env)
    assert env.deployment.consistency_check() == []


# --- repeated cycles ------------------------------------------------------------

def expected_edges(digraph) -> set[tuple[str, str]]:
    """Positional oracle: slot s at layer i feeds slots [k*s, k*s+k)."""
    k = digraph.k
    out = set()
    for i in range(1, digraph.d):
        row, nxt = digraph.layer(i), digraph.layer(i + 1)
        for s, node in enumerate(row):
            for j in range(k * s, k * s + k):
                out.add((node, nxt[j]))
    return out


def test_repeated_cycles_preserve_shape():
    env = deployed(seed=8)
    spec = env.deployment.digraph.spec
    for _ in range(5):
        run_one_cycle(env)
        # give replenishment provisioning time to refill the pool
        settle(env, extra=302.0)
        digraph = env.deployment.digraph
        digraph.validate()
        for layer_no in range(1, digraph.d + 1):
            assert len(digraph.layer(layer_no)) == spec.k ** (layer_no - 1)
        edges = {(p, c) for i in range(1, digraph.d)
                 for p in digraph.layer(i) for c in digraph.children_of(p)}
        assert edges == expected_edges(digraph)
        assert env.provider.rules == derive_firewall_rules(digraph)
        assert env.deployment.consistency_check() == []
    assert env.counters["transformations"] == 5
    assert env.counters["resets"] == 10


def test_leaf_cycle_prunes_poll_links():
    env = deployed(seed=8)
    leaf_cycles = 0
    for _ in range(6):
        run_one_cycle(env)
        settle(env, extra=302.0)
        if env.log.of_kind("movement")[-1]["layer"] == env.deployment.digraph.d:
            leaf_cycles += 1
    assert leaf_cycles >= 1, "seed never selected the leaf layer"
    digraph = env.deployment.digraph
    ps = env.deployment.runtimes[digraph.target]
    assert set(ps._links) <= set(digraph.layer(digraph.d))


# --- determinism -----------------------------------------------------------------

def test_same_seed_same_movement_stream():
    def run(seed):
        env = deployed(seed=seed)
        for _ in range(3):
            run_one_cycle(env)
            settle(env, extra=302.0)
        events = env.log.of_kind("movement")
        windows = env.log.of_kind("movement.window")
        return events, windows

    assert run(7) == run(7)
    events_a, _ = run(7)
    events_b, _ = run(9)
    assert events_a != events_b
