"""Cloud provider: instances, rules, exchanges, channels, warm pool."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from miserysim.cloud import (
    CloudProvider,
    ImageKind,
    InstancePool,
    InstanceState,
    min_pool_requirements,
)
from miserysim.errors import CloudError, ConnectionRefused, SessionSevered
from miserysim.eventlog import EventLog
from miserysim.sim import Handle, Simulation
from miserysim.topology import PUBLIC_INTERNET, FirewallRule


def make_provider(seed=0, **kw):
    sim = Simulation(seed)
    provider = CloudProvider(sim, EventLog(), **kw)
    return sim, provider


def running_instance(sim, provider, instance_id, image=ImageKind.MULTICASTER):
    inst = provider.create_instance(image, instance_id=instance_id)
    sim.run_until(inst.ready)
    return inst


def grant(provider, *rules):
    provider.rewrite_rules([], [FirewallRule(*rule) for rule in rules])


def revoke(provider, *rules):
    provider.rewrite_rules([FirewallRule(*rule) for rule in rules], [])


# --- provisioning ------------------------------------------------------------

def test_provisioning_takes_exactly_the_configured_latency():
    sim, provider = make_provider()
    inst = provider.create_instance(ImageKind.MULTICASTER, instance_id="a")
    assert inst.state == InstanceState.PROVISIONING
    assert not inst.ready.done
    sim.run_until(inst.ready)
    assert sim.now == 300.0
    assert inst.state == InstanceState.RUNNING


def test_provisioning_latency_is_configurable():
    sim, provider = make_provider(provisioning_latency=2.5)
    inst = provider.create_instance(ImageKind.REQUESTS_SERVER, instance_id="a")
    sim.run_until(inst.ready)
    assert sim.now == 2.5


def test_duplicate_instance_id_rejected():
    _, provider = make_provider()
    provider.create_instance(ImageKind.MULTICASTER, instance_id="x")
    with pytest.raises(CloudError, match="^instance id 'x' already exists$"):
        provider.create_instance(ImageKind.REQUESTS_SERVER, instance_id="x")


def test_addresses_use_all_host_bits_of_the_private_range():
    sim, provider = make_provider()
    web = provider.create_instance(ImageKind.MULTICASTER, instance_id="web")
    assert web.address == "10.0.0.1"
    # skip to host 65,535; host 65,537 used to wrap onto 10.0.0.1
    provider._addr_seq = itertools.count(0xFFFF)
    made = [provider.create_instance(ImageKind.MULTICASTER, instance_id=f"x{n}")
            for n in range(3)]
    assert [inst.address for inst in made] == [
        "10.0.255.255", "10.1.0.0", "10.1.0.1"]
    sim.run(until=300.0)
    assert provider.resolve_address("10.0.0.1") is web
    assert provider.resolve_address("10.1.0.1") is made[2]
    provider.terminate_instance("x2")
    assert provider.resolve_address("10.0.0.1") is web
    # 10.255.255.254 is the last host; 10.255.255.255 is broadcast
    provider._addr_seq = itertools.count(0xFFFFFE)
    last = provider.create_instance(ImageKind.MULTICASTER, instance_id="last")
    assert last.address == "10.255.255.254"
    with pytest.raises(CloudError, match="^address space 10.0.0.0/8 exhausted$"):
        provider.create_instance(ImageKind.MULTICASTER, instance_id="over")
    assert "over" not in provider.instances


def test_adopt_renames_and_remaps_address():
    sim, provider = make_provider()
    inst = running_instance(sim, provider, instance_id="pool-m-1")
    provider.adopt_instance("pool-m-1", "L2.s0.g1", tags={"role": "multicaster"})
    assert "pool-m-1" not in provider.instances
    assert provider.instance("L2.s0.g1") is inst
    assert provider.resolve_address(inst.address).id == "L2.s0.g1"
    assert inst.tags["role"] == "multicaster"


def test_adopt_requires_running_and_free_name():
    sim, provider = make_provider()
    cold = provider.create_instance(ImageKind.MULTICASTER, instance_id="cold")
    with pytest.raises(CloudError, match="^'cold' is provisioning, not running$"):
        provider.adopt_instance("cold", "n")
    sim.run_until(cold.ready)
    running_instance(sim, provider, instance_id="taken")
    with pytest.raises(CloudError, match="^node id 'taken' already exists$"):
        provider.adopt_instance("cold", "taken")
    with pytest.raises(CloudError, match="^ghost$"):
        provider.adopt_instance("ghost", "n")


def test_terminate_drops_rules_address_and_pending_ready():
    sim, provider = make_provider()
    a = running_instance(sim, provider, instance_id="a")
    running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80), ("b", "a", 80), (PUBLIC_INTERNET, "b", 80))
    cold = provider.create_instance(ImageKind.MULTICASTER, instance_id="cold")
    provider.terminate_instance("cold")
    assert cold.ready.failed
    provider.terminate_instance("a")
    assert provider.resolve_address(a.address) is None
    assert not provider.allows("a", "b", 80)
    assert not provider.allows("b", "a", 80)
    assert provider.allows(PUBLIC_INTERNET, "b", 80)
    with pytest.raises(CloudError, match="^'a' already terminated$"):
        provider.terminate_instance("a")


# --- rules ---------------------------------------------------------------------

def test_grant_validates_endpoints_but_public_is_virtual():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="web")
    grant(provider, (PUBLIC_INTERNET, "web", 80))
    assert provider.allows(PUBLIC_INTERNET, "web", 80)
    with pytest.raises(CloudError, match="^ghost$"):
        grant(provider, ("web", "ghost", 80))
    with pytest.raises(CloudError, match="^ghost$"):
        grant(provider, ("ghost", "web", 80))


def test_rewrite_rules_validates_grants_before_revoking():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))
    with pytest.raises(CloudError, match="^ghost$"):
        provider.rewrite_rules(revoke=[FirewallRule("a", "b", 80)],
                               grant=[FirewallRule("a", "ghost", 80)])
    # the failed transaction must not have revoked anything
    assert provider.allows("a", "b", 80)
    provider.rewrite_rules(revoke=[FirewallRule("a", "b", 80)],
                           grant=[FirewallRule("b", "a", 443), FirewallRule("a", "b", 22)])
    assert not provider.allows("a", "b", 80)
    assert provider.allows("b", "a", 443)
    # the logged transaction lists each side as sorted [src, dst, port] rows
    assert provider.log.of_kind("rules.rewrite")[-1]["detail"] == {
        "revoked": [["a", "b", 80]], "granted": [["a", "b", 22], ["b", "a", 443]]}


# --- one-shot exchanges -----------------------------------------------------------

def echo_server(provider, node, port=80):
    def on_request(ex, data):
        provider.respond(ex, b"echo:" + data)
    provider.bind(node, port, on_request=on_request)


def test_request_round_trip_latency_within_two_hops():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))
    echo_server(provider, "b")
    t0 = sim.now
    fut = provider.request("a", b.address, 80, b"hi")
    assert sim.run_until(fut) == b"echo:hi"
    elapsed = sim.now - t0
    assert 0.002 <= elapsed <= 0.010


def test_request_refusals():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    # no rule
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 1)
    assert isinstance(fut.exception(), ConnectionRefused)
    # rule but no handler
    grant(provider, ("a", "b", 80))
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 1)
    assert isinstance(fut.exception(), ConnectionRefused)
    # dead address
    echo_server(provider, "b")
    provider.terminate_instance("b")
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 1)
    assert isinstance(fut.exception(), ConnectionRefused)
    assert provider.counters["refused"] == 3


def test_revoking_an_edge_severs_inflight_exchanges():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))

    def never_replies(ex, data):
        pass

    provider.bind("b", 80, on_request=never_replies)
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 0.02)
    revoke(provider, ("a", "b", 80))
    sim.run(until=sim.now + 1)
    assert isinstance(fut.exception(), SessionSevered)
    assert provider.counters["severed"] == 1


# --- channels ----------------------------------------------------------------------

def channel_pair(sim, provider):
    """(opener's end, acceptor's end) of a fresh a -> b channel."""
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 3306))
    accepted = []
    provider.bind("b", 3306, on_channel=accepted.append)
    fut = provider.open_channel("a", b.address, 3306)
    opener = sim.run_until(fut)
    assert accepted == [opener.peer] and accepted[0].peer is opener
    assert (opener.node, opener.peer.node) == ("a", "b")
    return opener, opener.peer


def test_channel_streams_bytes_both_ways_in_order():
    sim, provider = make_provider()
    opener, acceptor = channel_pair(sim, provider)
    seen_b, seen_a = [], []
    acceptor.on_message(seen_b.append)
    opener.on_message(seen_a.append)
    opener.send(b"one")
    opener.send(b"two")
    acceptor.send(b"ack")
    sim.run(until=sim.now + 1)
    assert seen_b == [b"one", b"two"]
    assert seen_a == [b"ack"]


def test_channel_buffers_until_handler_installed():
    sim, provider = make_provider()
    opener, acceptor = channel_pair(sim, provider)
    opener.send(b"early")
    sim.run(until=sim.now + 1)
    seen = []
    acceptor.on_message(seen.append)
    assert seen == [b"early"]


def test_channel_close_drops_later_sends():
    sim, provider = make_provider()
    opener, acceptor = channel_pair(sim, provider)
    seen, errors = [], []
    acceptor.on_message(seen.append)
    acceptor.on_error(errors.append)
    opener.close()
    opener.send(b"late")
    acceptor.send(b"late")
    sim.run(until=sim.now + 1)
    assert opener.state == acceptor.state == "closed"
    assert seen == []
    # the close reaches the other end only
    assert [str(e) for e in errors] == ["channel closed by a"]


def test_rule_revocation_severs_open_channels():
    sim, provider = make_provider()
    opener, acceptor = channel_pair(sim, provider)
    errors = []
    opener.on_error(lambda err: errors.append(("a", err)))
    acceptor.on_error(lambda err: errors.append(("b", err)))
    revoke(provider, ("a", "b", 3306))
    sim.run(until=sim.now + 1)
    assert opener.state == acceptor.state == "severed"
    assert sorted(side for side, _ in errors) == ["a", "b"]
    assert all(isinstance(e, SessionSevered) for _, e in errors)


def test_terminating_an_endpoint_severs_its_channels():
    sim, provider = make_provider()
    opener, acceptor = channel_pair(sim, provider)
    errors = []
    opener.on_error(errors.append)
    provider.terminate_instance("b")
    sim.run(until=sim.now + 1)
    assert opener.state == acceptor.state == "severed"
    assert len(errors) == 1


# terminate_instance unbinds the destination and severs its traffic in the
# same event, so a frame in flight never reaches a missing handler: the
# opener hears SessionSevered from the sever path, never a refusal

def test_terminating_the_destination_severs_an_exchange_in_flight():
    sim, provider = make_provider(hop_latency=(0.01, 0.01))
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))
    delivered = []
    provider.bind("b", 80, on_request=lambda ex, data: delivered.append(data))
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 0.005)    # the request is half a hop out
    provider.terminate_instance("b")
    sim.run(until=sim.now + 1)
    assert delivered == []
    assert isinstance(fut.exception(), SessionSevered)
    assert str(fut.exception()) == "instance b terminated"
    assert provider.counters["severed"] == 1
    assert provider.counters["refused"] == 0


@pytest.mark.parametrize("wait, accepted_ends", [(0.005, 0), (0.015, 1)],
                         ids=["before-accept", "before-ready"])
def test_terminating_the_destination_severs_a_channel_being_opened(wait,
                                                                   accepted_ends):
    # one hop after the open the destination accepts, one more and the
    # opener's end is ready
    sim, provider = make_provider(hop_latency=(0.01, 0.01))
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 3306))
    accepted = []
    provider.bind("b", 3306, on_channel=accepted.append)
    fut = provider.open_channel("a", b.address, 3306)
    sim.run(until=sim.now + wait)
    provider.terminate_instance("b")
    sim.run(until=sim.now + 1)
    assert len(accepted) == accepted_ends
    assert isinstance(fut.exception(), SessionSevered)
    assert str(fut.exception()) == "channel severed during open"
    assert provider.channels == {}    # the severed pipe left the registry
    assert provider.counters["refused"] == 0


def test_channel_registry_holds_open_pipes_only():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 3306), ("a", "b", 3307))
    provider.bind("b", 3306, on_channel=lambda end: None)
    provider.bind("b", 3307, on_channel=lambda end: None)
    closed, kept, severed = (
        sim.run_until(provider.open_channel("a", b.address, port))
        for port in (3306, 3306, 3307))
    closed.peer.close()
    revoke(provider, ("a", "b", 3307))
    assert (closed.state, kept.state, severed.state) == ("closed", "open", "severed")
    assert list(provider.channels) == [kept]


def test_respond_on_a_cut_exchange_schedules_nothing(monkeypatch):
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))
    held = []
    provider.bind("b", 80, on_request=lambda ex, data: held.append(ex))
    fut = provider.request("a", b.address, 80, b"x")
    sim.run(until=sim.now + 0.01)
    revoke(provider, ("a", "b", 80))

    def forbidden(*args):
        pytest.fail("respond on a cut exchange drew a hop or scheduled")

    monkeypatch.setattr(provider, "hop_latency", forbidden)
    monkeypatch.setattr(sim, "schedule_at", forbidden)
    provider.respond(held[0], b"late")
    monkeypatch.undo()
    sim.run(until=sim.now + 1)
    assert isinstance(fut.exception(), SessionSevered)


@pytest.mark.parametrize("cut_at, cancels", [(None, 0), (0.005, 1), (0.015, 1)],
                         ids=["settled", "cut-before-request", "cut-before-reply"])
def test_an_exchange_cancels_only_a_delivery_still_queued(monkeypatch, cut_at,
                                                          cancels):
    # the reply delivery is the exchange's pending handle while it runs, so
    # settling cancels nothing; a cut cancels the one delivery still queued
    sim, provider = make_provider(hop_latency=(0.01, 0.01))
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80))
    echo_server(provider, "b")
    cancelled = []
    cancel = Handle.cancel

    def counted(handle):
        cancelled.append(handle)
        cancel(handle)

    monkeypatch.setattr(Handle, "cancel", counted)
    fut = provider.request("a", b.address, 80, b"x")
    if cut_at is not None:
        sim.run(until=sim.now + cut_at)
        revoke(provider, ("a", "b", 80))
    sim.run(until=sim.now + 1)
    assert len(cancelled) == cancels
    if cut_at is None:
        assert fut.result() == b"echo:x"
    else:
        assert isinstance(fut.exception(), SessionSevered)


def test_severance_cuts_exchanges_then_channels_in_order(monkeypatch):
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="a")
    b = running_instance(sim, provider, instance_id="b")
    grant(provider, ("a", "b", 80), ("a", "b", 3306))
    provider.bind("b", 80, on_request=lambda ex, data: None)
    provider.bind("b", 3306, on_channel=lambda end: None)
    heard = []
    for name in ("ex1", "ex2"):
        fut = provider.request("a", b.address, 80, b"x")
        fut.add_done_callback(lambda _, name=name: heard.append(name))
    for name in ("ch1", "ch2"):
        opener = sim.run_until(provider.open_channel("a", b.address, 3306))
        opener.on_error(lambda _, name=name: heard.append(name + ".opener"))
        opener.peer.on_error(lambda _, name=name: heard.append(name + ".acceptor"))
    # each cut draws the next hop latency; rising latencies make the
    # callbacks fire in the order the sweep reached them
    latencies = itertools.count(1.0)
    monkeypatch.setattr(provider, "hop_latency", lambda: next(latencies))
    provider.terminate_instance("b")
    sim.run(until=sim.now + 10)
    assert heard == ["ex1", "ex2", "ch1.opener", "ch1.acceptor",
                     "ch2.opener", "ch2.acceptor"]
    assert provider.counters["severed"] == 2


# --- warm pool -----------------------------------------------------------------------

def test_pool_hit_is_instant_and_strips_the_standby_tag():
    sim, provider = make_provider()
    pool = provider.configure_pool(4)
    pool.fill({ImageKind.MULTICASTER: 2, ImageKind.REQUESTS_SERVER: 2})
    sim.run(until=301)
    assert pool.ready_count(ImageKind.MULTICASTER) == 2
    t0 = sim.now
    fut = pool.allocate(ImageKind.MULTICASTER)
    inst = sim.run_until(fut)
    assert sim.now == t0
    assert inst.state == InstanceState.RUNNING
    assert "pool" not in inst.tags
    assert [r["detail"]["hit"] for r in provider.log.of_kind("pool.allocate")] == [True]
    assert provider.counters["pool_misses"] == 0
    assert pool.ready_count(ImageKind.MULTICASTER) == 1


def test_pool_miss_falls_back_to_on_demand():
    sim, provider = make_provider()
    pool = provider.configure_pool(0)
    t0 = sim.now
    fut = pool.allocate(ImageKind.REQUESTS_SERVER)
    inst = sim.run_until(fut)
    assert sim.now == t0 + 300.0
    assert inst.state == InstanceState.RUNNING
    assert [r["detail"]["hit"] for r in provider.log.of_kind("pool.allocate")] == [False]
    assert provider.counters["pool_misses"] == 1


def test_terminating_an_on_demand_instance_rejects_its_allocation():
    sim, provider = make_provider()
    pool = provider.configure_pool(0)
    fut = pool.allocate(ImageKind.REQUESTS_SERVER)
    (on_demand,) = provider.instances.values()
    provider.terminate_instance(on_demand.id)
    assert isinstance(fut.exception(), CloudError)
    assert str(fut.exception()) == f"{on_demand.id!r} terminated"
    sim.run(until=301)    # its provisioning event finds it terminated
    assert on_demand.state == InstanceState.TERMINATED
    assert pool.available[ImageKind.REQUESTS_SERVER] == []


def test_pool_replenishes_one_for_one():
    sim, provider = make_provider()
    pool = provider.configure_pool(2)
    pool.fill({ImageKind.MULTICASTER: 2})
    sim.run(until=301)
    sim.run_until(pool.allocate(ImageKind.MULTICASTER))
    assert pool.ready_count(ImageKind.MULTICASTER) == 1
    # the one replacement is a fresh standby, not yet ready
    replacement = provider.instance("pool-m-3")
    assert replacement.tags == {"pool": "standby"}
    assert "pool-m-4" not in provider.instances
    sim.run(until=sim.now + 301)
    assert pool.ready_count(ImageKind.MULTICASTER) == 2
    assert replacement in pool.available[ImageKind.MULTICASTER]


def test_pool_allocate_skips_terminated_standbys():
    sim, provider = make_provider()
    pool = provider.configure_pool(2)
    pool.fill({ImageKind.MULTICASTER: 2})
    sim.run(until=301)
    first = pool.available[ImageKind.MULTICASTER][0]
    provider.terminate_instance(first.id)
    assert pool.ready_count(ImageKind.MULTICASTER) == 1
    inst = sim.run_until(pool.allocate(ImageKind.MULTICASTER))
    assert inst.state == InstanceState.RUNNING
    assert inst.id != first.id
    assert [r["detail"]["hit"] for r in provider.log.of_kind("pool.allocate")] == [True]
    assert provider.counters["pool_misses"] == 0


# --- pool sizing ------------------------------------------------------------------------

def test_min_pool_requirements_worked_example():
    running = {ImageKind.MULTICASTER: 2, ImageKind.REQUESTS_SERVER: 4}
    assert min_pool_requirements(running, 4) == {
        ImageKind.MULTICASTER: 1, ImageKind.REQUESTS_SERVER: 3}
    assert min_pool_requirements(running, 0) == {
        ImageKind.MULTICASTER: 0, ImageKind.REQUESTS_SERVER: 0}
    assert min_pool_requirements({}, 5) == {}
    with pytest.raises(ValueError):
        min_pool_requirements(running, -1)


def test_min_pool_requirements_invariants():
    rng = random.Random(5)
    kinds = [ImageKind.MULTICASTER, ImageKind.REQUESTS_SERVER]
    for _ in range(200):
        running = {kind: rng.randint(0, 12) for kind in kinds}
        present = [kind for kind in kinds if running[kind] > 0]
        s = rng.randint(0, 20)
        alloc = min_pool_requirements(running, s)
        assert set(alloc) == set(present)
        if present:
            assert sum(alloc.values()) == (s if s else 0)
            if s >= len(present):
                assert all(alloc[kind] >= 1 for kind in present)


# --- snapshot ------------------------------------------------------------------------------

def test_snapshot_is_sorted_and_serializable():
    sim, provider = make_provider()
    running_instance(sim, provider, instance_id="zed")
    running_instance(sim, provider, instance_id="abc")
    grant(provider, ("zed", "abc", 80), ("abc", "zed", 80))
    doc = provider.snapshot()
    assert [i["id"] for i in doc["instances"]] == ["abc", "zed"]
    assert [r["src"] for r in doc["rules"]] == ["abc", "zed"]
    assert doc["t"] == sim.now
    json.dumps(doc)
