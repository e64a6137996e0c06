"""Versioned endpoint registry."""

from __future__ import annotations

import pytest

from miserysim.addresses import AddressServer
from miserysim.errors import MiserySimError
from miserysim.eventlog import EventLog
from miserysim.sim import Simulation


def make_server(seed=0, **kw):
    sim = Simulation(seed)
    return sim, AddressServer(sim, EventLog(), **kw)


def test_register_starts_at_version_one():
    _, server = make_server()
    record = server.register("web", [("a", "10.0.0.1"), ("b", "10.0.0.2")])
    assert record.version == 1
    assert server.lookup("web").children == (("a", "10.0.0.1"), ("b", "10.0.0.2"))


def test_register_twice_is_an_error():
    _, server = make_server()
    server.register("web", [])
    with pytest.raises(MiserySimError, match="^web is already registered$"):
        server.register("web", [])


def test_unknown_owner_errors():
    _, server = make_server()
    with pytest.raises(MiserySimError, match="^ghost never registered$"):
        server.lookup("ghost")
    with pytest.raises(MiserySimError, match="^ghost never registered$"):
        server.update("ghost", [])


def test_update_bumps_version_even_when_entries_repeat():
    _, server = make_server()
    server.register("web", [("a", "10.0.0.1")])
    assert server.update("web", [("a", "10.0.0.1")]).version == 2
    assert server.update("web", [("a", "10.0.0.1")]).version == 3


def test_subscriber_gets_full_record_within_latency_bounds():
    sim, server = make_server()
    server.register("web", [("a", "10.0.0.1")])
    seen = []
    server.subscribe("web", lambda record: seen.append((sim.now, record)))
    server.update("web", [("b", "10.0.0.9")])
    assert seen == []
    sim.run(until=2.0)
    assert len(seen) == 1
    at, record = seen[0]
    assert 0.5 <= at <= 1.5
    assert at <= server.notify_bound
    assert record.version == 2
    assert record.children == (("b", "10.0.0.9"),)


def test_rapid_updates_arrive_in_version_order():
    for seed in range(10):
        sim, server = make_server(seed)
        server.register("web", [])
        versions = []
        server.subscribe("web", lambda record: versions.append(record.version))
        for i in range(8):
            server.update("web", [(f"n{i}", f"10.0.0.{i}")])
        sim.run(until=20.0)
        assert versions == list(range(2, 10))


def test_update_without_subscriber_is_silent():
    sim, server = make_server()
    server.register("web", [])
    server.update("web", [("a", "10.0.0.1")])
    sim.run(until=5.0)
    assert server.lookup("web").version == 2


def test_remove_drops_record_and_subscription():
    sim, server = make_server()
    server.register("web", [])
    seen = []
    server.subscribe("web", seen.append)
    server.remove("web")
    with pytest.raises(MiserySimError, match="^web never registered$"):
        server.lookup("web")
    server.register("web", [])
    server.update("web", [])
    sim.run(until=5.0)
    assert seen == []
    assert sorted(server.dump()) == ["web"]


def test_owners_sorted_and_dump_shape():
    _, server = make_server()
    server.register("z", [("c", "10.0.0.3")])
    server.register("a", [])
    assert sorted(server.dump()) == ["a", "z"]
    assert server.dump() == {
        "a": {"version": 1, "entries": []},
        "z": {"version": 1, "entries": [["c", "10.0.0.3"]]},
    }
