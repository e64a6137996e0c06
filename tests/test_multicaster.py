"""Multicaster fan-out: the first success answers inside its own delivery;
anything later, a same-instant tie included, is discarded and counted."""

from __future__ import annotations

from miserysim import wire
from miserysim.addresses import AddressRecord
from miserysim.cloud import CloudProvider, ImageKind
from miserysim.eventlog import EventLog
from miserysim.multicaster import MulticasterNode
from miserysim.sim import Simulation
from miserysim.topology import PUBLIC_INTERNET, FirewallRule

CORR = bytes(range(16))


def setup_node(n_children=2, u=0.5, is_entry=False, hop=(0.001, 0.005)):
    sim = Simulation(0)
    provider = CloudProvider(sim, EventLog(), hop_latency=hop)
    web = provider.create_instance(ImageKind.MULTICASTER, instance_id="web")
    children = []
    for i in range(n_children):
        child = provider.create_instance(ImageKind.MULTICASTER, instance_id=f"c{i}")
        provider.rewrite_rules([], [FirewallRule("web", f"c{i}", 80)])
        children.append(child)
    sim.run(until=301)
    table = AddressRecord("web", 1, tuple((c.id, c.address) for c in children))
    node = MulticasterNode(provider, "web", u, is_entry=is_entry, table=table)
    return sim, provider, node, children, provider.counters


def reply_child(sim, provider, node_id, body=b"pong", delay=0.0):
    def on_request(ex, data):
        _, corr, payload = wire.decode_frame(data)
        frame = wire.encode_response(corr, body)
        if delay:
            sim.schedule(delay, provider.respond, ex, frame)
        else:
            provider.respond(ex, frame)
    provider.bind(node_id, 80, on_request=on_request)


def run_job(sim, node, payload=b"GET k"):
    got = []
    node.handle_request(CORR, payload, got.append)
    sim.run(until=sim.now + 5)
    assert len(got) == 1
    return wire.decode_frame(got[0])


# --- fan-out ---------------------------------------------------------------------

def test_earliest_child_response_wins():
    sim, provider, node, _, counters = setup_node()
    reply_child(sim, provider, "c0", b"slow", delay=0.05)
    reply_child(sim, provider, "c1", b"fast", delay=0.001)
    ftype, corr, payload = run_job(sim, node)
    assert ftype == wire.TYPE_RESPONSE
    assert corr == CORR
    assert payload == b"fast"
    # the loser still arrives and is counted, not delivered
    assert counters["discarded"] == 1


def test_first_success_answers_in_its_own_delivery_and_a_tie_is_discarded():
    # constant hops: both copies, and both replies, land at one instant
    sim, provider, node, _, counters = setup_node(hop=(0.002, 0.002))
    reply_child(sim, provider, "c0", b"from-0")
    reply_child(sim, provider, "c1", b"from-1")
    got = []
    t0, start = sim.now, sim.events_processed
    node.handle_request(CORR, b"x", lambda frame: got.append(
        (sim.now, sim.events_processed - start, frame)))
    # two request deliveries and two reply deliveries; the deadline is cancelled
    assert sim.run(until=sim.now + 1) == 4
    [(at, events_before, frame)] = got
    # answered while the first reply's delivery runs, after only the two
    # request deliveries
    assert (at, events_before) == (t0 + 0.002 + 0.002, 2)
    assert wire.decode_frame(frame)[2] == b"from-0"
    assert counters["discarded"] == 1


def test_every_child_receives_a_copy():
    sim, provider, node, _, _ = setup_node(n_children=3)
    seen = []
    for i in range(3):
        def on_request(ex, data, i=i):
            seen.append((i, wire.decode_frame(data)[2]))
            _, corr, _ = wire.decode_frame(data)
            provider.respond(ex, wire.encode_response(corr, b"ok"))
        provider.bind(f"c{i}", 80, on_request=on_request)
    run_job(sim, node, b"payload")
    assert sorted(seen) == [(0, b"payload"), (1, b"payload"), (2, b"payload")]


def test_timeout_fires_at_exactly_u():
    sim, provider, node, _, _ = setup_node(u=0.3)
    reply_child(sim, provider, "c0", delay=10.0)
    reply_child(sim, provider, "c1", delay=10.0)
    got = []
    t0 = sim.now
    node.handle_request(CORR, b"x", lambda f: got.append((sim.now, f)))
    sim.run(until=sim.now + 2)
    at, frame = got[0]
    assert at == t0 + 0.3
    ftype, _, reason = wire.decode_frame(frame)
    assert (ftype, reason) == (wire.TYPE_ERROR, b"timeout")


def test_all_children_failing_yields_no_upstream():
    sim, provider, node, _, _ = setup_node()
    # no handlers bound: both forwards are refused
    ftype, _, reason = run_job(sim, node)
    assert (ftype, reason) == (wire.TYPE_ERROR, b"no-upstream")


def test_one_failure_does_not_block_the_other_child():
    sim, provider, node, _, _ = setup_node()
    reply_child(sim, provider, "c1", b"alive", delay=0.01)
    ftype, _, payload = run_job(sim, node)
    assert (ftype, payload) == (wire.TYPE_RESPONSE, b"alive")


def test_empty_table_answers_no_children():
    sim, provider, node, _, counters = setup_node(n_children=0)
    ftype, _, reason = run_job(sim, node)
    assert (ftype, reason) == (wire.TYPE_ERROR, b"no-children")
    assert counters["no_children"] == 1


def test_inflight_job_keeps_its_fanout_snapshot():
    sim, provider, node, children, _ = setup_node(n_children=1)
    reply_child(sim, provider, "c0", b"old-child", delay=0.05)
    got = []
    node.handle_request(CORR, b"x", got.append)
    # table moves on mid-flight; the answer still comes from the old child
    node.apply_update(AddressRecord("web", 2, (("c9", "10.9.9.9"),)))
    sim.run(until=sim.now + 1)
    assert wire.decode_frame(got[0])[2] == b"old-child"
    assert node.table.children == (("c9", "10.9.9.9"),)


# --- internal-frame endpoint ------------------------------------------------------

def frame_roundtrip(sim, provider, node, raw):
    if "parent" not in provider.instances:
        provider.create_instance(ImageKind.MULTICASTER, instance_id="parent")
        provider.rewrite_rules([], [FirewallRule("parent", "web", 80)])
        provider.bind("web", 80, on_request=node.on_request)
        sim.run(until=sim.now + 301)
    fut = provider.request("parent", provider.instance("web").address, 80, raw)
    sim.run(until=sim.now + 2)
    return wire.decode_frame(fut.result())


def test_on_request_rejects_garbage_and_wrong_type():
    sim, provider, node, _, _ = setup_node()
    reply_child(sim, provider, "c0")
    reply_child(sim, provider, "c1")
    ftype, corr, reason = frame_roundtrip(sim, provider, node, b"not a frame")
    assert (ftype, corr, reason) == (wire.TYPE_ERROR, bytes(16), b"bad-frame")
    ftype, _, reason = frame_roundtrip(
        sim, provider, node, wire.encode_response(CORR, b"x"))
    assert (ftype, reason) == (wire.TYPE_ERROR, b"bad-frame-type")


def test_on_request_forwards_and_relays_the_winner():
    sim, provider, node, _, _ = setup_node()
    reply_child(sim, provider, "c0", b"deep")
    reply_child(sim, provider, "c1", b"deep")
    ftype, corr, payload = frame_roundtrip(
        sim, provider, node, wire.encode_request(CORR, b"GET k"))
    assert (ftype, corr, payload) == (wire.TYPE_RESPONSE, CORR, b"deep")


# --- public HTTP surface ------------------------------------------------------------

def http_roundtrip(sim, provider, node, raw):
    provider.rewrite_rules([], [FirewallRule(PUBLIC_INTERNET, "web", 80)])
    provider.bind("web", 80, on_request=node.on_http)
    fut = provider.request(PUBLIC_INTERNET, provider.instance("web").address, 80, raw)
    sim.run(until=sim.now + 2)
    return wire.parse_http_response(fut.result())


def test_http_post_carries_body_and_request_id():
    sim, provider, node, _, _ = setup_node(is_entry=True)
    reply_child(sim, provider, "c0", b"VAL 1")
    reply_child(sim, provider, "c1", b"VAL 1")
    status, headers, body = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", b"GET k"))
    assert status == 200
    assert body == b"VAL 1"
    assert len(bytes.fromhex(headers["x-request-id"])) == 16


def test_http_get_path_becomes_command():
    sim, provider, node, _, _ = setup_node(is_entry=True)
    seen = []

    def on_request(ex, data):
        _, corr, payload = wire.decode_frame(data)
        seen.append(payload)
        provider.respond(ex, wire.encode_response(corr, b"NIL"))

    provider.bind("c0", 80, on_request=on_request)
    provider.bind("c1", 80, on_request=on_request)
    status, _, _ = http_roundtrip(
        sim, provider, node, wire.encode_http_request("GET", "/k1"))
    assert status == 200
    assert seen[0] == b"GET k1"


def test_http_maps_timeout_to_504_and_failure_to_502():
    sim, provider, node, _, _ = setup_node(is_entry=True, u=0.2)
    reply_child(sim, provider, "c0", delay=10.0)
    reply_child(sim, provider, "c1", delay=10.0)
    status, headers, body = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", b"x"))
    assert (status, body) == (504, b"timeout")
    assert "x-request-id" in headers

    sim2, provider2, node2, _, _ = setup_node(is_entry=True)
    provider2.rewrite_rules([], [FirewallRule(PUBLIC_INTERNET, "web", 80)])
    provider2.bind("web", 80, on_request=node2.on_http)
    fut = provider2.request(PUBLIC_INTERNET, provider2.instance("web").address,
                            80, wire.encode_http_request("POST", "/", b"x"))
    sim2.run(until=sim2.now + 2)
    status, _, body = wire.parse_http_response(fut.result())
    assert (status, body) == (502, b"no-upstream")


def test_http_rejects_empty_and_malformed():
    sim, provider, node, _, _ = setup_node(is_entry=True)
    status, _, _ = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", b""))
    assert status == 400
    sim2, provider2, node2, _, _ = setup_node(is_entry=True)
    status, _, _ = http_roundtrip(sim2, provider2, node2, b"BOGUS / HTTP/1.1\r\n\r\n")
    assert status == 400


def test_malformed_public_request_gets_400_and_entry_keeps_serving():
    sim, provider, node, _, _ = setup_node(is_entry=True)
    reply_child(sim, provider, "c0", b"VAL 1")
    reply_child(sim, provider, "c1", b"VAL 1")
    for raw in (b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\nGET k",
                b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\nGET k",
                b"POST /\xff HTTP/1.1\r\n\r\nGET k"):
        status, _, _ = http_roundtrip(sim, provider, node, raw)
        assert status == 400
    status, _, body = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", b"GET k"))
    assert (status, body) == (200, b"VAL 1")


def test_oversized_public_request_gets_400_and_entry_keeps_serving():
    sim, provider, node, _, _ = setup_node(is_entry=True)
    reply_child(sim, provider, "c0", b"VAL 1")
    reply_child(sim, provider, "c1", b"VAL 1")
    big = b"x" * (wire.MAX_PAYLOAD + 1)
    status, _, _ = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", big))
    assert status == 400
    status, _, body = http_roundtrip(
        sim, provider, node, wire.encode_http_request("POST", "/", b"GET k"))
    assert (status, body) == (200, b"VAL 1")
