"""Isolated-target machinery: store grammar, request registry, requests
server sessions, the polling loop, and the baseline database pair."""

from __future__ import annotations

import pytest

from miserysim import target, wire
from miserysim.cloud import CloudProvider, ImageKind
from miserysim.eventlog import EventLog
from miserysim.sim import (
    PRIO_ACTOR,
    PRIO_NETWORK,
    Future,
    RequestNeverCompletes,
    Simulation,
)
from miserysim.target import (
    AppServerNode,
    BackendStore,
    DatabaseServerNode,
    PollingServerNode,
    RequestRegistry,
    RequestsServerNode,
)
from miserysim.topology import FirewallRule

CORR = bytes(range(16))
CORR2 = bytes(range(16, 32))


# --- backend store -----------------------------------------------------------

def test_store_grammar():
    store = BackendStore()
    assert store.execute(CORR, b"GET k") == b"NIL"
    assert store.execute(CORR, b"PUT k hello world") == b"OK"
    assert store.execute(CORR, b"GET k") == b"VAL hello world"
    assert store.execute(CORR, b"DEL k") == b"OK"
    assert store.execute(CORR, b"DEL k") == b"NIL"
    assert store.execute(CORR, b"GET k") == b"NIL"


def test_store_rejects_outside_grammar():
    store = BackendStore()
    assert store.execute(CORR, b"LIST") == b"ERR"
    assert store.execute(CORR, b"GET") == b"ERR"
    assert store.execute(CORR, b"PUT k") == b"ERR"
    assert store.execute(CORR, b"DEL a b") == b"ERR"
    assert store.execute(CORR, b"\xff\xfe") == b"ERR"
    assert store.data == {}


def test_store_logs_every_execution():
    store = BackendStore()
    store.execute(CORR, b"PUT k 1")
    store.execute(CORR, b"PUT k 1")
    store.execute(CORR2, b"GET k")
    assert store.execution_counts() == {CORR: 2, CORR2: 1}
    assert store.execution_log[2] == (CORR2, b"GET k", b"VAL 1")


# --- registry --------------------------------------------------------------------

def test_enqueue_is_idempotent():
    reg = RequestRegistry()
    first = reg.enqueue(CORR, b"GET k")
    again = reg.enqueue(CORR, b"GET k")
    assert again is first
    assert list(reg.pending) == [CORR]
    assert first.payload == b"GET k"
    assert first.sessions == []


def test_list_pending_cursor_flow():
    # listing is stateless: every ask returns all pending entries and their count
    reg = RequestRegistry()
    reg.enqueue(CORR, b"a")
    reg.enqueue(CORR2, b"b")
    assert reg.list_pending() == ([(CORR, b"a"), (CORR2, b"b")], 2)
    assert reg.list_pending() == ([(CORR, b"a"), (CORR2, b"b")], 2)
    corr3 = bytes(range(32, 48))
    reg.enqueue(corr3, b"c")
    assert reg.list_pending() == ([(CORR, b"a"), (CORR2, b"b"), (corr3, b"c")], 3)


def test_listing_skips_answered_entries():
    reg = RequestRegistry()
    reg.enqueue(CORR, b"a")
    reg.enqueue(CORR2, b"b")
    reg.deliver(CORR)
    assert reg.list_pending() == ([(CORR2, b"b")], 1)
    assert list(reg.pending) == [CORR2]


def test_deliver_semantics():
    reg = RequestRegistry()
    assert reg.deliver(CORR) is None
    reg.enqueue(CORR, b"PUT k 1")
    entry = reg.pending[CORR]
    # a delivered entry leaves; delivering it again finds nothing
    assert reg.deliver(CORR) is entry
    assert reg.pending == {}
    assert reg.deliver(CORR) is None


# --- requests server sessions --------------------------------------------------------

def rs_fixture(u=1.0):
    sim = Simulation(0)
    provider = CloudProvider(sim, EventLog())
    node = RequestsServerNode(provider, "rs0", u)
    return sim, provider, node, provider.counters


def test_session_registers_pending_and_waits():
    sim, _, node, _ = rs_fixture()
    got = []
    node.open_session(CORR, b"GET k", got.append)
    assert len(node.registry.pending[CORR].sessions) == 1
    sim.run(until=0.5)
    assert got == []


def test_session_releases_on_delivery():
    sim, _, node, _ = rs_fixture()
    got = []
    node.open_session(CORR, b"GET k", got.append)
    node.deliver(CORR, b"VAL 9")
    assert got == [wire.encode_response(CORR, b"VAL 9")]
    assert node.registry.pending == {}
    # the canceled timer must not fire a second answer
    sim.run(until=5.0)
    assert len(got) == 1


def test_session_times_out_at_exactly_u():
    sim, _, node, _ = rs_fixture(u=0.7)
    got = []
    node.open_session(CORR, b"GET k", lambda f: got.append((sim.now, f)))
    sim.run(until=5.0)
    assert got == [(0.7, wire.encode_error(CORR, b"timeout"))]
    # timeout answers the client, never the registry
    assert node.registry.pending[CORR].sessions == []


def test_duplicate_sessions_share_one_entry_and_both_release():
    sim, _, node, _ = rs_fixture()
    got1, got2 = [], []
    node.open_session(CORR, b"GET k", got1.append)
    node.open_session(CORR, b"GET k", got2.append)
    assert len(node.registry.pending) == 1
    node.deliver(CORR, b"NIL")
    assert got1 == got2 == [wire.encode_response(CORR, b"NIL")]


def test_delivery_counters():
    sim, _, node, counters = rs_fixture(u=0.2)
    node.deliver(CORR, b"X")
    assert counters["unknown_deliveries"] == 1
    node.open_session(CORR, b"GET k", lambda f: None)
    sim.run(until=1.0)   # session timed out; entry still pending
    node.deliver(CORR, b"VAL 1")
    assert counters["late_deliveries"] == 1
    # the entry left on delivery: a repeat is an unknown id
    node.deliver(CORR, b"VAL 1")
    assert counters["unknown_deliveries"] == 2
    assert counters["late_deliveries"] == 1


def test_rs_answers_an_empty_payload_with_a_violation():
    sim, _, node, counters = rs_fixture()
    got = []
    node.open_session(CORR, b"", got.append)
    assert got == [wire.encode_error(CORR, b"empty request payload")]
    assert counters["protocol_violations"] == 1
    assert node.registry.pending == {}
    sim.run(until=5.0)
    assert len(got) == 1


def test_rs_transport_endpoint_round_trip():
    sim, provider, node, _ = rs_fixture()
    provider.create_instance(ImageKind.MULTICASTER, instance_id="parent")
    provider.create_instance(ImageKind.REQUESTS_SERVER, instance_id="rs0")
    provider.rewrite_rules([], [FirewallRule("parent", "rs0", 80)])
    provider.bind("rs0", 80, on_request=node.on_request)
    sim.run(until=301)
    address = provider.instance("rs0").address
    bad = provider.request("parent", address, 80, b"garbage")
    sim.run(until=sim.now + 1)
    assert wire.decode_frame(bad.result())[2] == b"bad-frame"
    fut = provider.request("parent", address, 80, wire.encode_request(CORR, b"GET k"))
    sim.run(until=sim.now + 0.5)
    assert not fut.done
    node.deliver(CORR, b"NIL")
    sim.run(until=sim.now + 0.5)
    assert wire.decode_frame(fut.result()) == (wire.TYPE_RESPONSE, CORR, b"NIL")


# --- polling loop ------------------------------------------------------------------

def poll_fixture(n_rs=4, m=0.05, hop=(0.001, 0.005)):
    sim = Simulation(0)
    provider = CloudProvider(sim, EventLog(), hop_latency=hop)
    store = BackendStore()
    provider.create_instance(ImageKind.POLLING_TARGET, instance_id="db")
    nodes = []
    for i in range(n_rs):
        rs_id = f"rs{i}"
        provider.create_instance(ImageKind.REQUESTS_SERVER, instance_id=rs_id)
        provider.rewrite_rules([], [FirewallRule("db", rs_id, 3306)])
        node = RequestsServerNode(provider, rs_id, 5.0)
        provider.bind(rs_id, 3306, on_channel=node.on_poll_channel)
        nodes.append(node)
    sim.run(until=301)
    ps = PollingServerNode(provider, "db", store, m, 3306)
    ps.set_record([(f"rs{i}", provider.instance(f"rs{i}").address)
                   for i in range(n_rs)])
    return sim, provider, ps, nodes, store, provider.log


def test_duplicate_across_leaves_executes_once_delivers_everywhere():
    sim, _, ps, nodes, store, log = poll_fixture()
    answers = []
    for node in nodes:
        node.open_session(CORR, b"PUT k 1", answers.append)
    ps.start()
    sim.run(until=sim.now + 1.0)
    assert store.execution_counts() == {CORR: 1}
    assert answers == [wire.encode_response(CORR, b"OK")] * 4
    assert all(n.registry.pending == {} for n in nodes)
    cycles = log.of_kind("poll.cycle")
    assert cycles[0]["detail"]["executed"] == 1
    assert cycles[0]["detail"]["collected"] == 4
    assert cycles[0]["detail"]["delivered"] == 4


def test_executed_cache_blocks_reexecution_of_relisted_entries():
    sim, _, ps, nodes, store, _ = poll_fixture(n_rs=2)
    # rs1 reports the same id one cycle later (slow duplicate)
    nodes[0].open_session(CORR, b"PUT k 1", lambda f: None)
    ps.start()
    sim.run(until=sim.now + 0.3)
    nodes[1].open_session(CORR, b"PUT k 1", lambda f: None)
    sim.run(until=sim.now + 0.5)
    assert store.execution_counts() == {CORR: 1}
    assert nodes[1].registry.pending == {}


def test_executed_cache_evicts_beyond_window(monkeypatch):
    monkeypatch.setattr(target, "EXECUTED_WINDOW", 3)
    sim, _, ps, _, _, _ = poll_fixture(n_rs=0)
    ps.executed = {CORR: (1, b"OK")}
    ps.start()
    sim.run(until=sim.now + 1.0)   # many empty cycles at m=0.05
    assert CORR not in ps.executed


def test_executed_cache_drops_exactly_the_entries_older_than_the_horizon(monkeypatch):
    monkeypatch.setattr(target, "EXECUTED_WINDOW", 3)
    sim, _, ps, _, _, _ = poll_fixture(n_rs=0)
    cycles = [1, 1, 2, 3, 3, 4, 5, 5, 6]
    ids = [bytes([i]) * 16 for i in range(len(cycles))]
    ps.executed = {corr: (cycle, b"OK") for corr, cycle in zip(ids, cycles)}
    ps.cycle_no = 6
    ps.start()
    sim.run(until=sim.now)         # exactly one cycle: number 7, horizon 4
    assert ps.cycle_no == 7
    assert list(ps.executed) == [c for c, n in zip(ids, cycles) if n >= 4]
    sim.run(until=sim.now + 0.05)  # cycle 8, horizon 5
    assert ps.cycle_no == 8
    assert list(ps.executed) == [c for c, n in zip(ids, cycles) if n >= 5]


def test_set_record_drops_links_of_removed_endpoints():
    sim, provider, ps, nodes, _, _ = poll_fixture(n_rs=2)
    nodes[0].open_session(CORR, b"PUT k 1", lambda f: None)
    ps.start()
    sim.run(until=sim.now + 0.3)
    assert "rs0" in ps._links
    channel = ps._links["rs0"].channel
    keep = [("rs1", provider.instance("rs1").address)]
    ps.set_record(keep)
    assert "rs0" not in ps._links
    assert channel.state == "closed"
    assert ps.endpoints == keep


def test_lost_delivery_is_relisted_and_answered_from_the_executed_cache():
    sim, provider, ps, nodes, store, _ = poll_fixture(n_rs=2)
    closed = []

    class CloseOnFirstDelivery:
        """rs0's view of its poll channel: the first delivery frame that
        reaches it closes the channel instead of answering."""

        def __init__(self, channel):
            self.channel = channel

        def __getattr__(self, name):
            return getattr(self.channel, name)

        def on_message(self, fn):
            def guarded(data):
                if data[0] == wire.POLL_DELIVER and not closed:
                    closed.append(sim.now)
                    self.channel.close()
                    return
                fn(data)

            self.channel.on_message(guarded)

    provider.bind("rs0", 3306, on_channel=lambda channel: nodes[0].on_poll_channel(
        CloseOnFirstDelivery(channel)))
    answers = []
    for node in nodes:
        node.open_session(CORR, b"PUT k 1", answers.append)
    ps.start()
    sim.run(until=sim.now + 1.0)
    assert closed, "rs0 never received a delivery"
    assert store.execution_counts() == {CORR: 1}
    assert answers == [wire.encode_response(CORR, b"OK")] * 2
    assert all(n.registry.pending == {} for n in nodes)
    assert ps.counters["poll_errors"] == 1


def test_polling_survives_unreachable_endpoints():
    sim, provider, ps, nodes, store, _ = poll_fixture(n_rs=2)
    provider.terminate_instance("rs1")
    nodes[0].open_session(CORR, b"GET x", lambda f: None)
    ps.start()
    sim.run(until=sim.now + 0.5)
    assert store.execution_counts() == {CORR: 1}
    assert ps.counters["poll_errors"] >= 1


def next_wake_pending(ps):
    """Something will run the poller again: the end of its sleep or a step
    of its dial is on the heap, or it waits on an ask in flight."""
    resumptions = (ps._task.resume, ps.provider._accept_channel,
                   ps.provider._channel_ready)
    on_heap = any(handle.fn in resumptions for *_, handle in ps.sim._heap)
    return on_heap or any(link.inflight for link in ps._links.values())


def watch_poll_messages(provider, node, hook):
    """Bind node's poll endpoint so that hook(data) sees every message the
    poller sends it, just before the RS handles it."""

    class RsView:
        def __init__(self, channel):
            self.channel = channel

        def __getattr__(self, name):
            return getattr(self.channel, name)

        def on_message(self, fn):
            self.channel.on_message(lambda data: (hook(data), fn(data)))

    provider.bind(node.id, 3306,
                  on_channel=lambda channel: node.on_poll_channel(RsView(channel)))


def test_dropping_a_link_with_an_ask_in_flight_does_not_stall_the_poller():
    sim, provider, ps, nodes, store, _ = poll_fixture(n_rs=2)
    keep = [("rs1", provider.instance("rs1").address)]
    t0, dropped = sim.now + 0.5, []

    def drop_rs0_on_its_next_ask(data):
        # the poller holds this ask in flight until rs0's reply arrives
        if not dropped and sim.now >= t0 and data == wire.POLL_LIST_FRAME:
            dropped.append(ps.cycle_no)
            sim.schedule(0.0, ps.set_record, keep)

    watch_poll_messages(provider, nodes[0], drop_rs0_on_its_next_ask)
    # an event at t0 ends the idle dialogue's run off the heap, so the next
    # ask passes through rs0's on_message
    sim.schedule_at(t0, lambda: None)
    ps.start()
    sim.run(until=sim.now + 1.0)
    assert dropped, "no list ask reached rs0 after t0"
    answers = []
    nodes[1].open_session(CORR, b"GET k", answers.append)
    sim.run(until=sim.now + 4.0)
    assert ps.cycle_no > dropped[0] + 10, "the poller stalled"
    assert answers == [wire.encode_response(CORR, b"NIL")]
    assert list(ps._links) == ["rs1"]
    assert ps.counters["poll_errors"] == 1


def run_one_second(sim, ps, nodes, notes):
    sim.run(until=sim.now + 1.0)


def poll_two_idle_rss(monkeypatch, script=run_one_second, *, heap_driven,
                      hop=(0.001, 0.005)):
    """Start polling two idle RSs and hand the run to `script(sim, ps,
    nodes, notes)`, which schedules, runs and notes what it sees.  Returns
    the notes, the (sent, arrival) pair of every poll message, the cycle
    count, the failed-ask count and the dispatched event count."""
    sim, provider, ps, nodes, _, _ = poll_fixture(n_rs=2, hop=hop)
    notes, messages = [], []
    arrival = provider.channel_arrival

    def recorded(to, sent):
        at = arrival(to, sent)
        messages.append((sent, at))
        return at

    with monkeypatch.context() as patch:
        patch.setattr(provider, "channel_arrival", recorded)
        if heap_driven:
            patch.setattr(PollingServerNode, "_quiet", lambda self, *args: False)
        start = sim.events_processed
        ps.start()
        script(sim, ps, nodes, notes)
    return (notes, messages, ps.cycle_no, ps.counters["poll_errors"],
            sim.events_processed - start)


def test_a_heap_driven_idle_poll_makes_no_future(monkeypatch):
    # each ask parks the poller's task and its link resumes it; a Future per
    # ask would slow the wide workload, whose poller runs almost all from
    # the heap
    made = []

    def script(sim, ps, nodes, notes):
        sim.run(until=sim.now + 0.1)
        assert [link.usable for link in ps._links.values()] == [True, True]
        cycles = ps.cycle_no
        init = Future.__init__

        def counted(fut):
            made.append(fut)
            init(fut)

        with monkeypatch.context() as patch:
            patch.setattr(Future, "__init__", counted)
            run_one_second(sim, ps, nodes, notes)
        notes.append(ps.cycle_no - cycles)

    cycles = poll_two_idle_rss(monkeypatch, script, heap_driven=True)[0][0]
    assert cycles > 10
    assert made == []


def lazy_and_heap_driven(monkeypatch, script=run_one_second, **kwargs):
    """Run poll_two_idle_rss both ways; everything but the dispatched event
    count must match, and the lazy run must have dispatched fewer."""
    lazy = poll_two_idle_rss(monkeypatch, script, heap_driven=False, **kwargs)
    stepwise = poll_two_idle_rss(monkeypatch, script, heap_driven=True, **kwargs)
    assert lazy[:-1] == stepwise[:-1]
    assert lazy[-1] < stepwise[-1], "no idle cycle was replayed"
    return lazy


def heap_driven_messages(monkeypatch, **kwargs):
    """The poll messages of a heap-driven second of polling two idle RSs;
    each cycle sends four, and the first runs from t = 301."""
    return poll_two_idle_rss(monkeypatch, heap_driven=True, **kwargs)[1]


def at_then_one_second(t, prio, fn):
    """A script that schedules fn(sim, ps, notes) at (t, prio), then runs."""
    def script(sim, ps, nodes, notes):
        sim.schedule_at(t, fn, sim, ps, notes, priority=prio)
        run_one_second(sim, ps, nodes, notes)
    return script


def draw_a_hop(sim, ps, notes):
    notes.append(ps.provider.hop_latency())


@pytest.mark.parametrize("message, end, prio", [
    (16, 0, PRIO_ACTOR),      # the wake of cycle 5, as it sends rs0's ask
    (16, 1, PRIO_NETWORK),    # that ask reaching rs0
    (17, 1, PRIO_NETWORK),    # rs0's empty listing reaching the poller
], ids=["wake", "ask", "listing"])
def test_an_event_tied_with_a_replayed_poll_event_runs_first(monkeypatch, message,
                                                             end, prio):
    # the event draws from the shared stream, so its place among the
    # poller's draws shows in every later message
    t = heap_driven_messages(monkeypatch)[message][end]
    lazy_and_heap_driven(monkeypatch, at_then_one_second(t, prio, draw_a_hop))


def test_the_replay_bound_counts_one_longest_hop_per_hop(monkeypatch):
    # at a constant hop of 12.65 ms, cycle 4 wakes at 301.35240000000016 and
    # hears rs1's empty listing at 301.4030000000002, one ulp above the
    # closed form wake + 4 * 0.01265.  Only a bound added hop by hop, as the
    # dialogue adds, keeps that listing on the heap behind the set_record
    # tied with it, which then fails rs1's ask in flight.
    hop = (0.01265, 0.01265)
    last_listing = heap_driven_messages(monkeypatch, hop=hop)[15][1]

    def drop_rs1(sim, ps, notes):
        ps.set_record(ps.endpoints[:1])

    poll_errors = lazy_and_heap_driven(
        monkeypatch, at_then_one_second(last_listing, PRIO_NETWORK, drop_rs1),
        hop=hop)[3]
    assert poll_errors == 1


def test_an_event_scheduled_between_two_runs_keeps_its_place(monkeypatch):
    # the run stops mid-stretch and a draw is scheduled for the arrival of
    # a listing that the lazy run has not replayed yet
    messages = heap_driven_messages(monkeypatch)
    pause, tie = messages[25][1], messages[37][1]

    def script(sim, ps, nodes, notes):
        sim.run(until=pause)
        sim.schedule_at(tie, draw_a_hop, sim, ps, notes, priority=PRIO_NETWORK)
        sim.run(until=sim.now + 1.0)

    lazy_and_heap_driven(monkeypatch, script)


def test_a_session_opened_between_two_runs_mid_cycle_is_listed_next_cycle(monkeypatch):
    # cycle 2, the first that could go quiet, has heard rs0's empty listing
    # and waits on rs1's when the run stops and rs0 gains a session
    sent, arrived = heap_driven_messages(monkeypatch)[6]

    def script(sim, ps, nodes, notes):
        end = sim.now + 1.0
        sim.run(until=(sent + arrived) / 2)
        nodes[0].open_session(CORR, b"GET k", notes.append)
        sim.run(until=end)

    notes = lazy_and_heap_driven(monkeypatch, script)[0]
    assert notes == [wire.encode_response(CORR, b"NIL")]


def test_a_session_opened_between_a_run_and_a_run_until_is_served(monkeypatch):
    # the pause falls in the sleep after a cycle the lazy run replayed
    messages = heap_driven_messages(monkeypatch)
    pause = (messages[23][1] + messages[24][0]) / 2

    def script(sim, ps, nodes, notes):
        sim.run(until=pause)
        answered = Future()
        nodes[0].open_session(CORR, b"GET k", answered.resolve)
        notes.append((sim.run_until(answered), sim.now))

    notes = lazy_and_heap_driven(monkeypatch, script)[0]
    assert notes[0][0] == wire.encode_response(CORR, b"NIL")


def test_run_until_a_limit_with_an_idle_poller_raises_never_completes(monkeypatch):
    # the limit falls in the sleep after a cycle the lazy run replayed: the
    # next event is the following wake, and the clock stops at the limit
    messages = heap_driven_messages(monkeypatch)
    limit = (messages[27][1] + messages[28][0]) / 2

    def script(sim, ps, nodes, notes):
        with pytest.raises(RequestNeverCompletes) as raised:
            sim.run_until(Future(), limit=limit)
        notes.append((str(raised.value), sim.now))

    notes = lazy_and_heap_driven(monkeypatch, script)[0]
    assert notes == [(f"future unresolved at t={limit} "
                      f"(next event t={messages[28][0]})", limit)]


def garble_one_poll_message(sim, node, t0, *, inbound):
    """A poll endpoint for `node` whose channels replace the first message
    after t0 with an unknown poll frame type: the poller's ask on the way in
    (the RS then closes the channel with that ask in flight), or the RS's
    reply on the way out (the poller's link then rejects it).  Returns the
    endpoint, the garbling times and the channels it was handed."""
    fired, opened = [], []

    def garble(data):
        if fired or sim.now < t0:
            return data
        fired.append(sim.now)
        return b"\x77"

    class RsView:
        def __init__(self, channel):
            self.channel = channel

        def __getattr__(self, name):
            return getattr(self.channel, name)

        def on_message(self, fn):
            self.channel.on_message((lambda data: fn(garble(data))) if inbound else fn)

        def send(self, data):
            self.channel.send(data if inbound else garble(data))

    def on_channel(channel):
        opened.append(channel)
        node.on_poll_channel(RsView(channel))

    return on_channel, fired, opened


@pytest.mark.parametrize("inbound", [True, False],
                         ids=["rs-closes-channel", "garbled-reply"])
def test_poller_survives_a_broken_poll_channel(inbound):
    sim, provider, ps, nodes, store, _ = poll_fixture(n_rs=2)
    on_channel, fired, opened = garble_one_poll_message(
        sim, nodes[0], sim.now + 0.5, inbound=inbound)
    provider.bind("rs0", 3306, on_channel=on_channel)
    # an event at t0 ends the idle dialogue's run off the heap, so the next
    # message passes through rs0's channel view
    sim.schedule_at(sim.now + 0.5, lambda: None)
    ps.start()
    sim.run(until=sim.now + 1.0)
    assert fired, "no poll message crossed the channel after t0"
    # both RSs are served again, rs0 over a redialled channel
    answers = []
    for i, node in enumerate(nodes):
        node.open_session(bytes([i]) * 16, b"GET k", answers.append)
    cycles = ps.cycle_no
    sim.run(until=sim.now + 1.0)
    assert ps.cycle_no > cycles, "the poller stalled"
    assert next_wake_pending(ps), "the poller waits on nothing"
    assert sorted(answers) == sorted(
        wire.encode_response(bytes([i]) * 16, b"NIL") for i in range(2))
    assert store.execution_counts() == {bytes([0]) * 16: 1, bytes([1]) * 16: 1}
    assert ps.counters["poll_errors"] == 1
    # the broken channel is closed and the poller dialled a fresh one
    assert [channel.state for channel in opened] == ["closed", "open"]


# --- baseline database pair -----------------------------------------------------------

def baseline_fixture(u=1.0):
    sim = Simulation(0)
    provider = CloudProvider(sim, EventLog())
    store = BackendStore()
    provider.create_instance(ImageKind.MULTICASTER, instance_id="parent")
    provider.create_instance(ImageKind.MULTICASTER, instance_id="app")
    provider.create_instance(ImageKind.POLLING_TARGET, instance_id="db")
    provider.rewrite_rules([], [FirewallRule("parent", "app", 80)])
    sim.run(until=301)
    db = DatabaseServerNode(provider, "db", store)
    provider.bind("db", 3306, on_channel=db.on_channel)
    app = AppServerNode(provider, "app", provider.instance("db").address, u)
    provider.bind("app", 80, on_request=app.on_request)
    return sim, provider, store, provider.counters


def ask_app(sim, provider, payload, corr=CORR):
    fut = provider.request("parent", provider.instance("app").address, 80,
                           wire.encode_request(corr, payload))
    sim.run(until=sim.now + 3)
    return wire.decode_frame(fut.result())


def test_baseline_chain_runs_the_real_handshake():
    sim, provider, store, _ = baseline_fixture()
    provider.rewrite_rules([], [FirewallRule("app", "db", 3306)])
    assert ask_app(sim, provider, b"PUT k 1") == (wire.TYPE_RESPONSE, CORR, b"OK")
    assert ask_app(sim, provider, b"GET k", CORR2) == (
        wire.TYPE_RESPONSE, CORR2, b"VAL 1")
    # an empty request never reaches the database
    assert ask_app(sim, provider, b"", bytes(range(32, 48))) == (
        wire.TYPE_ERROR, bytes(range(32, 48)), b"bad-frame-type")
    assert store.execution_counts() == {CORR: 1, CORR2: 1}


def test_baseline_app_reports_missing_upstream():
    sim, provider, _, _ = baseline_fixture()
    # no app->db rule: channel open is refused
    ftype, _, reason = ask_app(sim, provider, b"GET k")
    assert (ftype, reason) == (wire.TYPE_ERROR, b"no-upstream")


def test_baseline_app_times_out_on_a_silent_database():
    sim, provider, _, _ = baseline_fixture(u=0.4)
    provider.rewrite_rules([], [FirewallRule("app", "db", 3306)])
    provider.bind("db", 3306, on_channel=lambda channel: None)   # accepts, stays mute
    ftype, _, reason = ask_app(sim, provider, b"GET k")
    assert (ftype, reason) == (wire.TYPE_ERROR, b"timeout")


@pytest.mark.parametrize("tamper, requests, replies, executed", [
    (True, [], 0, 0),
    (False, [wire.encode_session_frame(CORR, b"")], 1, 0),
    (False, [wire.encode_session_frame(CORR, b"PUT k 1"),
             wire.encode_session_frame(CORR2, b"GET k")], 2, 1),
], ids=["wrong-nonce", "empty-request", "second-request"])
def test_database_closes_the_channel_on_a_violation(tamper, requests, replies,
                                                    executed):
    # speak to the database as a raw client: echo its greeting (or a
    # tampered one), then send each request frame in turn
    sim, provider, store, counters = baseline_fixture()
    provider.rewrite_rules([], [FirewallRule("app", "db", 3306)])
    fut = provider.open_channel("app", provider.instance("db").address, 3306)
    sim.run(until=sim.now + 1)
    channel = fut.result()
    inbox = []
    channel.on_message(inbox.append)
    nonce = wire.decode_greeting(inbox[0])
    echo = bytes(b ^ 0xFF for b in nonce) if tamper else nonce
    channel.send(wire.encode_greeting(echo))
    for frame in requests:
        sim.run(until=sim.now + 1)
        channel.send(frame)
    sim.run(until=sim.now + 1)
    assert channel.state == "closed"
    assert counters["protocol_violations"] == 1
    # the greeting, then OK and the first request's response as far as the
    # session got before the violation
    expected = [wire.HS_OK, wire.encode_session_frame(CORR, b"OK")]
    assert inbox == [wire.encode_greeting(nonce)] + expected[:replies]
    assert len(store.execution_log) == executed


def test_app_rejects_a_response_for_a_foreign_correlation_id():
    sim, provider, _, _ = baseline_fixture()
    provider.rewrite_rules([], [FirewallRule("app", "db", 3306)])

    def foreign_database(channel):
        # a correct handshake whose one response names another request
        greeting = wire.encode_greeting(b"\x07" * 8)

        def on_message(data):
            if data == greeting:
                channel.send(wire.HS_OK)
            else:
                channel.send(wire.encode_session_frame(CORR2, b"NIL"))

        channel.on_message(on_message)
        channel.send(greeting)

    provider.bind("db", 3306, on_channel=foreign_database)
    assert ask_app(sim, provider, b"GET k") == (
        wire.TYPE_ERROR, CORR, b"upstream-failure")
