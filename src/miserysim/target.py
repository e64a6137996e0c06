"""Isolated Target machinery.

Layer-d Requests Servers stand in for the database: each holds the request
it is handed, with the client sessions waiting on it, in its pending-request
registry.  The target never accepts a connection; its Polling Server dials
out to every RS each interval m, lists everything each RS still holds,
deduplicates across RSs and against an executed-id cache, executes each
unique payload exactly once against the backend store, and delivers the
cached response to every holder, which then drops the entry.  The poll keeps
no per-RS state: an entry whose listing or delivery was lost is listed again
next cycle, and the executed cache answers it without a second execution.

The poller runs from `start()` for the life of the simulation, as a kernel
Task.  It parks on each ask (the ask returns None, so no Future is made per
ask), and the link resumes the task straight from its message callback with
the reply or the error that ends it.  A dial is an ordinary Future, and the
sleep of m between cycles is one scheduled `resume` unless it runs inline.
An exception the task does not catch leaves the event loop and ends the
run.  No poll message is matched by value: both ends parse every one
through `wire.decode_poll`, whose cache serves the idle dialogue's list ask
and empty listing.

Pure round trips run off the heap.  Most of the dialogue touches only one
RS's registry and the shared `net` stream: a list ask on a usable link,
whatever the listing holds, and a delivery whose pending entry has no
waiting session, or is not pending at all (the RS then only pops and counts
it, as `late_deliveries` or `unknown_deliveries`, and acks).  A delivery to
a waiting session answers it with a `net` draw and an exchange event, and a
dial opens its channel through heap events; both stay on the heap.  By
conservative lookahead (Chandy and Misra, IEEE TSE 1979), events that
surely end before the next due event may run without the queue.  So the
poller reads `due = sim.next_due()` after every yield and keeps the clock
of its inline round trips in a local `at`; `_cycle` runs a pure round trip
inline whenever `(at + hop_max) + hop_max < due < inf`, with
`CloudProvider.hop_max` the longest draw, drawing both arrivals with
`CloudProvider.channel_arrival` as the heap would, and `_loop` sleeps
inline whenever the next wake falls before `due`.  An ask to an empty
registry lists nothing, and a cycle that listed nothing delivers nothing,
so a run of idle cycles crosses no heap event.  Nothing run inline
schedules an event, so `due` stays valid between two yields.

The clock moves only before something reads it: `Simulation.advance` takes
it to `at` before a heap ask or a dial, before the RS lists a non-empty
registry (perfbench's tracer stamps that listing), before the executions
and the `poll.cycle` record, and at an inline wake.  It is called only when
`at` differs from the clock, since it refuses the clock's own instant when
an event is due there.  The draws are the heap-driven dialogue's, in its
order, and every stamp reads the clock the heap would set, so every
artifact is byte for byte what the heap writes.

The bound is exact.  No FIFO clamp binds on a link the poller asks: it asks
only after its previous ask was answered, and an RS sends only replies, so
each end of the link last received a message before `at`.  Each hop then
ends at most one longest draw after it starts, and rounded addition is
monotone, so the bound, added hop by hop as the dialogue adds, never falls
below the real end; a closed form such as `at + 2*hi` can round one ulp
below it.

The poller reaches an RS through the channel: `RequestsServerNode.
on_poll_channel` marks the end it serves (`Channel.server`), and a link
runs inline only if its peer end is marked.  A view that wraps an RS's
channel (the fault tests' RSs) gets the mark instead of the real end, so
such a link keeps the heap-driven dialogue.

The inline dialogue moves the clock, so nothing may follow the poller's
resume in the same event.  The task resumes at its wake, a heap event of
its own; at a reply, in `_PollLink._on_message`, the last step of a channel
delivery (a real RS answers each message with one message of one reply); at
`fail`, from an `on_error` event of its own, or from `apply_update`, which
closes every dropped link first (a close schedules nothing there, because
the RS end installs no `on_error`) and then fails their asks, at most one
of which is in flight; and at a dial future, which `_accept_channel`,
`_channel_ready` or a refusal settles as its last step.  The Address Server
delivers `apply_update` as an event of its own.  Outside a loop
`next_due()` is -inf, so a poller resumed between two runs (tests call
`apply_update` there) runs nothing inline.

Only the baseline (d=0) chain speaks the real database handshake:
DatabaseServerNode owns it and AppServerNode is its client, so the
differential oracle exercises a truly independent data path.  Each side counts the session's steps (greeting or echo, OK, one
request, one response) and decodes every step as one whole message.
"""

from __future__ import annotations

import math

from . import wire
from .addresses import AddressRecord
from .cloud import Channel, CloudProvider, Exchange
from .errors import ConnectionRefused, ProtocolViolation, SessionSevered
from .sim import Future
from .topology import DATABASE


class BackendStore:
    """Deterministic key-value store; the stand-in for the real database.

    Request grammar (single line, UTF-8): ``GET <key>`` | ``PUT <key> <value>``
    | ``DEL <key>``.  Responses: ``VAL <value>`` | ``OK`` | ``NIL``; anything
    unparseable answers ``ERR`` (defensive, outside the grammar).  Every
    execution is appended to execution_log for exactly-once audits.
    """

    def __init__(self) -> None:
        self.data: dict[str, str] = {}
        self.execution_log: list[tuple[bytes, bytes, bytes]] = []

    def execute(self, correlation_id: bytes, payload: bytes) -> bytes:
        response = self._run(payload)
        self.execution_log.append((correlation_id, payload, response))
        return response

    def _run(self, payload: bytes) -> bytes:
        try:
            text = payload.decode("utf-8")
        except UnicodeDecodeError:
            return b"ERR"
        parts = text.split(" ", 2)
        op = parts[0]
        if op == "GET" and len(parts) == 2:
            value = self.data.get(parts[1])
            return b"NIL" if value is None else b"VAL " + value.encode("utf-8")
        if op == "PUT" and len(parts) == 3:
            self.data[parts[1]] = parts[2]
            return b"OK"
        if op == "DEL" and len(parts) == 2:
            return b"OK" if self.data.pop(parts[1], None) is not None else b"NIL"
        return b"ERR"

    def execution_counts(self) -> dict[bytes, int]:
        counts: dict[bytes, int] = {}
        for corr, _, _ in self.execution_log:
            counts[corr] = counts.get(corr, 0) + 1
        return counts


class _RsSession:
    """One upstream request blocked at an RS awaiting the polled response."""

    __slots__ = ("corr", "respond", "timer")

    def __init__(self, corr, respond):
        self.corr = corr
        self.respond = respond
        self.timer = None


class PendingRequest:
    """A request an RS holds until its response is delivered, and the
    sessions still waiting on it (none once they have all timed out)."""

    __slots__ = ("payload", "sessions")

    def __init__(self, payload: bytes):
        self.payload = payload
        self.sessions: list[_RsSession] = []


class RequestRegistry:
    """Insertion-ordered correlation-id -> pending request map, in memory.

    An entry leaves when its response is delivered, so the registry holds
    exactly what is still pending and every listing returns all of it.
    """

    def __init__(self) -> None:
        self.pending: dict[bytes, PendingRequest] = {}

    def enqueue(self, corr: bytes, payload: bytes) -> PendingRequest:
        """Hold a new request; a pending id returns its existing entry."""
        entry = self.pending.get(corr)
        if entry is None:
            entry = self.pending[corr] = PendingRequest(payload)
        return entry

    def list_pending(self) -> tuple[list[tuple[bytes, bytes]], int]:
        # a (batch, size) pair: perfbench's tracer reads the batch as item 0
        batch = [(corr, entry.payload) for corr, entry in self.pending.items()]
        return batch, len(batch)

    def deliver(self, corr: bytes) -> PendingRequest | None:
        """Drop and return the pending entry, or None if corr is not pending."""
        return self.pending.pop(corr, None)


class RequestsServerNode:
    """Layer-d node: registers requests for the poller, holds their sessions."""

    def __init__(self, provider: CloudProvider, node_id: str, u: float):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.registry = RequestRegistry()
        self.u = u
        self.counters = provider.counters

    # -- upstream transport endpoint ------------------------------------------

    def on_request(self, ex: Exchange, data: bytes) -> None:
        corr, payload, error = wire.decode_request(data)
        if error is not None:
            self.provider.respond(ex, error)
            return
        self.open_session(corr, payload,
                          lambda frame: self.provider.respond(ex, frame))

    def open_session(self, corr: bytes, payload: bytes, respond) -> None:
        """Register the request and hold its session until the poller
        delivers the response or u runs out."""
        if not payload:
            self.counters["protocol_violations"] += 1
            respond(wire.encode_error(corr, b"empty request payload"))
            return
        session = _RsSession(corr, respond)
        session.timer = self.sim.schedule(self.u, self._session_timeout, session)
        self.registry.enqueue(corr, payload).sessions.append(session)

    def _session_timeout(self, session: _RsSession) -> None:
        # delivery cancels the timer, so the session is still waiting here;
        # the entry stays pending: a timeout answers the client, not the registry
        self.registry.pending[session.corr].sessions.remove(session)
        session.respond(wire.encode_error(session.corr, b"timeout"))

    def deliver(self, corr: bytes, response: bytes) -> None:
        """Poll-protocol delivery: drop the pending entry and release its
        blocked sessions.  An id not pending here (never held, or delivered
        already) is a poller fault, counted and otherwise ignored."""
        entry = self.registry.deliver(corr)
        if entry is None:
            self.counters["unknown_deliveries"] += 1
            return
        if not entry.sessions:
            self.counters["late_deliveries"] += 1
            return
        for session in entry.sessions:
            session.timer.cancel()
            session.respond(wire.encode_response(corr, response))

    # -- poll endpoint ----------------------------------------------------------

    def on_poll_channel(self, channel: Channel) -> None:
        channel.server = self    # the poller may run this end's replies inline

        def on_message(data: bytes) -> None:
            try:
                events = wire.decode_poll(data)
            except ProtocolViolation:
                channel.close()
                return
            replies = []
            for event in events:
                if event[0] == "list":
                    batch, _ = self.registry.list_pending()
                    replies.append(wire.encode_poll_listing(batch))
                elif event[0] == "deliver":
                    self.deliver(event[1], event[2])
                    replies.append(wire.POLL_ACK_FRAME)
                else:
                    channel.close()
                    return
            if replies:
                channel.send(b"".join(replies))

        channel.on_message(on_message)


# an ask that failed leaves its link unusable: cut, refused or garbled
_LINK_FAILURES = (ConnectionRefused, SessionSevered, ProtocolViolation)


class _PollLink:
    """Persistent channel to one RS.  Replies come back in ask order, so the
    link counts its asks in flight and hands each reply, or the error that
    ends them, to the one `reply(event, err)` callback."""

    __slots__ = ("channel", "inflight", "reply")

    def __init__(self, channel: Channel, reply):
        self.channel = channel
        self.inflight = 0
        self.reply = reply
        channel.on_message(self._on_message)
        channel.on_error(self.fail)

    def _on_message(self, data: bytes) -> None:
        try:
            events = wire.decode_poll(data)
        except ProtocolViolation as err:
            self.fail(err)
            return
        for event in events:
            if self.inflight:
                self.inflight -= 1
                self.reply(event, None)

    def fail(self, err: Exception) -> None:
        if self.inflight:
            self.inflight = 0
            self.reply(None, err)

    @property
    def usable(self) -> bool:
        return self.channel.state == "open"

    def ask(self, frame: bytes) -> None:
        """Send one ask; the poller yields the None this returns, to park
        until the link hands it the reply."""
        self.inflight += 1
        self.channel.send(frame)


# poll cycles an executed id stays cached: a minute or more at m = 0.1 s
EXECUTED_WINDOW = 600


class PollingServerNode:
    """Target-resident poller: the only component that touches the store."""

    def __init__(self, provider: CloudProvider, node_id: str,
                 store: BackendStore, m: float, *, table: AddressRecord):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.store = store
        self.m = m
        self.counters = provider.counters
        self.table = table    # children: the layer-d endpoints it polls
        self.executed: dict[bytes, tuple[int, bytes]] = {}
        self._links: dict[str, _PollLink] = {}
        self.cycle_no = 0
        self._task = None     # the running _loop(), from start() on

    def apply_update(self, record: AddressRecord) -> None:
        """Poll the layer-d endpoints of the record the Address Server
        delivered (the newest: it delivers in version order).  A dropped
        link fails its ask in flight, so the cycle moves on."""
        self.table = record
        live = {rs_id for rs_id, _ in record.children}
        dropped = [self._links.pop(r) for r in list(self._links) if r not in live]
        # every close before the fail that may resume the poller: see the
        # module notes
        for link in dropped:
            link.channel.close()
        for link in dropped:
            link.fail(SessionSevered("endpoint left the poll record"))

    def start(self) -> None:
        """Poll from now on, for the life of the simulation."""
        self._task = self.sim.spawn(self._loop())

    def _loop(self):
        # sleep m between cycles, not on a fixed grid: a grid would let the
        # closed-loop client phase-lock to it and hide the per-endpoint cost.
        # A wake before the next due event is slept inline, on the clock
        sim = self.sim
        due = sim.next_due()
        while True:
            at, due = yield from self._cycle(due)
            wake = at + self.m
            self._evict()
            if sim.now < wake < due < math.inf:
                sim.advance(wake)
            else:
                sim.schedule_at(wake, self._task.resume)
                yield
                due = sim.next_due()

    def _dial_link(self, rs_id: str, address: str):
        """Dial rs_id afresh, replacing a missing or unusable link."""
        self._links.pop(rs_id, None)
        try:
            channel = yield self.provider.open_channel(self.id, address, DATABASE.port)
        except (ConnectionRefused, SessionSevered):
            self.counters["poll_errors"] += 1
            return None
        link = _PollLink(channel, self._task.resume)
        self._links[rs_id] = link
        return link

    def _drop_link(self, rs_id: str) -> None:
        """Count a failed ask and forget its link; the next cycle redials."""
        self.counters["poll_errors"] += 1
        link = self._links.pop(rs_id, None)
        if link is not None:
            link.channel.close()

    def _catch_up(self, at: float) -> None:
        """Move the clock to `at`, where the inline round trips ended,
        before something reads it."""
        if at != self.sim.now:
            self.sim.advance(at)

    def _cycle(self, due: float):
        """Poll every endpoint once, with `due` the next due event.  Returns
        the instant the cycle ends, which the clock reaches only if
        something read it on the way, and the next due event then.  See the
        module notes."""
        sim = self.sim
        hop_max, arrival = self.provider.hop_max, self.provider.channel_arrival
        self.cycle_no += 1
        endpoints = self.table.children
        reporters: dict[bytes, list[str]] = {}
        fresh: list[tuple[bytes, bytes]] = []
        collected = 0
        at, links, inf = sim.now, self._links, math.inf
        for rs_id, address in endpoints:
            link = links.get(rs_id)
            if link is None or not link.usable:
                self._catch_up(at)
                link = yield from self._dial_link(rs_id, address)
                due, at = sim.next_due(), sim.now
                if link is None:
                    continue
            channel = link.channel
            rs = channel.peer.server
            if rs is not None and (at + hop_max) + hop_max < due < inf:
                # the ask reaches the RS, and its listing the poller
                at = arrival(channel.peer, at)
                entries = ()
                if rs.registry.pending:
                    self._catch_up(at)
                    entries = rs.registry.list_pending()[0]
                at = arrival(channel, at)
            else:
                self._catch_up(at)
                try:
                    event = yield link.ask(wire.POLL_LIST_FRAME)
                except _LINK_FAILURES:
                    self._drop_link(rs_id)
                    event = None
                due, at = sim.next_due(), sim.now
                if event is None:
                    continue
                if event[0] != "listing":
                    self.counters["poll_errors"] += 1
                    continue
                entries = event[1]
            if not entries:
                continue
            collected += len(entries)
            for corr, payload in entries:
                if corr not in self.executed and corr not in reporters:
                    fresh.append((corr, payload))
                reporters.setdefault(corr, []).append(rs_id)
        if not collected:
            return at, due
        self._catch_up(at)
        for corr, payload in fresh:
            response = self.store.execute(corr, payload)
            self.executed[corr] = (self.cycle_no, response)
        # each RS is handed the ids it reported, in the order they were
        # first listed by any RS; a failed ask ends its deliveries for this
        # cycle, and what it still holds is listed again next cycle
        reported: dict[str, list[bytes]] = {}
        for corr, holders in reporters.items():
            for rs_id in holders:
                reported.setdefault(rs_id, []).append(corr)
        delivered = 0
        for rs_id, _ in endpoints:
            link = links.get(rs_id)
            for corr in reported.get(rs_id, ()):
                if link is None or not link.usable:
                    break
                response = self.executed[corr][1]
                rs = link.channel.peer.server
                if rs is not None and (at + hop_max) + hop_max < due < inf:
                    # pure unless a session waits on the entry
                    entry = rs.registry.pending.get(corr)
                    if entry is None or not entry.sessions:
                        at = arrival(link.channel.peer, at)
                        rs.deliver(corr, response)
                        at = arrival(link.channel, at)
                        delivered += 1
                        continue
                self._catch_up(at)
                try:
                    event = yield link.ask(wire.encode_poll_delivery(corr, response))
                except _LINK_FAILURES:
                    self._drop_link(rs_id)
                    event = None
                due, at = sim.next_due(), sim.now
                if event is None:
                    break
                if event[0] == "ack":
                    delivered += 1
        self._catch_up(at)
        self.provider.log.emit(at, "poll.cycle", instance=self.id,
                               detail={"cycle": self.cycle_no, "collected": collected,
                                       "executed": len(fresh), "delivered": delivered})
        return at, due

    def _evict(self) -> None:
        # the executed cache must outlive any re-listing of a still-pending
        # entry (delivery outages last seconds; the window spans minutes).
        # Only fresh ids are inserted, so the dict is in cycle order and the
        # stale entries are a prefix of it.
        horizon = self.cycle_no - EXECUTED_WINDOW
        executed = self.executed
        while executed:
            oldest = next(iter(executed))
            if executed[oldest][0] >= horizon:
                break
            del executed[oldest]


class DatabaseServerNode:
    """Baseline-chain database: the genuine owner of the handshake protocol."""

    def __init__(self, provider: CloudProvider, node_id: str,
                 store: BackendStore):
        self.provider = provider
        self.id = node_id
        self.store = store
        self.counters = provider.counters
        self._nonce_rng = provider.sim.rng("nonce")

    def on_channel(self, channel: Channel) -> None:
        nonce = self._nonce_rng.getrandbits(64).to_bytes(8, "big")
        step = 0    # 0: await the echo, 1: await the request, 2: answered

        def on_message(data: bytes) -> None:
            nonlocal step
            try:
                if step == 0:
                    if wire.decode_greeting(data) != nonce:
                        raise ProtocolViolation("nonce mismatch in greeting echo")
                    step = 1
                    channel.send(wire.HS_OK)
                    return
                if step != 1:
                    raise ProtocolViolation("bytes after the session's one request")
                corr, payload = wire.decode_session_frame(data)
                if not payload:
                    raise ProtocolViolation("empty request payload")
            except ProtocolViolation:
                self.counters["protocol_violations"] += 1
                channel.close()
                return
            step = 2
            response = self.store.execute(corr, payload)
            channel.send(wire.encode_session_frame(corr, response))

        channel.on_message(on_message)
        channel.send(wire.encode_greeting(nonce))


class AppServerNode:
    """Baseline-chain application server: database client behind the entry."""

    def __init__(self, provider: CloudProvider, node_id: str,
                 db_address: str, u: float):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.db_address = db_address
        self.u = u

    def on_request(self, ex: Exchange, data: bytes) -> None:
        corr, payload, error = wire.decode_request(data)
        if error is None and not payload:
            error = wire.encode_error(corr, b"bad-frame-type")
        if error is not None:
            self.provider.respond(ex, error)
            return
        self.sim.spawn(self._session(ex, corr, payload))

    def _session(self, ex: Exchange, corr: bytes, payload: bytes):
        try:
            channel = yield self.provider.open_channel(self.id, self.db_address,
                                                       DATABASE.port)
        except (ConnectionRefused, SessionSevered):
            self.provider.respond(ex, wire.encode_error(corr, b"no-upstream"))
            return
        done = Future()
        step = 0    # 0: await the greeting, 1: await OK, 2: await the response

        def on_message(data: bytes) -> None:
            nonlocal step
            try:
                if step == 0:
                    channel.send(wire.encode_greeting(wire.decode_greeting(data)))
                elif step == 1:
                    if data != wire.HS_OK:
                        raise ProtocolViolation("expected OK frame")
                    channel.send(wire.encode_session_frame(corr, payload))
                else:
                    got, response = wire.decode_session_frame(data)
                    if got != corr:
                        raise ProtocolViolation("response for a different correlation id")
                    done.resolve(response)
            except ProtocolViolation as err:
                done.reject(err)
                return
            step += 1

        channel.on_message(on_message)
        channel.on_error(done.reject)
        # the timer resolves done with None: no backend response is None
        timer = self.sim.schedule(self.u, done.resolve, None)
        try:
            response = yield done
        except (ProtocolViolation, SessionSevered):
            self.provider.respond(ex, wire.encode_error(corr, b"upstream-failure"))
            channel.close()
            return
        finally:
            timer.cancel()
        if response is None:
            self.provider.respond(ex, wire.encode_error(corr, b"timeout"))
            channel.close()
            return
        channel.close()
        self.provider.respond(ex, wire.encode_response(corr, response))
