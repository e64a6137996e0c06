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
sleep of m between cycles is one scheduled `resume`.  An exception the task
does not catch leaves the event loop and ends the run.  The idle dialogue's
two constant messages, the one-byte list ask and the empty listing, are
matched by value and never parsed.

An idle poll costs no heap event while no other event is due.  A cycle is
quiet when every RS answered an empty listing and the simulation ran
exactly 2n events from its wake to its last listing: the wake, n asks and
n - 1 listings, with the last listing the one running, all in one call of
the event loop.  No other event ran, and no code outside the loop, so
nothing was enqueued at any RS and no poll link was cut: until some other
event runs, every later cycle is idle too and is pure arithmetic.  When a
quiet cycle ends, the poller asks the kernel for `next_due()` and replays
every whole idle cycle that surely ends before it, with the same hop draws
from the shared `net` stream (`CloudProvider.channel_arrival`), the cycle
count and the executed-cache eviction, and no call to `list_pending`.  The
wake of the first cycle that might not end in time is scheduled as an
ordinary heap event, so the poller is never off the heap between two
events, and every artifact is byte for byte what the heap-driven dialogue
writes.

"Surely ends before" is a bound made with the replay's own arithmetic: the
wake plus `CloudProvider.hop_max` (the longest draw), added once per hop
for the cycle's 2n hops.  It is exact, because in a quiet cycle no FIFO
clamp binds (every channel end last received a message in an earlier
cycle), so each hop ends at most one longest draw after it starts, and
rounded addition is monotone, so the bound never falls below the real end.
A closed form such as `wake + 2*n*hi` can round one ulp below it.

Only the baseline (d=0) chain speaks the real database handshake:
DatabaseServerNode owns it and AppServerNode is its client, so the
differential oracle exercises a truly independent data path.  Each side counts the session's steps (greeting or echo, OK, one
request, one response) and decodes every step as one whole message.
"""

from __future__ import annotations

import math

from . import wire
from .cloud import Channel, CloudProvider, Exchange
from .errors import ConnectionRefused, ProtocolViolation, SessionSevered, TimeoutFailure
from .sim import Future, PRIO_ACTOR
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
        def on_message(data: bytes) -> None:
            if data == wire.POLL_LIST_FRAME:
                batch, _ = self.registry.list_pending()
                channel.send(wire.encode_poll_listing(batch))
                return
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
        if data == _EMPTY_LISTING:
            events = _EMPTY_LISTING_EVENTS
        else:
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


# an idle RS answers every list ask with this one message
_EMPTY_LISTING = wire.encode_poll_listing([])
_EMPTY_LISTING_EVENTS = (("listing", ()),)


# poll cycles an executed id stays cached: a minute or more at m = 0.1 s
EXECUTED_WINDOW = 600


class PollingServerNode:
    """Target-resident poller: the only component that touches the store."""

    def __init__(self, provider: CloudProvider, node_id: str,
                 store: BackendStore, m: float, poll_port: int):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.store = store
        self.m = m
        self.poll_port = poll_port
        self.counters = provider.counters
        self.endpoints: list[tuple[str, str]] = []
        self.executed: dict[bytes, tuple[int, bytes]] = {}
        self._links: dict[str, _PollLink] = {}
        self.cycle_no = 0
        self._task = None     # the running _loop(), from start() on
        # the links of a quiet cycle that just ended, in endpoint order
        self._idle: list[_PollLink] | None = None

    def set_record(self, entries) -> None:
        """Adopt a new layer-d endpoint list from the Address Server.  A
        dropped link fails its ask in flight, so the cycle moves on."""
        self.endpoints = [tuple(e) for e in entries]
        live = {rs_id for rs_id, _ in self.endpoints}
        dropped = [self._links.pop(r) for r in list(self._links) if r not in live]
        for link in dropped:
            link.channel.close()
            link.fail(SessionSevered("endpoint left the poll record"))

    def start(self) -> None:
        """Poll from now on, for the life of the simulation."""
        self._task = self.sim.spawn(self._loop(), priority=PRIO_ACTOR)

    def _replay(self, at: float) -> float:
        """Replay the idle cycles from the wake at `at` that surely end
        before the next due event; returns the wake of the first that might
        not.  See the module notes."""
        links, self._idle = self._idle, None
        due = self.sim.next_due()
        hop_max = self.provider.hop_max
        arrival = self.provider.channel_arrival
        hops = range(2 * len(links))
        while True:
            end = at
            for _ in hops:
                end += hop_max
            if not end < due < math.inf:
                break
            self.cycle_no += 1
            for link in links:
                # the ask reaches the RS, and its empty listing the poller
                at = arrival(link.channel, arrival(link.channel.peer, at))
            at += self.m
        self._evict()
        return at

    def _loop(self):
        # sleep m between cycles, not on a fixed grid: a grid would let the
        # closed-loop client phase-lock to it and hide the per-endpoint cost
        while True:
            yield from self._cycle()
            at = self.sim.now + self.m
            if self._idle is not None:
                at = self._replay(at)
            self.sim.schedule_at(at, self._task.resume, priority=PRIO_ACTOR)
            yield

    def _dial_link(self, rs_id: str, address: str):
        """Dial rs_id afresh, replacing a missing or unusable link."""
        self._links.pop(rs_id, None)
        try:
            channel = yield self.provider.open_channel(self.id, address, self.poll_port)
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

    def _quiet(self, mark: int, idle: int, n: int) -> bool:
        """Whether the cycle whose wake ran at event count `mark` was quiet:
        all n leaves answered an empty listing, no event but its own 2n ran,
        and no code outside the event loop ran since its wake either."""
        sim = self.sim
        return (idle == n and mark >= sim.loop_entry
                and sim.events_processed - mark == 2 * n)

    def _cycle(self):
        self.cycle_no += 1
        mark = self.sim.events_processed
        endpoints = list(self.endpoints)
        reporters: dict[bytes, list[str]] = {}
        fresh: list[tuple[bytes, bytes]] = []
        collected = idle = 0
        for rs_id, address in endpoints:
            link = self._links.get(rs_id)
            if link is None or not link.usable:
                link = yield from self._dial_link(rs_id, address)
                if link is None:
                    continue
            try:
                event = yield link.ask(wire.POLL_LIST_FRAME)
            except _LINK_FAILURES:
                self._drop_link(rs_id)
                continue
            if event[0] != "listing":
                self.counters["poll_errors"] += 1
                continue
            entries = event[1]
            if not entries:
                idle += 1
                continue
            collected += len(entries)
            for corr, payload in entries:
                if corr not in self.executed and corr not in reporters:
                    fresh.append((corr, payload))
                reporters.setdefault(corr, []).append(rs_id)
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
            link = self._links.get(rs_id)
            for corr in reported.get(rs_id, ()):
                if link is None or not link.usable:
                    break
                try:
                    event = yield link.ask(
                        wire.encode_poll_delivery(corr, self.executed[corr][1]))
                except _LINK_FAILURES:
                    self._drop_link(rs_id)
                    break
                if event[0] == "ack":
                    delivered += 1
        self._evict()
        if fresh or collected or delivered:
            self.provider.log.emit(self.sim.now, "poll.cycle", instance=self.id,
                          detail={"cycle": self.cycle_no, "collected": collected,
                                  "executed": len(fresh), "delivered": delivered})
        if self._quiet(mark, idle, len(endpoints)):
            self._idle = [self._links[rs_id] for rs_id, _ in endpoints]

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
        self.sim.spawn(self._session(ex, corr, payload), priority=PRIO_ACTOR)

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
        timer = self.sim.schedule(self.u, done.reject, TimeoutFailure("db timeout"))
        try:
            response = yield done
        except TimeoutFailure:
            self.provider.respond(ex, wire.encode_error(corr, b"timeout"))
            channel.close()
            return
        except (ProtocolViolation, SessionSevered):
            self.provider.respond(ex, wire.encode_error(corr, b"upstream-failure"))
            channel.close()
            return
        finally:
            timer.cancel()
        channel.close()
        self.provider.respond(ex, wire.encode_response(corr, response))
