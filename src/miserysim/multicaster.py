"""Misery Multicaster node logic.

Every node in layers 1..d-1 runs this state machine: accept a request frame,
snapshot the address table, forward a copy to every child concurrently,
answer with the earliest successful child response, and discard (but count)
whatever arrives later.  A timeout of u applies at every layer.  The entry
point additionally translates between its public HTTP surface and the
internal framing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import wire
from .addresses import AddressRecord
from .cloud import CloudProvider, Exchange
from .errors import ProtocolViolation
from .sim import PRIO_RESOLVE


@dataclass(frozen=True)
class AddressTable:
    version: int
    children: tuple[tuple[str, str], ...]   # (node id, address)


EMPTY_TABLE = AddressTable(0, ())


def apply_address_update(table: AddressTable, update: AddressTable) -> AddressTable:
    """Monotone adoption: stale (non-newer) updates are ignored."""
    return update if update.version > table.version else table


class _Job:
    """One in-flight request at this node: fan-out bookkeeping and the
    same-instant winner election (lowest child index among ties)."""

    __slots__ = ("node", "corr", "respond", "deadline_handle", "decided",
                 "fanout", "failures", "winner", "resolve_handle")

    def __init__(self, node: "MulticasterNode", corr: bytes, respond) -> None:
        self.node = node
        self.corr = corr
        self.respond = respond
        self.deadline_handle = None
        self.decided = False
        self.fanout = 0
        self.failures = 0
        self.winner: tuple[int, bytes] | None = None
        self.resolve_handle = None

    def child_succeeded(self, index: int, payload: bytes) -> None:
        if self.decided:
            self.node.counters["discarded"] += 1
            return
        if self.winner is None or index < self.winner[0]:
            self.winner = (index, payload)
        if self.resolve_handle is None:
            # All same-instant deliveries run before this resolve event, so the
            # election sees every tie candidate.
            self.resolve_handle = self.node.sim.schedule(
                0.0, self._resolve, priority=PRIO_RESOLVE)

    def child_failed(self, index: int) -> None:
        self.node.counters["child_failures"] += 1
        if self.decided:
            return
        self.failures += 1
        if self.failures >= self.fanout and self.winner is None:
            self._finish_error(b"no-upstream")

    def timed_out(self) -> None:
        if not self.decided:
            self.deadline_handle = None
            self._finish_error(b"timeout")

    def _resolve(self) -> None:
        self.resolve_handle = None
        if self.decided or self.winner is None:
            return
        self._finish(wire.encode_response(self.corr, self.winner[1]))

    def _finish_error(self, reason: bytes) -> None:
        self._finish(wire.encode_error(self.corr, reason))

    def _finish(self, frame: bytes) -> None:
        self.decided = True
        if self.deadline_handle is not None:
            self.deadline_handle.cancel()
            self.deadline_handle = None
        if self.resolve_handle is not None:
            self.resolve_handle.cancel()
            self.resolve_handle = None
        self.respond(frame)


class MulticasterNode:
    def __init__(self, provider: CloudProvider, node_id: str, u: float, *,
                 is_entry: bool = False, table: AddressTable = EMPTY_TABLE):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.u = u
        self.counters = provider.counters
        self.is_entry = is_entry
        self.table = table
        self._corr_rng = self.sim.rng("correlation") if is_entry else None

    # -- address table -------------------------------------------------------

    def apply_update(self, record: AddressRecord) -> None:
        self.table = apply_address_update(
            self.table, AddressTable(record.version, record.entries))

    # -- inbound -------------------------------------------------------------

    def on_request(self, ex: Exchange, data: bytes) -> None:
        """Internal-frame endpoint (layers 2..d-1 receive from their parent)."""
        corr, payload, error = wire.decode_request(data)
        if error is not None:
            self.provider.respond(ex, error)
            return
        self.handle_request(corr, payload, ex.port,
                            lambda frame: self.provider.respond(ex, frame))

    def on_http(self, ex: Exchange, data: bytes) -> None:
        """Public HTTP surface (entry point only)."""
        try:
            method, path, body = wire.parse_http_request(data)
        except ProtocolViolation as err:
            self.provider.respond(ex, wire.encode_http_response(
                400, str(err).encode("ascii", "replace")))
            return
        if method == "GET":
            payload = b"GET " + path.lstrip("/").encode("utf-8")
        else:
            payload = body
        if not payload:
            self.provider.respond(ex, wire.encode_http_response(400, b"empty request"))
            return
        if len(payload) > wire.MAX_PAYLOAD:
            # the internal frame could not carry it
            self.provider.respond(ex, wire.encode_http_response(400, b"request too large"))
            return
        corr = wire.new_correlation_id(self._corr_rng)
        headers = {"X-Request-Id": corr.hex()}

        def respond(frame: bytes) -> None:
            ftype, _, answer = wire.decode_frame(frame)
            if ftype == wire.TYPE_RESPONSE:
                self.provider.respond(ex, wire.encode_http_response(200, answer, headers))
            elif answer == b"timeout":
                self.provider.respond(ex, wire.encode_http_response(504, answer, headers))
            else:
                self.provider.respond(ex, wire.encode_http_response(502, answer, headers))

        # The public port doubles as the tree transport port.
        self.handle_request(corr, payload, ex.port, respond)

    # -- core ----------------------------------------------------------------

    def handle_request(self, corr: bytes, payload: bytes, port: int, respond) -> None:
        """Fan out to every child on the same service port; first success wins."""
        children = self.table.children
        job = _Job(self, corr, respond)
        if not children:
            self.counters["no_children"] += 1
            job.fanout = 0
            job._finish_error(b"no-children")
            return
        job.fanout = len(children)
        frame = wire.encode_request(corr, payload)
        futures = [
            (index, self.provider.request(self.id, address, port, frame))
            for index, (_, address) in enumerate(children)
        ]
        job.deadline_handle = self.sim.schedule(self.u, job.timed_out)
        for index, future in futures:
            future.add_done_callback(
                lambda fut, i=index: self._on_child_done(job, i, fut))

    def _on_child_done(self, job: _Job, index: int, fut) -> None:
        if fut.failed:
            job.child_failed(index)
            return
        try:
            ftype, _, payload = wire.decode_frame(fut.result())
        except ProtocolViolation:
            job.child_failed(index)
            return
        if ftype == wire.TYPE_RESPONSE:
            job.child_succeeded(index, payload)
        else:
            job.child_failed(index)
