"""Misery Multicaster node logic.

Every node in layers 1..d-1 runs this state machine: accept a request frame,
snapshot the children of its Address Server record, forward a copy to every
child concurrently, answer with the earliest successful child response, and
discard (but count) whatever arrives later.  The first success answers
inside its own delivery event, so of two successes at one instant the one
scheduled first wins; which one wins shows nowhere, since every successful
reply for an id carries the cached response of its one execution.  A
timeout of u applies at every layer.  Every hop, the public one included,
rides HTTP's port.  The entry point additionally translates between its
public HTTP surface and the internal framing.
"""

from __future__ import annotations

from . import wire
from .addresses import AddressRecord
from .cloud import CloudProvider, Exchange
from .errors import ProtocolViolation
from .topology import HTTP


class _Job:
    """One in-flight request at this node: its fan-out bookkeeping.  The
    first successful child reply answers it, inside its own delivery; an
    error answers it once its `pending` children have all failed."""

    __slots__ = ("node", "corr", "respond", "deadline_handle", "decided",
                 "pending")

    def __init__(self, node: "MulticasterNode", corr: bytes, respond) -> None:
        self.node = node
        self.corr = corr
        self.respond = respond
        self.deadline_handle = None
        self.decided = False
        self.pending = 0

    def child_done(self, fut) -> None:
        """A child's exchange settled: a response frame answers the job,
        anything else counts as a failure."""
        if not fut.failed:
            try:
                ftype, _, payload = wire.decode_frame(fut.result())
            except ProtocolViolation:
                ftype = None
            if ftype == wire.TYPE_RESPONSE:
                if self.decided:
                    self.node.counters["discarded"] += 1
                else:
                    self._finish(wire.encode_response(self.corr, payload))
                return
        self.node.counters["child_failures"] += 1
        if self.decided:
            return
        self.pending -= 1
        if self.pending == 0:
            self._finish_error(b"no-upstream")

    def timed_out(self) -> None:
        if not self.decided:
            self.deadline_handle = None
            self._finish_error(b"timeout")

    def _finish_error(self, reason: bytes) -> None:
        self._finish(wire.encode_error(self.corr, reason))

    def _finish(self, frame: bytes) -> None:
        self.decided = True
        if self.deadline_handle is not None:
            self.deadline_handle.cancel()
            self.deadline_handle = None
        self.respond(frame)


class MulticasterNode:
    def __init__(self, provider: CloudProvider, node_id: str, u: float, *,
                 table: AddressRecord, is_entry: bool = False):
        self.sim = provider.sim
        self.provider = provider
        self.id = node_id
        self.u = u
        self.counters = provider.counters
        self.is_entry = is_entry
        self.table = table
        self._corr_rng = self.sim.rng("correlation") if is_entry else None

    # -- address record ------------------------------------------------------

    def apply_update(self, record: AddressRecord) -> None:
        """Route on the record the Address Server delivered; it delivers
        each owner's records in version order, so this is the newest."""
        self.table = record

    # -- inbound -------------------------------------------------------------

    def on_request(self, ex: Exchange, data: bytes) -> None:
        """Internal-frame endpoint (layers 2..d-1 receive from their parent)."""
        corr, payload, error = wire.decode_request(data)
        if error is not None:
            self.provider.respond(ex, error)
            return
        self.handle_request(corr, payload,
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

        self.handle_request(corr, payload, respond)

    # -- core ----------------------------------------------------------------

    def handle_request(self, corr: bytes, payload: bytes, respond) -> None:
        """Fan out to every child on HTTP; first success wins."""
        children = self.table.children
        job = _Job(self, corr, respond)
        if not children:
            self.counters["no_children"] += 1
            job._finish_error(b"no-children")
            return
        job.pending = len(children)
        frame = wire.encode_request(corr, payload)
        futures = [self.provider.request(self.id, address, HTTP.port, frame)
                   for _, address in children]
        job.deadline_handle = self.sim.schedule(self.u, job.timed_out)
        for future in futures:
            future.add_done_callback(job.child_done)
