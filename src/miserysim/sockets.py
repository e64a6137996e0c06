"""Loopback TCP adapters for the session protocol.

The simulator normally moves protocol bytes through the in-memory cloud; the
adapters here run the same codecs over real sockets so the framing can be
exercised end to end outside the simulation.  Every handshake step has a
fixed size or a fixed-size head carrying its length, so each side reads a
step by its size from a buffered reader and decodes it as one whole message.
"""

from __future__ import annotations

import os
import socket
import threading

from . import wire
from .errors import ProtocolViolation
from .target import BackendStore


def _read(reader, n: int) -> bytes:
    data = reader.read(n)
    if len(data) != n:
        raise ProtocolViolation("connection closed mid-session")
    return data


class DatabaseTcpServer:
    """Serves the session protocol on a loopback port, executing commands
    against a BackendStore.  One thread, sequential connections."""

    def __init__(self, store: BackendStore, host: str = "127.0.0.1"):
        self.store = store
        self._sock = socket.create_server((host, 0))
        self.host, self.port = self._sock.getsockname()[:2]
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._active: socket.socket | None = None

    def __enter__(self) -> "DatabaseTcpServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stopping = True
        # close alone does not wake a thread blocked in accept; shutdown does
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        active = self._active
        if active is not None:
            # the serve thread may be blocked in recv on this connection;
            # shutdown wakes it so join cannot hang
            try:
                active.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _serve(self) -> None:
        while not self._stopping:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            self._active = conn
            try:
                with conn:
                    self._serve_connection(conn)
            finally:
                self._active = None

    def _serve_connection(self, conn: socket.socket) -> None:
        # the buffered reader drains what the peer sent past a bad step, so
        # closing after a violation is an orderly close, not a reset
        nonce = os.urandom(8)
        with conn.makefile("rb") as reader:
            try:
                conn.sendall(wire.encode_greeting(nonce))
                if wire.decode_greeting(_read(reader, wire.GREETING_LEN)) != nonce:
                    return
                conn.sendall(wire.HS_OK)
                corr, length = wire.decode_session_head(
                    _read(reader, wire.SESSION_HEAD_LEN))
                if length == 0:
                    return
                payload = _read(reader, length)
            except ProtocolViolation:
                return
            response = self.store.execute(corr, payload)
            conn.sendall(wire.encode_session_frame(corr, response))


def query_database(host: str, port: int, correlation_id: bytes,
                   payload: bytes, timeout: float = 5.0) -> bytes:
    """One full handshake + request/response round trip over TCP."""
    if not payload:
        raise ProtocolViolation("empty request payload")
    request = wire.encode_session_frame(correlation_id, payload)
    with socket.create_connection((host, port), timeout=timeout) as conn, \
            conn.makefile("rb") as reader:
        nonce = wire.decode_greeting(_read(reader, wire.GREETING_LEN))
        conn.sendall(wire.encode_greeting(nonce))
        if _read(reader, len(wire.HS_OK)) != wire.HS_OK:
            raise ProtocolViolation("expected OK frame")
        conn.sendall(request)
        corr, length = wire.decode_session_head(_read(reader, wire.SESSION_HEAD_LEN))
        response = _read(reader, length)
        if corr != correlation_id:
            raise ProtocolViolation("response for a different correlation id")
        return response
