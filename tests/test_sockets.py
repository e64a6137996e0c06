"""Loopback TCP adapters: the session codecs over real sockets."""

from __future__ import annotations

import random
import socket

import pytest

from miserysim import wire
from miserysim.errors import ProtocolViolation
from miserysim.sockets import DatabaseTcpServer, query_database
from miserysim.target import BackendStore
from miserysim.wire import new_correlation_id


def corr_of(n: int) -> bytes:
    return n.to_bytes(16, "big")


def test_round_trip_executes_against_store():
    store = BackendStore()
    with DatabaseTcpServer(store) as server:
        reply = query_database(server.host, server.port, corr_of(1),
                               b"PUT alpha one")
        assert reply == b"OK"
        reply = query_database(server.host, server.port, corr_of(2),
                               b"GET alpha")
        assert reply == b"VAL one"
    assert store.execution_counts() == {corr_of(1): 1, corr_of(2): 1}


def test_values_with_spaces_survive_the_wire():
    store = BackendStore()
    with DatabaseTcpServer(store) as server:
        assert query_database(server.host, server.port, corr_of(1),
                              b"PUT key v with spaces") == b"OK"
        assert query_database(server.host, server.port, corr_of(2),
                              b"GET key") == b"VAL v with spaces"


def test_sequential_connections_share_state():
    store = BackendStore()
    rng = random.Random(3)
    with DatabaseTcpServer(store) as server:
        for i in range(5):
            assert query_database(server.host, server.port,
                                  new_correlation_id(rng),
                                  f"PUT k{i} v{i}".encode()) == b"OK"
        for i in range(5):
            assert query_database(server.host, server.port,
                                  new_correlation_id(rng),
                                  f"GET k{i}".encode()) == f"VAL v{i}".encode()


def test_garbage_after_greeting_closes_connection():
    with DatabaseTcpServer(BackendStore()) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            conn.settimeout(5.0)
            greeting = conn.recv(4096)
            assert greeting[:3] == b"DB\x01"
            conn.sendall(b"\xff" * 32)
            assert conn.recv(4096) == b""


def test_server_stop_severs_open_session():
    server = DatabaseTcpServer(BackendStore())
    server.start()
    with socket.create_connection((server.host, server.port),
                                  timeout=5.0) as conn:
        conn.settimeout(5.0)
        assert conn.recv(4096)[:3] == b"DB\x01"
        server.stop()
        assert conn.recv(4096) == b""


def test_stopped_server_refuses_connections():
    server = DatabaseTcpServer(BackendStore())
    server.start()
    host, port = server.host, server.port
    server.stop()
    with pytest.raises(OSError):
        socket.create_connection((host, port), timeout=1.0)


def recv_exactly(conn: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        assert chunk, "connection closed mid-session"
        data += chunk
    return data


def send_bytewise(conn: socket.socket, data: bytes) -> None:
    for i in range(len(data)):
        conn.sendall(data[i:i + 1])


def test_fragmented_stream_gets_the_right_reply():
    # one byte per segment: the server must read each step by its size
    store = BackendStore()
    with DatabaseTcpServer(store) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            greeting = recv_exactly(conn, wire.GREETING_LEN)
            send_bytewise(conn, greeting)
            assert recv_exactly(conn, len(wire.HS_OK)) == wire.HS_OK
            send_bytewise(conn, wire.encode_session_frame(corr_of(7),
                                                          b"PUT k v w"))
            corr, length = wire.decode_session_head(
                recv_exactly(conn, wire.SESSION_HEAD_LEN))
            assert (corr, recv_exactly(conn, length)) == (corr_of(7), b"OK")
            assert conn.recv(4096) == b""
    assert store.data == {"k": "v w"}
    assert store.execution_counts() == {corr_of(7): 1}


def test_query_refuses_an_empty_payload_before_connecting(monkeypatch):
    def connect(*args, **kwargs):
        raise AssertionError("query_database opened a connection")

    monkeypatch.setattr(socket, "create_connection", connect)
    with pytest.raises(ProtocolViolation):
        query_database("127.0.0.1", 9, corr_of(1), b"")
