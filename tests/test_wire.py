"""Wire formats: frames, handshake, poll protocol, minimal HTTP.

Golden fixtures are spelled out as literal bytes so an accidental layout
change cannot hide behind symmetric encode/decode bugs.
"""

from __future__ import annotations

import random

import pytest

from miserysim.errors import ProtocolViolation
from miserysim.wire import (
    CORR_LEN,
    MAX_PAYLOAD,
    POLL_ACK_FRAME,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    HandshakeClient,
    HandshakeServer,
    decode_frame,
    decode_poll,
    encode_error,
    encode_frame,
    encode_http_request,
    encode_http_response,
    encode_poll_delivery,
    encode_poll_list,
    encode_poll_listing,
    encode_request,
    encode_response,
    new_correlation_id,
    parse_http_request,
    parse_http_response,
)

CORR = bytes(range(16))


# --- internal frames --------------------------------------------------------

def test_request_frame_golden_bytes():
    frame = encode_request(CORR, b"ping")
    assert frame == (b"\x4d\x01\x01" + CORR + b"\x00\x00\x00\x04" + b"ping")


def test_response_and_error_type_bytes():
    assert encode_response(CORR, b"x")[2] == TYPE_RESPONSE
    assert encode_error(CORR, b"x")[2] == TYPE_ERROR
    assert encode_request(CORR, b"x")[2] == TYPE_REQUEST


def test_frame_rejects_bad_corr_and_oversize_payload():
    with pytest.raises(ValueError):
        encode_request(b"short", b"x")
    with pytest.raises(ValueError):
        encode_frame(TYPE_REQUEST, CORR, b"x" * (MAX_PAYLOAD + 1))


def test_decode_round_trip_empty_payload():
    ftype, corr, payload = decode_frame(encode_response(CORR, b""))
    assert (ftype, corr, payload) == (TYPE_RESPONSE, CORR, b"")


def test_decode_rejects_trailing_and_multiple():
    with pytest.raises(ProtocolViolation):
        decode_frame(encode_request(CORR, b"a") + b"\x00")
    with pytest.raises(ProtocolViolation):
        decode_frame(encode_request(CORR, b"a") * 2)


def test_decode_frame_rejects_every_cut():
    # the bus delivers each send whole, so any proper prefix is a cut frame
    for ftype, payload in [(TYPE_REQUEST, b"one"), (TYPE_RESPONSE, b""),
                           (TYPE_ERROR, b"boom" * 100)]:
        frame = encode_frame(ftype, CORR, payload)
        assert decode_frame(frame) == (ftype, CORR, payload)
        for cut in range(len(frame)):
            with pytest.raises(ProtocolViolation):
                decode_frame(frame[:cut])


def test_parser_violations():
    with pytest.raises(ProtocolViolation):
        decode_frame(b"\x00" + b"\x01\x01" + CORR + b"\x00\x00\x00\x00")
    with pytest.raises(ProtocolViolation):
        decode_frame(b"\x4d\x02\x01" + CORR + b"\x00\x00\x00\x00")
    with pytest.raises(ProtocolViolation):
        decode_frame(b"\x4d\x01\x09" + CORR + b"\x00\x00\x00\x00")
    with pytest.raises(ProtocolViolation):
        decode_frame(b"\x4d\x01\x01" + CORR + b"\xff\xff\xff\xff")


# --- handshake ---------------------------------------------------------------

def pump(server, client):
    """Deliver bytes both ways until neither side produces more."""
    to_client = server.start()
    to_server = b""
    events = {"server": [], "client": []}
    for _ in range(10):
        progressed = False
        if to_client:
            out, evs = client.feed(to_client)
            events["client"].extend(evs)
            to_server += out
            to_client = b""
            progressed = True
        if to_server:
            out, evs = server.feed(to_server)
            events["server"].extend(evs)
            to_client += out
            to_server = b""
            progressed = True
        for kind, *rest in list(events["server"]):
            if kind == "request":
                events["server"].remove((kind, *rest))
                to_client += server.respond(rest[0], b"VAL " + rest[1])
                progressed = True
        if not progressed:
            break
    return events


def test_handshake_session_round_trip():
    server = HandshakeServer(nonce=b"\x01" * 8)
    client = HandshakeClient(CORR, b"GET k")
    events = pump(server, client)
    assert client.done
    assert ("established",) in events["server"]
    assert events["client"] == [("response", CORR, b"VAL GET k")]


def test_greeting_golden_bytes():
    server = HandshakeServer(nonce=b"\xaa" * 8)
    assert server.start() == b"\x44\x42\x01" + b"\xaa" * 8


def test_handshake_chunked_delivery():
    rng = random.Random(11)
    for _ in range(10):
        server = HandshakeServer(nonce=b"\x05" * 8)
        client = HandshakeClient(CORR, b"PUT k v")
        wire = server.start()
        got = None
        guard = 0
        while got is None:
            guard += 1
            assert guard < 500
            step = rng.randint(1, 3)
            chunk, wire = wire[:step], wire[step:]
            out, evs = client.feed(chunk)
            for kind, *rest in evs:
                if kind == "response":
                    got = tuple(rest)
            back = b""
            while out:
                step = rng.randint(1, 3)
                piece, out = out[:step], out[step:]
                sout, sevs = server.feed(piece)
                back += sout
                for kind, *rest in sevs:
                    if kind == "request":
                        back += server.respond(rest[0], b"OK")
            wire += back
        assert got == (CORR, b"OK")


def test_server_rejects_wrong_nonce_and_early_bytes():
    server = HandshakeServer(nonce=b"\x01" * 8)
    with pytest.raises(ProtocolViolation):
        server.feed(b"x")
    server.start()
    with pytest.raises(ProtocolViolation):
        server.feed(b"\x44\x42\x01" + b"\x02" * 8)


def test_server_one_request_per_session():
    server = HandshakeServer(nonce=b"\x01" * 8)
    client = HandshakeClient(CORR, b"GET k")
    greeting = server.start()
    echo, _ = client.feed(greeting)
    ok, _ = server.feed(echo)
    req, _ = client.feed(ok)
    out, events = server.feed(req)
    assert events == [("request", CORR, b"GET k")]
    server.respond(CORR, b"NIL")
    with pytest.raises(ProtocolViolation):
        server.feed(req)
    with pytest.raises(ProtocolViolation):
        server.respond(CORR, b"NIL")


def test_client_rejects_foreign_response_corr():
    server = HandshakeServer(nonce=b"\x01" * 8)
    client = HandshakeClient(CORR, b"GET k")
    echo, _ = client.feed(server.start())
    ok, _ = server.feed(echo)
    req, _ = client.feed(ok)
    server.feed(req)
    reply = server.respond(bytes(16), b"NIL")
    with pytest.raises(ProtocolViolation):
        client.feed(reply)


def test_client_requires_nonempty_payload():
    with pytest.raises(ProtocolViolation):
        HandshakeClient(CORR, b"")


# --- poll protocol -----------------------------------------------------------

def test_poll_frames_golden_bytes():
    assert encode_poll_list(7) == b"\x10" + b"\x00" * 7 + b"\x07"
    assert encode_poll_listing([]) == b"\x11\x00\x00\x00\x00"
    assert encode_poll_listing([(CORR, b"x")]) == (
        b"\x11\x00\x00\x00\x01" + CORR + b"\x00\x00\x00\x01x")
    assert encode_poll_delivery(CORR, b"OK") == (
        b"\x12" + CORR + b"\x00\x00\x00\x02OK")
    assert POLL_ACK_FRAME == b"\x13"


def test_poll_list_and_empty_listing_bytes_are_pinned():
    assert encode_poll_list(0) == b"\x10\x00\x00\x00\x00\x00\x00\x00\x00"
    assert encode_poll_list(1) == b"\x10\x00\x00\x00\x00\x00\x00\x00\x01"
    assert encode_poll_list(2**64 - 1) == b"\x10\xff\xff\xff\xff\xff\xff\xff\xff"
    assert encode_poll_listing([]) == b"\x11\x00\x00\x00\x00"
    # the prebuilt empty frame is immutable bytes, so sharing it is safe
    assert type(encode_poll_listing([])) is bytes


POLL_ENTRIES = [(CORR, b"GET a"), (bytes(16), b"PUT b c")]
POLL_FRAMES = [encode_poll_list(3),
               encode_poll_listing(POLL_ENTRIES),
               encode_poll_delivery(CORR, b"VAL x"),
               POLL_ACK_FRAME,
               encode_poll_listing([])]
POLL_EVENTS = [("list", 3),
               ("listing", POLL_ENTRIES),
               ("deliver", CORR, b"VAL x"),
               ("ack",),
               ("listing", [])]


def test_decode_poll_mixed_message():
    assert decode_poll(b"".join(POLL_FRAMES)) == POLL_EVENTS
    for frame, event in zip(POLL_FRAMES, POLL_EVENTS):
        assert decode_poll(frame) == [event]


def test_decode_poll_rejects_every_cut_frame():
    # a prefix that ends on a frame boundary is itself a whole message of
    # fewer frames; every other proper prefix cuts a frame
    message = b"".join(POLL_FRAMES)
    boundaries = {0}
    for frame in POLL_FRAMES:
        boundaries.add(max(boundaries) + len(frame))
    for cut in range(len(message)):
        if cut in boundaries and cut > 0:
            frames = sum(1 for b in boundaries if 0 < b <= cut)
            assert decode_poll(message[:cut]) == POLL_EVENTS[:frames]
        else:
            with pytest.raises(ProtocolViolation):
                decode_poll(message[:cut])


def test_decode_poll_rejects_oversized_entries():
    head = CORR + (MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(ProtocolViolation):
        decode_poll(b"\x11\x00\x00\x00\x01" + head)
    with pytest.raises(ProtocolViolation):
        decode_poll(b"\x12" + head)


def test_poll_parser_rejects_unknown_type():
    with pytest.raises(ProtocolViolation):
        decode_poll(b"\x77")


# --- HTTP ---------------------------------------------------------------------

def test_http_request_golden_bytes():
    raw = encode_http_request("POST", "/", b"GET k")
    assert raw == (b"POST / HTTP/1.1\r\n"
                   b"Host: entry\r\n"
                   b"Content-Length: 5\r\n"
                   b"Connection: close\r\n\r\n"
                   b"GET k")


def test_http_request_round_trip_and_body_bound():
    method, path, body = parse_http_request(encode_http_request("GET", "/x"))
    assert (method, path, body) == ("GET", "/x", b"")
    raw = encode_http_request("POST", "/", b"abc") + b"overrun"
    assert parse_http_request(raw)[2] == b"abc"


def test_http_request_violations():
    with pytest.raises(ProtocolViolation):
        parse_http_request(b"POST / HTTP/1.1\r\n")
    with pytest.raises(ProtocolViolation):
        parse_http_request(b"DELETE / HTTP/1.1\r\n\r\n")
    with pytest.raises(ProtocolViolation):
        parse_http_request(b"POST / SPDY/3\r\n\r\n")
    with pytest.raises(ProtocolViolation):
        parse_http_request(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc")


@pytest.mark.parametrize("raw", [
    b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\nx",
    b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\nx",
    b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxy",
    b"POST /\xff HTTP/1.1\r\n\r\n",
    b"POST / HTTP/1.1\r\nX-\xe9: 1\r\n\r\n",
], ids=["non-numeric-length", "negative-length", "conflicting-lengths",
        "non-ascii-request-line", "non-ascii-header"])
def test_http_request_malformed_head_is_a_protocol_violation(raw):
    with pytest.raises(ProtocolViolation):
        parse_http_request(raw)


@pytest.mark.parametrize("raw", [
    b"HTTP/1.1\r\n\r\n",
    b"HTTP/1.1 OK\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -3\r\n\r\nabc",
    b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc",
    b"HTTP/1.1 200 OK\r\nX-Request-Id: \xff\r\n\r\n",
    b"\xffTTP/1.1 200 OK\r\n\r\n",
    b"SPDY/3 200 OK\r\n\r\n",
], ids=["no-status", "non-numeric-status", "non-numeric-length",
        "negative-length", "short-body", "non-ascii-header", "non-ascii-status-line",
        "not-http"])
def test_http_response_malformed_head_is_a_protocol_violation(raw):
    with pytest.raises(ProtocolViolation):
        parse_http_response(raw)


def test_http_response_headers_round_trip():
    raw = encode_http_response(200, b"OK", {"X-Request-Id": "00ff"})
    status, headers, body = parse_http_response(raw)
    assert status == 200
    assert headers["x-request-id"] == "00ff"
    assert headers["connection"] == "close"
    assert body == b"OK"


def test_http_response_status_lines():
    for status in (200, 400, 502, 504):
        parsed, _, _ = parse_http_response(encode_http_response(status, b""))
        assert parsed == status


def test_correlation_ids_seeded_and_sized():
    rng = random.Random(9)
    ids = {new_correlation_id(rng) for _ in range(100)}
    assert all(len(c) == CORR_LEN for c in ids)
    assert len(ids) == 100
    assert new_correlation_id(random.Random(9)) == new_correlation_id(random.Random(9))
