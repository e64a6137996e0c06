"""Wire formats: frames, handshake, poll protocol, minimal HTTP.

Golden fixtures are spelled out as literal bytes so an accidental layout
change cannot hide behind symmetric encode/decode bugs.
"""

from __future__ import annotations

import random

import pytest

from miserysim.errors import ProtocolViolation
from miserysim.experiment import ExperimentConfig, run_experiment
from miserysim.wire import (
    CORR_LEN,
    HS_OK,
    MAX_PAYLOAD,
    POLL_ACK_FRAME,
    POLL_EMPTY_LISTING_FRAME,
    POLL_LIST_FRAME,
    TYPE_ERROR,
    TYPE_REQUEST,
    TYPE_RESPONSE,
    decode_frame,
    decode_greeting,
    decode_poll,
    decode_request,
    decode_session_frame,
    encode_error,
    encode_frame,
    encode_greeting,
    encode_http_request,
    encode_http_response,
    encode_poll_delivery,
    encode_poll_listing,
    encode_request,
    encode_response,
    encode_session_frame,
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


def test_decode_request_answers_anything_but_a_request_with_an_error_frame():
    assert decode_request(encode_request(CORR, b"GET k")) == (CORR, b"GET k", None)
    assert decode_request(encode_request(CORR, b"")) == (CORR, b"", None)
    corr, _, error = decode_request(b"garbage")
    assert corr == bytes(16)
    assert error == b"\x4d\x01\x03" + bytes(16) + b"\x00\x00\x00\x09bad-frame"
    corr, _, error = decode_request(encode_response(CORR, b"OK"))
    assert corr == CORR
    assert error == b"\x4d\x01\x03" + CORR + b"\x00\x00\x00\x0ebad-frame-type"


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

GREETING = b"\x44\x42\x01" + b"\xaa" * 8


def test_greeting_golden_bytes():
    assert encode_greeting(b"\xaa" * 8) == GREETING
    assert decode_greeting(GREETING) == b"\xaa" * 8


def test_session_frame_golden_bytes():
    frame = encode_session_frame(CORR, b"GET k")
    assert frame == CORR + b"\x00\x00\x00\x05" + b"GET k"
    assert decode_session_frame(frame) == (CORR, b"GET k")
    assert decode_session_frame(CORR + b"\x00\x00\x00\x00") == (CORR, b"")


def test_handshake_session_round_trip():
    # greeting, echo, OK, request, response: each decoded as one message
    nonce = b"\x01" * 8
    echo = encode_greeting(decode_greeting(encode_greeting(nonce)))
    assert decode_greeting(echo) == nonce
    assert HS_OK == b"\x4f\x4b"
    request = encode_session_frame(CORR, b"GET k")
    assert decode_session_frame(request) == (CORR, b"GET k")
    assert decode_session_frame(encode_session_frame(CORR, b"")) == (CORR, b"")


def test_handshake_codecs_reject_every_cut_and_a_trailing_byte():
    frame = encode_session_frame(CORR, b"PUT k v")
    for msg, decode in [(GREETING, decode_greeting),
                        (encode_session_frame(CORR, b""), decode_session_frame),
                        (frame, decode_session_frame)]:
        for cut in range(len(msg)):
            with pytest.raises(ProtocolViolation):
                decode(msg[:cut])
        with pytest.raises(ProtocolViolation):
            decode(msg + b"\x00")
    # a cut inside the 20-byte head is named as such
    with pytest.raises(ProtocolViolation, match="session head of 19 bytes, not 20"):
        decode_session_frame(frame[:19])
    with pytest.raises(ProtocolViolation, match="exactly one session frame"):
        decode_session_frame(frame[:20])


def test_greeting_rejects_bad_magic_and_version():
    with pytest.raises(ProtocolViolation, match="magic"):
        decode_greeting(b"\x45\x42\x01" + b"\xaa" * 8)
    with pytest.raises(ProtocolViolation, match="version"):
        decode_greeting(b"\x44\x42\x02" + b"\xaa" * 8)
    with pytest.raises(ValueError):
        encode_greeting(b"\xaa" * 7)


def test_session_frame_rejects_oversized_payload():
    head = CORR + (MAX_PAYLOAD + 1).to_bytes(4, "big")
    # too large is checked before the length mismatch
    with pytest.raises(ProtocolViolation, match="too large"):
        decode_session_frame(head)
    with pytest.raises(ProtocolViolation, match="too large"):
        decode_session_frame(head + b"x")
    with pytest.raises(ValueError):
        encode_session_frame(CORR, b"x" * (MAX_PAYLOAD + 1))
    with pytest.raises(ValueError):
        encode_session_frame(b"short", b"x")


def test_poll_frames_golden_bytes():
    assert POLL_LIST_FRAME == b"\x10"
    assert encode_poll_listing([]) == b"\x11\x00\x00\x00\x00"
    assert encode_poll_listing([(CORR, b"x")]) == (
        b"\x11\x00\x00\x00\x01" + CORR + b"\x00\x00\x00\x01x")
    assert encode_poll_delivery(CORR, b"OK") == (
        b"\x12" + CORR + b"\x00\x00\x00\x02OK")
    assert POLL_ACK_FRAME == b"\x13"


def test_poll_list_and_empty_listing_bytes_are_pinned():
    assert POLL_LIST_FRAME == b"\x10"
    assert encode_poll_listing([]) == b"\x11\x00\x00\x00\x00"
    # the prebuilt frames are immutable bytes, so sharing them is safe
    assert type(POLL_LIST_FRAME) is bytes
    assert type(encode_poll_listing([])) is bytes
    # every idle RS sends this one object, so decode_poll's cache hashes
    # one key, and a bytes object computes its hash only once
    assert encode_poll_listing([]) is POLL_EMPTY_LISTING_FRAME


POLL_ENTRIES = [(CORR, b"GET a"), (bytes(16), b"PUT b c")]
POLL_FRAMES = [POLL_LIST_FRAME,
               encode_poll_listing(POLL_ENTRIES),
               encode_poll_delivery(CORR, b"VAL x"),
               POLL_ACK_FRAME,
               encode_poll_listing([])]
POLL_EVENTS = (("list",),
               ("listing", tuple(POLL_ENTRIES)),
               ("deliver", CORR, b"VAL x"),
               ("ack",),
               ("listing", ()))


def test_decode_poll_mixed_message():
    assert decode_poll(b"".join(POLL_FRAMES)) == POLL_EVENTS
    for frame, event in zip(POLL_FRAMES, POLL_EVENTS):
        assert decode_poll(frame) == (event,)


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


# --- the codec cache ----------------------------------------------------------

CACHED = (encode_frame, decode_frame, decode_poll, encode_poll_delivery)

# every message above, whole and cut at every byte, and one byte too long
FRAME_CORPUS = [encode_frame(ftype, CORR, payload)
                for ftype, payload in [(TYPE_REQUEST, b"one"), (TYPE_RESPONSE, b""),
                                       (TYPE_ERROR, b"boom" * 100)]]
POLL_CORPUS = [b"".join(POLL_FRAMES), *POLL_FRAMES]


def cuts(message: bytes) -> list[bytes]:
    return [message[:cut] for cut in range(len(message) + 1)] + [message + b"\x00"]


def codec_calls():
    """(cached function, arguments) over the corpus, malformed ones included."""
    for frame in FRAME_CORPUS:
        _, corr, payload = decode_frame(frame)
        for ftype in (TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR):
            yield encode_frame, (ftype, corr, payload)
        for cut in cuts(corr):
            yield encode_frame, (TYPE_REQUEST, cut, payload)
            yield encode_poll_delivery, (cut, payload)
        for cut in cuts(frame):
            yield decode_frame, (cut,)
    yield encode_frame, (TYPE_REQUEST, CORR, b"x" * (MAX_PAYLOAD + 1))
    for message in POLL_CORPUS:
        for cut in cuts(message):
            yield decode_poll, (cut,)


def immutable(value) -> bool:
    if type(value) is tuple:
        return all(immutable(item) for item in value)
    return type(value) in (bytes, int, str)


def test_each_cached_codec_answers_as_its_uncached_original():
    # the first call may fill the cache and the second reads it; both
    # return what the original returns or raise what it raises
    for fn in CACHED:
        fn.cache_clear()
    for fn, args in codec_calls():
        try:
            want = fn.__wrapped__(*args)
        except (ProtocolViolation, ValueError) as err:
            for _ in range(2):
                with pytest.raises(type(err)) as got:
                    fn(*args)
                assert str(got.value) == str(err)
        else:
            for _ in range(2):
                got = fn(*args)
                assert got == want and immutable(got), (fn.__name__, args)
    assert all(fn.cache_info().hits > 0 for fn in CACHED)


def test_a_malformed_frame_is_parsed_and_rejected_on_every_call():
    for fn, bad in [(decode_frame, FRAME_CORPUS[0][:-1]), (decode_poll, b"\x77")]:
        fn.cache_clear()
        for _ in range(2):
            with pytest.raises(ProtocolViolation):
                fn(bad)
        info = fn.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_the_codec_cache_serves_the_repeats_of_a_fanned_out_run():
    # one request frame crosses every hop of a k=3 tree and each response
    # reaches every RS that holds its request, so nearly every decode
    # repeats an earlier input
    for fn in CACHED:
        fn.cache_clear()
    result = run_experiment(ExperimentConfig(d=4, k=3, j=30.0, rng_seed=1))
    assert result.report.processed > 0
    for fn in (decode_frame, decode_poll):
        info = fn.cache_info()
        assert info.hits / (info.hits + info.misses) >= 0.9, (fn.__name__, info)


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
