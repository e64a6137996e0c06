"""Wire protocols, transport-agnostic (sans-IO).

Three byte-level protocols share this module:

* Internal framing, used on every tree hop: magic 0x4D, version 0x01, a type
  byte (0x01 request / 0x02 response / 0x03 error), a 16-byte correlation id,
  a 4-byte big-endian payload length, then the payload.
* The database-style handshake spoken by the baseline chain's database and
  app server: server greeting (0x44 0x42, version 0x01, 8-byte nonce),
  client echo of the same layout, server OK (0x4F 0x4B), then exactly one
  request frame (16-byte id, 4-byte big-endian length, payload) answered by
  one mirrored response frame.
* The poll protocol between the target's Polling Server and the Requests
  Servers: {0x10} -> {0x11, 4-byte count, every pending entry}, and
  {0x12, id, 4-byte length, bytes} -> {0x13}.

Every decoder takes one whole message, and a message that is cut, carries a
trailing byte or is oversized is a violation.  The simulated bus hands each
send over whole.
"""

from __future__ import annotations

import struct
from random import Random

from .errors import ProtocolViolation

FRAME_MAGIC = 0x4D
FRAME_VERSION = 0x01
TYPE_REQUEST = 0x01
TYPE_RESPONSE = 0x02
TYPE_ERROR = 0x03

_FRAME_HEAD = struct.Struct("!BBB16sI")

CORR_LEN = 16

HS_MAGIC = b"\x44\x42"
HS_VERSION = 0x01
HS_OK = b"\x4f\x4b"
_HS_GREETING = struct.Struct("!2sB8s")
_REQ_HEAD = struct.Struct("!16sI")
_GREETING_LEN = _HS_GREETING.size
_SESSION_HEAD_LEN = _REQ_HEAD.size

POLL_LIST = 0x10
POLL_LISTING = 0x11
POLL_DELIVER = 0x12
POLL_ACK = 0x13

MAX_PAYLOAD = 1 << 20


def encode_frame(ftype: int, corr: bytes, payload: bytes) -> bytes:
    if len(corr) != CORR_LEN:
        raise ValueError(f"correlation id must be {CORR_LEN} bytes")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError("payload too large")
    return _FRAME_HEAD.pack(FRAME_MAGIC, FRAME_VERSION, ftype, corr, len(payload)) + payload


def encode_request(corr: bytes, payload: bytes) -> bytes:
    return encode_frame(TYPE_REQUEST, corr, payload)


def encode_response(corr: bytes, payload: bytes) -> bytes:
    return encode_frame(TYPE_RESPONSE, corr, payload)


def encode_error(corr: bytes, reason: bytes) -> bytes:
    return encode_frame(TYPE_ERROR, corr, reason)


def decode_frame(data: bytes) -> tuple[int, bytes, bytes]:
    """Decode one whole message as exactly one frame; a cut or trailing
    byte is a violation."""
    if len(data) < _FRAME_HEAD.size:
        raise ProtocolViolation("truncated frame header")
    magic, version, ftype, corr, length = _FRAME_HEAD.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise ProtocolViolation(f"bad frame magic 0x{magic:02x}")
    if version != FRAME_VERSION:
        raise ProtocolViolation(f"unsupported frame version {version}")
    if ftype not in (TYPE_REQUEST, TYPE_RESPONSE, TYPE_ERROR):
        raise ProtocolViolation(f"unknown frame type 0x{ftype:02x}")
    if length > MAX_PAYLOAD:
        raise ProtocolViolation("frame payload too large")
    if len(data) != _FRAME_HEAD.size + length:
        raise ProtocolViolation("expected exactly one frame")
    return ftype, corr, data[_FRAME_HEAD.size:]


_NO_CORR = b"\x00" * CORR_LEN


def decode_request(data: bytes) -> tuple[bytes, bytes, bytes | None]:
    """(id, payload, None) for one whole request frame; for anything else,
    the error frame that answers it in the third place: bad-frame under a
    zero id when the bytes are no frame, bad-frame-type when it is no
    request."""
    try:
        ftype, corr, payload = decode_frame(data)
    except ProtocolViolation:
        return _NO_CORR, b"", encode_error(_NO_CORR, b"bad-frame")
    if ftype != TYPE_REQUEST:
        return corr, payload, encode_error(corr, b"bad-frame-type")
    return corr, payload, None


# --- handshake protocol ---------------------------------------------------


def encode_greeting(nonce: bytes) -> bytes:
    """The server's greeting; the client echoes it back byte for byte."""
    if len(nonce) != 8:
        raise ValueError("nonce must be 8 bytes")
    return _HS_GREETING.pack(HS_MAGIC, HS_VERSION, nonce)


def decode_greeting(msg: bytes) -> bytes:
    """The nonce of one whole greeting (or greeting echo)."""
    if len(msg) != _GREETING_LEN:
        raise ProtocolViolation(f"greeting of {len(msg)} bytes, not {_GREETING_LEN}")
    magic, version, nonce = _HS_GREETING.unpack(msg)
    if magic != HS_MAGIC:
        raise ProtocolViolation("bad greeting magic")
    if version != HS_VERSION:
        raise ProtocolViolation(f"unsupported handshake version {version}")
    return nonce


def encode_session_frame(corr: bytes, payload: bytes) -> bytes:
    """A session request or response: 16-byte id, 4-byte length, payload."""
    if len(corr) != CORR_LEN:
        raise ValueError(f"correlation id must be {CORR_LEN} bytes")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError("payload too large")
    return _REQ_HEAD.pack(corr, len(payload)) + payload


def decode_session_frame(msg: bytes) -> tuple[bytes, bytes]:
    """(id, payload) of one whole session frame, with nothing cut or trailing."""
    if len(msg) < _SESSION_HEAD_LEN:
        raise ProtocolViolation(
            f"session head of {len(msg)} bytes, not {_SESSION_HEAD_LEN}")
    corr, length = _REQ_HEAD.unpack_from(msg)
    if length > MAX_PAYLOAD:
        raise ProtocolViolation("session payload too large")
    if len(msg) != _SESSION_HEAD_LEN + length:
        raise ProtocolViolation("expected exactly one session frame")
    return corr, msg[_SESSION_HEAD_LEN:]


# --- poll protocol --------------------------------------------------------


_POLL_LISTING_HEAD = struct.Struct("!BI")
_POLL_DELIVER_HEAD = struct.Struct("!B16sI")
_U32 = struct.Struct("!I")


# the list ask carries nothing: an RS answers it with everything it holds
POLL_LIST_FRAME = bytes((POLL_LIST,))

# an idle RS answers every list ask with this one frame
_EMPTY_LISTING = _POLL_LISTING_HEAD.pack(POLL_LISTING, 0)


def encode_poll_listing(entries: list[tuple[bytes, bytes]]) -> bytes:
    if not entries:
        return _EMPTY_LISTING
    parts = [_POLL_LISTING_HEAD.pack(POLL_LISTING, len(entries))]
    for corr, payload in entries:
        parts.append(_REQ_HEAD.pack(corr, len(payload)))
        parts.append(payload)
    return b"".join(parts)


def encode_poll_delivery(corr: bytes, response: bytes) -> bytes:
    return _POLL_DELIVER_HEAD.pack(POLL_DELIVER, corr, len(response)) + response


POLL_ACK_FRAME = bytes((POLL_ACK,))


def _poll_record(data: bytes, offset: int) -> tuple[bytes, bytes, int]:
    """(id, bytes, next offset) of the id-length-bytes record at offset."""
    corr, length = _REQ_HEAD.unpack_from(data, offset)
    if length > MAX_PAYLOAD:
        raise ProtocolViolation("poll payload too large")
    start = offset + _REQ_HEAD.size
    end = start + length
    if len(data) < end:
        raise ProtocolViolation("poll message ends inside a payload")
    return corr, data[start:end], end


def decode_poll(data: bytes) -> list[tuple]:
    """Decode one whole poll message (either direction, one or more frames)
    into ("list",), ("listing", [(corr, payload), ...]),
    ("deliver", corr, response) and ("ack",) events."""
    if not data:
        raise ProtocolViolation("empty poll message")
    events: list[tuple] = []
    offset = 0
    try:
        while offset < len(data):
            kind = data[offset]
            if kind == POLL_LIST:
                offset += 1
                events.append(("list",))
            elif kind == POLL_LISTING:
                (count,) = _U32.unpack_from(data, offset + 1)
                offset += 5
                entries = []
                for _ in range(count):
                    corr, payload, offset = _poll_record(data, offset)
                    entries.append((corr, payload))
                events.append(("listing", entries))
            elif kind == POLL_DELIVER:
                corr, response, offset = _poll_record(data, offset + 1)
                events.append(("deliver", corr, response))
            elif kind == POLL_ACK:
                offset += 1
                events.append(("ack",))
            else:
                raise ProtocolViolation(f"unknown poll frame type 0x{kind:02x}")
    except struct.error:
        raise ProtocolViolation("poll message ends inside a frame head") from None
    return events


# --- minimal HTTP/1.1 (entry point's public surface) -----------------------


def encode_http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: entry\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def _http_head(data: bytes, what: str) -> tuple[list[str], bytes]:
    """Split a message into its ASCII head lines and its body."""
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise ProtocolViolation(f"truncated HTTP {what}")
    try:
        return head.decode("ascii").split("\r\n"), body
    except UnicodeDecodeError:
        raise ProtocolViolation(f"non-ASCII byte in HTTP {what} head") from None


def _http_body(header_lines: list[str], body: bytes) -> bytes:
    """The body cut to its Content-Length (0 when absent); repeated
    Content-Length headers must agree, and the body must be complete."""
    values = {value.strip()
              for name, _, value in (line.partition(":") for line in header_lines)
              if name.strip().lower() == "content-length"}
    if not values:
        return b""
    value = values.pop()
    if values or not value.isdigit():
        raise ProtocolViolation(f"bad or conflicting Content-Length {value!r}")
    length = int(value)
    if len(body) < length:
        raise ProtocolViolation("HTTP body shorter than Content-Length")
    return body[:length]


def parse_http_request(data: bytes) -> tuple[str, str, bytes]:
    lines, body = _http_head(data, "request")
    try:
        method, path, version = lines[0].split(" ")
    except ValueError:
        raise ProtocolViolation("malformed HTTP request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolViolation(f"unsupported HTTP version {version!r}")
    if method not in ("GET", "POST"):
        raise ProtocolViolation(f"unsupported method {method!r}")
    return method, path, _http_body(lines[1:], body)


_HTTP_STATUS = {200: "OK", 400: "Bad Request", 502: "Bad Gateway",
                504: "Gateway Timeout"}


def encode_http_response(status: int, body: bytes,
                         headers: dict[str, str] | None = None) -> bytes:
    reason = _HTTP_STATUS.get(status, "Unknown")
    extra = ""
    if headers:
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in sorted(headers.items()))
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n")
    return head.encode("ascii") + body


def parse_http_response(data: bytes) -> tuple[int, dict[str, str], bytes]:
    """Returns (status, headers with lower-case names, body)."""
    lines, body = _http_head(data, "response")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolViolation(f"malformed HTTP status line {lines[0]!r}")
    if not parts[1].isdigit():
        raise ProtocolViolation(f"bad HTTP status {parts[1]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers, _http_body(lines[1:], body)


def new_correlation_id(rng: Random) -> bytes:
    return rng.getrandbits(128).to_bytes(CORR_LEN, "big")
