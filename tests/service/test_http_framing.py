"""Property: a connection answers every request it frames, once, in order.

Drives :meth:`repro.service.aserver._HttpProtocol.data_received`
directly, with no socket: generated request lines, headers and bodies
are cut into chunks of arbitrary sizes and fed to one protocol
instance.  A small model of the front end predicts each answer's
status; a request whose framing is unusable (a bad ``Content-Length``,
any ``Transfer-Encoding``, a body over the size limit) gets its 4xx
and the connection closes, as does ``Connection: close`` after its
answer.  A 500, a missing or extra answer, an exception out of the
parser, or a write after the close fails the property.  The inputs
that once hung, dropped or misframed a connection also run as fixed
cases, so no draw of the property has to find them.
"""

from __future__ import annotations

import asyncio
import json
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import DecisionService
from repro.service.aserver import AsyncDecisionServer
from repro.service.protocol import MAX_BODY_BYTES

#: Bytes ``bytes.split()`` treats as separators in a request line.
_SPACE = b" \t\n\r\x0b\x0c"

_token = st.binary(max_size=12).map(
    lambda raw: bytes(b for b in raw if b not in _SPACE))

_VALID_BODIES = [json.dumps(payload).encode() for payload in (
    {"applications": [{"work": 100.0}], "platform": "taihulight"},
    {"applications": [{"work": 80.0}, {"work": 90.0, "miss_rate": 0.2}],
     "platform": "taihulight", "scheduler": "fair"},
)]

_BAD_BODIES = [
    b"{not json",
    b"\x9e\x80",                     # not UTF-8
    b"[" * 50_000,                   # nested past the parser's depth
    b'{"applications": []}',
    b'{"applications": [{"work": 1.0}], "scheduler": "no-such"}',
]

#: Header lines that leave the framing intact.
_HARMLESS = [b"Host: t", b"X-Note: content-length: 5",
             b"Connection: keep-alive", b"Content-Type: application/json"]

#: Header lines after which the body's extent is unknown.
_UNFRAMED = [b"Content-Length: abc", b"Content-Length: +5",
             b"Content-Length: -1", b"Content-Length: " + b"9" * 19,
             b"Content-Length: 1_0", b"Transfer-Encoding: chunked",
             b"Content-Length: %d" % (MAX_BODY_BYTES + 1)]


@dataclass(frozen=True)
class _Request:
    wire: bytes
    status: int   # the answer the model predicts
    closes: bool  # the connection closes after that answer


@st.composite
def _requests(draw) -> _Request:
    """One request and the status the front end must answer it with."""
    kind = draw(st.sampled_from(
        ["health", "schedulers", "metrics", "get-unknown", "method",
         "allocate", "allocate-bad", "allocate-empty", "post-unknown"]))
    body = b""
    if kind == "health":
        line, status = b"GET /healthz", 200
    elif kind == "schedulers":
        line, status = b"GET /v1/schedulers", 200
    elif kind == "metrics":
        line, status = draw(st.sampled_from(
            [b"GET /metrics", b"GET /metrics?format=json"])), 200
    elif kind == "get-unknown":
        line, status = b"GET /x" + draw(_token), 404
    elif kind == "method":
        line, status = b"X" + draw(_token) + b" /healthz", 404
    elif kind == "post-unknown":
        line, status = b"POST /x" + draw(_token), 404
        body = draw(st.sampled_from(_VALID_BODIES))
    elif kind == "allocate":
        line, status = b"POST /v1/allocate", 200
        body = draw(st.sampled_from(_VALID_BODIES))
    elif kind == "allocate-bad":
        line, status = b"POST /v1/allocate", 400
        body = draw(st.sampled_from(_BAD_BODIES)
                    | st.binary(min_size=1, max_size=40))
    else:
        line, status = b"POST /v1/allocate", 400
    headers = draw(st.lists(st.sampled_from(_HARMLESS), max_size=3))
    if body or draw(st.booleans()):
        headers.append(b"Content-Length: %d" % len(body))
    unframed = draw(st.none() | st.sampled_from(_UNFRAMED))
    close = draw(st.booleans())
    if close:
        headers.append(b"Connection: close")
    if unframed is not None:
        # One oversized length is a 413; beside another length, a 400.
        oversized = (unframed == _UNFRAMED[-1] and not any(
            h.startswith(b"Content-Length") for h in headers))
        headers.insert(draw(st.integers(0, len(headers))), unframed)
        status = 413 if oversized else 400
        close = True
    wire = (line + b" HTTP/1.1\r\n" + b"".join(h + b"\r\n" for h in headers)
            + b"\r\n" + body)
    return _Request(wire, status, close)


class _Transport:
    """Records what the protocol writes, and whether it closed."""

    def __init__(self) -> None:
        self.out = bytearray()
        self.closed = False
        self.after_close = 0

    def write(self, data: bytes) -> None:
        if self.closed:
            self.after_close += 1
        self.out += data

    def close(self) -> None:
        self.closed = True


def _statuses(out: bytes) -> list[int]:
    """The status of every complete response in *out*; no bytes left over."""
    statuses = []
    while out:
        head_end = out.index(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", out[:head_end]).group(1))
        statuses.append(int(out[9:12]))
        out = out[head_end + 4 + length:]
    return statuses


async def _feed(server: AsyncDecisionServer, chunks: list[bytes]) -> _Transport:
    """Feed *chunks* to one connection and wait until it answered them all."""
    transport = _Transport()
    protocol = server.protocol_factory()
    protocol.connection_made(transport)
    for chunk in chunks:
        protocol.data_received(chunk)
        await asyncio.sleep(0)
    pending = [item for item in protocol._outbox if isinstance(item, asyncio.Future)]
    await asyncio.wait_for(asyncio.gather(*pending), timeout=30.0)
    await asyncio.sleep(0)  # the done callbacks flush the outbox
    assert not protocol._outbox, "a finished request was never written"
    return transport


@pytest.fixture(scope="module")
def server():
    with DecisionService(cache_capacity=64, max_batch_size=8) as service:
        yield AsyncDecisionServer(service)


@settings(max_examples=300, deadline=None)
@given(requests=st.lists(_requests(), min_size=1, max_size=5), data=st.data())
def test_every_request_answered_once_in_order(server, requests, data):
    wire = b"".join(r.wire for r in requests)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(wire)), max_size=6)))
    chunks = [wire[a:b] for a, b in zip([0, *cuts], [*cuts, len(wire)])]
    expected = []
    for request in requests:
        expected.append(request.status)
        if request.closes:
            break
    transport = asyncio.run(_feed(server, chunks))
    assert _statuses(bytes(transport.out)) == expected
    assert transport.closed == requests[len(expected) - 1].closes
    assert transport.after_close == 0


_HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def _post(body: bytes, *headers: bytes) -> bytes:
    return (b"POST /v1/allocate HTTP/1.1\r\nHost: t\r\n"
            + b"".join(h + b"\r\n" for h in headers)
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


@pytest.mark.parametrize("wire, expected, closes", [
    pytest.param(_post(b"\x9e\x80"), [400, 200], False, id="non-utf8-body"),
    pytest.param(_post(b"[" * 50_000), [400, 200], False, id="deep-nesting"),
    pytest.param(b"GET /\xff\xfe HTTP/1.1\r\n\r\n", [404, 200], False,
                 id="non-utf8-path"),
    pytest.param(b"G\xe9T /healthz HTTP/1.1\r\n\r\n", [404, 200], False,
                 id="non-utf8-method"),
    pytest.param(_post(b"{}", b"Transfer-Encoding: chunked"), [400], True,
                 id="transfer-encoding"),
    pytest.param(b"POST /v1/allocate HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                 [400], True, id="bad-content-length"),
    pytest.param(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                 [200], True, id="connection-close"),
])
def test_pinned_framing_case(server, wire, expected, closes):
    """Inputs that once hung, dropped or misframed a connection, each
    with a /healthz behind it, fed in 7-byte chunks."""
    stream = wire + _HEALTHZ
    chunks = [stream[i:i + 7] for i in range(0, len(stream), 7)]
    transport = asyncio.run(_feed(server, chunks))
    assert _statuses(bytes(transport.out)) == expected
    assert transport.closed == closes
    assert transport.after_close == 0
