"""The listener reads each request off the socket itself and writes each
response in one write: a malformed, oversized or partial head gets a
structured 4xx (or, when the client sends nothing, no answer), never a
5xx or a hang, the next connection is served as usual, and an aggregate
body is the JSON of ``aggregate()``'s dict."""

import json
import socket
import time
import urllib.request

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.server import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES

from .conftest import warm_rollups

GOOD = b"GET /cube/sales/aggregate?drilldown=dim0:h01 HTTP/1.0\r\n\r\n"
TRACE_ID = "0123456789abcdef" * 2


def _exchange(srv, *parts: bytes, pause_s: float = 0.0):
    """Send ``parts`` (one send each), end the request stream, and read
    the answer to end of stream: ``(status, headers, body)``, or
    ``None`` when the server closed without one."""
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for part in parts:
            sock.sendall(part)
            if pause_s:
                time.sleep(pause_s)
        sock.shutdown(socket.SHUT_WR)
        answer = b""
        while chunk := sock.recv(65536):
            answer += chunk
    if not answer:
        return None
    head, _, body = answer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    version, status, _ = status_line.split(" ", 2)
    assert version == "HTTP/1.0"
    return int(status), dict(line.split(": ", 1) for line in lines), body


def _error_kind(answer, status: int) -> str:
    got, headers, body = answer
    assert got == status, body
    assert int(headers["Content-Length"]) == len(body)
    assert headers["Content-Type"].startswith("application/json")
    error = json.loads(body)["error"]
    assert error["status"] == status
    return error["kind"]


def _post(body: bytes, *, length: int | None = None, extra: bytes = b"") -> bytes:
    length = len(body) if length is None else length
    return (
        b"POST /cube/sales/aggregate HTTP/1.1\r\nHost: x\r\n"
        b"Content-Type: application/json\r\n"
        + b"Content-Length: %d\r\n" % length
        + extra
        + b"\r\n"
        + body
    )


BODY = json.dumps({"drilldown": ["dim0:h01"]}).encode()


def _served_after(srv, endpoint) -> None:
    """The listener still serves, and has never answered a 5xx."""
    status, headers, body = _exchange(srv, GOOD)
    assert status == 200, body
    assert int(headers["Content-Length"]) == len(body)
    assert json.loads(body)["cells"]
    assert endpoint.counters.get("api.responses_5xx") == 0


class TestMalformedHeads:
    def test_each_gets_a_structured_4xx(self, server):
        _, _, endpoint, srv = server
        cases = [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /cubes HTTP/1.0 extra\r\n\r\n", 400),
            (b"GET /cubes\r\n\r\n", 400),  # HTTP/0.9
            (b"GET /cubes HTTP/2.0\r\n\r\n", 400),
            (b"GET /cubes FTP/1.0\r\n\r\n", 400),
            (b"\r\n\r\n", 400),
            (b"GET /cubes HTTP/1.0\r\nNoColonHere\r\n\r\n", 400),
            (b"GET /cubes HTTP/1.0\r\n: no name\r\n\r\n", 400),
            (b"GET /cubes HTTP/1.0\r\nHost : x\r\n\r\n", 400),
            (b"GET /cubes HTTP/1.0\r\nHost: x\r\n  folded\r\n\r\n", 400),
        ]
        for head, status in cases:
            assert _error_kind(_exchange(srv, head), status) == "bad_request", head
            _served_after(srv, endpoint)

    def test_other_methods_are_a_405_json(self, server):
        _, _, endpoint, srv = server
        for method in (b"TRACE", b"CONNECT", b"FOO"):
            answer = _exchange(srv, method + b" /cubes HTTP/1.0\r\n\r\n")
            assert _error_kind(answer, 405) == "method_not_allowed"
            assert answer[1]["Allow"] == "GET, POST"
        _served_after(srv, endpoint)

    def test_nothing_sent_is_not_answered(self, server):
        _, _, endpoint, srv = server
        assert _exchange(srv) is None
        _served_after(srv, endpoint)


class TestLimits:
    def test_a_request_line_past_the_limit_is_414(self, server):
        _, _, endpoint, srv = server
        # a line's length counts its line ending, as http.server's does
        start, end = b"GET /cubes?pad=", b" HTTP/1.0\r\n"
        pad = MAX_LINE_BYTES - len(start) - len(end)
        at_limit = start + b"a" * pad + end
        assert len(at_limit) == MAX_LINE_BYTES
        assert _exchange(srv, at_limit + b"\r\n")[0] == 200
        over = start + b"a" * (pad + 1) + end
        assert _error_kind(_exchange(srv, over + b"\r\n"), 414) == "too_large"
        # a line the client stops sending past the limit
        line = b"GET /" + b"a" * MAX_LINE_BYTES
        assert _error_kind(_exchange(srv, line), 414) == "too_large"
        _served_after(srv, endpoint)

    def test_a_header_line_past_the_limit_is_431(self, server):
        _, _, endpoint, srv = server
        start = b"GET /cubes HTTP/1.0\r\n"
        pad = MAX_LINE_BYTES - len(b"X-Pad: \r\n")
        at_limit = b"X-Pad: " + b"a" * pad + b"\r\n"
        assert len(at_limit) == MAX_LINE_BYTES
        assert _exchange(srv, start + at_limit + b"\r\n")[0] == 200
        over = b"X-Pad: " + b"a" * (pad + 1) + b"\r\n"
        assert _error_kind(_exchange(srv, start + over + b"\r\n"), 431) == "too_large"
        line = start + b"X-Pad: " + b"a" * MAX_LINE_BYTES
        assert _error_kind(_exchange(srv, line), 431) == "too_large"
        _served_after(srv, endpoint)

    def test_a_head_past_64_kib_of_short_lines_is_served(self, server):
        _, _, endpoint, srv = server
        pad = b"".join(
            b"X-Pad-%d: %s\r\n" % (i, b"a" * 1000) for i in range(MAX_HEADERS - 1)
        )
        head = GOOD[:-2] + pad + b"\r\n"
        assert len(head) > 64 * 1024
        assert _exchange(srv, head)[0] == 200
        _served_after(srv, endpoint)

    def test_more_than_the_header_limit_is_431(self, server):
        _, _, endpoint, srv = server
        # http.client counts the blank line that ends the head among its
        # MAX_HEADERS lines, so a head holds at most MAX_HEADERS - 1
        lines = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADERS - 1))
        start = b"GET /cubes HTTP/1.0\r\n"
        assert _exchange(srv, start + lines + b"\r\n")[0] == 200
        for extra in (1, 2):
            over = start + lines + b"X-One-More: v\r\n" * extra
            assert _error_kind(_exchange(srv, over + b"\r\n"), 431) == "too_large"
            assert _error_kind(_exchange(srv, over), 431) == "too_large"  # unfinished
        _served_after(srv, endpoint)

    def test_a_body_past_the_cap_is_413_before_it_is_read(self, server):
        _, _, endpoint, srv = server
        answer = _exchange(srv, _post(b"", length=MAX_BODY_BYTES + 1))
        assert _error_kind(answer, 413) == "too_large"
        _served_after(srv, endpoint)


class TestPartialRequests:
    def test_a_head_split_over_many_sends(self, server):
        _, _, endpoint, srv = server
        parts = [GOOD[i : i + 3] for i in range(0, len(GOOD), 3)]
        assert _exchange(srv, *parts, pause_s=0.001)[0] == 200
        # the blank line itself split between two sends
        assert _exchange(srv, GOOD[:-3], GOOD[-3:], pause_s=0.01)[0] == 200
        _served_after(srv, endpoint)

    def test_a_body_split_over_many_sends(self, server):
        _, _, endpoint, srv = server
        request = _post(BODY)
        head = request[: -len(BODY)]
        parts = [head] + [BODY[i : i + 4] for i in range(0, len(BODY), 4)]
        status, _, body = _exchange(srv, *parts, pause_s=0.001)
        assert status == 200, body
        _served_after(srv, endpoint)

    def test_a_body_that_arrives_with_the_head(self, server):
        _, _, endpoint, srv = server
        status, _, body = _exchange(srv, _post(BODY))
        assert status == 200, body
        assert json.loads(body)["drilldown"] == [["dim0", "h01"]]
        _served_after(srv, endpoint)

    def test_a_short_body_is_400(self, server):
        _, _, endpoint, srv = server
        answer = _exchange(srv, _post(BODY[:-2], length=len(BODY)))
        assert _error_kind(answer, 400) == "bad_request"
        assert b"ended after" in answer[2]
        _served_after(srv, endpoint)

    def test_two_content_lengths(self, server):
        _, _, endpoint, srv = server
        twice = _post(BODY, extra=b"Content-Length: %d\r\n" % (len(BODY) + 1))
        assert _error_kind(_exchange(srv, twice), 400) == "bad_request"
        same = _post(BODY, extra=b"content-length: %d\r\n" % len(BODY))
        assert _exchange(srv, same)[0] == 200
        _served_after(srv, endpoint)

    def test_a_head_the_client_stops_sending_is_what_arrived(self, server):
        _, _, endpoint, srv = server
        assert _exchange(srv, b"GET /cubes HTTP/1.0\r\n")[0] == 200
        assert _exchange(srv, b"GET /cubes HTTP/1.0")[0] == 200
        _served_after(srv, endpoint)

    def test_a_bare_lf_head(self, server):
        _, _, endpoint, srv = server
        assert _exchange(srv, b"GET /cubes HTTP/1.0\nHost: x\n\n")[0] == 200
        _served_after(srv, endpoint)


class TestHeaders:
    def test_a_lower_case_trace_id_is_adopted(self, server):
        _, _, endpoint, srv = server
        head = GOOD[:-2] + b"x-trace-id: " + TRACE_ID.encode() + b"\r\n\r\n"
        status, headers, body = _exchange(srv, head)
        assert status == 200
        assert headers["X-Trace-Id"] == TRACE_ID
        assert json.loads(body)["trace_id"] == TRACE_ID
        _served_after(srv, endpoint)

    def test_non_ascii_bytes(self, server):
        _, _, endpoint, srv = server
        for head in (
            b"GET /cube/s\xe4les/aggregate?drilldown=dim0 HTTP/1.0\r\n\r\n",
            b"GET /cubes HTTP/1.0\r\nX-N\xffme: v\xe9\r\n\r\n",
            GOOD[:-2] + b"X-Trace-Id: \xff\xfe\r\n\r\n",
            b"G\xc3\xa9T /cubes HTTP/1.0\r\n\r\n",
        ):
            status, _, body = _exchange(srv, head)
            assert status < 500, body
            json.loads(body)
        _served_after(srv, endpoint)


def _pinned(payload: dict) -> dict:
    return {
        key: value
        for key, value in payload.items()
        if key not in ("elapsed_s", "trace_id")
    }


def test_get_and_post_bodies_parse_to_the_aggregate_dict(server):
    _, _, endpoint, srv = server
    warm_rollups(endpoint)
    requests = (
        ("dim0:h01", "sum"),  # rollup-routed
        ("dim0:d0,dim1:h11", "avg"),  # base, float cells
        ("dim2:h21", "max"),  # string labels
    )
    for drilldown, aggregate in requests:
        params = {"drilldown": drilldown, "aggregate": aggregate}
        status, expected = endpoint.aggregate(
            "sales", lambda parser: parser.from_params(params)
        )
        assert status == 200 and expected["cells"]
        target = f"/cube/sales/aggregate?drilldown={drilldown}&aggregate={aggregate}"
        status, _, raw = _exchange(srv, f"GET {target} HTTP/1.0\r\n\r\n".encode())
        assert status == 200
        got = json.loads(raw)
        assert raw == json.dumps(got).encode()  # json.dumps' own text
        assert list(got) == [*expected, "trace_id"]  # the same key order
        assert _pinned(got) == _pinned(expected)
        body = json.dumps(
            {"drilldown": drilldown.split(","), "aggregate": aggregate}
        ).encode()
        post = urllib.request.Request(
            f"{srv.url}/cube/sales/aggregate",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(post, timeout=30) as response:
            assert response.status == 200
            got = json.loads(response.read())
        assert _pinned(got) == _pinned(expected)


HEAD_LINES = st.one_of(
    st.sampled_from(
        [
            b"GET /cubes HTTP/1.0",
            b"GET /cube/sales/aggregate?drilldown=dim0 HTTP/1.1",
            b"POST /cube/sales/aggregate HTTP/1.0",
            b"HEAD / HTTP/1.0",
            b"Content-Length: 3",
            b"Content-Length: -1",
            b"content-length: x",
            b"X-Trace-Id: " + TRACE_ID.encode(),
            b"Host: x",
            b"",
        ]
    ),
    st.binary(max_size=40),
)


def test_fuzzed_heads_never_get_a_5xx_or_hang(server):
    _, _, endpoint, srv = server

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.one_of(
            st.binary(max_size=200),
            st.lists(HEAD_LINES, max_size=8).map(b"\r\n".join),
            st.lists(HEAD_LINES, max_size=8).map(lambda lines: b"\n".join(lines) + b"\n\n"),
        ),
        st.integers(1, 3),
    )
    def exchange(head: bytes, pieces: int):
        step = max(1, len(head) // pieces)
        parts = [head[i : i + step] for i in range(0, len(head), step)]
        try:
            answer = _exchange(srv, *parts)
        except TimeoutError:
            raise
        except OSError:
            # the server answered a head that ended before the bytes
            # did, and closed while this client was still sending
            answer = None
        if answer is not None:
            assert answer[0] < 500, answer
        assert endpoint.counters.get("api.responses_5xx") == 0

    exchange()
    _served_after(srv, endpoint)
