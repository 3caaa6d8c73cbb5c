"""The listener: each connection is served by a handler thread that
parks for the next one, and ``stop()`` leaves no thread behind.

A handler that finished its connection waits for another; the accept
loop starts a thread only when none is idle, and at most the service's
``max_workers`` handlers park.  Concurrent connections are still served
in parallel, one thread each.  A reused thread carries no trace context,
tracer or span from one request to the next.
"""

import socket
import sys
import threading
import time

from repro.api.server import ApiEndpoint, ApiServer
from repro.obs.tracer import NULL_TRACER, get_tracer
from repro.obs.tracing import current_trace_context
from repro.serve import QueryService, ServiceConfig

from .conftest import CONFIG, fresh_model, http_get

HANDLER = "repro-api-handler"
#: finer than every declared rollup: a base miss, which takes the engine lock
BASE_MISS = "/cube/sales/aggregate?drilldown=dim0:d0"


def _handlers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == HANDLER]


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def _request(server, target: str, trace_id: str | None = None) -> int:
    """The status of one GET over a fresh connection, read until the
    server closes it: by then the handler that served it is parked."""
    head = f"GET {target} HTTP/1.0\r\n"
    if trace_id is not None:
        head += f"X-Trace-Id: {trace_id}\r\n"
    with socket.create_connection((server.host, server.port), 30) as client:
        client.sendall(f"{head}\r\n".encode())
        with client.makefile("rb") as answer:
            return int(answer.read().split(maxsplit=2)[1])


def _open_idle(server, n: int) -> list[socket.socket]:
    """``n`` connections that have sent nothing, each one accepted."""
    held = len(_handlers())
    address = (server.host, server.port)
    clients = [socket.create_connection(address) for _ in range(n)]
    _wait_until(lambda: len(_handlers()) >= held + n)
    return clients


class TestThreads:
    def test_no_thread_outlives_stop(self, stack):
        before = set(threading.enumerate())
        _, _, endpoint = stack
        server = ApiServer(endpoint).start()
        for _ in range(3):
            assert _request(server, "/cubes") == 200
        assert len(_handlers()) == 1  # one thread served all three
        start = threading.Barrier(8)
        statuses = []

        def client():
            start.wait()
            statuses.append(http_get(f"{server.url}{BASE_MISS}")[0])

        clients = [threading.Thread(target=client) for _ in range(8)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(30)
            assert not thread.is_alive()
        assert statuses == [200] * 8
        server.stop()
        assert set(threading.enumerate()) - before == set()

    def test_concurrent_connections_each_get_a_thread(self, stack):
        _, _, endpoint = stack
        with ApiServer(endpoint) as server:
            clients = _open_idle(server, 5)
            assert len(_handlers()) == 5
            for client in clients:
                client.sendall(b"GET /cubes HTTP/1.0\r\n\r\n")
            for client in clients:
                with client, client.makefile("rb") as answer:
                    assert answer.readline().split()[1] == b"200"

    def test_parked_handlers_are_bounded_by_max_workers(self, engine):
        with QueryService(engine, ServiceConfig(max_workers=2)) as service:
            endpoint = ApiEndpoint(engine, service, fresh_model())
            with ApiServer(endpoint) as server:
                clients = _open_idle(server, 5)
                for client in clients:
                    client.sendall(b"GET /cubes HTTP/1.0\r\n\r\n")
                for client in clients:
                    with client, client.makefile("rb") as answer:
                        answer.read()
                # the three past the bound exit; two park for the next
                _wait_until(lambda: len(_handlers()) == 2)
                assert http_get(f"{server.url}/cubes")[0] == 200
                assert len(_handlers()) == 2
            endpoint.close()
        assert _handlers() == []


    def test_handoffs_under_contention_lose_no_connection(self, engine):
        """More clients than cores and a short switch interval: a lost
        update of the parked count would strand a connection in the work
        queue (a client times out) or leave threads past the bound."""
        with QueryService(engine, ServiceConfig(max_workers=2)) as service:
            endpoint = ApiEndpoint(engine, service, fresh_model())
            server = ApiServer(endpoint).start()
            statuses = []
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:

                def client():
                    for _ in range(15):
                        statuses.append(_request(server, "/cubes"))

                clients = [threading.Thread(target=client) for _ in range(6)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert statuses == [200] * 90
            _wait_until(lambda: len(_handlers()) <= 2)
            server.stop()
            endpoint.close()
        assert _handlers() == []


class TestReuse:
    def test_a_reused_thread_keeps_requests_apart(self, server, monkeypatch):
        _, _, endpoint, srv = server
        seen = []
        handle, aggregate = endpoint.obs.handle, endpoint.aggregate

        def spy_handle(path, params):
            # an introspection GET runs before any trace is minted: what
            # the thread holds here is what the last request left behind
            thread = threading.current_thread()
            seen.append((thread, current_trace_context(), get_tracer()))
            return handle(path, params)

        def spy_aggregate(cube_name, request_of):
            thread = threading.current_thread()
            seen.append((thread, current_trace_context().trace_id))
            return aggregate(cube_name, request_of)

        monkeypatch.setattr(endpoint.obs, "handle", spy_handle)
        monkeypatch.setattr(endpoint, "aggregate", spy_aggregate)
        first, second = "a" * 32, "b" * 32
        for target, trace_id in (
            (BASE_MISS, first),
            ("/healthz", None),
            ("/cube/sales/aggregate?drilldown=dim1:h11", second),
            ("/healthz", None),
        ):
            assert _request(srv, target, trace_id) == 200
        threads = {entry[0] for entry in seen}
        assert len(threads) == 1 and threads == set(_handlers())
        assert [entry[1:] for entry in seen] == [
            (first,), (None, NULL_TRACER), (second,), (None, NULL_TRACER)
        ]
        for trace_id, route in ((first, "base"), (second, "rollup")):
            status, record = http_get(f"{srv.url}/trace/id/{trace_id}")
            assert status == 200
            assert record["attrs"]["route"] == route
            names = sorted(root["name"] for root in record["roots"])
            assert names == ["api.request", "serve_query"]
            (query,) = next(
                root for root in record["roots"] if root["name"] == "serve_query"
            )["children"]
            assert query["attrs"]["trace_id"] == trace_id


class TestStop:
    def test_stop_answers_a_request_in_flight(self, stack):
        before = set(threading.enumerate())
        _, service, endpoint = stack
        server = ApiServer(endpoint).start()
        release = threading.Event()
        held = threading.Event()

        def hold_engine():
            with service.engine_access(CONFIG.name):
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold_engine)
        holder.start()
        held.wait(10)
        answers = []
        client = threading.Thread(
            target=lambda: answers.append(http_get(f"{server.url}{BASE_MISS}"))
        )
        client.start()
        _wait_until(lambda: service.in_flight == 1)  # parked on the engine
        threading.Timer(0.02, release.set).start()
        started = time.perf_counter()
        server.stop()
        assert time.perf_counter() - started < 0.1
        assert _handlers() == []
        client.join(10)
        holder.join(10)
        assert not client.is_alive() and not holder.is_alive()
        assert answers and answers[0][0] == 200
        assert answers[0][1]["cells"]
        _wait_until(lambda: set(threading.enumerate()) - before == set())

    def test_stop_closes_an_idle_connection(self, stack):
        _, _, endpoint = stack
        server = ApiServer(endpoint).start()
        (client,) = _open_idle(server, 1)
        with client:
            started = time.perf_counter()
            server.stop()
            assert time.perf_counter() - started < 0.1
            assert _handlers() == []
            client.settimeout(5)
            assert client.recv(1) == b""  # end of stream, no answer
