"""The telemetry endpoint: live metrics over HTTP for long-running runs.

A deployed barometer campaign (``iqb monitor``/``iqb adaptive`` with
``--telemetry-port``, or any embedding application) serves its own
operational state so the measurement *infrastructure* is observable
with the same rigor as the measurements:

* ``GET /metrics``      — Prometheus text exposition (scrape target),
  including the labeled per-(region, dataset) health families when a
  :class:`~repro.obs.health.HealthMonitor` is active, and the labeled
  per-(path, status) ``iqb_http_requests_total`` family;
* ``GET /metrics.json`` — the registry snapshot as JSON (the same
  document ``iqb metrics`` prints);
* ``GET /healthz``      — liveness JSON: uptime, cycle progress, alert
  and unscorable-window counts; HTTP 503 once the pipeline looks
  stalled (no completed cycle within ``stalled_after_s``) or once the
  SLO verdict reaches PAGE;
* ``GET /slo``          — the deterministic ``HealthReport`` (overall
  state, per-rule burn rates, drift events) as JSON;
* ``GET /quality``      — the data-quality section alone: freshness,
  completeness, and stale (region, dataset) cells.

Routing lives on the *server object* (:meth:`TelemetryServer.dispatch`
returns a :class:`Response`), not in the transport, so subclasses — the
scoring service's :class:`~repro.serve.http.ServeServer` — extend the
route table by overriding one method. The transport contributes the
guarantees around every dispatch:

* a dispatch exception becomes a well-formed 500 JSON body (correct
  ``Content-Length``, so clients never hang on a truncated response)
  and bumps the ``http.errors`` counter;
* every request is counted per (route, status) and timed into an
  ``http.latency.<route>`` registry timer — the p50/p99 source for
  serve SLO latency rules;
* in-flight requests are tracked, so :meth:`TelemetryServer.drain`
  can wait them out before a graceful shutdown.

The transport is a lean HTTP/1.0 server on ``socketserver.TCPServer``.
Each connection carries one GET: its head is read with the limits
``http.server`` applies (and refused with the status it gave), and the
status line, headers and body go out in one ``sendmsg`` (a POSIX
socket call) before the connection closes. Connections are answered
on reused daemon worker threads: a new one starts only when none is
idle, and at most ``os.cpu_count()`` wait for work. So the server
never blocks pipeline work or process exit, and serving a scrape
costs one registry snapshot. Binding port 0 picks an ephemeral port
(the bound port is returned from :meth:`TelemetryServer.start`), which
is also how the integration tests run against a live campaign.
"""

from __future__ import annotations

import json
import os
import queue
import re
import selectors
import socket
import socketserver
import sys
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .exposition import CONTENT_TYPE as _PROM_CONTENT_TYPE
from .exposition import escape_help, format_labels, prometheus_name
from .health import HealthMonitor, get_health_monitor
from .logs import get_logger
from .registry import REGISTRY, MetricsRegistry, counter
from .spans import clear_span_stack

_logger = get_logger(__name__)

_REQUESTS = counter("telemetry.http.requests")
_NOT_FOUND = counter("telemetry.http.not_found")

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Route label for paths outside the route table. One shared bucket —
#: per-endpoint metrics must not grow a series per scanned URL.
UNKNOWN_ROUTE = "(unknown)"

_EMPTY_HEADERS: Mapping[str, str] = {}


class Response(NamedTuple):
    """One dispatched response, ready for the transport to write.

    ``body`` is the encoded payload: each builder encodes once, so the
    transport writes the bytes as they are (and a server may hand the
    same response to many requests). ``route`` is the *label* the
    request is accounted under (the route-table entry, e.g.
    ``/v1/scores/:region`` — never the raw concrete path, which would
    be unbounded-cardinality).
    """

    status: int
    content_type: str
    body: bytes
    headers: Mapping[str, str] = _EMPTY_HEADERS
    route: str = UNKNOWN_ROUTE


def json_response(
    status: int,
    document: Mapping[str, object],
    route: str,
    headers: Mapping[str, str] = _EMPTY_HEADERS,
) -> Response:
    """A JSON :class:`Response` (sorted keys, trailing newline, UTF-8)."""
    body = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return Response(
        status, JSON_CONTENT_TYPE, body.encode("utf-8"), headers, route
    )


#: ``http.server``'s limits: bytes per request or header line (its
#: newline included), and lines per head after the request line (the
#: blank one that ends it included).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_RECV_BYTES = 8192
_VERSION = re.compile(r"HTTP/(\d{1,10})\.(\d{1,10})", re.ASCII)
_SERVER = "iqb Python/" + sys.version.split()[0]
_STATUS_LINES: Dict[int, str] = {
    int(s): f"HTTP/1.0 {int(s)} {s.phrase}" for s in HTTPStatus
}


class _Refused(Exception):
    """A refused request head: its status, and whether it was a HEAD."""

    def __init__(self, status: int, head: bool = False) -> None:
        super().__init__(status)
        self.status = status
        self.head = head


class _Headers(Dict[str, str]):
    """Request headers keyed by lower-cased name; lookups ignore case."""

    def get(  # type: ignore[override]
        self, name: str, default: Optional[str] = None
    ) -> Optional[str]:
        return super().get(name.lower(), default)

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and super().__contains__(name.lower())


class _HeadReader:
    """Lines of one request head, read straight off the socket.

    :meth:`readline` behaves as ``http.server``'s
    ``rfile.readline(65537)``: a line is returned with its newline, a
    line over the limit is cut at ``_MAX_LINE + 1`` bytes (so its
    length tells the caller), and a connection closed mid-line yields
    what arrived, then ``b""``.
    """

    __slots__ = ("_sock", "_data", "_start")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._data = b""
        self._start = 0

    def readline(self) -> bytes:
        while True:
            data, start = self._data, self._start
            end = data.find(b"\n", start, start + _MAX_LINE + 1)
            if end >= 0:
                self._start = end + 1
                return data[start:end + 1]
            if len(data) - start > _MAX_LINE:
                self._start = start + _MAX_LINE + 1
                return data[start:self._start]
            chunk = self._sock.recv(_RECV_BYTES)
            self._data, self._start = data[start:] + chunk, 0
            if not chunk:
                self._start = len(self._data)
                return self._data


def _read_request(reader: _HeadReader) -> Optional[Tuple[str, _Headers]]:
    """The path and headers of one GET, or None for no request at all.

    Checks run in ``http.server``'s order, so every refusal carries its
    status: 414 for a request line over 65,536 bytes; 400 for a version
    that is not ``HTTP/<digits>.<digits>``, 505 for ``HTTP/2.0`` and
    above, 400 for one word or more than three; 431 for a header line
    over 65,536 bytes or more than 100 head lines after the request
    line (the blank one that ends the head counts, as in
    ``http.client``); 501 for a method other than GET. A blank request
    line or a connection closed before one is no request.
    """
    line = reader.readline()
    if len(line) > _MAX_LINE:
        raise _Refused(414)
    words = line.decode("iso-8859-1").split()
    if not words:
        return None
    if len(words) >= 3:
        version = _VERSION.fullmatch(words[-1])
        if version is None:
            raise _Refused(400)
        if int(version.group(1)) >= 2:
            raise _Refused(505)
    if not 2 <= len(words) <= 3:
        raise _Refused(400)
    method, path = words[0], words[1]
    if len(words) == 2 and method != "GET":
        raise _Refused(400)  # HTTP/0.9 knows only GET
    headers = _Headers()
    for count in range(1, _MAX_HEADERS + 2):
        line = reader.readline()
        if len(line) > _MAX_LINE or count > _MAX_HEADERS:
            raise _Refused(431)
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.decode("iso-8859-1").partition(":")
        if colon:
            headers.setdefault(name.strip().lower(), value.strip())
    if method != "GET":
        raise _Refused(501, head=method == "HEAD")
    # gh-87389: "//host/x" reads as a scheme-relative URL to clients.
    if path.startswith("//"):
        path = "/" + path.lstrip("/")
    return path.split("?", 1)[0], headers


#: What ``socketserver`` waits with: poll(2) where the platform has it.
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)


class _Listener(socketserver.TCPServer):
    """The bound socket and the daemon threads that answer it.

    ``socketserver`` binds and accepts; a connection never reaches its
    handler class. The accept loop (:meth:`serve_forever`) waits, with
    no timeout, on the listening socket and on one end of a socket
    pair; :meth:`shutdown` writes a byte to the other end, so it
    returns at once and an idle server pays no wake-ups. Each accepted
    connection goes to an idle worker thread, or to a new one when
    none is idle, so a held connection never blocks the next. A worker
    reads one request, answers it in HTTP/1.0 and closes the
    connection, then waits for the next one, unless ``os.cpu_count()``
    workers already wait: then it exits. :meth:`server_close` ends the
    waiting workers; a busy one exits after its connection.
    """

    allow_reuse_address = True

    def __init__(self, telemetry: "TelemetryServer") -> None:
        self.telemetry = telemetry
        self._max_idle = os.cpu_count() or 1
        self._lock = threading.Lock()
        # (inbox, thread) per waiting worker; the last one in is reused.
        self._idle: List[Tuple[queue.SimpleQueue, threading.Thread]] = []
        self._started = 0
        self._closed = False
        self._date = (0, "")  # (unix second, Date header value)
        self._wake, self._waker = socket.socketpair()
        self._stopped = threading.Event()
        # Binds and listens; a failed bind calls server_close().
        super().__init__(
            (telemetry.host, telemetry._requested_port),
            socketserver.BaseRequestHandler,
        )

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections until :meth:`shutdown`.

        ``poll_interval`` is unused: the loop never polls.
        """
        try:
            with _Selector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake, selectors.EVENT_READ)
                while True:
                    ready = selector.select()
                    if any(key.fileobj is self._wake for key, _ in ready):
                        return
                    self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Wake the accept loop and wait until it has returned."""
        self._waker.send(b"\0")
        self._stopped.wait()

    def process_request(
        self, request: socket.socket, client_address: object
    ) -> None:
        with self._lock:
            if self._idle:
                inbox, _ = self._idle.pop()
                inbox.put(request)
                return
            self._started += 1
            name = f"iqb-http-{self.server_address[1]}-{self._started}"
        threading.Thread(
            target=self._work, args=(request,), name=name, daemon=True
        ).start()

    def server_close(self) -> None:
        super().server_close()
        self._wake.close()
        self._waker.close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox, _ in idle:
            inbox.put(None)
        for _, worker in idle:
            worker.join(timeout=5.0)

    def _work(self, sock: Optional[socket.socket]) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        worker = threading.current_thread()
        while sock is not None:
            clear_span_stack()
            try:
                self._exchange(sock)
            except OSError:
                pass  # the client hung up; there is no one to answer
            except Exception as exc:  # noqa: BLE001 - keep the worker
                _logger.error(
                    "telemetry transport error",
                    exc_info=True,
                    extra={"ctx": {"error": repr(exc)}},
                )
            # Wait before closing: a client that reads to EOF connects
            # again only after the close, and finds this worker idle.
            with self._lock:
                stay = not self._closed and len(self._idle) < self._max_idle
                if stay:
                    self._idle.append((inbox, worker))
            # shutdown(SHUT_WR), then close: the client gets every byte.
            self.shutdown_request(sock)
            sock = inbox.get() if stay else None

    def _reply(
        self,
        sock: socket.socket,
        status: int,
        content_type: str,
        body: bytes,
        headers: Mapping[str, str] = _EMPTY_HEADERS,
    ) -> None:
        """Write the status line, headers and body in one ``sendmsg``.

        The ``Date`` value is formatted at most once per second. A 304
        carries headers only (RFC 9110 §15.4.5); the Content-Length
        written is that of the (empty) body.
        """
        now = int(time.time())
        second, date = self._date
        if second != now:
            date = formatdate(now, usegmt=True)
            self._date = (now, date)
        lines = [
            _STATUS_LINES.get(status) or f"HTTP/1.0 {status} ",
            "Server: " + _SERVER,
            "Date: " + date,
            "Content-Type: " + content_type,
        ]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append(f"Content-Length: {len(body)}\r\n\r\n")
        head = "\r\n".join(lines).encode("latin-1")
        if not body or status == 304:
            sock.sendall(head)
            return
        # Gathered, not joined: a joined copy of every body fragments
        # the long-lived workers' malloc arenas (+4 MB peak RSS under
        # the follow benchmark).
        sent = sock.sendmsg((head, body))
        if sent < len(head) + len(body):  # a signal cut the write short
            sock.sendall((head + body)[sent:])

    def _exchange(self, sock: socket.socket) -> None:
        try:
            request = _read_request(_HeadReader(sock))
        except _Refused as refusal:
            status = refusal.status
            phrase = HTTPStatus(status).phrase
            # A reply to HEAD carries no body.
            body = b"" if refusal.head else f"{status} {phrase}\n".encode()
            self._reply(sock, status, "text/plain; charset=utf-8", body)
            return
        if request is None:
            return
        path, headers = request
        _REQUESTS.inc()
        telemetry = self.telemetry
        telemetry._request_started()
        started = time.perf_counter()
        try:
            try:
                response = telemetry.dispatch(path, headers)
            except Exception as exc:  # noqa: BLE001 - the 500 boundary
                response = telemetry.internal_error(path, exc)
            if response.status == 404:
                _NOT_FOUND.inc()
            telemetry.observe_request(
                response.route,
                response.status,
                time.perf_counter() - started,
            )
            self._reply(
                sock,
                response.status,
                response.content_type,
                response.body,
                response.headers,
            )
        finally:
            telemetry._request_finished()


class TelemetryServer:
    """Serves a registry's metrics and a health verdict over HTTP.

    Usage::

        server = TelemetryServer(port=0)       # ephemeral port
        port = server.start()
        ...                                    # run the campaign
        server.drain()                         # graceful: finish work
        server.stop()

    Args:
        registry: metrics source (default: the process registry).
            Per-endpoint latency timers are observed into it, so SLO
            latency rules (which read the process registry) see serve
            traffic when the default is used.
        host: bind address (default loopback; bind explicitly to
            expose beyond the machine).
        port: TCP port; 0 asks the OS for an ephemeral one.
        stalled_after_s: when set, ``/healthz`` reports 503 once the
            ``monitor.last_cycle_unix`` gauge is older than this many
            seconds (a campaign that stopped completing cycles is down
            even though the process is up). ``None`` disables the
            check; :meth:`mark_stalled` forces a 503 either way.
        health: an explicit :class:`~repro.obs.health.HealthMonitor`
            to serve from ``/slo`` and ``/quality``; by default the
            process-installed monitor (if any) is picked up at request
            time, so installing one after :meth:`start` still works.
    """

    #: The base route table; subclasses extend via :meth:`routes`.
    BASE_ROUTES: Tuple[str, ...] = (
        "/metrics",
        "/metrics.json",
        "/healthz",
        "/slo",
        "/quality",
    )

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        stalled_after_s: Optional[float] = None,
        health: Optional[HealthMonitor] = None,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.host = host
        self.stalled_after_s = stalled_after_s
        self._health_monitor = health
        self._requested_port = port
        self._server: Optional[_Listener] = None
        self._thread: Optional[threading.Thread] = None
        self._started_unix: Optional[float] = None
        self._stalled_reason: Optional[str] = None
        # Per-(route, status) request counts for the labeled family,
        # and the in-flight count drain() waits on — one lock for both.
        self._http_lock = threading.Lock()
        self._http_counts: Dict[Tuple[str, int], int] = {}
        self._inflight = 0
        self._idle = threading.Condition(self._http_lock)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._server is not None:
            return self.port
        server = _Listener(self)
        self._server = server
        self._started_unix = time.time()
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="iqb-telemetry",
            daemon=True,
        )
        self._thread.start()
        _logger.info(
            "telemetry endpoint up",
            extra={"ctx": {"host": self.host, "port": self.port}},
        )
        return self.port

    def stop(self) -> None:
        """Shut the listener down (idempotent).

        Does not wait for in-flight requests — call :meth:`drain`
        first for a graceful shutdown.
        """
        server, thread = self._server, self._thread
        self._server = None
        self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def drain(self, timeout: float = 5.0) -> bool:
        """Wait until no request is mid-dispatch; True when drained.

        New connections are still accepted while draining (the
        listener is up until :meth:`stop`); the graceful-shutdown
        sequence is therefore *drain then stop*, bounded by
        ``timeout`` seconds so a wedged handler cannot hold the
        process exit hostage.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- routing ------------------------------------------------------------

    def routes(self) -> Tuple[str, ...]:
        """The served route labels (404 bodies and metric hygiene)."""
        return self.BASE_ROUTES

    def route_label(self, path: str) -> str:
        """The accounting label for a concrete request path."""
        return path if path in self.routes() else UNKNOWN_ROUTE

    def dispatch(self, path: str, headers: Mapping[str, str]) -> Response:
        """Route one GET; subclasses extend and fall back to super()."""
        if path == "/metrics":
            body = self.registry.render_prometheus()
            monitor = self.health_monitor()
            if monitor is not None:
                body += monitor.render_prometheus()
            body += self.render_http_prometheus()
            return Response(
                200, _PROM_CONTENT_TYPE, body.encode("utf-8"), route="/metrics"
            )
        if path == "/metrics.json":
            body = self.registry.render_json() + "\n"
            return Response(
                200,
                JSON_CONTENT_TYPE,
                body.encode("utf-8"),
                route="/metrics.json",
            )
        if path == "/healthz":
            status, document = self.health()
            return json_response(status, document, "/healthz")
        if path == "/slo":
            status, document = self.slo()
            return json_response(status, document, "/slo")
        if path == "/quality":
            status, document = self.quality()
            return json_response(status, document, "/quality")
        return self.not_found(path)

    def not_found(self, path: str) -> Response:
        """The 404 response, naming every served route."""
        body = f"not found; try {', '.join(self.routes())}\n"
        return Response(
            404,
            "text/plain; charset=utf-8",
            body.encode("utf-8"),
            route=self.route_label(path),
        )

    def internal_error(self, path: str, exc: BaseException) -> Response:
        """A dispatch exception as a well-formed 500 JSON response.

        The body is built *before* any byte is written, so the client
        always gets a complete response with a correct Content-Length
        instead of a hung connection; the ``http.errors`` counter makes
        the failure visible to scrapes.
        """
        self.registry.counter("http.errors").inc()
        _logger.error(
            "telemetry handler error",
            extra={"ctx": {"path": path, "error": repr(exc)}},
        )
        document = {
            "error": "internal server error",
            "exception": type(exc).__name__,
            "detail": str(exc),
            "path": path,
        }
        return json_response(500, document, self.route_label(path))

    # -- per-endpoint observability -----------------------------------------

    def observe_request(
        self, route: str, status: int, seconds: float
    ) -> None:
        """Account one finished request under its route label.

        Feeds both halves of the per-endpoint story: the labeled
        ``http.requests{path,status}`` family (instance state, rendered
        by :meth:`render_http_prometheus` — the registry's unlabeled
        namespace cannot hold it without colliding families) and the
        ``http.latency.<route>`` registry timer whose p50/p99 the SLO
        latency rules and ``/metrics`` summaries read.
        """
        with self._http_lock:
            key = (route, int(status))
            self._http_counts[key] = self._http_counts.get(key, 0) + 1
        self.registry.timer(f"http.latency.{route}").observe(seconds)

    def request_count(self) -> int:
        """Total requests accounted so far (all routes and statuses)."""
        with self._http_lock:
            return sum(self._http_counts.values())

    def render_http_prometheus(self) -> str:
        """The labeled per-(path, status) request-count family.

        Escaped through the standard 0.0.4 helpers; empty until the
        first request finishes, so a fresh server's ``/metrics`` body
        is exactly the registry exposition.
        """
        with self._http_lock:
            counts = sorted(self._http_counts.items())
        if not counts:
            return ""
        name = prometheus_name("http.requests") + "_total"
        help_text = escape_help(
            "IQB counter http.requests (by path and status)"
        )
        lines = [f"# HELP {name} {help_text}", f"# TYPE {name} counter"]
        for (route, status), value in counts:
            labels = format_labels({"path": route, "status": str(status)})
            lines.append(f"{name}{labels} {value}")
        return "\n".join(lines) + "\n"

    # -- in-flight accounting (drain support) --------------------------------

    def _request_started(self) -> None:
        with self._idle:
            self._inflight += 1

    def _request_finished(self) -> None:
        with self._idle:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    # -- introspection ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (0 until :meth:`start`)."""
        return self._server.server_address[1] if self._server else 0

    @property
    def address(self) -> str:
        """``host:port`` of the live listener."""
        return f"{self.host}:{self.port}"

    def url(self, path: str = "/metrics") -> str:
        """Absolute URL for one of the served paths."""
        return f"http://{self.address}{path}"

    def mark_stalled(self, reason: str) -> None:
        """Force ``/healthz`` to 503 with an explicit reason."""
        self._stalled_reason = reason

    def clear_stalled(self) -> None:
        """Drop a previous :meth:`mark_stalled` verdict."""
        self._stalled_reason = None

    def health_monitor(self) -> Optional[HealthMonitor]:
        """The health monitor to serve from (explicit, else installed)."""
        if self._health_monitor is not None:
            return self._health_monitor
        return get_health_monitor()

    def slo(self) -> Tuple[int, Dict[str, object]]:
        """The ``/slo`` verdict: the full HealthReport document.

        Always HTTP 200 — the report's ``status`` field carries the
        verdict (``/healthz`` is where PAGE turns into a 503, for
        load-balancer consumption). With no monitor installed the
        endpoint says so instead of 404ing, so dashboards can probe it
        unconditionally.
        """
        monitor = self.health_monitor()
        if monitor is None:
            return 200, {"status": "disabled", "rules": [], "drift": []}
        return 200, monitor.evaluate().to_dict()

    def quality(self) -> Tuple[int, Dict[str, object]]:
        """The ``/quality`` document: freshness/completeness/staleness."""
        monitor = self.health_monitor()
        if monitor is None:
            return 200, {"status": "disabled"}
        report = monitor.evaluate()
        document: Dict[str, object] = {"status": report.status}
        document.update(report.to_dict()["quality"])
        return 200, document

    def health(self) -> Tuple[int, Dict[str, object]]:
        """The ``/healthz`` verdict: ``(http_status, document)``.

        Liveness fields come straight from the registry gauges the
        probing layer maintains (``monitor.cycles``,
        ``monitor.last_cycle_unix``) and the alert/unscorable counters,
        so batch runs and live campaigns report through one vocabulary.
        With a health monitor active the document also carries the SLO
        verdict, and a PAGE state is a 503 — a load balancer should
        stop trusting a barometer whose own SLOs are burning.
        """
        now = time.time()
        snap = self.registry.snapshot()
        gauges = snap["gauges"]
        counters = snap["counters"]
        last_cycle = gauges.get("monitor.last_cycle_unix", 0.0) or None
        reason = self._stalled_reason
        if (
            reason is None
            and self.stalled_after_s is not None
            and last_cycle is not None
            and now - last_cycle > self.stalled_after_s
        ):
            reason = (
                f"no cycle completed in {now - last_cycle:.1f}s "
                f"(threshold {self.stalled_after_s:g}s)"
            )
        document: Dict[str, object] = {
            "status": "stalled" if reason else "ok",
            "uptime_s": round(now - (self._started_unix or now), 3),
            "last_cycle_unix": last_cycle,
            "cycles": gauges.get("monitor.cycles", 0.0),
            "alerts": counters.get("monitor.alerts", 0),
            "unscorable_windows": counters.get(
                "monitor.windows.unscorable", 0
            ),
            # Resilience visibility: datasets currently black-holed by
            # circuit breakers, and regions last scored with a dataset
            # missing — degraded operation is "ok" but must be seen.
            "open_breakers": gauges.get("probe.circuit.open", 0.0),
            "degraded_regions": gauges.get("score.degraded.regions", 0.0),
        }
        monitor = self.health_monitor()
        if monitor is not None:
            slo_state = monitor.evaluate().status
            document["slo"] = slo_state
            if reason is None and slo_state == "page":
                reason = "slo burn rate at page severity"
                document["status"] = "page"
        if reason:
            document["reason"] = reason
        return (503 if reason else 200), document
