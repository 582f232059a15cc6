"""Measurement plumbing: percentiles, a raw HTTP/1.0 client, the
open-loop driver, and child-process accounting.

Nothing here imports the program under test; every number about the
program comes from outside it — wall clock around a child process,
``os.wait4`` rusage for its CPU and peak RSS, ``/proc`` for a live
server.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10
#: A request slower than this is a failure, not a latency sample.
REQUEST_TIMEOUT_S = 5.0


# -- statistics ---------------------------------------------------------------


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with ≥10 of ``n`` samples beyond it."""
    for p in PERCENTILE_LADDER:
        # Integer arithmetic: n·(100-p)/100 in tenths of a percent, so
        # 2000 samples at p99.5 count exactly 10 beyond, not 9.999.
        if n * (1000 - round(p * 10)) // 1000 >= SAMPLES_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


# -- raw HTTP/1.0 client --------------------------------------------------------


@dataclass(frozen=True)
class HttpResponse:
    status: int
    headers: Mapping[str, str]
    body: bytes


def parse_response(raw: bytes) -> HttpResponse:
    """Split one complete HTTP/1.x response into status, headers, body.

    Header names are lower-cased. A body shorter or longer than its
    ``Content-Length`` is a ``ValueError``: a truncated read must count
    as a failure, never as a fast success.
    """
    head, separator, body = raw.partition(b"\r\n\r\n")
    if not separator:
        raise ValueError("response ended inside its header block")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ValueError(f"malformed status line: {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None and int(length) != len(body):
        raise ValueError(f"body is {len(body)} bytes, Content-Length {length}")
    return HttpResponse(int(parts[1]), headers, body)


def http_get(
    port: int,
    path: str,
    headers: Optional[Mapping[str, str]] = None,
    host: str = "127.0.0.1",
    timeout: float = REQUEST_TIMEOUT_S,
) -> HttpResponse:
    """One GET over a fresh connection, read to EOF (HTTP/1.0 closes).

    Raises ``OSError`` (incl. ``socket.timeout``) on transport failure
    and ``ValueError`` on an unparseable or truncated response.
    """
    lines = [f"GET {path} HTTP/1.0", f"Host: {host}:{port}"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    deadline = time.perf_counter() + timeout
    chunks: List[bytes] = []
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        while True:
            chunk = sock.recv(262144)
            if not chunk:
                break
            chunks.append(chunk)
            if time.perf_counter() > deadline:
                raise socket.timeout(f"GET {path} exceeded {timeout:g}s")
    return parse_response(b"".join(chunks))


# -- open-loop load -------------------------------------------------------------


@dataclass
class Sample:
    """One scheduled request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float
    response: Optional[HttpResponse]
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """Due → answered: a stall also charges requests queued behind it."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent it (queueing on busy senders)."""
        return self.sent - self.due


def run_open_loop(
    dues: Sequence[float],
    send: Callable[[int], HttpResponse],
    senders: int = 2,
    start: Optional[float] = None,
) -> List[Sample]:
    """Send request ``i`` at ``start + dues[i]`` regardless of replies.

    ``senders`` threads take requests in due order, so at most that
    many are in flight; when all are busy the next request waits, and
    its latency — measured from its due time — includes the wait.
    ``send(i)`` performs request ``i``; an ``OSError``/``ValueError``
    it raises is recorded as that sample's error.
    """
    start = time.perf_counter() + 0.01 if start is None else start
    samples: List[Optional[Sample]] = [None] * len(dues)
    lock = threading.Lock()
    next_index = [0]

    def sender() -> None:
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= len(dues):
                return
            due = start + dues[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            response, error = None, None
            try:
                response = send(i)
            except (OSError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
            samples[i] = Sample(due, sent, time.perf_counter(), response, error)

    threads = [
        threading.Thread(target=sender, name=f"sender-{n}", daemon=True)
        for n in range(senders)
    ]
    for thread in threads:
        thread.start()
    horizon = (dues[-1] if dues else 0.0) + 60.0
    for thread in threads:
        thread.join(timeout=max(1.0, start + horizon - time.perf_counter()))
        if thread.is_alive():
            raise RuntimeError("open-loop sender did not finish")
    if any(sample is None for sample in samples):
        raise RuntimeError("an open-loop sender died before its requests were sent")
    return samples


# -- child processes ------------------------------------------------------------


@dataclass(frozen=True)
class ChildRun:
    """One finished CLI invocation, measured from the parent."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int


#: How the CLI is started: ``python -m repro``.
REPRO = ("-m", "repro")


def repro_command(args: Sequence[str], entry: Sequence[str] = REPRO) -> List[str]:
    return [sys.executable, *entry, *args]


def run_cli(
    args: Sequence[str],
    stdout: Path,
    env: Mapping[str, str],
    stderr: Optional[Path] = None,
    entry: Sequence[str] = REPRO,
) -> ChildRun:
    """Run ``python ENTRY ARGS`` to completion; wall clock spawn→exit.

    CPU and peak RSS come from ``os.wait4`` on the child, so work the
    child forks off is counted once its workers are reaped —
    ``process_time`` in the parent would see none of it.
    """
    err_target = stderr if stderr is not None else Path(os.devnull)
    with open(stdout, "wb") as out, open(err_target, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(repro_command(args, entry), stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
    )


_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServeProcess:
    """A live ``python -m repro serve`` child, watched through ``/proc``."""

    def __init__(self, args: Sequence[str], env: Mapping[str, str], log: Path) -> None:
        self.log = log
        self.port = 0
        self._log_handle = open(log, "wb")
        self.proc = subprocess.Popen(
            repro_command(["serve", *args, "--port", "0"]),
            stdout=self._log_handle,
            stderr=self._log_handle,
            env=env,
        )

    def wait_listening(self, timeout: float = 60.0) -> int:
        """Block until the server prints its bound port; returns it."""
        marker = b"serve: listening on http://"
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            text = self.log.read_bytes()
            at = text.find(marker)
            if at >= 0 and b"\n" in text[at:]:
                address = text[at + len(marker):].split(b"\n", 1)[0]
                self.port = int(address.rsplit(b":", 1)[1])
                return self.port
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited early: {self.tail()}")
            time.sleep(0.005)
        raise RuntimeError(f"serve did not start within {timeout:g}s")

    def get(self, path: str, headers: Optional[Mapping[str, str]] = None) -> HttpResponse:
        return http_get(self.port, path, headers)

    def cpu_s(self) -> float:
        """User + system CPU the server has used so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def tail(self, lines: int = 5) -> str:
        text = self.log.read_bytes().decode("utf-8", "replace")
        return " | ".join(text.strip().splitlines()[-lines:])

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; SIGKILL if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=15.0)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=15.0)
            return self.proc.returncode
        finally:
            self._log_handle.close()


def wait_first_ok(server: ServeProcess, path: str, timeout: float = 60.0) -> HttpResponse:
    """Poll ``path`` until it answers 200 (the first one runs a sweep)."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            response = server.get(path)
        except OSError:
            response = None
        if response is not None and response.status == 200:
            return response
        if time.perf_counter() > deadline:
            raise RuntimeError(f"{path} never answered 200: {server.tail()}")
        time.sleep(0.005)
