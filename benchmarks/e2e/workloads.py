"""The four end-to-end workloads, each driving the shipped CLI.

Every workload returns the same four end-to-end metrics, read against
its own unit of work (README.md has the table):

* ``setup_s``     — bringing the system to where work can start;
* ``latency_ms``  — median latency of one unit of work;
* ``cpu_ms``      — CPU the program spends per unit of work;
* ``peak_rss_mb`` — the program's peak resident set.

The serve workloads also print their read-latency mean and percentiles
on stderr. Those are not gated (README.md, "What is not gated").

Correctness checks run inside every workload; a failed one is counted
in the run's :class:`Tally` and fails the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from campaign import (
    FOLLOW_EXISTING,
    FOLLOW_FRESH,
    Request,
    follow_batches,
    fresh_region,
    region_names,
    request_schedule,
    rotate,
)
from harness import (
    REPRO,
    REQUEST_TIMEOUT_S,
    SAMPLES_BEYOND,
    ChildRun,
    HttpResponse,
    Sample,
    ServeProcess,
    percentile,
    run_cli,
    run_open_loop,
    tail_percentile,
    wait_first_ok,
)

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 3
#: Batch workloads time at least this many runs.
MIN_BATCH_RUNS = 3
#: Offered load of the read-only serve workload (req/s).
READ_RATE = 200.0
#: Offered load of the follow workload (req/s), and its append period.
FOLLOW_RATE = 50.0
APPEND_EVERY_S = 1.0
#: How often the follow server polls its input for appended lines.
FOLLOW_POLL_S = 0.05
#: Above this the load generator itself may be the bottleneck.
MAX_CLIENT_CPU_SHARE = 0.3


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok


@dataclass
class Context:
    """One run's inputs and scratch space."""

    seed: int
    seconds: float
    work: Path
    env: Mapping[str, str]
    campaign: Path
    lines: Sequence[bytes]
    counts: Sequence[int]
    tally: Tally

    def cli(
        self, args: Sequence[str], output: str, entry: Sequence[str] = REPRO
    ) -> ChildRun:
        """Run one CLI command, stdout to ``work/output``; counted."""
        run = run_cli(args, self.work / output, self.env, self.work / "cli.log", entry)
        self.tally.record(
            run.returncode == 0,
            f"`repro {' '.join(args)}` exited {run.returncode}",
        )
        return run


def score_document(path: Path) -> dict:
    """The ``regions`` object of a ``score --json`` output file."""
    return json.loads(path.read_bytes())["regions"]


#: How far a ``--from-cache`` verdict aggregate may sit from the
#: ``--quantiles sketch`` one. Merging tiles compresses each cell's
#: t-digest a second time (``SketchPlane.merge``), which moved
#: aggregates by up to 9.1% (3e-4 absolute) on seeds 100-122 without
#: changing any verdict or score. A wrong metric, unit or plane moves
#: them much further.
AGGREGATE_TOLERANCE = {"rel_tol": 0.25, "abs_tol": 1e-3}


def compare_documents(actual: object, expected: object) -> Tuple[List[str], List[str]]:
    """Where two ``score --json`` documents differ: (mismatches, drifted).

    Every field must be equal, except that a verdict ``aggregate`` may
    drift within ``AGGREGATE_TOLERANCE``; such paths are ``drifted``.
    """
    mismatches: List[str] = []
    drifted: List[str] = []

    def walk(a: object, b: object, where: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            for key in a:
                walk(a[key], b[key], f"{where}/{key}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{where}[{i}]")
        elif a != b:
            numbers = all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)
            )
            if (
                where.endswith("/aggregate")
                and numbers
                and math.isclose(a, b, **AGGREGATE_TOLERANCE)
            ):
                drifted.append(where)
            else:
                mismatches.append(where)

    walk(actual, expected, "")
    return mismatches, drifted


# -- batch workloads -------------------------------------------------------------


def _batch_metrics(setup: Sequence[float], runs: Sequence[ChildRun]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "latency_ms": statistics.median(run.wall_s for run in runs) * 1e3,
        "cpu_ms": statistics.median(run.cpu_s for run in runs) * 1e3,
        "peak_rss_mb": max(run.maxrss_mb for run in runs),
    }


def _timed_runs(
    run: Callable[[int], ChildRun], seconds: float, minimum: int
) -> List[ChildRun]:
    """``run(k)`` for k = 0, 1, …: at least ``minimum`` runs, then as
    many as bring the time spent closest to ``seconds``."""
    runs: List[ChildRun] = []
    started = time.perf_counter()
    while (
        len(runs) < minimum
        or time.perf_counter() - started + runs[-1].wall_s / 2 < seconds
    ):
        runs.append(run(len(runs)))
    return runs


def refresh(ctx: Context) -> Dict[str, float]:
    """The publisher's periodic cold refresh: ``score FILE --json``.

    Run ``k`` reads its own rotation of the campaign, so the bytes
    differ but the records do not; the score JSON must not change.
    """
    config_out = str(ctx.work / "config.json")
    setup = [
        ctx.cli(["config", "--output", config_out], "config.txt").wall_s
        for _ in range(SETUP_REPEATS)
    ]
    reference = ctx.work / "refresh-0.json"

    def run(k: int) -> ChildRun:
        source = ctx.work / f"refresh-{k}.jsonl"
        source.write_bytes(rotate(ctx.lines, k))
        output = reference if k == 0 else ctx.work / "refresh-k.json"
        done = ctx.cli(["score", str(source), "--json"], output.name)
        source.unlink()
        if k:
            ctx.tally.record(
                output.read_bytes() == reference.read_bytes(),
                f"refresh: rotation {k} changed the score JSON",
            )
        return done

    return _batch_metrics(setup, _timed_runs(run, ctx.seconds, MIN_BATCH_RUNS))


def warm_start(ctx: Context) -> Dict[str, float]:
    """``cache build`` (set-up), then ``score --from-cache DIR --json``.

    Each of ``SETUP_REPEATS`` blocks builds a fresh cache and scores
    from it for an equal share of ``--seconds``, so the timed runs are
    spread over the whole run instead of one stretch of it. Parsing is
    bypassed entirely; every run must print the same JSON, and it must
    equal ``--quantiles sketch score`` of the raw file, up to
    ``compare_documents``' drift.
    """
    ctx.cli(["--quantiles", "sketch", "score", str(ctx.campaign), "--json"], "sketch.json")
    reference = ctx.work / "warm-0.json"

    def score(cache: Path) -> ChildRun:
        first = not reference.exists()
        output = reference if first else ctx.work / "warm-k.json"
        done = ctx.cli(["score", "--from-cache", str(cache), "--json"], output.name)
        if not first:
            ctx.tally.record(
                output.read_bytes() == reference.read_bytes(),
                f"warm_start: --from-cache {cache.name} changed the score JSON",
            )
        return done

    setup: List[float] = []
    runs: List[ChildRun] = []
    for i in range(SETUP_REPEATS):
        cache = ctx.work / f"cache-{i}"
        build = ["cache", "build", str(ctx.campaign), "--cache", str(cache)]
        setup.append(ctx.cli(build, "build.txt").wall_s)
        runs += _timed_runs(lambda k, cache=cache: score(cache), ctx.seconds / SETUP_REPEATS, 1)
        shutil.rmtree(cache)
    mismatches, drifted = compare_documents(
        json.loads(reference.read_bytes()), json.loads((ctx.work / "sketch.json").read_bytes())
    )
    ctx.tally.record(
        not mismatches,
        f"warm_start: --from-cache differs from --quantiles sketch at {mismatches[:3]}",
    )
    if drifted:
        print(
            f"e2e: note: {len(drifted)} --from-cache verdict aggregate(s) drifted "
            f"within tolerance of --quantiles sketch, e.g. {drifted[0]}",
            file=sys.stderr,
        )
    return _batch_metrics(setup, runs)


# -- serve workloads -------------------------------------------------------------


def start_server(ctx: Context, args: Sequence[str], log: str) -> ServeProcess:
    """Spawn ``serve ARGS`` and wait for its first 200 on /v1/scores."""
    server = ServeProcess(args, ctx.env, ctx.work / log)
    try:
        server.wait_listening()
        wait_first_ok(server, "/v1/scores")
    except BaseException:
        server.stop()
        raise
    return server


def stop_server(ctx: Context, server: ServeProcess) -> None:
    code = server.stop()
    ctx.tally.record(code == 0, f"serve exited {code} on SIGTERM")


def _timed_starts(ctx: Context, args: Sequence[str]) -> Tuple[ServeProcess, float]:
    """Start the server ``SETUP_REPEATS`` times; keep the last one.

    Set-up time is spawn → first 200 on ``/v1/scores`` (ingest, store
    build and the first kernel sweep), reported as the median.
    """
    setup = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        server = start_server(ctx, args, f"serve-{i}.log")
        setup.append(time.perf_counter() - started)
        if i < SETUP_REPEATS - 1:
            stop_server(ctx, server)
    return server, statistics.median(setup)


class Reader:
    """Sends scheduled GETs; replays the last ``/v1/scores`` ETag."""

    def __init__(self, server: ServeProcess, schedule: Sequence[Request]) -> None:
        self.server = server
        self.schedule = schedule
        self.etag: Optional[str] = None

    def send(self, i: int) -> HttpResponse:
        request = self.schedule[i]
        headers = {}
        if request.conditional and self.etag is not None:
            headers["If-None-Match"] = self.etag
        response = self.server.get(request.path, headers)
        if request.path == "/v1/scores" and response.status == 200:
            self.etag = response.headers.get("etag")
        return response


@dataclass
class LoadPhase:
    """One open-loop phase against a live server, with its accounting."""

    schedule: List[Request]
    samples: List[Sample]
    wall_s: float
    server_cpu_s: float
    client_cpu_s: float
    #: Follow phases only: when each batch was flushed, and the
    #: /v1/scores responses read while waiting for the server to drain.
    flushed: List[float] = field(default_factory=list)
    drained: List[Tuple[str, float, HttpResponse]] = field(default_factory=list)

    def observed(self) -> List[Tuple[str, float, HttpResponse]]:
        """(path, answered at, response) for every answered request."""
        return [
            (request.path, sample.done, sample.response)
            for request, sample in zip(self.schedule, self.samples)
            if sample.response is not None
        ] + self.drained


def _client_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_phase(
    ctx: Context,
    server: ServeProcess,
    rate: float,
    seconds: float,
    follow: Optional[Path] = None,
) -> LoadPhase:
    """Open loop at ``rate`` for ``seconds``; with ``follow``, append a
    batch to that file every ``APPEND_EVERY_S`` and then drain."""
    schedule = request_schedule(ctx.seed, rate, seconds, ctx.counts)
    reader = Reader(server, schedule)
    batches = follow_batches(ctx.lines, ctx.seed, int(seconds / APPEND_EVERY_S)) if follow else []
    flushed: List[float] = []
    start = time.perf_counter() + 0.05

    def append() -> None:
        for k, batch in enumerate(batches):
            time.sleep(max(0.0, start + (k + 0.5) * APPEND_EVERY_S - time.perf_counter()))
            with open(follow, "ab") as handle:
                handle.write(batch)
                handle.flush()
            flushed.append(time.perf_counter())

    appender = threading.Thread(target=append, name="appender", daemon=True)
    client_before, server_before = _client_cpu_s(), server.cpu_s()
    appender.start()
    samples = run_open_loop([request.due_s for request in schedule], reader.send, start=start)
    appender.join(timeout=APPEND_EVERY_S * (len(batches) + 5))
    phase = LoadPhase(
        schedule=schedule,
        samples=samples,
        wall_s=time.perf_counter() - start,
        server_cpu_s=server.cpu_s() - server_before,
        client_cpu_s=_client_cpu_s() - client_before,
        flushed=flushed,
    )
    ctx.tally.record(
        not appender.is_alive() and len(flushed) == len(batches),
        "follow: appender did not finish",
    )
    if follow:
        appended = len(batches) * (FOLLOW_EXISTING + FOLLOW_FRESH)
        phase.drained = _drain(ctx.tally, server, appended)
    if phase.client_cpu_s / phase.wall_s > MAX_CLIENT_CPU_SHARE:
        print(
            f"e2e: warning: load generator used {phase.client_cpu_s / phase.wall_s:.2f} "
            "core; latencies may include client-side queueing",
            file=sys.stderr,
        )
    return phase


def _drain(
    tally: Tally, server: ServeProcess, appended: int, timeout: float = 20.0
) -> List[Tuple[str, float, HttpResponse]]:
    """Wait until the server has ingested exactly the appended records.

    Returns the ``/v1/scores`` responses read while waiting; they count
    toward freshness for batches the load phase did not see land.
    """
    deadline = time.perf_counter() + timeout
    seen: List[Tuple[str, float, HttpResponse]] = []
    ingested = 0
    while time.perf_counter() < deadline:
        counters = json.loads(server.get("/metrics.json").body)["counters"]
        ingested = counters.get("serve.follow.records", 0)
        response = server.get("/v1/scores")
        seen.append(("/v1/scores", time.perf_counter(), response))
        if ingested >= appended:
            break
        time.sleep(0.02)
    tally.record(
        ingested == appended,
        f"follow: server ingested {ingested} of {appended} appended records",
    )
    return seen


def check_phase(tally: Tally, phase: LoadPhase) -> List[float]:
    """Count every request and check every body; returns good latencies.

    A request fails on a transport error, a status other than 200/304
    (or a 304 nobody asked for), or a reply slower than the timeout.
    Bodies must be unique per (route, generation), and a higher
    generation of ``/v1/scores`` never loses a ``fresh-NNN`` region.
    """
    latencies = []
    for request, sample in zip(phase.schedule, phase.samples):
        response = sample.response
        if sample.error is not None:
            problem = f"{request.path}: {sample.error}"
        elif response.status not in (200, 304):
            problem = f"{request.path}: HTTP {response.status}"
        elif response.status == 304 and not request.conditional:
            problem = f"{request.path}: 304 to an unconditional GET"
        elif sample.done - sample.sent > REQUEST_TIMEOUT_S:
            problem = f"{request.path}: took {sample.done - sample.sent:.1f}s"
        else:
            problem = ""
        if tally.record(not problem, problem):
            latencies.append(sample.latency_s)
    digests: Dict[Tuple[str, int], str] = {}
    fresh: Dict[int, frozenset] = {}
    for path, _, response in phase.observed():
        if response.status != 200:
            continue
        document = json.loads(response.body)
        generation = int(document["generation"])
        digest = hashlib.sha256(response.body).hexdigest()
        tally.record(
            digests.setdefault((path, generation), digest) == digest,
            f"{path}: two different bodies at generation {generation}",
        )
        if path == "/v1/scores":
            fresh[generation] = frozenset(
                region for region in document["regions"] if region.startswith("fresh-")
            )
    previous: frozenset = frozenset()
    for generation in sorted(fresh):
        tally.record(
            previous <= fresh[generation],
            f"/v1/scores generation {generation} lost {sorted(previous - fresh[generation])}",
        )
        previous = fresh[generation]
    return latencies


def freshness(tally: Tally, phase: LoadPhase) -> List[float]:
    """Seconds from each batch's flush to its first listing in /v1/scores."""
    first_seen: Dict[str, float] = {}
    for path, done, response in sorted(phase.observed(), key=lambda item: item[1]):
        if path != "/v1/scores" or response.status != 200:
            continue
        for region in json.loads(response.body)["regions"]:
            if region.startswith("fresh-"):
                first_seen.setdefault(region, done)
    delays = []
    for k, flush in enumerate(phase.flushed):
        seen = first_seen.get(fresh_region(k))
        if tally.record(
            seen is not None and seen > flush,
            f"follow: {fresh_region(k)} was never served after its flush",
        ):
            delays.append(seen - flush)
    return delays


def _serve_metrics(
    setup_s: float,
    latencies: Sequence[float],
    phases: Sequence[LoadPhase],
    peak_rss_mb: float,
) -> Dict[str, float]:
    tails = [50.0, 95.0]
    highest = tail_percentile(len(latencies))
    if highest is not None and highest > 95.0:
        tails.append(highest)
    print(
        f"e2e: {len(latencies)} reads, latency from due time: "
        f"mean {statistics.fmean(latencies) * 1e3:.1f} ms, "
        + ", ".join(f"p{p:g} {percentile(latencies, p) * 1e3:.1f} ms" for p in tails)
        + f" (p{tails[-1]:g} is the highest with {SAMPLES_BEYOND} beyond)",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "latency_ms": statistics.median(latencies) * 1e3,
        "cpu_ms": sum(phase.server_cpu_s for phase in phases)
        / sum(len(phase.samples) for phase in phases)
        * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def serve_read(ctx: Context) -> Dict[str, float]:
    """Steady-state reads: every request is a cache hit.

    The server is started ``SETUP_REPEATS`` times, and each instance
    takes an equal share of the ``--seconds`` of open-loop reads at
    ``READ_RATE``: the reads then span three processes and most of the
    run, so one slow stretch of the host cannot set the whole median.
    Generation 0 of ``/v1/scores`` must equal ``score --json``'s
    breakdown scores bit for bit: two entry points, one published number.
    """
    ctx.cli(["score", str(ctx.campaign), "--json"], "refresh.json")
    expected = {
        region: breakdown["score"]
        for region, breakdown in score_document(ctx.work / "refresh.json").items()
    }
    setup: List[float] = []
    phases: List[LoadPhase] = []
    peaks: List[float] = []
    for i in range(SETUP_REPEATS):
        started = time.perf_counter()
        server = start_server(ctx, [str(ctx.campaign)], f"serve-{i}.log")
        setup.append(time.perf_counter() - started)
        try:
            first = json.loads(server.get("/v1/scores").body)
            ctx.tally.record(
                first["generation"] == 0 and first["regions"] == expected,
                "serve_read: generation-0 /v1/scores differs from score --json",
            )
            for path in ("/v1/national", f"/v1/scores/{region_names()[0]}"):
                ctx.tally.record(server.get(path).status == 200, f"priming {path} failed")
            phases.append(run_phase(ctx, server, READ_RATE, ctx.seconds / SETUP_REPEATS))
            peaks.append(server.peak_rss_mb())
        finally:
            stop_server(ctx, server)
    latencies = [latency for phase in phases for latency in check_phase(ctx.tally, phase)]
    generations = {
        json.loads(response.body)["generation"]
        for phase in phases
        for path, _, response in phase.observed()
        if path == "/v1/scores" and response.status == 200
    }
    ctx.tally.record(
        generations == {0}, f"serve_read: generations {sorted(generations)} without ingest"
    )
    return _serve_metrics(statistics.median(setup), latencies, phases, max(peaks))


def serve_follow(ctx: Context) -> Dict[str, float]:
    """Reads beside live ingest: ``serve --follow`` on a growing file.

    A batch lands every ``APPEND_EVERY_S``; each one bumps the
    generation, so the next reads pay the re-sort and sweep. Latency
    here is freshness — the writer's flush of batch ``k`` to the first
    ``/v1/scores`` response listing ``fresh-k`` — and the tail is the
    read latency under ingest.
    """
    source = ctx.work / "follow.jsonl"
    shutil.copyfile(ctx.campaign, source)
    server, setup_s = _timed_starts(ctx, [str(source), "--follow", str(FOLLOW_POLL_S)])
    try:
        phase = run_phase(ctx, server, FOLLOW_RATE, ctx.seconds, follow=source)
        latencies = check_phase(ctx.tally, phase)
        delays = freshness(ctx.tally, phase)
        metrics = _serve_metrics(setup_s, latencies, [phase], server.peak_rss_mb())
        metrics["latency_ms"] = statistics.median(delays) * 1e3
    finally:
        stop_server(ctx, server)
    return metrics


WORKLOADS: Dict[str, Callable[[Context], Dict[str, float]]] = {
    "refresh": refresh,
    "warm_start": warm_start,
    "serve_read": serve_read,
    "serve_follow": serve_follow,
}
