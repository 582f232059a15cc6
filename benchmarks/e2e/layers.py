"""The traced run (``--trace 1``): per-layer metrics of the shipped program.

Nothing of the pipeline is re-implemented here. Batch layers come from
the CLI itself: ``traced_cli.py`` runs ``repro.cli.main`` with a span
around each layer call the program does not yet span, and the CLI's
``--trace-out`` writes the Chrome trace read below (``--manifest-out``
gives its counters). Serve layers come from a live ``serve --follow``
process, whose registry already times every span (``span.<name>``) and
route (``http.latency.<route>``): ``/metrics.json`` is read before and
after each load phase. Record validation, which runs per record inside
parsing, is timed once in-process on the parsed lines.

A span's self time is its duration minus its children's. End-to-end
metrics are never taken from these runs.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

from campaign import READ_MIX
from harness import ChildRun, percentile, tail_percentile
from workloads import (
    FOLLOW_POLL_S,
    FOLLOW_RATE,
    READ_RATE,
    SETUP_REPEATS,
    Context,
    check_phase,
    freshness,
    run_phase,
    start_server,
    stop_server,
)

from repro.measurements.record import Measurement
from repro.obs import TraceRecorder, install_trace_recorder, span, uninstall_trace_recorder

TRACED_CLI = (str(Path(__file__).resolve().parent / "traced_cli.py"),)
#: Traced CLI runs per batch path; per-layer values are their medians.
TRACED_RUNS = 3
#: Read-only phase of the live segment, before the follow phase.
READ_SECONDS = 2.0
#: Empty spans timed with the recorder off and on, for its cost.
SPAN_PROBES = 20000


@dataclass
class Trace:
    """One traced CLI run: its wall time, spans and counters."""

    run: ChildRun
    events: List[dict]
    counters: Mapping[str, int]

    def __post_init__(self) -> None:
        self.children: Dict[str, float] = defaultdict(float)
        for event in self.events:
            parent = event["args"].get("parent_id")
            if parent is not None:
                self.children[parent] += event["dur"] / 1e6

    def spans(self, path: str) -> List[dict]:
        return [event for event in self.events if event["args"]["path"] == path]

    def total(self, path: str) -> float:
        """Seconds spent in spans at ``path``."""
        return sum(event["dur"] for event in self.spans(path)) / 1e6

    def self_time(self, path: str) -> float:
        """``total(path)`` less the time of their child spans."""
        return self.total(path) - sum(
            self.children[event["args"]["span_id"]] for event in self.spans(path)
        )

    def field(self, path: str, name: str) -> float:
        """The largest value of a span field at ``path``."""
        return max(event["args"][name] for event in self.spans(path))

    def top_level(self) -> Dict[str, float]:
        """Seconds per top-level span path: the layers the CLI called."""
        totals: Dict[str, float] = defaultdict(float)
        for event in self.events:
            if event["args"]["depth"] == 0:
                totals[event["args"]["path"]] += event["dur"] / 1e6
        return totals

    def coverage(self, start_s: float) -> float:
        """Share of the run, less interpreter start, its layers explain."""
        return sum(self.top_level().values()) / (self.run.wall_s - start_s)


def traced_cli(ctx: Context, args: Sequence[str], name: str) -> Tuple[Trace, Path]:
    """Run ``repro ARGS`` under ``traced_cli.py``; returns its trace and stdout."""
    trace, manifest = ctx.work / f"{name}.trace.json", ctx.work / f"{name}.manifest.json"
    run = ctx.cli(
        ["--trace-out", str(trace), "--manifest-out", str(manifest), *args],
        f"{name}.out",
        entry=TRACED_CLI,
    )
    events = [
        event for event in json.loads(trace.read_bytes())["traceEvents"] if event["ph"] == "X"
    ]
    counters = json.loads(manifest.read_bytes())["metrics"]["counters"]
    return Trace(run, events, counters), ctx.work / f"{name}.out"


def _validation_s(ctx: Context) -> float:
    """``Measurement.from_dict`` over every campaign line, already parsed."""
    documents = [json.loads(line) for line in ctx.lines]
    started = time.perf_counter()
    for document in documents:
        Measurement.from_dict(document)
    return time.perf_counter() - started


def _recording_cost_s() -> float:
    """Seconds a recorded span costs over an unrecorded one.

    Differencing a traced and an untraced CLI run cannot resolve this:
    the runs themselves move by tens of percent. An empty span loop
    isolates it.
    """

    def loop() -> float:
        started = time.perf_counter()
        for _ in range(SPAN_PROBES):
            with span("recording_probe"):
                pass
        return time.perf_counter() - started

    bare = loop()
    install_trace_recorder(TraceRecorder())
    try:
        recorded = loop()
    finally:
        uninstall_trace_recorder()
    return (recorded - bare) / SPAN_PROBES


def _metrics_json(server) -> dict:
    return json.loads(server.get("/metrics.json").body)


def _timer_delta(before: dict, after: dict, name: str) -> Tuple[int, float]:
    """(calls, seconds) a registry timer gained between two snapshots."""
    empty = {"count": 0, "total_s": 0.0}
    old = before["timers"].get(name, empty)
    new = after["timers"].get(name, empty)
    return new["count"] - old["count"], new["total_s"] - old["total_s"]


def _live_segment(ctx: Context) -> Dict[str, float]:
    """A live ``serve --follow``: reads alone, then reads beside appends."""
    source = ctx.work / "live.jsonl"
    shutil.copyfile(ctx.campaign, source)
    server = start_server(ctx, [str(source), "--follow", str(FOLLOW_POLL_S)], "live.log")
    try:
        before = _metrics_json(server)
        read = run_phase(ctx, server, READ_RATE, READ_SECONDS)
        middle = _metrics_json(server)
        follow = run_phase(ctx, server, FOLLOW_RATE, ctx.seconds, follow=source)
        after = _metrics_json(server)
    finally:
        stop_server(ctx, server)
    check_phase(ctx.tally, read)
    follow_reads = check_phase(ctx.tally, follow)
    freshness(ctx.tally, follow)

    routes = {"scores": "/v1/scores", "region": "/v1/scores/:region", "national": "/v1/national"}
    server_s = {}
    for name, route in routes.items():
        calls, seconds = _timer_delta(before, middle, f"http.latency.{route}")
        server_s[name] = seconds / calls
    client_scores = [
        sample.done - sample.sent
        for request, sample in zip(read.schedule, read.samples)
        if request.path == "/v1/scores" and sample.error is None
    ]
    generations = json.loads(follow.drained[-1][2].body)["generation"]

    def per_generation(timer: str) -> float:
        return _timer_delta(middle, after, timer)[1] / generations

    def counted(name: str) -> int:
        return after["counters"].get(name, 0) - middle["counters"].get(name, 0)

    hits, misses = counted("serve.cache.hits"), counted("serve.cache.misses")
    late = [sample.late_s for sample in follow.samples]
    return {
        "http.scores_us": server_s["scores"] * 1e6,
        "http.region_us": server_s["region"] * 1e6,
        "http.national_us": server_s["national"] * 1e6,
        "http.wire_ms": (statistics.fmean(client_scores) - server_s["scores"]) * 1e3,
        "serve.cube_s": per_generation("span.aggregate_cube"),
        "serve.values_s": per_generation("span.score_cube_values"),
        "serve.breakdowns_s": per_generation("span.score_regions"),
        "serve.rebuild_s": per_generation("span.rebuild_breakdowns"),
        "serve.sweeps_per_generation": counted("serve.compute.sweeps") / generations,
        "serve.hit_ratio": hits / (hits + misses),
        "serve.coalesced": counted("serve.coalesced"),
        "follow.read_p50_ms": percentile(follow_reads, 50.0) * 1e3,
        "follow.read_mean_ms": statistics.fmean(follow_reads) * 1e3,
        "follow.read_p95_ms": percentile(follow_reads, 95.0) * 1e3,
        "gen.late_tail_ms": percentile(late, tail_percentile(len(late)) or 100.0) * 1e3,
        "gen.cpu_share": follow.client_cpu_s / follow.wall_s,
        "server.cpu_share": follow.server_cpu_s / follow.wall_s,
    }


def traced_run(ctx: Context, workload: str, out: Path) -> Dict[str, float]:
    """All per-layer metrics; writes the Chrome traces and the layer table.

    The same for every ``workload``: each run measures every layer.
    """
    start_s = statistics.median(
        ctx.cli(["config", "--output", str(ctx.work / "config.json")], "config.txt").wall_s
        for _ in range(SETUP_REPEATS)
    )
    cache = ctx.work / "cache"
    build, _ = traced_cli(ctx, ["cache", "build", str(ctx.campaign), "--cache", str(cache)], "build")
    ctx.cli(["score", str(ctx.campaign), "--json"], "refresh.json")
    expected = (ctx.work / "refresh.json").read_bytes()
    refresh: List[Trace] = []
    warm: List[Trace] = []
    warm_outputs = set()
    for i in range(TRACED_RUNS):
        trace, output = traced_cli(ctx, ["score", str(ctx.campaign), "--json"], f"refresh-{i}")
        ctx.tally.record(
            output.read_bytes() == expected,
            "trace: the traced CLI's score JSON differs from the untraced CLI's",
        )
        refresh.append(trace)
    for i in range(TRACED_RUNS):
        trace, output = traced_cli(ctx, ["score", "--from-cache", str(cache), "--json"], f"warm-{i}")
        warm_outputs.add(output.read_bytes())
        warm.append(trace)
    ctx.tally.record(len(warm_outputs) == 1, "trace: traced --from-cache runs disagree")
    validate_s = _validation_s(ctx)
    live = _live_segment(ctx)

    def median(traces: Sequence[Trace], value) -> float:
        return statistics.median(value(trace) for trace in traces)

    score_cube = "score_regions/score_cube"
    sketch_build_s = build.total("cache.write/measurements.sketchplane")
    io_s = median(refresh, lambda t: t.total("measurements.io"))
    records = refresh[0].field("measurements.io", "records")
    values = {
        "io.read_s": io_s,
        "io.us_per_record": io_s / records * 1e6,
        "io.records": records,
        "record.from_dict_s": validate_s,
        "manifest.digest_s": median(refresh, lambda t: t.total("obs.manifest")),
        "columnar.transpose_s": median(refresh, lambda t: t.total("score_regions/columnar_group")),
        "columnar.cube_s": median(refresh, lambda t: t.total("score_regions/aggregate_cube")),
        "columnar.sorts": refresh[0].counters.get("quantile_cache.columnar.sorts", 0),
        "kernel.score_cube_s": median(refresh, lambda t: t.self_time(score_cube)),
        "kernel.rebuild_s": median(refresh, lambda t: t.total(score_cube + "/rebuild_breakdowns")),
        "scoring.self_s": median(refresh, lambda t: t.self_time("score_regions")),
        "render.to_dict_s": median(refresh, lambda t: t.total("render.to_dict")),
        "render.dumps_s": median(refresh, lambda t: t.total("json.dumps")),
        "render.bytes": refresh[0].field("json.dumps", "bytes"),
        "sketch.build_s": sketch_build_s,
        "sketch.updates": build.counters.get("sketch.updates", 0),
        "sketch.cube_s": median(warm, lambda t: t.total("score_regions/aggregate_cube")),
        "cache.write_s": build.total("cache.write") - sketch_build_s,
        "cache.tiles": build.field("cache.write", "tiles"),
        "cache.bytes": build.field("cache.write", "bytes"),
        "cache.warm_s": median(warm, lambda t: t.total("cache.warm")),
        "cache.verified_reads": warm[0].counters.get("cache.reads.verified", 0),
        "trace.coverage.refresh": median(refresh, lambda t: t.coverage(start_s)),
        "trace.coverage.warm_start": median(warm, lambda t: t.coverage(start_s)),
        "trace.overhead_pct": _recording_cost_s()
        * len(refresh[0].events)
        / median(refresh, lambda t: t.run.wall_s - start_s)
        * 100.0,
        **live,
    }
    report = _layer_report(
        {"refresh": refresh, "warm_start": warm, "cache_build": [build]}, start_s, live
    )
    out.mkdir(parents=True, exist_ok=True)
    for name, trace_file in (
        ("refresh", "refresh-0"), ("warm_start", "warm-0"), ("cache_build", "build")
    ):
        shutil.copyfile(
            ctx.work / f"{trace_file}.trace.json", out / f"trace-{name}-seed{ctx.seed}.json"
        )
    (out / f"layers-seed{ctx.seed}.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    return values


def _layer_report(
    runs: Mapping[str, List[Trace]],
    start_s: float,
    live: Mapping[str, float],
) -> str:
    """Per CLI path: each span path's calls, median and self seconds,
    and top-level shares of the run less interpreter start; then the
    dominant layer of each workload."""
    lines = [f"{'command / span path':<58} {'calls':>6} {'total_s':>9} {'self_s':>9} {'share':>7}"]
    dominant = {}
    for command, traces in runs.items():
        busy = statistics.median(trace.run.wall_s - start_s for trace in traces)
        lines.append(f"{command} (wall less start {busy:.3f} s, {len(traces)} run(s))")
        paths = sorted({event["args"]["path"] for event in traces[0].events})
        for path in paths:
            total = statistics.median(trace.total(path) for trace in traces)
            own = statistics.median(trace.self_time(path) for trace in traces)
            share = f"{total / busy:7.1%}" if "/" not in path else ""
            lines.append(
                f"  {path:<56} {len(traces[0].spans(path)):>6} {total:>9.4f} {own:>9.4f} {share:>7}"
            )
        top = traces[0].top_level()
        dominant[command] = max(top, key=top.get)
    for command, layer in dominant.items():
        lines.append(f"dominant layer, {command}: {layer}")
    sweeps = {name: live[name] for name in ("serve.cube_s", "serve.values_s", "serve.breakdowns_s")}
    top = max(sweeps, key=sweeps.get)
    lines.append(f"dominant layer, serve_follow: {top} ({sweeps[top]:.3f} s per generation)")
    # A conditional read is a /v1/scores request.
    route_us = {
        "scores": live["http.scores_us"],
        "304": live["http.scores_us"],
        "region": live["http.region_us"],
        "national": live["http.national_us"],
    }
    weighted = {f"server, {name} reads": share * route_us[name] for name, share in READ_MIX}
    weighted["HTTP transport (http.wire_ms)"] = live["http.wire_ms"] * 1e3
    top = max(weighted, key=weighted.get)
    lines.append(
        f"dominant layer, serve_read: {top} ({weighted[top]:.0f} us per mix-weighted read)"
    )
    return "\n".join(lines)
