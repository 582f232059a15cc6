"""Command-line interface: ``iqb`` / ``python -m repro``.

Subcommands:

* ``simulate`` — run a measurement campaign over region presets and
  write the records to JSONL;
* ``score``    — score a JSONL measurement file (all regions, table);
* ``report``   — full drill-down report for one region;
* ``config``   — print (or write) the canonical paper configuration;
* ``tiers``    — render the Fig. 1 tier structure;
* ``sweep``    — percentile-sensitivity sweep for one region;
* ``trend``    — windowed IQB time series + slope for one region;
* ``peak``     — prime-time vs off-peak contrast for one region;
* ``equity``   — per-ISP / per-technology breakdown for one region;
* ``compare``  — exact attribution of the score gap between two regions;
* ``label``    — consumer broadband-label scorecard for one region;
* ``publish``  — assemble the full Markdown barometer report;
* ``monitor``  — replay a measurement file through the alerting monitor
  (``--journal``/``--resume`` make the campaign crash-safe: completed
  windows land in an append-only journal and a killed run resumes with
  identical baselines, skipping finished work; ``--slo-rules`` runs a
  data-quality health monitor alongside and records the end-of-run
  :class:`~repro.obs.slo.HealthReport` in the manifest);
* ``health``   — assess a measurement file against data-quality SLOs
  (freshness, completeness, ingest error rate, scoring latency) with
  burn-rate states and score-drift detection; ``--json`` emits the
  full deterministic HealthReport, ``--watch`` paces the replay and
  prints per-window health; exits 1 when any SLO is at PAGE;
* ``serve``    — long-lived scoring service: the ``/v1`` query API
  (``/v1/scores``, ``/v1/scores/<region>``, ``/v1/national``,
  ``/v1/config``) over a scoring engine that runs one scores pass per
  plane generation, plus the full telemetry surface; ``--follow``
  tails the input file and ingests appended measurements live;
  SIGTERM/Ctrl-C drains in-flight requests and exits 0;
* ``adaptive`` — demonstrate uncertainty-driven probe allocation;
* ``metrics``  — run a pipeline end to end and dump the observability
  snapshot (probe retries/abandons, ingest skips, cache hit rates) as
  JSON, text, or Prometheus exposition (``--format prom``);
* ``cache``    — content-addressed dataset cache: ``build`` reduces a
  measurement file to quantile-sketch tiles under a versioned
  ``cache/v1/`` tree (every artifact named by the SHA-256 of its
  bytes, indexed by a signed ``MANIFEST.json``); ``push``/``pull``
  sync with an http(s) or directory remote — incremental by manifest
  diff, resumable, retried with decorrelated-jitter backoff, and an
  artifact is never published without passing its digest check;
  ``verify`` re-hashes the whole cache (corruption quarantines, exit
  1); ``gc`` removes unreferenced artifacts. ``score --from-cache``
  and ``serve --from-cache`` warm their scoring plane straight from
  tiles, skipping ingest entirely;
* ``runs``     — list and diff run-provenance manifests.

Global flags: ``--log-level {debug,info,warning,error}`` and
``--log-json`` configure structured logging for every subcommand
(events go to stderr; stdout stays clean for command output). Every
command runs in one process.
Live-operations flags, also global:

* ``--telemetry-port N`` — serve ``/metrics`` (Prometheus),
  ``/metrics.json``, ``/healthz``, ``/slo``, and ``/quality`` while a
  long-running subcommand (``monitor``, ``health``, ``adaptive``)
  executes; port 0 picks an ephemeral one.
* ``--trace-out PATH`` — record every pipeline span and write a Chrome
  trace-event JSON (open in Perfetto / ``chrome://tracing``).
* ``--manifest-out PATH`` — write the run-provenance manifest (command,
  config digest, input SHA-256s, metrics snapshot, outputs).
  ``publish --output X`` writes ``X.manifest.json`` automatically.

Every command is pure stdlib ``argparse`` over the library API, so the
CLI is also living documentation of the public surface. Operational
errors — an unreadable input path, a malformed measurement file — are
caught at the top level and reported as one ``iqb: error: ...`` line
with exit status 2; a traceback out of the CLI is by definition a bug.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.report import comparison_report, region_report
from repro.analysis.tables import render_table
from repro.core.config import IQBConfig, paper_config
from repro.core.exceptions import SchemaError
from repro.core.framework import IQBFramework
from repro.core.sensitivity import percentile_sweep
from repro.measurements.io import IngestStats, read_jsonl, write_jsonl
from repro.netsim.population import REGION_PRESETS, region_preset
from repro.netsim.simulator import CampaignConfig, simulate_regions
from repro.obs import (
    RunContext,
    TelemetryServer,
    TraceRecorder,
    install_trace_recorder,
    setup_logging,
    uninstall_trace_recorder,
    write_chrome_trace,
)
from repro.obs.manifest import MANIFEST_SUFFIX, RunManifest

#: The active invocation's provenance accumulator (set by :func:`main`;
#: commands register configs/inputs/outputs on it as they run).
_RUN: Optional[RunContext] = None

#: The live telemetry endpoint, when a subcommand started one. Module
#: visible so an embedding test can reach the ephemeral port mid-run.
_TELEMETRY: Optional[TelemetryServer] = None


def _load_config(path: Optional[str]) -> IQBConfig:
    config = paper_config() if path is None else IQBConfig.load(path)
    if _RUN is not None:
        _RUN.set_config(config)
    return config


def _read_measurements(args: argparse.Namespace):
    """Read the command's input file, recording provenance as we go."""
    stats = IngestStats()
    records = read_jsonl(args.input, on_error=args.on_error, stats=stats)
    if _RUN is not None:
        _RUN.add_input(args.input, stats)
    return records


def _warm_from_cache(args: argparse.Namespace):
    """Warm a scoring plane from a local tile cache, with provenance.

    Every tile read is digest-verified; the cache manifest's signature
    digest lands in the run manifest so a published score is pinned to
    the exact cache snapshot it came from.
    """
    from repro.cache import LocalCache, tile_entries, warm_plane

    cache = LocalCache(args.from_cache)
    granularity = getattr(args, "cache_granularity", None) or "region"
    plane = warm_plane(cache, granularity=granularity)
    if _RUN is not None:
        manifest = cache.manifest()
        _RUN.set_cache_source(
            cache.root,
            manifest.manifest_sha256,
            tiles=len(tile_entries(cache, granularity=granularity)),
            granularity=granularity,
        )
    return plane


def _check_cache_args(args: argparse.Namespace) -> Optional[str]:
    """Validate the input-vs-cache choice for cache-warmable commands."""
    if args.input is None and args.from_cache is None:
        return "an input file or --from-cache DIR is required"
    if args.input is not None and args.from_cache is not None:
        return "give an input file or --from-cache, not both"
    if args.from_cache is not None and args.quantiles == "exact":
        return (
            "--from-cache scores from quantile-sketch tiles; "
            "--quantiles exact needs the raw measurement file"
        )
    return None


def _flag_error(flag: str, requirement: str, value: object) -> str:
    """The one-line message naming a flag outside its range."""
    return f"{flag} must be {requirement}: {value}"


def _check_window_days(args: argparse.Namespace) -> Optional[str]:
    """Reject a non-positive ``--window-days`` by the flag's name."""
    if args.window_days > 0:
        return None
    return _flag_error("--window-days", "positive", args.window_days)


def _start_telemetry(args: argparse.Namespace) -> Optional[TelemetryServer]:
    """Bring up the telemetry endpoint when ``--telemetry-port`` is set."""
    global _TELEMETRY
    if getattr(args, "telemetry_port", None) is None:
        return None
    server = TelemetryServer(
        port=args.telemetry_port,
        stalled_after_s=getattr(args, "stalled_after", None),
    )
    server.start()
    _TELEMETRY = server
    print(f"telemetry: listening on http://{server.address}", file=sys.stderr)
    return server


def _stop_telemetry(server: Optional[TelemetryServer]) -> None:
    global _TELEMETRY
    if server is not None:
        server.stop()
    _TELEMETRY = None


def _record_degraded(breakdowns) -> None:
    """Register every degraded region's missing datasets with the run."""
    if _RUN is None:
        return
    for region, breakdown in breakdowns.items():
        _RUN.add_degraded(region, breakdown.degraded_datasets)


def _cmd_simulate(args: argparse.Namespace) -> int:
    names = args.regions or sorted(REGION_PRESETS)
    profiles = [region_preset(name) for name in names]
    try:
        campaign = CampaignConfig(
            subscribers=args.subscribers,
            tests_per_client=args.tests,
            days=args.days,
            wifi_share=args.wifi_share,
        )
    except ValueError as exc:
        print(f"iqb: error: {exc}", file=sys.stderr)
        return 2
    records = simulate_regions(profiles, seed=args.seed, config=campaign)
    count = write_jsonl(records, args.output)
    if _RUN is not None:
        _RUN.add_output(args.output)
    print(f"wrote {count} measurements for {len(profiles)} regions to {args.output}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    problem = _check_cache_args(args)
    if problem is None and args.from_cache is not None and args.lint:
        problem = "--lint inspects raw measurements; it cannot run --from-cache"
    if problem is not None:
        print(f"iqb: error: {problem}", file=sys.stderr)
        return 2
    if args.from_cache is not None:
        from repro.core.exceptions import DataError, IntegrityError

        try:
            records = _warm_from_cache(args)
        except (IntegrityError, DataError) as exc:
            print(f"iqb: error: {exc}", file=sys.stderr)
            return 1
        if args.quantiles is None:
            # Tiles are sketches; there is no exact plane to fall back
            # to. Re-record so the manifest reflects what actually ran.
            args.quantiles = "sketch"
            if _RUN is not None:
                _RUN.set_quantiles("sketch")
    else:
        records = _read_measurements(args)
    config = _load_config(args.config)
    if args.lint:
        from repro.core.lint import lint_config

        findings = lint_config(config, records)
        for finding in findings:
            print(finding)
        if findings:
            print()
    if args.json:
        import json as json_module

        from repro.core.scoring import score_regions

        breakdowns = (
            score_regions(records, config, quantiles=args.quantiles)
            if len(records)
            else {}
        )
        _record_degraded(breakdowns)
        document = {
            "regions": {
                region: breakdown.to_dict()
                for region, breakdown in breakdowns.items()
            },
        }
        if args.quantiles is not None:
            document["quantiles"] = args.quantiles
        print(json_module.dumps(document, indent=2, sort_keys=True))
    else:
        print(comparison_report(records, config, quantiles=args.quantiles))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = _read_measurements(args)
    config = _load_config(args.config)
    print(region_report(records, args.region, config))
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    config = paper_config()
    if args.output:
        config.save(args.output)
        print(f"wrote canonical paper config to {args.output}")
    else:
        print(config.to_json())
    return 0


def _cmd_tiers(args: argparse.Namespace) -> int:
    framework = IQBFramework(_load_config(args.config))
    print(framework.render_tier_map())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    for percentile in args.percentiles:
        if not 0.0 <= percentile <= 100.0:
            message = _flag_error("--percentiles", "in [0, 100]", percentile)
            print(f"iqb: error: {message}", file=sys.stderr)
            return 2
    records = _read_measurements(args)
    config = _load_config(args.config)
    sources = records.for_region(args.region).group_by_source()
    sweep = percentile_sweep(sources, config, percentiles=args.percentiles)
    print(
        render_table(
            ["Percentile", "IQB score"],
            [(f"p{int(p)}", score) for p, score in sorted(sweep.items())],
        )
    )
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.analysis.temporal import score_time_series, trend
    from repro.core.exceptions import DataError

    problem = _check_window_days(args)
    if problem is not None:
        print(f"iqb: error: {problem}", file=sys.stderr)
        return 2
    records = _read_measurements(args)
    config = _load_config(args.config)
    points = score_time_series(
        records,
        args.region,
        config,
        window_seconds=args.window_days * 86400.0,
    )
    rows = [
        (
            f"{point.start / 86400.0:.1f}d",
            "n/a" if point.score is None else f"{point.score:.3f}",
            point.samples,
        )
        for point in points
    ]
    print(render_table(["Window start", "IQB", "Tests"], rows))
    from repro.analysis.tables import sparkline

    print(
        "Series: "
        + sparkline([point.score for point in points], low=0.0, high=1.0)
        + "  (scaled 0..1)"
    )
    try:
        slope, _ = trend(points)
        print(f"Trend: {slope:+.4f} IQB/day")
    except DataError:
        print("Trend: not enough scored windows")
    return 0


def _cmd_peak(args: argparse.Namespace) -> int:
    from repro.analysis.temporal import peak_vs_offpeak

    records = _read_measurements(args)
    config = _load_config(args.config)
    contrast = peak_vs_offpeak(records, args.region, config)
    fmt = lambda v: "n/a" if v is None else f"{v:.3f}"
    print(f"Peak (18-23h) : {fmt(contrast.peak_score)} "
          f"({contrast.peak_samples} tests)")
    print(f"Off-peak      : {fmt(contrast.off_peak_score)} "
          f"({contrast.off_peak_samples} tests)")
    if contrast.degradation is not None:
        print(f"Degradation   : {contrast.degradation:+.3f} "
              f"(positive = evenings worse)")
    return 0


def _cmd_equity(args: argparse.Namespace) -> int:
    from repro.analysis.equity import (
        equity_table,
        scores_by_isp,
        scores_by_technology,
    )

    records = _read_measurements(args)
    config = _load_config(args.config)
    analyze = scores_by_isp if args.by == "isp" else scores_by_technology
    breakdown = analyze(records, args.region, config)
    rows = [
        (
            row["group"],
            "n/a" if row["score"] is None else f"{row['score']:.3f}",
            row["samples"],
            (
                "n/a"
                if row["delta_vs_region"] is None
                else f"{row['delta_vs_region']:+.3f}"
            ),
        )
        for row in equity_table(breakdown)
    ]
    print(f"Region {args.region}: overall IQB {breakdown.overall:.3f}")
    print(render_table([args.by.upper(), "IQB", "Tests", "vs region"], rows))
    if breakdown.gap is not None:
        print(f"Equity gap (best - worst group): {breakdown.gap:.3f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import attribute_difference, render_attribution
    from repro.core.scoring import score_region

    records = _read_measurements(args)
    config = _load_config(args.config)
    breakdowns = []
    for region in (args.region_a, args.region_b):
        sources = records.for_region(region).group_by_source()
        breakdowns.append(score_region(sources, config))
    attribution = attribute_difference(breakdowns[0], breakdowns[1])
    print(f"{args.region_a}: {attribution.score_a:.3f}")
    print(f"{args.region_b}: {attribution.score_b:.3f}")
    print(render_attribution(attribution, top=args.top))
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.analysis.publish import build_publication
    from repro.core.scoring import score_regions
    from repro.fsutil import atomic_write

    records = _read_measurements(args)
    config = _load_config(args.config)
    populations = None
    if args.populations:
        with open(args.populations, "r", encoding="utf-8") as handle:
            populations = {
                str(region): float(value)
                for region, value in json_module.load(handle).items()
            }
    breakdowns = score_regions(records, config, quantiles=args.quantiles)
    _record_degraded(breakdowns)
    document = build_publication(
        records, config, populations=populations, breakdowns=breakdowns
    )
    if args.output:
        atomic_write(args.output, document + "\n")
        if _RUN is not None:
            _RUN.add_output(args.output)
        print(f"wrote publication to {args.output}")
    else:
        print(document)
    return 0


def _cmd_label(args: argparse.Namespace) -> int:
    from repro.analysis.scorecard import build_scorecard, render_scorecard

    records = _read_measurements(args)
    config = _load_config(args.config)
    card = build_scorecard(records, args.region, config)
    print(render_scorecard(card))
    return 0


def _open_monitor_journal(args: argparse.Namespace):
    """Open the campaign journal per ``--journal`` / ``--resume``.

    ``--resume PATH`` demands an existing journal (a typo'd path must
    not silently start a fresh campaign); ``--journal PATH`` records to
    PATH and resumes automatically when it already exists.
    """
    import os as os_module

    from repro.resilience import CampaignJournal

    path = args.resume or args.journal
    if path is None:
        return None
    if args.resume and not os_module.path.exists(args.resume):
        raise FileNotFoundError(
            f"--resume journal not found: {args.resume} "
            f"(use --journal to start a new campaign)"
        )
    return CampaignJournal(path)


def _load_slo_rules(path: Optional[str], records, window_s: float):
    """Resolve the SLO rule set: a rule file, or built-in defaults.

    The built-in set derives per-dataset freshness budgets from the
    datasets actually present in ``records`` and the replay's window
    width, so ``iqb health data.jsonl`` is useful with zero config.
    """
    from repro.obs.health import default_rules
    from repro.obs.slo import load_rules

    if path is not None:
        return load_rules(path)
    return default_rules(records.sources(), window_s)


def _time_bounds(records) -> Tuple[float, float]:
    """The earliest and latest timestamp, read from the store's column."""
    timestamp = records.columnar().columns().timestamp
    return float(timestamp.min()), float(timestamp.max())


def _finish_health(health) -> "object":
    """Uninstall the monitor and file its report with the run.

    Runs in command ``finally`` blocks, so an interrupted campaign
    still leaves its last-known health verdict in the manifest.
    """
    from repro.obs.health import uninstall_health_monitor

    uninstall_health_monitor()
    report = health.evaluate()
    if _RUN is not None:
        _RUN.set_health_report(report)
    return report


def _cmd_monitor(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.probing.monitor import BarometerMonitor
    from repro.resilience import window_key

    problem = _check_window_days(args)
    if problem is None and args.trailing < 1:
        problem = _flag_error("--trailing", ">= 1", args.trailing)
    if problem is not None:
        print(f"iqb: error: {problem}", file=sys.stderr)
        return 2
    records = _read_measurements(args)
    config = _load_config(args.config)
    if len(records) == 0:
        print("no measurements to monitor")
        return 0
    width = args.window_days * 86400.0
    health = None
    if args.slo_rules is not None:
        from repro.obs.health import HealthMonitor, install_health_monitor

        health = HealthMonitor(
            rules=_load_slo_rules(args.slo_rules, records, width)
        )
        install_health_monitor(health)
    monitor = BarometerMonitor(
        config,
        min_drop=args.min_drop,
        trailing=args.trailing,
        quantiles=args.quantiles or "exact",
    )
    journal = _open_monitor_journal(args)
    resumed_windows = 0
    if journal is not None and len(journal):
        # Snapshot state first, then redo the post-snapshot WAL
        # windows from their recorded score points — the baselines a
        # resumed campaign alerts against are bit-identical to an
        # uninterrupted run's.
        if journal.state is not None:
            monitor.restore_state(journal.state)
        for _, data in journal.replay():
            if data:
                monitor.apply_window(data)
        resumed_windows = len(journal)
        print(
            f"resuming: {resumed_windows} window(s) already complete "
            f"in journal",
            file=sys.stderr,
        )
    start, end = _time_bounds(records)
    total_alerts = 0
    window_start = start
    telemetry = _start_telemetry(args)
    try:
        while window_start <= end:
            window_end = window_start + width
            key = window_key(window_start, window_end)
            if journal is not None and key in journal:
                window_start = window_end
                continue
            alerts = monitor.ingest(records, window_start, window_end)
            if journal is not None:
                journal.record(
                    key, data=monitor.window_state(window_start, window_end)
                )
            day = (window_start - start) / 86400.0
            if alerts:
                total_alerts += len(alerts)
                for alert in alerts:
                    print(f"window +{day:.1f}d: {alert}")
            elif args.verbose:
                scores = ", ".join(
                    f"{region}="
                    + (
                        "n/a"
                        if monitor.history(region)[-1].score is None
                        else f"{monitor.history(region)[-1].score:.3f}"
                    )
                    for region in monitor.regions()
                )
                print(f"window +{day:.1f}d: ok ({scores})")
            if args.cycle_sleep > 0:
                # Pace the replay in real time — this is how a live
                # campaign looks to a telemetry scraper, and how the
                # integration tests curl a running monitor.
                time_module.sleep(args.cycle_sleep)
            window_start = window_end
    finally:
        # Flush on every exit — including KeyboardInterrupt — so the
        # journal always reflects the windows that completed and the
        # manifest carries the last-known health verdict.
        if journal is not None:
            journal.checkpoint(monitor.state_dict())
            journal.close()
        if health is not None:
            health_report = _finish_health(health)
        _stop_telemetry(telemetry)
    summary = f"{total_alerts} alert(s) over {len(records)} measurements"
    if resumed_windows:
        summary += f" ({resumed_windows} window(s) resumed from journal)"
    print(summary)
    if health is not None:
        print(f"health: {health_report.status}")
    return 0


def _newlines(path, size: int) -> int:
    """Line ends in the first ``size`` bytes of ``path``, read in blocks.

    Counts ``\n``, ``\r\n`` and a lone ``\r`` once each, as the
    readers' text mode splits lines.
    """
    count = 0
    last = b""
    with open(path, "rb") as handle:
        while size > 0:
            block = handle.read(min(size, 1 << 20))
            if not block:
                break
            size -= len(block)
            count += block.count(b"\n") + block.count(b"\r")
            count -= block.count(b"\r\n")
            if last == b"\r" and block.startswith(b"\n"):
                count -= 1  # a \r\n split across two blocks
            last = block[-1:]
    return count


def _follow_jsonl(path, service, stop, interval, on_error) -> None:
    """Tail ``path`` for appended JSONL records and ingest them.

    Byte-offset tailing with torn-line tolerance: only lines ending in
    a newline are consumed, a partial tail stays buffered for the next
    poll (the same guarantee the campaign journal makes for its WAL).
    Complete lines go through the readers' decoder
    (:func:`~repro.measurements.io.decode_jsonl`), so a line the follower
    drops is one ``read_jsonl`` would drop, and the decoded column batch
    is appended as-is. Malformed lines follow ``--on-error``: ``skip``
    counts them into ``serve.follow.skipped``; ``raise`` stops the
    follower and leaves the error, with its ``path:line``, visible in
    the log (the server keeps serving the last consistent generation).

    Truncation (logrotate copytruncate, an operator rewriting the
    file) is detected by the file shrinking below our offset: the
    follower resets to byte 0, drops any buffered partial tail (it
    belonged to the old file), counts ``serve.follow.truncations``,
    and re-ingests the rewritten content on the same poll — without
    the reset a shrunk file silently stops being followed until it
    grows past the stale offset, serving stale scores forever.
    """
    import io
    import os

    from repro.measurements.io import decode_jsonl
    from repro.obs import counter, get_logger

    logger = get_logger(__name__)
    skipped = counter("serve.follow.skipped")
    ingested = counter("serve.follow.records")
    truncations = counter("serve.follow.truncations")
    try:
        offset = os.path.getsize(path)
        lines_done = _newlines(path, offset)
    except OSError:
        offset = lines_done = 0
    pending = b""
    while not stop.wait(interval):
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if size < offset:
            truncations.inc()
            logger.warning(
                "serve follower: input truncated, re-reading from start",
                extra={"ctx": {"path": path, "old_offset": offset}},
            )
            offset = 0
            lines_done = 0
            pending = b""
        if size <= offset:
            continue
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            continue
        offset += len(chunk)
        pending += chunk
        complete, newline, pending = pending.rpartition(b"\n")
        if not newline:
            pending = complete
            continue
        # The readers' text mode: undecodable bytes reach the decoder
        # as surrogates, and \r\n / \r end lines as \n does.
        lines = io.StringIO(
            (complete + newline).decode("utf-8", "surrogateescape"),
            newline=None,
        ).readlines()
        stats = IngestStats()
        try:
            batch = decode_jsonl(
                lines,
                path,
                on_error=on_error,
                stats=stats,
                first_line=lines_done + 1,
            )
        except SchemaError as exc:
            logger.error(
                "serve follower stopped on malformed line",
                extra={"ctx": {"path": path, "error": str(exc)}},
            )
            return
        lines_done += len(lines)
        skipped.inc(stats.skipped)
        if len(batch):
            service.ingest(batch)
            ingested.inc(len(batch))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the /v1 scoring API until SIGTERM/SIGINT, then drain."""
    import json as json_module
    import math
    import signal
    import threading
    import time as time_module

    from repro.measurements.columnar import ColumnarStore
    from repro.serve import ScoringService, ServeServer

    global _TELEMETRY

    problem = _check_cache_args(args)
    if problem is None and args.from_cache is not None and args.follow > 0:
        problem = "--follow tails a measurement file; it cannot run --from-cache"
    if problem is None and not 0 <= args.port <= 65535:
        problem = _flag_error("--port", "in [0, 65535]", args.port)
    for flag, seconds in (
        ("--follow", args.follow),
        ("--drain-timeout", args.drain_timeout),
    ):
        if problem is None and not (math.isfinite(seconds) and seconds >= 0):
            problem = _flag_error(flag, "finite and >= 0", seconds)
    if problem is not None:
        print(f"iqb: error: {problem}", file=sys.stderr)
        return 2
    if args.from_cache is not None:
        from repro.core.exceptions import DataError, IntegrityError

        try:
            store = _warm_from_cache(args)
        except (IntegrityError, DataError) as exc:
            print(f"iqb: error: {exc}", file=sys.stderr)
            return 1
        records = store
    else:
        records = _read_measurements(args)
        store = ColumnarStore.from_measurements(records)
    config = _load_config(args.config)
    populations = None
    if args.populations is not None:
        with open(args.populations, "r", encoding="utf-8") as handle:
            populations = {
                str(region): float(population)
                for region, population in json_module.load(handle).items()
            }
    health = None
    if args.slo_rules is not None:
        from repro.obs.health import (
            HealthMonitor,
            install_health_monitor,
            serve_default_rules,
        )
        from repro.obs.slo import load_rules

        rules = (
            serve_default_rules()
            if args.slo_rules == "default"
            else load_rules(args.slo_rules)
        )
        # Wall-clock evaluation: a query service has no data-time
        # replay to anchor to — burn rates age in real time.
        health = HealthMonitor(rules=rules, clock=time_module.time)
        install_health_monitor(health)
    service = ScoringService(
        store, config, populations=populations, quantiles=args.quantiles
    )
    server = ServeServer(
        service,
        host=args.host,
        port=args.port,
        stalled_after_s=getattr(args, "stalled_after", None),
        health=health,
    )
    server.start()
    _TELEMETRY = server
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    # Installed before the address is announced: a client that has
    # read it may signal at once.
    previous_term = signal.signal(signal.SIGTERM, _request_stop)
    previous_int = signal.signal(signal.SIGINT, _request_stop)
    # The address line goes to stderr, flushed: scripts (and the CI
    # smoke step) read the ephemeral port from it.
    print(
        f"serve: listening on http://{server.address}",
        file=sys.stderr,
        flush=True,
    )
    print(
        f"serve: {len(records)} measurement(s) at generation "
        f"{service.generation}, config {service.config_sha256[:12]}",
        file=sys.stderr,
        flush=True,
    )
    follower = None
    if args.follow > 0:
        follower = threading.Thread(
            target=_follow_jsonl,
            args=(args.input, service, stop, args.follow, args.on_error),
            name="iqb-serve-follow",
            daemon=True,
        )
        follower.start()
    try:
        while not stop.wait(0.25):
            if health is not None:
                health.tick(time_module.time())
    finally:
        # Graceful shutdown on any exit: stop taking the process down
        # with requests mid-flight, then flush health into the run
        # manifest (main() writes it on the normal return path).
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        stop.set()
        if follower is not None:
            follower.join(timeout=2.0)
        drained = server.drain(timeout=args.drain_timeout)
        _stop_telemetry(server)
        if health is not None:
            _finish_health(health)
    drain_note = "" if drained else " (drain timed out)"
    print(
        f"serve: shut down after {server.request_count()} request(s), "
        f"generation {service.generation}{drain_note}"
    )
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Replay a measurement file and judge the *barometer's* health.

    The score says how the internet is doing; this says whether the
    barometer itself can be believed — dataset freshness and
    completeness SLOs with burn-rate states, ingest error rate,
    scoring latency, and score-drift detection that separates real
    shifts from stale data. Exit status 1 when any SLO is at PAGE.
    """
    import json as json_module
    import time as time_module

    from repro.obs.health import HealthMonitor, install_health_monitor
    from repro.probing.monitor import BarometerMonitor

    problem = _check_window_days(args)
    if problem is not None:
        print(f"iqb: error: {problem}", file=sys.stderr)
        return 2
    records = _read_measurements(args)
    config = _load_config(args.config)
    if len(records) == 0:
        print("no measurements to assess")
        return 0
    width = args.window_days * 86400.0
    health = HealthMonitor(
        rules=_load_slo_rules(args.rules, records, width)
    )
    install_health_monitor(health)
    # Sketch-backed replay: every record folds into the live t-digest
    # plane (notifying health per arrival) and each window close hands
    # the drift detector incremental scores.
    monitor = BarometerMonitor(config, quantiles="sketch")
    telemetry = _start_telemetry(args)
    start, end = _time_bounds(records)
    window_start = start
    windows = 0
    try:
        while window_start <= end:
            window_end = window_start + width
            monitor.ingest(records, window_start, window_end)
            windows += 1
            if args.watch:
                snapshot = health.evaluate()
                day = (window_start - start) / 86400.0
                breaches = ", ".join(
                    f"{status.name}={status.state}"
                    for status in snapshot.rules
                    if status.state != "ok"
                )
                print(
                    f"window +{day:.1f}d: {snapshot.status}"
                    + (f" ({breaches})" if breaches else "")
                )
                if args.cycles and windows >= args.cycles:
                    break
                if args.interval > 0:
                    time_module.sleep(args.interval)
            window_start = window_end
    finally:
        # Uninstall + file the report even on Ctrl-C out of a watch
        # loop: the manifest still gets the last-known verdict.
        report = _finish_health(health)
        _stop_telemetry(telemetry)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            (
                status.name,
                status.signal,
                status.state.upper(),
                f"{status.burn_fast:.2f}",
                f"{status.burn_slow:.2f}",
                status.samples,
                status.detail or "-",
            )
            for status in report.rules
        ]
        print(
            render_table(
                ["Rule", "Signal", "State", "Burn (fast)", "Burn (slow)",
                 "Samples", "Detail"],
                rows,
            )
        )
        for event in report.drift:
            print(
                f"drift: {event['region']} {event['kind']} "
                f"({event['direction']}) score {event['score']:.3f} "
                f"vs baseline {event['baseline']:.3f}"
            )
        print(f"health: {report.status} over {windows} window(s)")
    return 1 if report.status == "page" else 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    from repro.probing.adaptive import AdaptiveAllocator, uniform_campaign
    from repro.probing.backends import SimulatedBackend

    config = _load_config(args.config)
    names = args.regions or sorted(REGION_PRESETS)
    profiles = [region_preset(name) for name in names]

    def backend():
        return SimulatedBackend(
            profiles=profiles, seed=args.seed, subscribers=args.subscribers
        )

    try:
        allocator = AdaptiveAllocator(
            backend(),
            config,
            seed=args.seed,
            pilot_per_region=args.pilot,
            quantiles=args.quantiles or "exact",
        )
        allocator.check_budget(args.budget, args.rounds)
    except ValueError as exc:
        print(f"iqb: error: {exc}", file=sys.stderr)
        return 2
    telemetry = _start_telemetry(args)
    try:
        adaptive = allocator.run(total_budget=args.budget, rounds=args.rounds)
        uniform = uniform_campaign(
            backend(), config, total_budget=args.budget, seed=args.seed
        )
    finally:
        _stop_telemetry(telemetry)
    adaptive_counts = adaptive.tests_per_region()
    uniform_counts = uniform.tests_per_region()
    rows = [
        (
            region,
            adaptive_counts.get(region, 0),
            adaptive.final_ci_widths[region],
            uniform_counts.get(region, 0),
            uniform.final_ci_widths[region],
        )
        for region in sorted(adaptive.final_ci_widths)
    ]
    print(f"Probe budget {args.budget}, {args.rounds} adaptive rounds:")
    print(
        render_table(
            ["Region", "Adaptive tests", "Adaptive CI", "Uniform tests",
             "Uniform CI"],
            rows,
        )
    )
    print(
        f"Worst-case CI: adaptive {adaptive.worst_ci_width:.3f} "
        f"vs uniform {uniform.worst_ci_width:.3f}"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Exercise the pipeline end to end and dump the metrics snapshot.

    Three instrumented stages run inside one ``pipeline`` span: a probe
    campaign with injected transient failures (retry/abandon counters
    and per-backend latency), measurement ingest (from ``input`` when
    given, else the campaign's own records), and a batch scoring pass
    (quantile-cache hit/miss counters). The registry snapshot then goes
    to stdout as JSON (or aligned text with ``--text``).
    """
    from repro.core.scoring import score_regions
    from repro.obs import REGISTRY, reset, span
    from repro.probing.backends import ProbeRequest, SimulatedBackend
    from repro.probing.runner import ProbeRunner
    from repro.probing.sinks import MemorySink

    reset()
    config = _load_config(args.config)
    names = args.regions or ["metro-fiber", "rural-dsl"]
    profiles = [region_preset(name) for name in names]
    with span("pipeline"):
        with span("probe"):
            try:
                backend = SimulatedBackend(
                    profiles=profiles,
                    seed=args.seed,
                    subscribers=args.subscribers,
                    failure_rate=args.failure_rate,
                )
            except ValueError as exc:
                print(f"iqb: error: {exc}", file=sys.stderr)
                return 2
            sink = MemorySink()
            runner = ProbeRunner(backend, sink, max_attempts=3)
            window = 7.0 * 86400.0
            schedule = [
                ProbeRequest(
                    client=client,
                    region=region,
                    timestamp=(i + 0.5) * window / args.probes,
                )
                for region in backend.regions()
                for client in backend.clients()
                for i in range(args.probes)
            ]
            runner.run(schedule)
        with span("ingest"):
            if args.input:
                records = _read_measurements(args)
            else:
                records = sink.as_set()
        with span("score"):
            if len(records):
                score_regions(records, config, quantiles=args.quantiles)
    chosen = args.format or ("text" if args.text else "json")
    if chosen == "prom":
        print(REGISTRY.render_prometheus(), end="")
    elif chosen == "text":
        print(REGISTRY.render_text())
    else:
        print(REGISTRY.render_json())
    return 0


def _cmd_cache_build(args: argparse.Namespace) -> int:
    """Reduce a measurement file to verified quantile-sketch tiles."""
    import json as json_module

    from repro.cache import LocalCache, write_tiles

    if not args.period_days > 0:
        message = _flag_error("--period-days", "positive", args.period_days)
        print(f"iqb: error: {message}", file=sys.stderr)
        return 2
    records = _read_measurements(args)
    cache = LocalCache(args.cache)
    granularities = tuple(args.granularity or ("region",))
    published = {entry.path for entry in cache.manifest().entries}
    entries = write_tiles(
        cache,
        records,
        granularities=granularities,
        period_s=args.period_days * 86400.0,
    )
    built = sorted(
        entry.path for entry in entries if entry.path not in published
    )
    manifest = cache.manifest()
    # Tiles of a rebuilt (period, plane) that the new ones replaced.
    replaced = sorted(published - set(manifest.by_path()))
    if _RUN is not None:
        _RUN.add_output(str(cache.manifest_path))
        _RUN.set_cache_source(
            cache.root, manifest.manifest_sha256, tiles=len(manifest.entries)
        )
    if args.json:
        document = {
            "cache": str(cache.root),
            "built": built,
            "replaced": replaced,
            "tiles": len(manifest.entries),
            "periods": manifest.periods(),
            "manifest_sha256": manifest.manifest_sha256,
        }
        print(json_module.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"cache build: {len(built)} new tile(s), "
            f"{len(replaced)} replaced ({len(manifest.entries)} total) "
            f"in {cache.root}, "
            f"manifest {manifest.manifest_sha256[:12]}"
        )
    return 0


def _cmd_cache_push(args: argparse.Namespace) -> int:
    """Upload verified local artifacts a remote is missing."""
    import json as json_module

    from repro.cache import LocalCache, default_breaker, open_remote, push
    from repro.core.exceptions import IntegrityError, RemoteError
    from repro.resilience import BreakerOpenError, RetryPolicy

    cache = LocalCache(args.cache)
    remote = open_remote(args.remote)
    policy = RetryPolicy(
        max_attempts=args.max_attempts, base_s=0.05, cap_s=2.0
    )
    try:
        report = push(cache, remote, policy=policy, breaker=default_breaker())
    except (IntegrityError, RemoteError, BreakerOpenError) as exc:
        print(f"iqb cache: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"cache push: {len(report.uploaded)} uploaded, "
            f"{len(report.skipped)} already on {remote.name}, "
            f"{report.retries} retried, "
            f"{report.bytes_transferred} bytes; "
            f"manifest {report.manifest_sha256[:12]}"
        )
    return 0


def _cmd_cache_pull(args: argparse.Namespace) -> int:
    """Fetch missing artifacts; resume partials; verify everything."""
    import json as json_module

    from repro.cache import LocalCache, default_breaker, open_remote, pull
    from repro.core.exceptions import IntegrityError, RemoteError
    from repro.resilience import BreakerOpenError, RetryPolicy

    cache = LocalCache(args.cache)
    remote = open_remote(args.remote)
    policy = RetryPolicy(
        max_attempts=args.max_attempts, base_s=0.05, cap_s=2.0
    )
    try:
        report = pull(cache, remote, policy=policy, breaker=default_breaker())
    except (IntegrityError, RemoteError, BreakerOpenError) as exc:
        print(f"iqb cache: error: {exc}", file=sys.stderr)
        return 1
    if _RUN is not None:
        _RUN.set_cache_source(
            cache.root,
            report.manifest_sha256,
            tiles=len(cache.manifest().entries),
        )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"cache pull: {len(report.fetched)} fetched, "
            f"{len(report.skipped)} already present, "
            f"{report.resumed} resumed, {report.retries} retried, "
            f"{report.bytes_transferred} bytes; "
            f"manifest {report.manifest_sha256[:12]}"
        )
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    """Re-hash every manifest entry; quarantine and report corruption."""
    import json as json_module

    from repro.cache import LocalCache
    from repro.core.exceptions import IntegrityError

    cache = LocalCache(args.cache)
    try:
        report = cache.verify()
    except IntegrityError as exc:
        # The manifest itself failed its signature — nothing below it
        # can be trusted, so this is its own loud failure mode.
        print(f"iqb cache: error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        document = {
            "cache": str(cache.root),
            "ok": report.ok,
            "verified": report.verified,
            "manifest_sha256": report.manifest_sha256,
            "findings": [
                {"kind": f.kind, "path": f.path, "detail": f.detail}
                for f in report.findings
            ],
        }
        print(json_module.dumps(document, indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            detail = f" ({finding.detail})" if finding.detail else ""
            print(f"cache verify: {finding.kind}: {finding.path}{detail}")
        verdict = "ok" if report.ok else "FAILED"
        print(
            f"cache verify: {verdict} — {report.verified} artifact(s) "
            f"verified, {len(report.findings)} finding(s); "
            f"manifest {report.manifest_sha256[:12]}"
        )
    return 0 if report.ok else 1


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    """Delete unreferenced artifacts and stale partial downloads."""
    import json as json_module

    from repro.cache import LocalCache

    cache = LocalCache(args.cache)
    report = cache.gc()
    if args.json:
        document = {
            "cache": str(cache.root),
            "removed": sorted(report.removed),
            "partials": sorted(report.partials),
        }
        print(json_module.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"cache gc: removed {len(report.removed)} unreferenced "
            f"artifact(s), {len(report.partials)} partial download(s) "
            f"from {cache.root}"
        )
    return 0


def _load_manifest(path: str) -> RunManifest:
    """Load one manifest, mapping malformed JSON to a CLI-level error."""
    import json as json_module

    try:
        return RunManifest.load(path)
    except json_module.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not a manifest: {exc}") from exc


def _cmd_runs_list(args: argparse.Namespace) -> int:
    import time as time_module

    from repro.obs import find_manifests

    paths = find_manifests(args.paths)
    if not paths:
        print("no manifests found")
        return 0
    rows = []
    for path in paths:
        manifest = _load_manifest(str(path))
        command = " ".join(manifest.command) or "(unknown)"
        if len(command) > 44:
            command = command[:41] + "..."
        started = time_module.strftime(
            "%Y-%m-%d %H:%M:%SZ", time_module.gmtime(manifest.started_unix)
        )
        rows.append(
            (
                path.name,
                command,
                started,
                f"{manifest.duration_s:.2f}s",
                len(manifest.inputs),
                len(manifest.outputs),
            )
        )
    print(
        render_table(
            ["Manifest", "Command", "Started (UTC)", "Duration", "In", "Out"],
            rows,
        )
    )
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs import render_diff

    manifest_a = _load_manifest(args.manifest_a)
    manifest_b = _load_manifest(args.manifest_b)
    print(render_diff(manifest_a, manifest_b))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="iqb",
        description="Internet Quality Barometer (IQB) reproduction toolkit.",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="warning",
        help="pipeline log verbosity (events go to stderr)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log events as JSONL instead of human text",
    )
    parser.add_argument(
        "--quantiles",
        choices=("exact", "sketch"),
        default=None,
        help="quantile plane for scoring: exact sorted columns "
        "(bit-identical to the historical output) or streaming "
        "t-digest sketches (O(1) incremental updates; p95/p99 "
        "relative error ≤ 1%%). Default: follow the config's "
        "per-dataset quantile policy. Recorded in --json output "
        "and run manifests",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /metrics.json, /healthz while a "
        "long-running subcommand (monitor, adaptive) executes "
        "(0 = ephemeral port; address printed to stderr)",
    )
    parser.add_argument(
        "--stalled-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="healthz reports 503 when no monitor cycle completed "
        "within this many seconds (requires --telemetry-port)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record every pipeline span and write a Chrome "
        "trace-event JSON (open in Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="write the run-provenance manifest (command, config "
        "digest, input SHA-256s, metrics snapshot) to PATH",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="simulate a measurement campaign to JSONL"
    )
    simulate.add_argument("output", help="output JSONL path")
    simulate.add_argument(
        "--regions",
        nargs="*",
        choices=sorted(REGION_PRESETS),
        help="region presets (default: all)",
    )
    simulate.add_argument("--seed", type=int, default=42)
    simulate.add_argument("--subscribers", type=int, default=150)
    simulate.add_argument(
        "--tests", type=int, default=400, help="tests per dataset per region"
    )
    simulate.add_argument("--days", type=float, default=7.0)
    simulate.add_argument(
        "--wifi-share",
        type=float,
        default=0.0,
        help="share of tests run behind imperfect home WiFi (confounder)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    from repro.cache.tiles import GRANULARITIES

    def add_common(
        p: argparse.ArgumentParser, cacheable: bool = False
    ) -> None:
        if cacheable:
            p.add_argument(
                "input",
                nargs="?",
                default=None,
                help="JSONL measurement file (optional with --from-cache)",
            )
            p.add_argument(
                "--from-cache",
                default=None,
                metavar="DIR",
                help="warm the scoring plane from a local tile cache "
                "(see 'iqb cache') instead of ingesting a measurement "
                "file; every tile read is digest-verified and the cache "
                "manifest digest is recorded in the run manifest",
            )
            p.add_argument(
                "--cache-granularity",
                choices=GRANULARITIES,
                default="region",
                help="tile granularity to warm from the cache "
                "(default: region)",
            )
        else:
            p.add_argument("input", help="JSONL measurement file")
        p.add_argument("--config", help="IQB config JSON (default: paper)")
        p.add_argument(
            "--on-error",
            choices=("raise", "skip"),
            default="raise",
            help="malformed-line handling when reading input",
        )

    score = sub.add_parser("score", help="score all regions in a JSONL file")
    add_common(score, cacheable=True)
    score.add_argument(
        "--lint",
        action="store_true",
        help="check the config against the data before scoring",
    )
    score.add_argument(
        "--json",
        action="store_true",
        help="emit full machine-readable breakdowns instead of the table",
    )
    score.set_defaults(func=_cmd_score)

    report = sub.add_parser("report", help="detailed report for one region")
    add_common(report)
    report.add_argument("region", help="region name to report on")
    report.set_defaults(func=_cmd_report)

    config_cmd = sub.add_parser("config", help="print the canonical paper config")
    config_cmd.add_argument("--output", help="write to a file instead of stdout")
    config_cmd.set_defaults(func=_cmd_config)

    tiers = sub.add_parser("tiers", help="render the Fig. 1 tier structure")
    tiers.add_argument("--config", help="IQB config JSON (default: paper)")
    tiers.set_defaults(func=_cmd_tiers)

    sweep = sub.add_parser("sweep", help="percentile sensitivity for a region")
    add_common(sweep)
    sweep.add_argument("region", help="region name to sweep")
    sweep.add_argument(
        "--percentiles",
        nargs="*",
        type=float,
        default=[50.0, 75.0, 90.0, 95.0, 99.0],
    )
    sweep.set_defaults(func=_cmd_sweep)

    trend = sub.add_parser("trend", help="windowed IQB time series for a region")
    add_common(trend)
    trend.add_argument("region", help="region name")
    trend.add_argument("--window-days", type=float, default=1.0)
    trend.set_defaults(func=_cmd_trend)

    peak = sub.add_parser("peak", help="prime-time vs off-peak contrast")
    add_common(peak)
    peak.add_argument("region", help="region name")
    peak.set_defaults(func=_cmd_peak)

    equity = sub.add_parser("equity", help="per-ISP/per-tech score breakdown")
    add_common(equity)
    equity.add_argument("region", help="region name")
    equity.add_argument("--by", choices=("isp", "tech"), default="isp")
    equity.set_defaults(func=_cmd_equity)

    compare = sub.add_parser(
        "compare", help="attribute the score gap between two regions"
    )
    add_common(compare)
    compare.add_argument("region_a", help="baseline region")
    compare.add_argument("region_b", help="comparison region")
    compare.add_argument("--top", type=int, default=6)
    compare.set_defaults(func=_cmd_compare)

    label = sub.add_parser(
        "label", help="consumer scorecard (broadband-label style)"
    )
    add_common(label)
    label.add_argument("region", help="region name")
    label.set_defaults(func=_cmd_label)

    publish = sub.add_parser(
        "publish", help="build the full Markdown barometer report"
    )
    add_common(publish)
    publish.add_argument(
        "--populations",
        help="JSON file mapping region -> population (adds national section)",
    )
    publish.add_argument("--output", help="write to a file instead of stdout")
    publish.set_defaults(func=_cmd_publish)

    monitor = sub.add_parser(
        "monitor", help="replay measurements through the drop detector"
    )
    add_common(monitor)
    monitor.add_argument("--window-days", type=float, default=1.0)
    monitor.add_argument("--min-drop", type=float, default=0.1)
    monitor.add_argument("--trailing", type=int, default=3)
    monitor.add_argument(
        "--verbose", action="store_true", help="print quiet windows too"
    )
    monitor.add_argument(
        "--cycle-sleep",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between windows to pace the replay in real time "
        "(useful with --telemetry-port)",
    )
    monitor.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="record completed windows to a crash-safe campaign "
        "journal at PATH; an existing journal resumes automatically "
        "(completed windows are skipped, baselines restored)",
    )
    monitor.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume a killed campaign from an existing journal "
        "(errors when PATH does not exist; otherwise like --journal)",
    )
    monitor.add_argument(
        "--slo-rules",
        default=None,
        metavar="PATH",
        help="evaluate data-quality SLOs alongside the replay (rule "
        "file as for 'health'); the end-of-run HealthReport lands in "
        "the run manifest and the /slo endpoint",
    )
    monitor.set_defaults(func=_cmd_monitor)

    serve = sub.add_parser(
        "serve",
        help="serve cached region scores over HTTP (/v1 query API)",
    )
    add_common(serve, cacheable=True)
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default loopback; bind 0.0.0.0 to expose)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 picks an ephemeral one (printed to stderr)",
    )
    serve.add_argument(
        "--populations",
        default=None,
        metavar="PATH",
        help="JSON {region: population} table weighting /v1/national "
        "(default: every region weighs the same)",
    )
    serve.add_argument(
        "--follow",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="poll the input file every SECONDS and ingest appended "
        "JSONL records live (0 disables; ingest bumps the generation "
        "and retires every held score and response)",
    )
    serve.add_argument(
        "--slo-rules",
        nargs="?",
        const="default",
        default=None,
        metavar="PATH",
        help="evaluate serve SLOs while running: with no PATH, "
        "built-in p99 latency rules over the /v1 endpoints; with a "
        "PATH, the rule file replaces them (as for 'health')",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long shutdown waits for in-flight requests",
    )
    serve.set_defaults(func=_cmd_serve)

    health_cmd = sub.add_parser(
        "health",
        help="data-quality SLO and score-drift assessment of a "
        "measurement file",
    )
    add_common(health_cmd)
    health_cmd.add_argument("--window-days", type=float, default=1.0)
    health_cmd.add_argument(
        "--rules",
        default=None,
        metavar="PATH",
        help="SLO rule file: a JSON list of rule objects or "
        '{"rules": [...]} (YAML accepted when pyyaml is installed). '
        "Default: built-in rules derived from the file's datasets "
        "and the window width",
    )
    health_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit the full HealthReport as JSON instead of the table",
    )
    health_cmd.add_argument(
        "--watch",
        action="store_true",
        help="pace the replay one window per --interval, printing "
        "per-window health (Ctrl-C exits cleanly; useful with "
        "--telemetry-port)",
    )
    health_cmd.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sleep between windows in watch mode",
    )
    health_cmd.add_argument(
        "--cycles",
        type=int,
        default=0,
        metavar="N",
        help="stop after N windows in watch mode (0 = replay all)",
    )
    health_cmd.set_defaults(func=_cmd_health)

    adaptive = sub.add_parser(
        "adaptive", help="adaptive vs uniform probe-budget allocation demo"
    )
    adaptive.add_argument(
        "--regions",
        nargs="*",
        choices=sorted(REGION_PRESETS),
        help="region presets (default: all)",
    )
    adaptive.add_argument("--budget", type=int, default=600)
    adaptive.add_argument("--rounds", type=int, default=3)
    adaptive.add_argument("--pilot", type=int, default=40)
    adaptive.add_argument("--subscribers", type=int, default=40)
    adaptive.add_argument("--seed", type=int, default=42)
    adaptive.add_argument("--config", help="IQB config JSON (default: paper)")
    adaptive.set_defaults(func=_cmd_adaptive)

    metrics = sub.add_parser(
        "metrics",
        help="run an instrumented pipeline and dump the metrics snapshot",
    )
    metrics.add_argument(
        "input",
        nargs="?",
        help="optional JSONL file to ingest/score (default: the probe "
        "campaign's own records)",
    )
    metrics.add_argument("--config", help="IQB config JSON (default: paper)")
    metrics.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="skip",
        help="malformed-line handling when reading input (default: skip, "
        "so skip counters show up in the snapshot)",
    )
    metrics.add_argument(
        "--regions",
        nargs="*",
        choices=sorted(REGION_PRESETS),
        help="region presets for the probe campaign (default: "
        "metro-fiber rural-dsl)",
    )
    metrics.add_argument(
        "--probes",
        type=int,
        default=40,
        help="probes per (region, client) in the campaign",
    )
    metrics.add_argument(
        "--failure-rate",
        type=float,
        default=0.15,
        help="injected transient-failure probability (exercises retries)",
    )
    metrics.add_argument("--subscribers", type=int, default=25)
    metrics.add_argument("--seed", type=int, default=42)
    metrics.add_argument(
        "--format",
        choices=("json", "text", "prom"),
        default=None,
        help="snapshot rendering: JSON (default), aligned text, or "
        "Prometheus text exposition",
    )
    metrics.add_argument(
        "--text",
        action="store_true",
        help="alias for --format text",
    )
    metrics.set_defaults(func=_cmd_metrics)

    cache_cmd = sub.add_parser(
        "cache",
        help="content-addressed dataset cache: build, push, pull, "
        "verify, gc",
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)

    def add_cache_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache",
            required=True,
            metavar="DIR",
            help="local cache root (holds v1/, MANIFEST.json, "
            "quarantine/)",
        )
        p.add_argument(
            "--json",
            action="store_true",
            help="emit a machine-readable report instead of the summary "
            "line",
        )

    def add_cache_remote(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "remote",
            help="remote spec: an http(s):// base URL or a directory "
            "path (file remote)",
        )
        p.add_argument(
            "--max-attempts",
            type=int,
            default=5,
            metavar="N",
            help="transfer attempts per artifact before giving up "
            "(decorrelated-jitter backoff between tries)",
        )

    cache_build = cache_sub.add_parser(
        "build",
        help="reduce a JSONL measurement file to quantile-sketch tiles",
        description="Reduce a JSONL measurement file to quantile-sketch "
        "tiles, one per (period, dataset, granularity). Each new tile "
        "replaces the cache's tiles of its (period, dataset, "
        "granularity), so the file must hold each period's records of "
        "a dataset whole: build a grown file again, not only the lines "
        "it gained. Replaced tiles stay on disk until `iqb cache gc`.",
    )
    cache_build.add_argument("input", help="JSONL measurement file")
    add_cache_common(cache_build)
    cache_build.add_argument(
        "--on-error",
        choices=("raise", "skip"),
        default="raise",
        help="malformed-line handling when reading input",
    )
    cache_build.add_argument(
        "--granularity",
        action="append",
        choices=GRANULARITIES,
        default=None,
        metavar="G",
        help="tile granularity to materialize (repeatable; default: "
        "region; choices: %(choices)s)",
    )
    cache_build.add_argument(
        "--period-days",
        type=float,
        default=7.0,
        metavar="DAYS",
        help="time-period width of one tile (default: 7)",
    )
    cache_build.set_defaults(func=_cmd_cache_build)

    cache_push = cache_sub.add_parser(
        "push", help="upload verified local artifacts a remote is missing"
    )
    add_cache_remote(cache_push)
    add_cache_common(cache_push)
    cache_push.set_defaults(func=_cmd_cache_push)

    cache_pull = cache_sub.add_parser(
        "pull",
        help="fetch missing artifacts with retry/resume; never publish "
        "unverified bytes",
    )
    add_cache_remote(cache_pull)
    add_cache_common(cache_pull)
    cache_pull.set_defaults(func=_cmd_cache_pull)

    cache_verify = cache_sub.add_parser(
        "verify",
        help="re-hash every cached artifact against the signed manifest "
        "(exit 1 on any integrity failure)",
    )
    add_cache_common(cache_verify)
    cache_verify.set_defaults(func=_cmd_cache_verify)

    cache_gc = cache_sub.add_parser(
        "gc",
        help="delete unreferenced artifacts and stale partial downloads",
    )
    add_cache_common(cache_gc)
    cache_gc.set_defaults(func=_cmd_cache_gc)

    runs = sub.add_parser(
        "runs", help="list and diff run-provenance manifests"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser(
        "list", help="tabulate manifests (files or directories)"
    )
    runs_list.add_argument(
        "paths",
        nargs="+",
        help="manifest files, or directories searched for "
        "*.manifest.json",
    )
    runs_list.set_defaults(func=_cmd_runs_list)
    runs_diff = runs_sub.add_parser(
        "diff", help="config/counter/timer deltas between two runs"
    )
    runs_diff.add_argument("manifest_a", help="baseline manifest")
    runs_diff.add_argument("manifest_b", help="comparison manifest")
    runs_diff.set_defaults(func=_cmd_runs_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Operational failures (unreadable paths, malformed measurement
    files) exit 2 with a one-line ``iqb: error: ...`` on stderr;
    anything else propagating out of a command is a bug and keeps its
    traceback.

    Provenance and tracing are run-scoped: a fresh :class:`RunContext`
    accumulates config/input/output registrations across the command,
    and ``--trace-out`` installs a span recorder for exactly this
    invocation. Both artifacts are written only after the command
    succeeds — a failed run leaves no half-true provenance behind.
    """
    global _RUN
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(level=args.log_level, json_mode=args.log_json)
    _RUN = RunContext(argv if argv is not None else sys.argv[1:])
    _RUN.set_quantiles(args.quantiles)
    recorder: Optional[TraceRecorder] = None
    if args.trace_out:
        recorder = TraceRecorder()
        install_trace_recorder(recorder)
    try:
        code = args.func(args)
        manifest_out = args.manifest_out
        if (
            manifest_out is None
            and args.command == "publish"
            and getattr(args, "output", None)
        ):
            # Publication artifacts carry their provenance alongside.
            manifest_out = args.output + MANIFEST_SUFFIX
        if recorder is not None:
            uninstall_trace_recorder()
            spans_written = write_chrome_trace(recorder, args.trace_out)
            print(
                f"trace: wrote {spans_written} span(s) to {args.trace_out}",
                file=sys.stderr,
            )
            recorder = None
        if manifest_out is not None:
            _RUN.write(manifest_out)
            print(f"manifest: wrote {manifest_out}", file=sys.stderr)
        return code
    except KeyboardInterrupt:
        # Ctrl-C is an operator action, not a bug: command-level
        # cleanup (journal checkpoint, telemetry shutdown) already ran
        # via its finally blocks on the way up. Flush the partial run's
        # provenance — the trace as well as the manifest: an operator
        # interrupting a stuck `monitor --watch` wants the spans up to
        # the interrupt, and losing them made Ctrl-C the one exit path
        # with no trace. Report in one line and exit with the
        # conventional SIGINT status.
        if recorder is not None:
            uninstall_trace_recorder()
            try:
                spans_written = write_chrome_trace(recorder, args.trace_out)
                print(
                    f"trace: wrote {spans_written} span(s) to "
                    f"{args.trace_out} (interrupted run)",
                    file=sys.stderr,
                )
            except OSError:
                pass
            recorder = None
        if args.manifest_out is not None:
            try:
                _RUN.write(args.manifest_out)
                print(
                    f"manifest: wrote {args.manifest_out} (interrupted run)",
                    file=sys.stderr,
                )
            except OSError:
                pass
        print("iqb: interrupted", file=sys.stderr)
        return 130
    except (OSError, SchemaError) as exc:
        print(f"iqb: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if recorder is not None:
            uninstall_trace_recorder()
        _RUN = None


if __name__ == "__main__":
    sys.exit(main())
