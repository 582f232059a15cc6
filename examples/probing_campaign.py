"""Running a probing campaign with the active-measurement framework.

The lower-level workflow behind the one-shot simulator: build a backend
hosting vantage-point populations, generate a crowdsourced-style probe
schedule, execute it with retries against injected transient failures,
and deliver results simultaneously to (a) a durable JSONL archive and
(b) a bounded-memory t-digest sketch sink that can feed the IQB scorer
directly — the architecture a long-running deployment would use.

While the campaign runs, a :class:`~repro.obs.TelemetryServer` exposes
``/metrics`` (Prometheus), ``/metrics.json``, and ``/healthz`` on an
ephemeral port, and at the end a :class:`~repro.obs.RunManifest`
records what ran: inputs hashed, config digested, and the full metrics
snapshot — the provenance a published score should carry.

Usage::

    python examples/probing_campaign.py
"""

import tempfile
import urllib.request
from pathlib import Path

from repro.core import paper_config, score_region
from repro.measurements import IngestStats, read_jsonl
from repro.obs import RunContext, TelemetryServer
from repro.probing import (
    DiurnalSchedule,
    FanOutSink,
    JsonlSink,
    MemorySink,
    ProbeRunner,
    SimulatedBackend,
    SketchSink,
)
from repro.netsim import region_preset

SEED = 11
REGIONS = ("mixed-urban", "rural-dsl")


def main() -> None:
    backend = SimulatedBackend(
        profiles=[region_preset(name) for name in REGIONS],
        seed=SEED,
        failure_rate=0.05,  # 5 % of probes fail transiently
    )
    schedule = DiurnalSchedule(
        regions=REGIONS,
        clients=backend.clients(),
        tests_per_pair=250,
        evening_bias=0.5,
        seed=SEED,
    )

    run = RunContext(["examples/probing_campaign.py"])
    with tempfile.TemporaryDirectory() as tmp, TelemetryServer() as telemetry:
        print(f"Telemetry live at {telemetry.url('/metrics')} "
              "(also /metrics.json, /healthz)")

        archive = Path(tmp) / "campaign.jsonl"
        memory = MemorySink()
        streaming = SketchSink()
        with JsonlSink(archive) as jsonl:
            runner = ProbeRunner(
                backend,
                FanOutSink(memory, jsonl, streaming),
                max_attempts=3,
            )
            report = runner.run(schedule)

        rate = report.success_rate
        print(
            f"Campaign: {report.scheduled} probes scheduled, "
            f"{report.succeeded} succeeded "
            f"({'n/a' if rate is None else format(rate, '.1%')}), "
            f"{report.retried} retries, "
            f"{len(report.abandoned)} abandoned."
        )
        stats = IngestStats()
        archived = read_jsonl(archive, stats=stats)
        run.add_input(archive, stats)
        print(f"Archived {len(archived)} records to JSONL.\n")

        # One scrape of our own endpoint, like a Prometheus server would.
        with urllib.request.urlopen(telemetry.url("/healthz")) as response:
            print(f"Self-scrape /healthz -> {response.status} "
                  f"{response.read().decode()[:72]}...\n")

        config = paper_config()
        run.set_config(config)
        print("Scores from the in-memory record set (exact percentiles):")
        records = memory.as_set()
        for region in records.regions():
            sources = records.for_region(region).group_by_source()
            print(f"  {region:12s} IQB={score_region(sources, config).value:.3f}")

        print("\nScores from the t-digest sketch sink (bounded memory):")
        for region, sources in streaming.plane.sources_by_region().items():
            print(f"  {region:12s} IQB={score_region(sources, config).value:.3f}")
        print(
            "\nThe two agree closely; the streaming path never stored a "
            "raw measurement."
        )

        manifest_path = Path(tmp) / "campaign.manifest.json"
        manifest = run.build()
        manifest.save(manifest_path)
        print(
            f"\nManifest: {len(manifest.inputs)} input(s) hashed, "
            f"config sha256 {manifest.config_sha256[:12]}..., "
            f"{len(manifest.metrics['counters'])} counters snapshotted "
            f"(written to {manifest_path.name})."
        )


if __name__ == "__main__":
    main()
