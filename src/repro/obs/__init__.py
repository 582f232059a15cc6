"""Observability for the barometer pipeline: metrics, logs, spans — and
their export half: exposition, telemetry HTTP, traces, manifests.

The operational-telemetry layer every subsystem reports into:

* :mod:`.registry` — process-wide counters / gauges / timers with
  snapshot, in-place reset, and JSON/text renderers;
* :mod:`.logs` — structured logging setup (human text or JSONL),
  wired to the CLI's ``--log-level`` / ``--log-json`` flags;
* :mod:`.spans` — nested context managers timing pipeline stages,
  with trace context (trace/span/parent ids) and an installable
  :class:`TraceRecorder` capturing every completed span;
* :mod:`.slo` — declarative data-quality SLO rules with sliding
  multi-window burn-rate evaluation (OK / WARN / PAGE);
* :mod:`.health` — the barometer health monitor: per-(region, dataset)
  freshness and completeness tracking, SLO evaluation into a
  deterministic :class:`HealthReport`, and score-drift detection that
  distinguishes real score shifts from stale datasets;

and the layer that gets those signals *out of the process*:

* :mod:`.exposition` — Prometheus/OpenMetrics text rendering;
* :mod:`.httpd` — the ``/metrics`` / ``/metrics.json`` / ``/healthz``
  / ``/slo`` / ``/quality`` telemetry endpoint for long-running
  campaigns;
* :mod:`.trace` — Chrome trace-event JSON export (Perfetto-loadable
  stage flamegraphs);
* :mod:`.manifest` — per-run provenance manifests and their diffing.

Import discipline: this package depends only on the stdlib at import
time (the t-digest behind :class:`~repro.obs.registry.Timer` and the
package version referenced by manifests load lazily), so any repro
module may import it without cycles.
"""

from __future__ import annotations

from .exposition import (
    escape_help,
    escape_label_value,
    format_labels,
    prometheus_name,
    render_prometheus,
)
from .health import (
    DriftConfig,
    DriftDetector,
    DriftEvent,
    HealthMonitor,
    QualityTracker,
    default_rules,
    get_health_monitor,
    install_health_monitor,
    uninstall_health_monitor,
)
from .httpd import TelemetryServer
from .logs import (
    JsonlFormatter,
    TextFormatter,
    get_logger,
    parse_level,
    setup_logging,
)
from .manifest import (
    RunContext,
    RunManifest,
    diff_manifests,
    file_digest,
    find_manifests,
    render_diff,
)
from .registry import (
    REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    Timer,
    counter,
    gauge,
    reset,
    snapshot,
    timer,
)
from .slo import (
    HealthReport,
    SLOEvaluator,
    SLORule,
    SLOStatus,
    load_rules,
    worst_state,
)
from .spans import (
    Span,
    SpanRecord,
    TraceRecorder,
    current_span,
    get_trace_recorder,
    install_trace_recorder,
    span,
    uninstall_trace_recorder,
)
from .trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "REGISTRY",
    "Counter",
    "DriftConfig",
    "DriftDetector",
    "DriftEvent",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "JsonlFormatter",
    "MetricsRegistry",
    "QualityTracker",
    "RunContext",
    "RunManifest",
    "SLOEvaluator",
    "SLORule",
    "SLOStatus",
    "Span",
    "SpanRecord",
    "TelemetryServer",
    "TextFormatter",
    "Timer",
    "TraceRecorder",
    "counter",
    "current_span",
    "default_rules",
    "diff_manifests",
    "escape_help",
    "escape_label_value",
    "file_digest",
    "find_manifests",
    "format_labels",
    "gauge",
    "get_health_monitor",
    "get_logger",
    "get_trace_recorder",
    "install_health_monitor",
    "install_trace_recorder",
    "load_rules",
    "parse_level",
    "prometheus_name",
    "render_diff",
    "render_prometheus",
    "reset",
    "setup_logging",
    "snapshot",
    "span",
    "timer",
    "to_chrome_trace",
    "uninstall_health_monitor",
    "uninstall_trace_recorder",
    "worst_state",
    "write_chrome_trace",
]
