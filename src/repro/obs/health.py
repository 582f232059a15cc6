"""The barometer's self-health monitor: is the *barometer* broken?

The IQB score is only as trustworthy as the third-party measurement
pipelines feeding it. This module watches those pipelines the way the
pipelines watch the internet:

* **Freshness** — seconds since the last accepted measurement per
  (region, dataset) cell, fed by :class:`~repro.measurements.columnar.
  ColumnarStore` / :class:`~repro.measurements.sketchplane.SketchPlane`
  arrival hooks and the probe runner.
* **Completeness** — observed vs expected sample counts per closed
  monitor window (expected counts are declared, or learned from the
  trailing windows' median).
* **SLO burn rates** — the declarative rules of :mod:`repro.obs.slo`,
  sampled every window close / tick and folded into OK/WARN/PAGE.
* **Score drift** — a per-region EWMA-baseline CUSUM over successive
  streamed scores, distinguishing "the internet got worse" (scores
  shifted while data stayed fresh) from "a dataset went stale" (the
  same shift with a feeding dataset past its freshness threshold,
  classified ``stale_data`` instead of ``score_shift``).

One :class:`HealthMonitor` instance is installed process-wide (the
same pattern as the span trace recorder), so hot paths pay exactly one
``is None`` check when health tracking is off. All evaluation is
driven by *data time*: the monitor advances an ``as_of`` watermark
from the timestamps it is handed, and by default (``clock=None``)
evaluates reports at that watermark — replaying a campaign file
yesterday and today produces byte-identical reports. A live deployment
with wall-clock measurement timestamps may pass ``clock=time.time`` to
let freshness age between arrivals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .logs import get_logger
from .registry import REGISTRY, counter, gauge
from .slo import HealthReport, SLOEvaluator, SLORule, worst_state

_logger = get_logger(__name__)

_DRIFT_EVENTS = counter("score.drift.events")
_DRIFT_STALE = counter("score.drift.stale_suppressed")
_STALE_CELLS = gauge("health.cells.stale")
_TRACKED_CELLS = gauge("health.cells.tracked")
_WORST_FRESHNESS = gauge("health.freshness.worst_s")

#: Fallback staleness threshold (seconds of data time) when no
#: freshness rule covers a dataset — used both for the quality
#: section's ``stale`` list and for drift classification.
DEFAULT_STALE_AFTER_S = 3600.0


@dataclass(frozen=True)
class DriftConfig:
    """Tuning for the per-region score-drift detector.

    ``band`` is in score units (S_IQB is in [0, 1]); the CUSUM pages
    once the accumulated deviation beyond ``slack`` crosses it. The
    EWMA baseline adapts with ``alpha`` so slow seasonal movement is
    absorbed while a step change accumulates. ``min_points`` windows
    must be seen before a region can fire (the baseline needs to
    settle).
    """

    alpha: float = 0.25
    slack: float = 0.02
    band: float = 0.15
    min_points: int = 4


@dataclass(frozen=True)
class DriftEvent:
    """One detected score shift (or its stale-data reclassification)."""

    region: str
    at: float
    score: float
    baseline: float
    cusum: float
    direction: str  # "down" | "up"
    kind: str  # "score_shift" | "stale_data"
    stale_datasets: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "region": self.region,
            "at": self.at,
            "score": round(self.score, 6),
            "baseline": round(self.baseline, 6),
            "cusum": round(self.cusum, 6),
            "direction": self.direction,
            "kind": self.kind,
            "stale_datasets": list(self.stale_datasets),
        }


class _RegionDrift:
    __slots__ = ("ewma", "pos", "neg", "points")

    def __init__(self, score: float) -> None:
        self.ewma = score
        self.pos = 0.0
        self.neg = 0.0
        self.points = 1


class DriftDetector:
    """EWMA-baseline CUSUM over successive per-region scores."""

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self.config = config or DriftConfig()
        self._regions: Dict[str, _RegionDrift] = {}

    def update(
        self,
        region: str,
        score: float,
        at: float,
        stale_datasets: Sequence[str] = (),
    ) -> Optional[DriftEvent]:
        """Fold one window's score in; return an event if drift fired.

        After an event the region re-baselines at the new level (the
        CUSUM resets and the EWMA jumps to ``score``), so a sustained
        shift fires once instead of every following window.
        """
        cfg = self.config
        state = self._regions.get(region)
        if state is None:
            self._regions[region] = _RegionDrift(score)
            return None
        deviation = score - state.ewma
        state.points += 1
        event: Optional[DriftEvent] = None
        if state.points > cfg.min_points:
            state.pos = max(0.0, state.pos + deviation - cfg.slack)
            state.neg = max(0.0, state.neg - deviation - cfg.slack)
            cusum = max(state.pos, state.neg)
            if cusum >= cfg.band:
                stale = tuple(sorted(stale_datasets))
                event = DriftEvent(
                    region=region,
                    at=at,
                    score=score,
                    baseline=state.ewma,
                    cusum=cusum,
                    direction="down" if state.neg >= state.pos else "up",
                    kind="stale_data" if stale else "score_shift",
                    stale_datasets=stale,
                )
                state.pos = 0.0
                state.neg = 0.0
                state.ewma = score
                return event
        state.ewma += cfg.alpha * deviation
        return None


class QualityTracker:
    """Per-(region, dataset) freshness and completeness accounting."""

    def __init__(
        self, expected: Optional[Mapping[str, int]] = None
    ) -> None:
        """Args:
            expected: declared per-dataset expected sample counts per
                window; datasets absent here learn their expectation
                from the trailing windows' median instead.
        """
        self.expected = dict(expected or {})
        self._last: Dict[Tuple[str, str], float] = {}
        self._counts: Dict[Tuple[str, str], int] = {}
        self._history: Dict[Tuple[str, str], Deque[int]] = {}
        self._ratios: Dict[Tuple[str, str], Optional[float]] = {}

    def record_arrival(
        self, region: str, dataset: str, at: float, count: bool = True
    ) -> None:
        """One accepted measurement landed (hot path: a few dict ops).

        ``count=False`` advances freshness only — for notifiers that
        sit *above* a store-level hook (the probe runner over a sketch
        sink) and must not double-book the completeness sample.
        """
        key = (region, dataset)
        last = self._last
        previous = last.get(key)
        if previous is None or at > previous:
            last[key] = at
        if count:
            self._counts[key] = self._counts.get(key, 0) + 1

    def close_window(self) -> None:
        """Roll the open window's counts into completeness ratios.

        Every cell ever seen gets a ratio this window — a cell with
        zero arrivals scores 0.0 against its expectation, which is
        exactly the "dataset went dark" signal. Expectations come from
        the declared ``expected`` map or the median of up to 8 trailing
        window counts (computed *before* this window's count joins the
        history, so a dark window cannot drag its own expectation
        down). Cells are visited in sorted order, so the ratios (and
        which of several equally worst cells a rule names) do not
        depend on string hashing.
        """
        counts = self._counts
        for key in sorted(set(self._history) | set(counts)):
            observed = counts.get(key, 0)
            expected = self.expected.get(key[1])
            history = self._history.get(key)
            if expected is None and history:
                ordered = sorted(history)
                expected = ordered[len(ordered) // 2]
            if expected:
                self._ratios[key] = min(1.0, observed / expected)
            else:
                self._ratios[key] = None
            if history is None:
                history = self._history[key] = deque(maxlen=8)
            history.append(observed)
        self._counts = {}

    def cells(self) -> Tuple[Tuple[str, str], ...]:
        """Every (region, dataset) cell seen so far, sorted."""
        return tuple(sorted(self._last))

    def freshness(self, at: float) -> Dict[Tuple[str, str], float]:
        """Seconds since each cell's last accepted measurement."""
        return {key: at - last for key, last in self._last.items()}

    def completeness(self) -> Dict[Tuple[str, str], Optional[float]]:
        """Last closed window's observed/expected ratio per cell."""
        return dict(self._ratios)

    def stale_by_region(
        self, at: float, threshold_for: "Any"
    ) -> Dict[str, List[str]]:
        """region -> datasets whose age exceeds their threshold."""
        stale: Dict[str, List[str]] = {}
        for (region, dataset), last in self._last.items():
            if at - last > threshold_for(dataset):
                stale.setdefault(region, []).append(dataset)
        for datasets in stale.values():
            datasets.sort()
        return stale


class HealthMonitor:
    """Composes quality tracking, SLO evaluation, and drift detection.

    The pipeline feeds it through three verbs:

    * :meth:`record_arrival` — per accepted measurement (hooked into
      the columnar store, the sketch plane, and the probe runner);
    * :meth:`window_closed` — per closed monitor window, with the
      window's region scores (drives completeness, drift, and an SLO
      sampling tick);
    * :meth:`tick` — an explicit SLO sampling instant for paths that
      close no windows (the adaptive allocator, watch loops).

    :meth:`evaluate` then folds everything into a deterministic
    :class:`~repro.obs.slo.HealthReport`.
    """

    def __init__(
        self,
        rules: Sequence[SLORule] = (),
        clock: Optional["Any"] = None,
        expected: Optional[Mapping[str, int]] = None,
        drift: Optional[DriftConfig] = None,
        stale_after_s: float = DEFAULT_STALE_AFTER_S,
    ) -> None:
        """Args:
            rules: the declarative SLO rule set to evaluate.
            clock: ``None`` (default) evaluates at the data-time
                watermark — fully deterministic replay; pass
                ``time.time`` for live wall-clock aging.
            expected: declared expected per-dataset counts per window
                (see :class:`QualityTracker`).
            drift: score-drift detector tuning.
            stale_after_s: staleness fallback for datasets no
                freshness rule covers.
        """
        self.rules: Tuple[SLORule, ...] = tuple(rules)
        self.clock = clock
        self.stale_after_s = float(stale_after_s)
        self.quality = QualityTracker(expected)
        self.drift = DriftDetector(drift)
        self.evaluator = SLOEvaluator(self.rules)
        self._as_of: Optional[float] = None
        self._drift_events: Deque[DriftEvent] = deque(maxlen=100)
        self._last_counter_values: Dict[str, Tuple[int, int]] = {}
        self._freshness_thresholds: Dict[Optional[str], float] = {}
        for rule in self.rules:
            if rule.signal == "freshness" and rule.threshold_s:
                existing = self._freshness_thresholds.get(rule.dataset)
                if existing is None or rule.threshold_s < existing:
                    self._freshness_thresholds[rule.dataset] = (
                        rule.threshold_s
                    )

    # -- time ---------------------------------------------------------------

    @property
    def as_of(self) -> Optional[float]:
        """The data-time watermark (max timestamp seen so far)."""
        return self._as_of

    def _advance(self, at: float) -> float:
        if self._as_of is None or at > self._as_of:
            self._as_of = at
        return at

    def now(self, at: Optional[float] = None) -> float:
        """Resolve an evaluation instant.

        Explicit ``at`` wins; otherwise the data watermark, lifted to
        the wall clock when one was configured and it is ahead.
        """
        if at is not None:
            return at
        watermark = self._as_of if self._as_of is not None else 0.0
        if self.clock is not None:
            return max(float(self.clock()), watermark)
        return watermark

    def stale_threshold(self, dataset: str) -> float:
        """The freshness budget for one dataset (rule or fallback)."""
        thresholds = self._freshness_thresholds
        specific = thresholds.get(dataset)
        if specific is not None:
            return specific
        broad = thresholds.get(None)
        if broad is not None:
            return broad
        return self.stale_after_s

    # -- ingestion hooks ----------------------------------------------------

    def record_arrival(
        self, region: str, dataset: str, at: float, count: bool = True
    ) -> None:
        """One accepted measurement (hot path)."""
        self.quality.record_arrival(region, dataset, at, count)
        previous = self._as_of
        if previous is None or at > previous:
            self._as_of = at

    def window_closed(
        self,
        window_start: float,
        window_end: float,
        scores: Mapping[str, Optional[float]],
    ) -> List[DriftEvent]:
        """One monitor window closed with the given per-region scores.

        Rolls completeness, runs the drift detector over every scored
        region (cross-referencing staleness for classification), and
        samples the SLO rules at the window's end.
        """
        at = self._advance(float(window_end))
        self.quality.close_window()
        stale_by_region = self.quality.stale_by_region(
            at, self.stale_threshold
        )
        events: List[DriftEvent] = []
        for region in sorted(scores):
            score = scores[region]
            if score is None:
                continue
            event = self.drift.update(
                region, score, at, stale_by_region.get(region, ())
            )
            if event is None:
                continue
            events.append(event)
            self._drift_events.append(event)
            if event.kind == "stale_data":
                _DRIFT_STALE.inc()
            else:
                _DRIFT_EVENTS.inc()
            _logger.warning(
                "score drift detected",
                extra={
                    "ctx": {
                        "region": event.region,
                        "kind": event.kind,
                        "score": round(event.score, 4),
                        "baseline": round(event.baseline, 4),
                        "stale": list(event.stale_datasets),
                    }
                },
            )
        self.tick(at)
        return events

    def tick(self, at: Optional[float] = None) -> None:
        """Sample every SLO rule's signal at one instant."""
        instant = self._advance(self.now(at))
        freshness = self.quality.freshness(instant)
        completeness = self.quality.completeness()
        for rule in self.rules:
            if rule.signal == "freshness":
                self._sample_freshness(rule, freshness, instant)
            elif rule.signal == "completeness":
                self._sample_completeness(rule, completeness, instant)
            elif rule.signal == "error_rate":
                self._sample_error_rate(rule, instant)
            elif rule.signal == "latency":
                self._sample_latency(rule, instant)

    def _matches(
        self, rule: SLORule, region: str, dataset: str
    ) -> bool:
        if rule.dataset is not None and rule.dataset != dataset:
            return False
        if rule.region is not None and rule.region != region:
            return False
        return True

    def _sample_freshness(
        self,
        rule: SLORule,
        freshness: Mapping[Tuple[str, str], float],
        at: float,
    ) -> None:
        worst: Optional[Tuple[float, Tuple[str, str]]] = None
        for key, age in freshness.items():
            if not self._matches(rule, *key):
                continue
            if worst is None or age > worst[0]:
                worst = (age, key)
        if worst is None:
            return  # no matching cell has reported yet: no evidence
        age, (region, dataset) = worst
        bad = age > (rule.threshold_s or 0.0)
        detail = (
            f"{region}/{dataset} age {age:.0f}s > {rule.threshold_s:.0f}s"
            if bad
            else ""
        )
        self.evaluator.sample(rule.name, bad, at, detail)

    def _sample_completeness(
        self,
        rule: SLORule,
        completeness: Mapping[Tuple[str, str], Optional[float]],
        at: float,
    ) -> None:
        worst: Optional[Tuple[float, Tuple[str, str]]] = None
        for key, ratio in completeness.items():
            if ratio is None or not self._matches(rule, *key):
                continue
            if worst is None or ratio < worst[0]:
                worst = (ratio, key)
        if worst is None:
            return
        ratio, (region, dataset) = worst
        bad = ratio < rule.min_ratio
        detail = (
            f"{region}/{dataset} completeness {ratio:.2f} < "
            f"{rule.min_ratio:.2f}"
            if bad
            else ""
        )
        self.evaluator.sample(rule.name, bad, at, detail)

    def _sample_error_rate(self, rule: SLORule, at: float) -> None:
        bad_total = int(REGISTRY.counter(rule.bad_counter or "").value)
        all_total = int(REGISTRY.counter(rule.total_counter or "").value)
        prev_bad, prev_all = self._last_counter_values.get(
            rule.name, (0, 0)
        )
        self._last_counter_values[rule.name] = (bad_total, all_total)
        delta_bad = bad_total - prev_bad
        delta_all = all_total - prev_all
        if delta_all <= 0:
            return  # nothing processed since the last tick: no evidence
        fraction = delta_bad / delta_all
        bad = fraction > rule.error_budget
        detail = (
            f"{rule.bad_counter}/{rule.total_counter} interval error "
            f"rate {fraction:.4f} > budget {rule.error_budget:.4f}"
            if bad
            else ""
        )
        self.evaluator.sample(rule.name, bad, at, detail)

    def _sample_latency(self, rule: SLORule, at: float) -> None:
        instrument = REGISTRY.timer(rule.timer or "")
        observed = instrument.quantile(rule.percentile)
        if observed is None:
            return
        bad = observed > (rule.threshold_s or 0.0)
        detail = (
            f"{rule.timer} p{rule.percentile:g} {observed * 1e3:.1f}ms > "
            f"{(rule.threshold_s or 0.0) * 1e3:.1f}ms"
            if bad
            else ""
        )
        self.evaluator.sample(rule.name, bad, at, detail)

    # -- evaluation ---------------------------------------------------------

    def drift_events(self) -> Tuple[DriftEvent, ...]:
        """Recent drift events (bounded ring, oldest first)."""
        return tuple(self._drift_events)

    def quality_section(self, at: float) -> Dict[str, Any]:
        """The report's data-quality block at instant ``at``."""
        freshness: Dict[str, Dict[str, float]] = {}
        for (region, dataset), age in self.quality.freshness(at).items():
            freshness.setdefault(region, {})[dataset] = round(age, 3)
        completeness: Dict[str, Dict[str, Optional[float]]] = {}
        for (region, dataset), ratio in self.quality.completeness().items():
            completeness.setdefault(region, {})[dataset] = (
                None if ratio is None else round(ratio, 4)
            )
        stale = self.quality.stale_by_region(at, self.stale_threshold)
        return {
            "as_of": self._as_of,
            "freshness_s": freshness,
            "completeness": completeness,
            "stale": {
                region: datasets for region, datasets in stale.items()
            },
        }

    def evaluate(self, at: Optional[float] = None) -> HealthReport:
        """The deterministic health verdict at ``at`` (or the watermark).

        Read-only apart from publishing summary gauges — safe to call
        from a telemetry scrape without perturbing the sample history.
        """
        instant = self.now(at)
        statuses = self.evaluator.statuses(instant)
        freshness = self.quality.freshness(instant)
        stale = self.quality.stale_by_region(instant, self.stale_threshold)
        _TRACKED_CELLS.set(float(len(freshness)))
        _STALE_CELLS.set(
            float(sum(len(datasets) for datasets in stale.values()))
        )
        _WORST_FRESHNESS.set(max(freshness.values(), default=0.0))
        return HealthReport(
            generated_at=instant,
            status=worst_state([status.state for status in statuses]),
            rules=statuses,
            quality=self.quality_section(instant),
            drift=tuple(
                event.to_dict() for event in self._drift_events
            ),
        )

    def render_prometheus(self, at: Optional[float] = None) -> str:
        """Labeled health families for the ``/metrics`` exposition.

        Region and dataset names are operator-supplied strings, so the
        label values go through the 0.0.4 escaping rules — a region
        named ``ru"ral\\nnorth`` must not corrupt the exposition.
        """
        from .exposition import (
            escape_help,
            format_labels,
            prometheus_name,
        )

        instant = self.now(at)
        lines: List[str] = []
        name = prometheus_name("health.freshness") + "_seconds"
        lines.append(
            f"# HELP {name} "
            f"{escape_help('Seconds since last accepted measurement')}"
        )
        lines.append(f"# TYPE {name} gauge")
        for (region, dataset), age in sorted(
            self.quality.freshness(instant).items()
        ):
            labels = format_labels(
                {"region": region, "dataset": dataset}
            )
            lines.append(f"{name}{labels} {age!r}")
        name = prometheus_name("health.completeness") + "_ratio"
        lines.append(
            f"# HELP {name} "
            f"{escape_help('Observed/expected samples, last window')}"
        )
        lines.append(f"# TYPE {name} gauge")
        for (region, dataset), ratio in sorted(
            self.quality.completeness().items()
        ):
            if ratio is None:
                continue
            labels = format_labels(
                {"region": region, "dataset": dataset}
            )
            lines.append(f"{name}{labels} {ratio!r}")
        name = prometheus_name("slo.burn_rate")
        lines.append(
            f"# HELP {name} "
            f"{escape_help('SLO burn rate per rule and window')}"
        )
        lines.append(f"# TYPE {name} gauge")
        for status in self.evaluator.statuses(instant):
            for window, burn in (
                ("fast", status.burn_fast),
                ("slow", status.burn_slow),
            ):
                labels = format_labels(
                    {"rule": status.name, "window": window}
                )
                lines.append(f"{name}{labels} {burn!r}")
        return "\n".join(lines) + "\n" if lines else ""


#: The process-wide health monitor, or None when health tracking is
#: off. A single ``is None`` check per arrival is the entire cost of
#: the disabled path (the same pattern as the span trace recorder).
_health_monitor: Optional[HealthMonitor] = None


def install_health_monitor(monitor: HealthMonitor) -> None:
    """Make ``monitor`` the process-wide health sink (replaces any)."""
    global _health_monitor
    _health_monitor = monitor


def uninstall_health_monitor() -> Optional[HealthMonitor]:
    """Stop health tracking; returns the monitor that was active."""
    global _health_monitor
    monitor = _health_monitor
    _health_monitor = None
    return monitor


def get_health_monitor() -> Optional[HealthMonitor]:
    """The active health monitor, if any."""
    return _health_monitor


def default_rules(
    datasets: Sequence[str],
    window_s: float,
    scoring_budget_s: float = 0.5,
) -> Tuple[SLORule, ...]:
    """A sensible built-in rule set for ``iqb health`` with no file.

    Per-dataset freshness budgets of two reporting windows, a
    completeness floor, an ingest error-rate objective over the JSONL
    reader's counters, and a scoring-latency budget — enough that the
    subcommand is useful out of the box, while a rule file replaces
    the set wholesale.
    """
    rules: List[SLORule] = [
        SLORule(
            name=f"freshness-{dataset}",
            signal="freshness",
            dataset=dataset,
            target=0.95,
            threshold_s=2.0 * window_s,
            fast_window_s=2.0 * window_s,
            slow_window_s=6.0 * window_s,
        )
        for dataset in sorted(set(datasets))
    ]
    rules.append(
        SLORule(
            name="completeness",
            signal="completeness",
            target=0.9,
            min_ratio=0.5,
            fast_window_s=2.0 * window_s,
            slow_window_s=6.0 * window_s,
        )
    )
    rules.append(
        SLORule(
            name="ingest-errors",
            signal="error_rate",
            target=0.99,
            bad_counter="ingest.jsonl.skipped",
            total_counter="ingest.jsonl.lines",
            fast_window_s=2.0 * window_s,
            slow_window_s=6.0 * window_s,
        )
    )
    rules.append(
        SLORule(
            name="scoring-latency",
            signal="latency",
            target=0.95,
            timer="score.latency",
            threshold_s=scoring_budget_s,
            percentile=95.0,
            fast_window_s=2.0 * window_s,
            slow_window_s=6.0 * window_s,
        )
    )
    return tuple(rules)


#: The serving layer's route labels (see repro.serve.http.ServeServer)
#: — the timers the default serve latency rules watch.
SERVE_ROUTES: Tuple[str, ...] = (
    "/v1/scores",
    "/v1/scores/:region",
    "/v1/national",
    "/v1/config",
)


def serve_default_rules(
    routes: Sequence[str] = SERVE_ROUTES,
    latency_budget_s: float = 0.25,
    percentile: float = 99.0,
    window_s: float = 300.0,
) -> Tuple[SLORule, ...]:
    """Latency SLO rules for the ``iqb serve`` query endpoints.

    One burn-rate rule per route label over the per-endpoint
    ``http.latency.<route>`` timer the telemetry handler maintains
    (the rules read the process registry, which is where the serve
    CLI's default server observes). The p99 budget defaults to 250ms
    — generous for a cache hit, tight enough that sustained cache-miss
    storms or a wedged plane lock burn through it and page.
    """
    return tuple(
        SLORule(
            name=f"serve-latency-{route}",
            signal="latency",
            target=0.99,
            timer=f"http.latency.{route}",
            threshold_s=latency_budget_s,
            percentile=percentile,
            fast_window_s=window_s,
            slow_window_s=6.0 * window_s,
        )
        for route in routes
    )
