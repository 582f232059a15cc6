"""Adaptive probe allocation: spend the test budget where it matters.

A barometer operator has a finite probe budget (vantage-point capacity,
server load, data costs) and many regions. Uniform allocation wastes
tests on regions whose score is already pinned down and starves regions
whose score straddles a threshold. :class:`AdaptiveAllocator` closes
the loop between :mod:`repro.core.uncertainty` and the probing layer:

1. seed every region with a pilot round;
2. bootstrap each region's score CI from the data so far;
3. allocate the next round proportionally to CI width;
4. repeat until the budget is spent.

The ``ext-adaptive`` bench compares final worst-case CI width against
uniform allocation at the same total budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclasses_field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import IQBConfig
from repro.core.exceptions import DataError
from repro.core.scoring import QUANTILE_SOURCES, score_region
from repro.core.uncertainty import bootstrap_score
from repro.measurements.collection import MeasurementSet
from repro.netsim.rng import make_rng
from repro.obs import counter, gauge, get_logger

_logger = get_logger(__name__)

_CI_COMPUTED = counter("adaptive.ci.computed")
_CI_EMPTY = counter("adaptive.ci.empty_regions")
_CI_FALLBACKS = counter("adaptive.ci.fallbacks")

# Campaign-progress gauges: a telemetry scrape mid-campaign shows how
# far the allocator has gotten and how much budget is left to spend.
_ROUNDS_DONE = gauge("adaptive.rounds.completed")
_BUDGET_LEFT = gauge("adaptive.budget.remaining")

from repro.resilience import RetryPolicy
from repro.resilience.breaker import BreakerBoard

from .backends import MeasurementBackend, ProbeRequest
from .runner import ProbeRunner
from .sinks import FanOutSink, MemorySink, SketchSink


@dataclass(frozen=True)
class AllocationRound:
    """Audit record of one adaptive round.

    ``scores`` is populated only by sketch-mode campaigns: the
    region's IQB read from the live t-digest plane after the round,
    an incremental re-score instead of a per-round batch recompute
    (regions still unscorable at that point are absent).
    """

    index: int
    allocation: Mapping[str, int]
    ci_widths: Mapping[str, float]
    scores: Mapping[str, float] = dataclasses_field(default_factory=dict)


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of an adaptive campaign."""

    records: MeasurementSet
    rounds: Tuple[AllocationRound, ...]
    final_ci_widths: Mapping[str, float]

    @property
    def worst_ci_width(self) -> float:
        """The widest final region CI — what adaptivity minimizes."""
        return max(self.final_ci_widths.values())

    def tests_per_region(self) -> Dict[str, int]:
        """Total probes each region ended up receiving."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.region] = counts.get(record.region, 0) + 1
        return counts


class AdaptiveAllocator:
    """Uncertainty-driven probe allocation across regions."""

    def __init__(
        self,
        backend: MeasurementBackend,
        config: IQBConfig,
        seed: int = 0,
        pilot_per_region: int = 60,
        bootstrap_replicates: int = 60,
        window_days: float = 7.0,
        retry_policy: Optional["RetryPolicy"] = None,
        breakers: Optional["BreakerBoard"] = None,
        quantiles: str = "exact",
    ) -> None:
        """Args:
            backend: where probes run (all its regions participate).
            config: scoring config whose score the CI is computed on.
            pilot_per_region: round-0 probes per region (split across
                the backend's clients).
            bootstrap_replicates: bootstrap size per CI estimate.
            window_days: timestamps are spread over this window.
            retry_policy: forwarded to the internal ProbeRunner.
            breakers: forwarded to the internal ProbeRunner.
            quantiles: ``"sketch"`` tees every probe result into a live
                t-digest plane and records each round's region scores
                incrementally (see :class:`AllocationRound.scores`);
                ``"exact"`` (default) skips per-round score tracking.
                CI widths always bootstrap over the raw records — the
                resample needs full-fidelity samples either way.
        """
        if pilot_per_region < len(backend.clients()):
            raise ValueError(
                f"pilot_per_region must cover every client at least once: "
                f"{pilot_per_region} < {len(backend.clients())}"
            )
        if quantiles not in QUANTILE_SOURCES:
            raise ValueError(
                f"unknown quantile source: {quantiles!r} "
                f"(have {QUANTILE_SOURCES})"
            )
        self.backend = backend
        self.config = config
        self.seed = seed
        self.pilot_per_region = pilot_per_region
        self.bootstrap_replicates = bootstrap_replicates
        self.window_days = window_days
        self.retry_policy = retry_policy
        self.breakers = breakers
        self.quantiles = quantiles

    @staticmethod
    def _health_tick() -> None:
        """Sample the installed health monitor's SLOs after a round.

        Adaptive campaigns close no monitor windows, so without this
        the SLO burn-rate series would never accumulate samples.
        """
        from repro.obs.health import get_health_monitor

        health = get_health_monitor()
        if health is not None:
            health.tick()

    def _schedule(
        self, allocation: Mapping[str, int], round_index: int
    ) -> List[ProbeRequest]:
        """Turn a per-region probe count into concrete requests."""
        requests: List[ProbeRequest] = []
        clients = self.backend.clients()
        for region in sorted(allocation):
            count = allocation[region]
            rng = make_rng(self.seed, "adaptive", region, round_index)
            for i in range(count):
                client = clients[i % len(clients)]
                timestamp = float(
                    rng.uniform(0.0, self.window_days * 86400.0)
                )
                requests.append(
                    ProbeRequest(
                        client=client, region=region, timestamp=timestamp
                    )
                )
        return requests

    def _sketch_scores(
        self, sketch: Optional[SketchSink]
    ) -> Dict[str, float]:
        """Region scores read from the live plane (sketch mode only)."""
        if sketch is None:
            return {}
        scores: Dict[str, float] = {}
        for region, sources in sketch.plane.sources_by_region().items():
            try:
                scores[region] = score_region(
                    sources, self.config, quantile_source="sketch"
                ).value
            except DataError:
                continue  # not yet scorable this round; CI covers it
        return scores

    def _ci_widths(self, records: MeasurementSet) -> Dict[str, float]:
        widths: Dict[str, float] = {}
        for region in self.backend.regions():
            subset = records.for_region(region)
            if len(subset) == 0:
                _CI_EMPTY.inc()
                widths[region] = 1.0  # no data: maximal uncertainty
                continue
            try:
                result = bootstrap_score(
                    subset.group_by_source(),
                    self.config,
                    replicates=self.bootstrap_replicates,
                    seed=self.seed,
                )
                widths[region] = result.width95
                _CI_COMPUTED.inc()
            except DataError as exc:
                # Unscorable region: fall back to maximal uncertainty,
                # but record that the bootstrap was impossible.
                _CI_FALLBACKS.inc()
                _logger.warning(
                    "CI bootstrap fell back to maximal width: %s",
                    exc,
                    extra={"ctx": {"region": region, "samples": len(subset)}},
                )
                widths[region] = 1.0
        return widths

    @staticmethod
    def _proportional(
        widths: Mapping[str, float], budget: int, minimum: int
    ) -> Dict[str, int]:
        """Allocate ``budget`` probes ∝ CI width, with a per-region floor.

        The floor is honoured only while the budget covers it; a budget
        below ``minimum × regions`` degrades to an even split so the
        round never overspends.
        """
        regions = sorted(widths)
        floor_total = minimum * len(regions)
        if budget < floor_total:
            base = budget // len(regions)
            allocation = {region: base for region in regions}
            for region in regions[: budget - base * len(regions)]:
                allocation[region] += 1
            return allocation
        remaining = max(0, budget - floor_total)
        total_width = sum(widths.values())
        allocation = {region: minimum for region in regions}
        if total_width > 0 and remaining > 0:
            raw = {
                region: remaining * widths[region] / total_width
                for region in regions
            }
            for region in regions:
                allocation[region] += int(raw[region])
            shortfall = budget - sum(allocation.values())
            for region in sorted(
                regions, key=lambda r: raw[r] - int(raw[r]), reverse=True
            )[:shortfall]:
                allocation[region] += 1
        return allocation

    def check_budget(self, total_budget: int, rounds: int) -> None:
        """Raise ValueError unless :meth:`run` can start on these values.

        The budget must cover the pilot round, and there must be at
        least one round.
        """
        pilot_total = self.pilot_per_region * len(self.backend.regions())
        if total_budget < pilot_total:
            raise ValueError(
                f"budget {total_budget} below pilot requirement {pilot_total}"
            )
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1: {rounds}")

    def run(
        self,
        total_budget: int,
        rounds: int = 3,
        min_per_region_per_round: int = 6,
    ) -> AdaptiveResult:
        """Execute a full adaptive campaign.

        Round 0 is the uniform pilot; each later round re-allocates the
        remaining budget by current CI width.

        Raises:
            ValueError: see :meth:`check_budget`.
        """
        self.check_budget(total_budget, rounds)
        regions = self.backend.regions()
        pilot_total = self.pilot_per_region * len(regions)

        sink = MemorySink()
        sketch: Optional[SketchSink] = None
        runner_sink: object = sink
        if self.quantiles == "sketch":
            # Every result folds into the live plane as it lands, so
            # round-end scores are sketch reads, not batch recomputes.
            sketch = SketchSink()
            runner_sink = FanOutSink(sink, sketch)
        runner = ProbeRunner(
            self.backend,
            runner_sink,
            max_attempts=3,
            retry_policy=self.retry_policy,
            breakers=self.breakers,
        )
        audit: List[AllocationRound] = []

        pilot = {region: self.pilot_per_region for region in regions}
        runner.run(self._schedule(pilot, round_index=0))
        audit.append(
            AllocationRound(
                index=0,
                allocation=pilot,
                ci_widths=self._ci_widths(sink.as_set()),
                scores=self._sketch_scores(sketch),
            )
        )

        remaining = total_budget - pilot_total
        _ROUNDS_DONE.set(1.0)
        _BUDGET_LEFT.set(remaining)
        self._health_tick()
        adaptive_rounds = max(0, rounds - 1)
        for round_index in range(1, adaptive_rounds + 1):
            if remaining <= 0:
                break
            this_round = remaining // (adaptive_rounds - round_index + 1)
            if this_round <= 0:
                continue
            widths = audit[-1].ci_widths
            allocation = self._proportional(
                widths, this_round, min_per_region_per_round
            )
            runner.run(self._schedule(allocation, round_index))
            remaining -= sum(allocation.values())
            _ROUNDS_DONE.set(round_index + 1)
            _BUDGET_LEFT.set(remaining)
            self._health_tick()
            audit.append(
                AllocationRound(
                    index=round_index,
                    allocation=allocation,
                    ci_widths=self._ci_widths(sink.as_set()),
                    scores=self._sketch_scores(sketch),
                )
            )

        records = sink.as_set()
        return AdaptiveResult(
            records=records,
            rounds=tuple(audit),
            final_ci_widths=self._ci_widths(records),
        )


def uniform_campaign(
    backend: MeasurementBackend,
    config: IQBConfig,
    total_budget: int,
    seed: int = 0,
    window_days: float = 7.0,
    bootstrap_replicates: int = 60,
) -> AdaptiveResult:
    """The non-adaptive comparator: the same budget, split evenly.

    Returns the same result type so the bench can compare like with
    like (single round, uniform allocation).
    """
    allocator = AdaptiveAllocator(
        backend,
        config,
        seed=seed,
        pilot_per_region=total_budget // len(backend.regions()),
        bootstrap_replicates=bootstrap_replicates,
        window_days=window_days,
    )
    return allocator.run(total_budget=total_budget, rounds=1)
