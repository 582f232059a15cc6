"""Measurement-campaign simulator.

Ties the substrate together: a region's subscriber population
(:mod:`.population`), its diurnal congestion (:mod:`.congestion`), and
the dataset methodologies (:mod:`.clients`) produce a
:class:`~repro.measurements.collection.MeasurementSet` that looks like a
week of crowdsourced speed-test data — the raw material the IQB paper's
datasets tier consumes.

Test timing is crowdsourced-like: test timestamps are biased toward the
evening (people run speed tests when the network feels slow), which
matters because the 95th-percentile rule then sees prime-time
conditions. Everything is deterministic under ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.measurements.collection import MeasurementSet
from repro.measurements.record import Measurement

from .clients import MeasurementClient, default_clients
from .congestion import SECONDS_PER_DAY, SECONDS_PER_HOUR
from .link import SubscriberLink, apply_wifi
from .population import RegionProfile, build_links
from .rng import make_rng


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one simulated measurement campaign."""

    subscribers: int = 150
    tests_per_client: int = 400
    days: float = 7.0
    start_timestamp: float = 0.0
    #: Probability that a test is scheduled in the 18:00-23:00 window.
    evening_bias: float = 0.5
    #: Share of tests run from behind imperfect home WiFi (confounder).
    wifi_share: float = 0.0

    def __post_init__(self) -> None:
        if self.subscribers < 1:
            raise ValueError(f"subscribers must be >= 1: {self.subscribers}")
        if self.tests_per_client < 1:
            raise ValueError(
                f"tests_per_client must be >= 1: {self.tests_per_client}"
            )
        if self.days <= 0:
            raise ValueError(f"days must be positive: {self.days}")
        if not 0.0 <= self.evening_bias <= 1.0:
            raise ValueError(
                f"evening_bias outside [0, 1]: {self.evening_bias}"
            )
        if not 0.0 <= self.wifi_share <= 1.0:
            raise ValueError(f"wifi_share outside [0, 1]: {self.wifi_share}")


def _draw_timestamp(
    rng: np.random.Generator, config: CampaignConfig
) -> float:
    """One crowdsourced-style test timestamp within the campaign window."""
    day = float(rng.integers(0, max(1, int(np.ceil(config.days)))))
    if rng.random() < config.evening_bias:
        hour = float(rng.uniform(18.0, 23.0))
    else:
        hour = float(rng.uniform(0.0, 24.0))
    timestamp = config.start_timestamp + day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR
    limit = config.start_timestamp + config.days * SECONDS_PER_DAY
    return min(timestamp, limit - 1.0)


def simulate_region(
    profile: RegionProfile,
    seed: int,
    config: Optional[CampaignConfig] = None,
    clients: Optional[Sequence[MeasurementClient]] = None,
) -> MeasurementSet:
    """Simulate one region's measurement campaign.

    Each client (dataset) independently samples subscribers and times —
    the datasets do *not* test the same households at the same moments,
    just like the real NDT/Cloudflare/Ookla populations only overlap
    statistically.
    """
    config = config or CampaignConfig()
    clients = tuple(clients) if clients is not None else default_clients()
    links = build_links(profile, config.subscribers, seed)
    records: List[Measurement] = []
    for client in clients:
        rng = make_rng(seed, "campaign", profile.name, client.name)
        for _ in range(config.tests_per_client):
            link = links[int(rng.integers(0, len(links)))]
            if config.wifi_share > 0 and rng.random() < config.wifi_share:
                link = apply_wifi(link, rng)
            timestamp = _draw_timestamp(rng, config)
            utilization = profile.diurnal.sample_utilization(
                rng, timestamp, profile.load_factor
            )
            records.append(client.measure(link, utilization, timestamp, rng))
    return MeasurementSet(records)


def simulate_regions(
    profiles: Iterable[RegionProfile],
    seed: int,
    config: Optional[CampaignConfig] = None,
    clients: Optional[Sequence[MeasurementClient]] = None,
) -> MeasurementSet:
    """Simulate campaigns for several regions into one combined set.

    Each region's RNG streams derive only from ``(seed, region,
    client)``, so a region's records do not depend on which other
    regions are simulated; they concatenate in profile order.
    """
    records: List[Measurement] = []
    for profile in profiles:
        records.extend(
            simulate_region(profile, seed=seed, config=config, clients=clients)
        )
    return MeasurementSet(records)


@dataclass(frozen=True)
class GroundTruth:
    """Population-level true link statistics, for validating clients."""

    region: str
    median_down_mbps: float
    median_up_mbps: float
    median_rtt_ms: float
    median_loss: float
    links: Tuple[SubscriberLink, ...] = field(repr=False, default=())


def ground_truth(
    profile: RegionProfile, seed: int, subscribers: int = 150
) -> GroundTruth:
    """The true (un-measured) link population behind a campaign.

    Useful for asserting that clients observe the simulator's ground
    truth with the intended methodology biases.
    """
    links = build_links(profile, subscribers, seed)
    downs = sorted(link.down_capacity_mbps for link in links)
    ups = sorted(link.up_capacity_mbps for link in links)
    rtts = sorted(link.base_rtt_ms for link in links)
    losses = sorted(link.base_loss for link in links)
    mid = len(links) // 2
    return GroundTruth(
        region=profile.name,
        median_down_mbps=downs[mid],
        median_up_mbps=ups[mid],
        median_rtt_ms=rtts[mid],
        median_loss=losses[mid],
        links=tuple(links),
    )
