"""Bench ext-sketch — bounded-memory quantiles for fleet-scale collection.

Paper artifact: the datasets tier must compute per-region 95th
percentiles over measurement volumes that a central raw-data pipeline
handles today but a privacy-conscious or edge-heavy deployment might
not want to centralize. The bench quantifies what the mergeable
t-digest buys and costs:

* memory (centroid count) vs p95 error against the exact percentile,
  across compression settings;
* end-to-end scoring agreement when four collector shards sketch
  disjoint slices of a campaign and a coordinator merges them.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core import score_region
from repro.core.metrics import Metric
from repro.measurements.tdigest import TDigest
from repro.probing.sinks import SketchSink

REGION = "suburban-cable"


def test_bench_memory_vs_accuracy(benchmark, campaigns):
    # Pool every region's NDT downloads: a realistic multi-thousand
    # stream rather than one region's few hundred tests.
    values = []
    for records in campaigns.values():
        values.extend(records.for_source("ndt").values(Metric.DOWNLOAD))
    from repro.core.aggregation import percentile_of

    exact = percentile_of(values, 95.0)

    def sweep():
        out = {}
        for delta in (20, 50, 100, 300):
            digest = TDigest(delta=delta)
            digest.extend(values)
            estimate = digest.quantile(95.0)
            out[delta] = (digest.centroid_count, estimate)
        return out

    results = benchmark(sweep)

    rows = [
        (
            delta,
            centroids,
            estimate,
            abs(estimate - exact) / exact,
        )
        for delta, (centroids, estimate) in sorted(results.items())
    ]
    print(
        f"\n[ext-sketch] NDT download p95 over {len(values)} tests "
        f"(exact {exact:.1f} Mb/s):"
    )
    print(
        render_table(
            ["delta", "Centroids", "p95 estimate", "Rel error"], rows
        )
    )

    for delta, (centroids, estimate) in results.items():
        assert estimate == pytest.approx(exact, rel=0.1)
    # Practical settings are genuinely sketches (delta=300 on a stream
    # this short keeps most points and is included only as the
    # near-exact reference row).
    assert results[100][0] < len(values) / 2
    assert results[20][0] < len(values) / 10


def test_bench_sharded_scoring(benchmark, campaigns, config):
    records = campaigns[REGION]

    def shard_and_score():
        sinks = [SketchSink() for _ in range(4)]
        for i, record in enumerate(records):
            sinks[i % 4].accept(record)
        merged = sinks[0]
        for sink in sinks[1:]:
            merged = merged.merge(sink)
        return score_region(
            merged.plane.sources_by_region()[REGION], config
        ).value

    sketched = benchmark.pedantic(shard_and_score, rounds=1, iterations=1)
    exact = score_region(records.group_by_source(), config).value

    print(
        f"\n[ext-sketch] IQB from 4 merged collector shards: "
        f"{sketched:.3f} vs exact {exact:.3f}"
    )
    assert sketched == pytest.approx(exact, abs=0.12)
