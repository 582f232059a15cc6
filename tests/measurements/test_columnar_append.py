"""Differential tests for ColumnarStore.append (the incremental merge).

A store grown by appends must be bit-identical to a cold
``ColumnarStore(all records)``: columns, group indexes, sorted planes,
cubes, pair views and every score. The cold build is the oracle.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import paper_config
from repro.core.exceptions import DataError
from repro.core.kernel import score_values
from repro.core.metrics import Metric
from repro.core.scoring import score_regions
from repro.measurements.columnar import AXES, ColumnarStore
from repro.measurements.record import Measurement
from repro.obs import REGISTRY, snapshot

CONFIG = paper_config()

#: Two percentile vectors (one per metric, Metric.ordered()).
PERCENTILES = ((50.0, 50.0, 50.0, 50.0), (5.0, 95.0, 99.0, 25.0))

#: How much derived state to build before the first append.
WARM_LEVELS = ("none", "column", "region_index", "pairs", "one_plane", "full")


def rec(region="d", source="ndt", ts=0.0, isp="", **metrics):
    if all(value is None for value in metrics.values()):
        metrics["latency_ms"] = 10.0
    return Measurement(
        region=region, source=source, timestamp=ts, isp=isp, **metrics
    )


def bits(array):
    """Exact float comparison: NaN payloads and signed zeros included."""
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def warm(store, level):
    """Build only part of the store's derived state."""
    if level == "column":
        store.column(Metric.DOWNLOAD)
    elif level == "region_index":
        store.index("region")
    elif level == "pairs":
        store.sources_by_region()
    elif level == "one_plane":
        for views in store.sources_by_region().values():
            for view in views.values():
                view.quantile(Metric.LATENCY, 50.0)
    elif level == "full":
        for percentiles in PERCENTILES:
            store.aggregate_cube(store.sources(), percentiles)
        for axis in AXES:
            store.index(axis)


def scored(store):
    """Scores and breakdowns as exact text, or the error both must raise."""
    try:
        values = {
            region: value.hex()
            for region, value in score_values(store, CONFIG).items()
        }
        trees = json.dumps(
            {
                region: breakdown.to_dict()
                for region, breakdown in score_regions(store, CONFIG).items()
            },
            sort_keys=True,
        )
    except DataError as exc:
        return repr(exc)
    return values, trees


def assert_same_as_cold(store, records):
    cold = ColumnarStore(list(records))
    assert store.records() == cold.records()
    assert len(store) == len(cold)
    assert store.regions() == cold.regions()
    assert store.sources() == cold.sources()
    assert store.isps() == cold.isps()
    for axis in AXES:
        merged, fresh = store.index(axis), cold.index(axis)
        assert list(merged) == list(fresh)
        for key, rows in fresh.items():
            assert np.array_equal(merged[key], rows)
            assert merged[key].dtype == rows.dtype
    for metric in Metric.ordered():
        assert np.array_equal(
            bits(store.column(metric)), bits(cold.column(metric))
        )
        merged, fresh = store._pair_plane(metric), cold._pair_plane(metric)
        assert np.array_equal(bits(merged.values), bits(fresh.values))
        assert np.array_equal(merged.starts, fresh.starts)
        assert np.array_equal(merged.counts, fresh.counts)
        assert merged.counts.dtype == fresh.counts.dtype
    datasets = cold.sources() + ("absent",)
    for percentiles in PERCENTILES:
        merged = store.aggregate_cube(datasets, percentiles)
        fresh = cold.aggregate_cube(datasets, percentiles)
        assert merged.regions == fresh.regions
        assert np.array_equal(bits(merged.aggregates), bits(fresh.aggregates))
        assert np.array_equal(merged.counts, fresh.counts)
        assert merged.cells == fresh.cells
    merged_views, fresh_views = (
        store.sources_by_region(),
        cold.sources_by_region(),
    )
    assert list(merged_views) == list(fresh_views)
    for region, views in fresh_views.items():
        assert list(merged_views[region]) == list(views)
        for source, view in views.items():
            for metric in Metric.ordered():
                assert np.array_equal(
                    bits(merged_views[region][source].sorted_values(metric)),
                    bits(view.sorted_values(metric)),
                )
    assert scored(store) == scored(cold)


def run_appends(initial, batches, level):
    """Append each batch, checking against a cold store after each."""
    store = ColumnarStore(list(initial))
    warm(store, level)
    records = list(initial)
    for batch in batches:
        generation = store.generation
        store.append(batch)
        assert store.generation == generation + (1 if batch else 0)
        records.extend(batch)
        assert_same_as_cold(store, records)
    return store


# -- property: random stores, random batches ----------------------------------

_throughput = st.sampled_from([None, 0.0, -0.0, 1.0, 1.0, 2.5, 80.0, 150.0])
_latency = st.sampled_from([None, 1.0, 1.0, 12.5, 30.0, 75.0])
_loss = st.sampled_from([None, 0.0, -0.0, 0.0005, 0.0005, 0.02, 1.0])


def _records(regions, sources):
    return st.builds(
        rec,
        region=st.sampled_from(regions),
        source=st.sampled_from(sources),
        ts=st.floats(0.0, 1e6, allow_nan=False),
        isp=st.sampled_from(["", "ispA", "ispB"]),
        download_mbps=_throughput,
        upload_mbps=_throughput,
        latency_ms=_latency,
        packet_loss=_loss,
    )


# The initial store covers regions b/d/f and two datasets; batches may
# add regions sorting before (a), between (c, e) and after (g) them,
# and datasets that are new (cloudflare) or outside the config (extra).
_initial = st.lists(_records("bdf", ("ndt", "ookla")), max_size=25)
_batch = st.lists(
    _records("abcdefg", ("cloudflare", "extra", "ndt", "ookla")), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(
    initial=_initial,
    batches=st.lists(_batch, min_size=1, max_size=6),
    level=st.sampled_from(WARM_LEVELS),
)
def test_appends_match_a_cold_build(initial, batches, level):
    run_appends(initial, batches, level)


# -- the named cases, pinned --------------------------------------------------


def _base():
    return [
        rec("b", "ndt", 1.0, "ispA", download_mbps=10.0, latency_ms=20.0),
        rec("d", "ndt", 2.0, "ispB", download_mbps=0.0, latency_ms=20.0),
        rec("d", "ookla", 3.0, download_mbps=5.0),
        rec("f", "ndt", 4.0, "ispA", download_mbps=10.0, packet_loss=0.0),
    ]


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_new_regions_before_between_and_after(level):
    batch = [
        rec("a", "ndt", 5.0, download_mbps=1.0),
        rec("c", "ndt", 6.0, download_mbps=2.0, latency_ms=3.0),
        rec("e", "ookla", 7.0, download_mbps=3.0),
        rec("g", "ndt", 8.0, download_mbps=4.0),
    ]
    store = run_appends(_base(), [batch], level)
    assert store.regions() == tuple("abcdefg")


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_new_dataset_joins_existing_regions(level):
    batch = [
        rec("b", "cloudflare", 5.0, download_mbps=40.0, latency_ms=9.0),
        rec("d", "extra", 6.0, download_mbps=3.0),
    ]
    store = run_appends(_base(), [batch], level)
    assert "cloudflare" in store.sources()


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_repeated_values_and_signed_zeros_keep_row_order(level):
    batches = [
        [
            rec("d", "ndt", 5.0, download_mbps=-0.0, packet_loss=-0.0),
            rec("d", "ndt", 6.0, download_mbps=0.0, packet_loss=0.0),
            rec("d", "ndt", 7.0, download_mbps=-0.0),
        ],
        [
            rec("d", "ndt", 8.0, download_mbps=10.0, latency_ms=20.0),
            rec("d", "ndt", 9.0, download_mbps=-0.0, latency_ms=20.0),
        ],
    ]
    store = run_appends(_base(), batches, level)
    segment = store.view(region="d", source="ndt").sorted_values(
        Metric.DOWNLOAD
    )
    # Equal values keep row order: 0.0 (initial), then the batches'
    # -0.0, 0.0, -0.0, -0.0 — and the signs survive the merge.
    assert np.signbit(segment[:5]).tolist() == [
        False, True, False, True, True
    ]


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_pair_whose_rows_all_lack_a_metric(level):
    batches = [
        [rec("b", "ookla", 5.0, download_mbps=7.0)],
        [rec("b", "ookla", 6.0, upload_mbps=2.0)],
    ]
    store = run_appends(_base(), batches, level)
    view = store.view(region="b", source="ookla")
    assert view.sample_count(Metric.LATENCY) == 0
    assert view.quantile(Metric.LATENCY, 50.0) is None


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_empty_initial_store(level):
    batches = [
        [],
        [rec("d", "ndt", 1.0, download_mbps=3.0, latency_ms=8.0)],
        [rec("b", "ookla", 2.0, download_mbps=1.0)],
    ]
    run_appends([], batches, level)


def test_empty_batch_changes_nothing():
    store = ColumnarStore(_base())
    warm(store, "full")
    cube = store.aggregate_cube(store.sources(), PERCENTILES[0])
    store.append([])
    store.append(iter(()))
    assert store.generation == 0
    assert store.aggregate_cube(store.sources(), PERCENTILES[0]) is cube


@pytest.mark.parametrize("level", WARM_LEVELS)
def test_unbuilt_state_stays_unbuilt(level):
    store = ColumnarStore(_base())
    warm(store, level)
    built_columns = set(store._columns)
    built_axes = set(store._indexes)
    built_planes = set(store._planes)
    pairs_built = store._pair_slots is not None
    store.append([rec("a", "cloudflare", 9.0, download_mbps=2.0)])
    assert set(store._columns) == built_columns
    assert set(store._indexes) == built_axes
    assert set(store._planes) == built_planes
    assert (store._pair_slots is not None) == pairs_built


def test_append_does_not_mutate_handed_out_index_arrays():
    store = ColumnarStore(_base())
    rows = store.index("region")["d"]
    before = rows.copy()
    store.append([rec("d", "ndt", 5.0, download_mbps=1.0)])
    assert np.array_equal(rows, before)
    assert store.index("region")["d"].tolist() == [1, 2, 4]


# -- the stage ledger ---------------------------------------------------------


def test_appends_after_planes_exist_add_no_sorts():
    store = ColumnarStore(_base())
    warm(store, "full")
    sorts = REGISTRY.counter("quantile_cache.columnar.sorts")
    merges = REGISTRY.counter("quantile_cache.columnar.merges")
    sorts_before, merges_before = sorts.value, merges.value
    for i in range(5):
        store.append(
            [
                rec("d", "ndt", 10.0 + i, download_mbps=float(i)),
                rec(f"n{i}", "ookla", 20.0 + i, latency_ms=5.0),
            ]
        )
        store.aggregate_cube(store.sources(), PERCENTILES[1])
    assert sorts.value - sorts_before == 0
    assert merges.value - merges_before == 10


def test_append_is_timed_as_a_span():
    store = ColumnarStore(_base())
    before = snapshot()["timers"].get("span.columnar_append", {})
    store.append([rec("d", "ndt", 5.0, download_mbps=1.0)])
    store.append([rec("d", "ndt", 6.0, download_mbps=2.0)])
    after = snapshot()["timers"]["span.columnar_append"]
    assert after["count"] - before.get("count", 0) == 2
