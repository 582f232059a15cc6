"""Serving-layer benchmarks: the held scores pass and the wire.

``iqb serve``'s perf contract is that the steady state costs a
generation compare, not a kernel sweep: the service holds the current
generation's scores pass, and only an ingest — which bumps the
generation — forces a recompute. Three
pytest-benchmark entries (tracked by ``compare_bench`` against
``BENCH_baseline.json``) at a 256-region plane:

* ``test_bench_serve_cold_sweep`` — the invalidated path: one ingested
  record retires the held pass, so the read pays a full scores-only
  kernel sweep.
* ``test_bench_serve_warm_read`` — the steady state: the same query
  against an unchanged plane (the held pass, no plane lock).
* ``test_bench_serve_closed_loop`` — a closed-loop HTTP load
  generator: 4 client threads × 24 GETs against a live
  :class:`ServeServer` while an ingester bumps the generation
  mid-run, so the round mixes warm hits, conditional 304s, and
  invalidated sweeps over real sockets.

``TestServeGates`` holds the acceptance bars:

* warm-cache read ≥ 20x the cold recompute at 256 regions;
* 8 concurrent identical misses share one kernel sweep (the
  ones that arrive during it wait on the plane lock);
* every closed-loop response parses, carries all 256 regions, and the
  p99 request latency stays within budget.
"""

import dataclasses
import gc
import json
import threading
import time
import urllib.request

import pytest

from repro.core.config import paper_config
from repro.measurements.columnar import ColumnarStore
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.obs.registry import REGISTRY
from repro.serve import ScoringService, ServeServer

_REGIONS = 256
_CAMPAIGN = CampaignConfig(subscribers=3, tests_per_client=3)
_SEED = 42

#: Closed-loop load shape: every client waits for its response before
#: sending the next request (closed loop), so offered load adapts to
#: service speed instead of queueing unboundedly.
_CLIENTS = 4
_REQUESTS_PER_CLIENT = 24


def _plane():
    """A 256-region national plane (one region cloned across 256)."""
    base = list(
        simulate_region(
            region_preset("mixed-urban"), seed=_SEED, config=_CAMPAIGN
        )
    )
    records = []
    for i in range(_REGIONS):
        records.extend(
            dataclasses.replace(record, region=f"region-{i:03d}")
            for record in base
        )
    return records


@pytest.fixture(scope="module")
def serve_config():
    return paper_config()


@pytest.fixture(scope="module")
def plane_records():
    return _plane()


def _invalidator(records):
    """An endless stream of one-record ingest batches (new regions)."""
    index = 0
    while True:
        yield [
            dataclasses.replace(
                records[0], region=f"ingested-{index:05d}"
            )
        ]
        index += 1


#: CPU time, not wall time — same rationale as the kernel benches.
_STEADY = pytest.mark.benchmark(
    timer=time.process_time, min_rounds=7, warmup=True
)


@_STEADY
def test_bench_serve_cold_sweep(benchmark, plane_records, serve_config):
    service = ScoringService(
        ColumnarStore(list(plane_records)), serve_config
    )
    batches = _invalidator(plane_records)

    def invalidated_read():
        service.ingest(next(batches))
        return service.scores()

    result = benchmark(invalidated_read)
    assert len(result.values) >= _REGIONS


@_STEADY
def test_bench_serve_warm_read(benchmark, plane_records, serve_config):
    service = ScoringService(
        ColumnarStore(list(plane_records)), serve_config
    )
    service.scores()  # prime the cache once

    result = benchmark(service.scores)
    assert len(result.values) == _REGIONS
    assert result.generation == 0


@_STEADY
def test_bench_serve_closed_loop(
    benchmark, plane_records, serve_config
):
    service = ScoringService(
        ColumnarStore(list(plane_records)), serve_config
    )
    server = ServeServer(service, port=0)
    server.start()
    batches = _invalidator(plane_records)
    try:
        base = f"http://{server.address}"

        def client():
            for _ in range(_REQUESTS_PER_CLIENT):
                with urllib.request.urlopen(
                    f"{base}/v1/scores", timeout=30.0
                ) as response:
                    assert response.status == 200
                    response.read()

        def round_trip():
            threads = [
                threading.Thread(target=client)
                for _ in range(_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            # Two mid-round ingests: the round pays real invalidated
            # sweeps, not 96 cache hits.
            for _ in range(2):
                time.sleep(0.005)
                service.ingest(next(batches))
            for thread in threads:
                thread.join()

        benchmark(round_trip)
    finally:
        server.stop()


class TestServeGates:
    """The serving acceptance bars (run by compare_bench's cohort)."""

    ROUNDS = 9
    WARM_CALLS = 200  # amortize timer resolution over many hits
    P99_BUDGET_S = 0.25  # the serve SLO rules' default latency budget

    @staticmethod
    def _cpu_time(fn):
        gc.collect()
        start = time.process_time()
        fn()
        return time.process_time() - start

    def test_warm_read_speedup_over_cold_sweep(
        self, plane_records, serve_config
    ):
        service = ScoringService(
            ColumnarStore(list(plane_records)), serve_config
        )
        batches = _invalidator(plane_records)

        def cold():
            service.ingest(next(batches))
            service.scores()

        def warm():
            for _ in range(self.WARM_CALLS):
                service.scores()

        # Same-process warmup, then interleaved rounds; min-of-rounds
        # CPU time so scheduler noise cannot fail the build (the same
        # harness the kernel and streaming gates use).
        cold()
        warm()
        cold_times, warm_times = [], []
        for _ in range(self.ROUNDS):
            cold_times.append(self._cpu_time(cold))
            warm_times.append(self._cpu_time(warm) / self.WARM_CALLS)
        cold_best = min(cold_times)
        warm_best = min(warm_times)

        assert cold_best >= 20.0 * warm_best, (
            f"warm cached read not >= 20x faster than the invalidated "
            f"sweep at {_REGIONS} regions: cold {cold_best * 1e3:.2f}ms "
            f"vs warm {warm_best * 1e6:.1f}us"
        )

    def test_single_flight_collapses_concurrent_misses(
        self, plane_records, serve_config
    ):
        service = ScoringService(
            ColumnarStore(list(plane_records)), serve_config
        )
        sweeps = REGISTRY.counter("serve.compute.sweeps")
        before = sweeps.value
        barrier = threading.Barrier(8)
        results = []

        def read():
            barrier.wait(timeout=10.0)
            results.append(service.scores())

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(results) == 8
        assert sweeps.value == before + 1, (
            f"8 concurrent identical misses ran "
            f"{sweeps.value - before} kernel sweeps; misses waiting "
            f"on the sweep in progress should share it"
        )
        assert all(r is results[0] for r in results)

    def test_closed_loop_responses_parse_within_budget(
        self, plane_records, serve_config
    ):
        service = ScoringService(
            ColumnarStore(list(plane_records)), serve_config
        )
        server = ServeServer(service, port=0)
        server.start()
        batches = _invalidator(plane_records)
        latencies = []
        latency_lock = threading.Lock()
        documents = []
        try:
            base = f"http://{server.address}"
            service.scores()  # one warm sweep before load arrives

            def client():
                for _ in range(_REQUESTS_PER_CLIENT):
                    start = time.perf_counter()
                    with urllib.request.urlopen(
                        f"{base}/v1/scores", timeout=30.0
                    ) as response:
                        body = response.read().decode("utf-8")
                    elapsed = time.perf_counter() - start
                    document = json.loads(body)
                    with latency_lock:
                        latencies.append(elapsed)
                        documents.append(document)

            threads = [
                threading.Thread(target=client)
                for _ in range(_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for _ in range(2):
                time.sleep(0.01)
                service.ingest(next(batches))
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            server.stop()

        expected = _CLIENTS * _REQUESTS_PER_CLIENT
        assert len(documents) == expected  # every response parsed
        for document in documents:
            assert len(document["regions"]) >= _REGIONS
        # Stamps must match content: generation g carries g ingested
        # extra regions on top of the base 256.
        for document in documents:
            assert (
                len(document["regions"])
                == _REGIONS + document["generation"]
            )
        ordered = sorted(latencies)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        assert p99 <= self.P99_BUDGET_S, (
            f"closed-loop p99 latency {p99 * 1e3:.1f}ms exceeds the "
            f"{self.P99_BUDGET_S * 1e3:.0f}ms serve budget"
        )
