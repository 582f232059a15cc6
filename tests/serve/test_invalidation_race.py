"""Threaded stress test: no served result may straddle an ingest.

A writer appends known batches while reader threads hammer
``ScoringService.scores`` (and, in the HTTP variant, every ``/v1``
read route through ``ServeServer.dispatch`` and its render memo). The
invariant under test is the whole consistency model: every response's
generation stamp must map *bit-identically* onto the scores of exactly
that prefix of batches — a response that mixed a half-appended batch,
or carried a stale stamp for fresh values (or vice versa), fails the
lookup.

This is the regression test for the ordering contract:
``ColumnarStore.append`` bumps the generation only after the plane is
fully consistent, a cache-miss sweep re-reads the generation inside
the plane lock, and a rendered body is kept under the generation of
the result it was rendered from.
"""

import dataclasses
import json
import sys
import threading

from repro.analysis.national import national_score
from repro.core.config import paper_config
from repro.core.kernel import score_values
from repro.core.scoring import score_regions
from repro.measurements.columnar import ColumnarStore
from repro.obs.registry import MetricsRegistry
from repro.serve import ScoringService, ServeServer

from tests.serve.conftest import batch

_N_BATCHES = 8
_N_READERS = 4
#: The read routes the HTTP variant cycles through.
_REGIONS = ("region-000", "region-002")
_PATHS = ("/v1/scores", "/v1/national") + tuple(
    f"/v1/scores/{region}" for region in _REGIONS
)


def _batches():
    """Deterministic ingest batches: one new region per generation."""
    base = batch(1)
    return [
        [
            dataclasses.replace(record, region=f"ingested-{i:03d}")
            for record in base
        ]
        for i in range(_N_BATCHES)
    ]


def test_reads_racing_ingest_stay_generation_consistent():
    config = paper_config()
    initial = batch(3)
    batches = _batches()

    # Expected scores for every prefix of batches, computed up front on
    # independent stores: expected[g] is the one true answer for
    # generation g.
    expected = {}
    accumulated = list(initial)
    for generation in range(_N_BATCHES + 1):
        expected[generation] = score_values(
            ColumnarStore(list(accumulated)), config
        )
        if generation < _N_BATCHES:
            accumulated.extend(batches[generation])

    service = ScoringService(ColumnarStore(initial), config)
    stop = threading.Event()
    observed = [[] for _ in range(_N_READERS)]
    failures = []

    def reader(slot):
        while not stop.is_set():
            result = service.scores()
            if result.values != expected.get(result.generation):
                failures.append(
                    (slot, result.generation, dict(result.values))
                )
                return
            observed[slot].append(result.generation)

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(_N_READERS)
    ]
    for thread in threads:
        thread.start()
    try:
        for generation, records in enumerate(batches):
            # Let readers chew on this generation before moving on.
            barrier_len = len(observed[0]) + 3
            deadline = threading.Event()
            while len(observed[0]) < barrier_len and not deadline.wait(
                0.005
            ):
                pass
            assert service.ingest(records) == len(records)
            assert service.generation == generation + 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)

    assert failures == []
    # Every reader saw real work, and the stamps only ever advanced.
    for stamps in observed:
        assert stamps, "reader made no observations"
        assert stamps == sorted(stamps)
    # The run actually exercised multiple generations end to end.
    assert service.generation == _N_BATCHES
    final = service.scores()
    assert final.generation == _N_BATCHES
    assert final.values == expected[_N_BATCHES]


class _HeldAppendStore(ColumnarStore):
    """A columnar store whose ``append`` waits for ``release`` once it
    has started (``appending`` is set), before the plane changes."""

    def __init__(self, records):
        super().__init__(records)
        self.appending = threading.Event()
        self.release = threading.Event()

    def append(self, batch):
        self.appending.set()
        assert self.release.wait(timeout=10.0)
        return super().append(batch)


def test_miss_waiting_on_an_ingest_stamps_the_post_ingest_generation():
    """A miss that arrives while an ingest holds the plane lock waits
    for it, then sweeps and stamps the post-ingest plane — never the
    generation it observed before waiting."""
    config = paper_config()
    initial = batch(2)
    extra = [
        dataclasses.replace(record, region="late-arrival")
        for record in batch(1)
    ]
    expected_after = score_values(
        ColumnarStore(list(initial) + list(extra)), config
    )

    store = _HeldAppendStore(initial)
    service = ScoringService(store, config)
    writer = threading.Thread(target=service.ingest, args=(extra,))
    writer.start()
    assert store.appending.wait(timeout=10.0)
    # The ingest now holds the plane lock at generation 0; a read
    # misses (nothing is held yet) and must wait on that lock.
    assert service.generation == 0
    results = []
    reader = threading.Thread(target=lambda: results.append(service.scores()))
    reader.start()
    reader.join(timeout=0.2)
    assert reader.is_alive(), "the miss did not wait for the ingest"
    store.release.set()
    writer.join(timeout=10.0)
    reader.join(timeout=10.0)
    assert not writer.is_alive() and not reader.is_alive()
    assert len(results) == 1
    (result,) = results
    assert result.generation == 1
    assert result.values == expected_after
    assert "late-arrival" in result.values
    assert service.scores() is result


def _etag_generation(etag):
    return int(etag.strip('"').rsplit("-", 1)[1])


def test_served_bodies_racing_ingest_match_their_generation():
    """Readers go through the HTTP dispatch (and its render memo) on
    every /v1 score route while the writer ingests, with the GIL
    handed over as often as the interpreter allows."""
    config = paper_config()
    initial = batch(3)
    batches = _batches()

    expected = {}
    accumulated = list(initial)
    for generation in range(_N_BATCHES + 1):
        plane = ColumnarStore(list(accumulated))
        values = score_values(plane, config)
        trees = score_regions(plane, config)
        expected[generation] = {
            "/v1/scores": values,
            "/v1/national": national_score(
                values, {region: 1.0 for region in values}
            ).value,
            **{
                f"/v1/scores/{region}": json.loads(
                    json.dumps(trees[region].to_dict())
                )
                for region in _REGIONS
            },
        }
        if generation < _N_BATCHES:
            accumulated.extend(batches[generation])

    service = ScoringService(ColumnarStore(initial), config)
    server = ServeServer(service, registry=MetricsRegistry())
    stop = threading.Event()
    served = [[] for _ in range(_N_READERS)]
    failures = []

    def served_value(path, document):
        if path == "/v1/scores":
            return document["regions"]
        if path == "/v1/national":
            return document["national"]
        return document["breakdown"]

    def reader(slot):
        turn = slot
        while not stop.is_set():
            path = _PATHS[turn % len(_PATHS)]
            turn += 1
            response = server.dispatch(path, {})
            if response.status != 200:
                failures.append((slot, path, response.status))
                return
            document = json.loads(response.body)
            generation = document["generation"]
            if _etag_generation(response.headers["ETag"]) != generation:
                failures.append((slot, path, "etag", generation))
                return
            if served_value(path, document) != expected[generation][path]:
                failures.append((slot, path, "value", generation))
                return
            served[slot].append((path, generation, response.body))

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(_N_READERS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for generation, records in enumerate(batches):
            # Let every route be read at this generation before moving on.
            wanted = len(served[0]) + 2 * len(_PATHS)
            waited = threading.Event()
            for _ in range(2000):
                if len(served[0]) >= wanted or failures:
                    break
                waited.wait(0.005)
            assert service.ingest(records) == len(records)
            assert service.generation == generation + 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    assert failures == []
    bodies = {}
    for reads in served:
        assert reads, "reader made no observations"
        for path in _PATHS:
            stamps = [generation for p, generation, _ in reads if p == path]
            assert stamps == sorted(stamps), path
        for path, generation, body in reads:
            bodies.setdefault((path, generation), set()).add(body)
    # One body per (path, generation), however many threads read it.
    assert {key: len(found) for key, found in bodies.items()} == dict.fromkeys(
        bodies, 1
    )
    assert max(generation for _, generation in bodies) >= _N_BATCHES - 1
    final = json.loads(server.dispatch("/v1/scores", {}).body)
    assert final["generation"] == _N_BATCHES
    assert final["regions"] == expected[_N_BATCHES]["/v1/scores"]
