"""Concurrent /v1 misses against serve's one-generation caching.

The service holds the current generation's scores pass and the HTTP
layer keeps each rendered ``200``; misses that arrive while the pass
runs must share that one sweep and be served the same kept bytes.
"""

import threading
import time

import repro.serve.service as service_module
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.serve import ScoringService, ServeServer


def _counter(name):
    return REGISTRY.counter(name).value


class TestSingleFlight:
    def test_concurrent_misses_collapse_to_one_compute(
        self, store, config, monkeypatch
    ):
        computes = []
        release = threading.Event()
        sweep = service_module.scored_store

        def held_sweep(*args, **kwargs):
            computes.append(threading.get_ident())
            assert release.wait(timeout=5.0)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(service_module, "scored_store", held_sweep)
        server = ServeServer(
            ScoringService(store, config), registry=MetricsRegistry()
        )
        sweeps = _counter("serve.compute.sweeps")
        misses = _counter("serve.cache.misses")
        responses = []

        def worker():
            responses.append(server.dispatch("/v1/scores", {}))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Nothing is kept while the sweep is held, so every read is a
        # miss; release only once all eight have missed.
        deadline = time.time() + 5.0
        while (
            _counter("serve.cache.misses") < misses + 8
            and time.time() < deadline
        ):
            time.sleep(0.01)
        assert _counter("serve.cache.misses") == misses + 8
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(computes) == 1
        assert _counter("serve.compute.sweeps") == sweeps + 1
        assert len(responses) == 8
        assert all(r.status == 200 for r in responses)
        assert all(r is responses[0] for r in responses)
        assert server.dispatch("/v1/scores", {}) is responses[0]
        assert len(computes) == 1
