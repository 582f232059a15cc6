"""The work one plane generation costs ``iqb serve``.

A generation runs one scores-only tensor pass. Each region read
rebuilds that one region's breakdown tree from the pass's row, once per
generation (a repeat read is answered from the render memo); no read
runs a ``score_regions`` sweep. Counted on the process-wide registry
(``serve.compute.sweeps`` and the ``span.score_regions`` /
``span.rebuild_breakdowns`` timers) and by the trees the kernel's
rebuild returns.
"""

import dataclasses
import json

import pytest

from repro.core import kernel
from repro.measurements.columnar import ColumnarStore
from repro.obs.registry import REGISTRY, MetricsRegistry
from repro.serve import ScoringService, ServeServer


@pytest.fixture()
def work(monkeypatch):
    """``work()`` → (sweeps, score_regions spans, rebuild_breakdowns
    spans, trees rebuilt) so far; ``work(before)`` → the gain since."""
    trees = [0]
    rebuild = kernel._rebuild

    def counting(regions, *args):
        built = rebuild(regions, *args)
        trees[0] += len(built)
        return built

    monkeypatch.setattr(kernel, "_rebuild", counting)

    def count(before=(0, 0, 0, 0)):
        now = (
            REGISTRY.counter("serve.compute.sweeps").value,
            REGISTRY.timer("span.score_regions").count,
            REGISTRY.timer("span.rebuild_breakdowns").count,
            trees[0],
        )
        return tuple(a - b for a, b in zip(now, before))

    return count


@pytest.fixture()
def server(records, config):
    """A server whose generation 0 was read, then one ingested batch."""
    service = ScoringService(ColumnarStore(list(records)), config)
    server = ServeServer(service, registry=MetricsRegistry())
    assert server.dispatch("/v1/scores", {}).status == 200
    assert server.dispatch("/v1/scores/region-000", {}).status == 200
    batch = [
        dataclasses.replace(record, region="region-new")
        for record in records[:9]
    ]
    assert service.ingest(batch) == 9
    return server


def _read(server, region):
    response = server.dispatch(f"/v1/scores/{region}", {})
    assert response.status == 200
    document = json.loads(response.body)
    assert document["generation"] == 1
    return document["breakdown"]


class TestWorkPerGeneration:
    def test_k_region_reads_cost_one_pass_and_k_rebuilds(self, server, work):
        before = work()
        early = ("region-new", "region-000", "region-002")
        late = ("region-001", "region-003")
        trees = {region: _read(server, region) for region in early}
        scores = json.loads(server.dispatch("/v1/scores", {}).body)
        trees.update((region, _read(server, region)) for region in late)
        for region in early + late:
            assert _read(server, region) == trees[region]
            assert trees[region]["score"] == scores["regions"][region]
        k = len(early + late)
        assert work(before) == (1, 0, k, k)

    def test_reads_after_the_scores_pass_rebuild_only_their_rows(
        self, server, work
    ):
        before = work()
        assert server.dispatch("/v1/scores", {}).status == 200
        assert work(before) == (1, 0, 0, 0)
        for region in ("region-001", "region-new", "region-001"):
            _read(server, region)
        assert work(before) == (1, 0, 2, 2)

    def test_unknown_region_rebuilds_none(self, server, work):
        before = work()
        assert server.dispatch("/v1/scores/atlantis", {}).status == 404
        assert work(before) == (1, 0, 0, 0)
        _read(server, "region-new")
        assert server.dispatch("/v1/scores/atlantis", {}).status == 404
        assert work(before) == (1, 0, 1, 1)
