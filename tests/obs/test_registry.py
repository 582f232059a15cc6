"""Unit tests for repro.obs.registry (counters, gauges, timers)."""

import json

import pytest

from repro.obs.registry import (
    REGISTRY,
    Counter,
    MetricsRegistry,
    counter,
    timer,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_get_or_create_is_stable(self, registry):
        a = registry.counter("x.y")
        b = registry.counter("x.y")
        assert a is b

    def test_inc(self, registry):
        c = registry.counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_reset_zeroes_in_place(self, registry):
        c = registry.counter("c")
        c.inc(3)
        registry.reset()
        assert c.value == 0
        # Identity survives reset: module-level bindings stay live.
        assert registry.counter("c") is c
        c.inc()
        assert registry.snapshot()["counters"]["c"] == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("g")
        g.set(10.0)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5

    def test_reset(self, registry):
        g = registry.gauge("g")
        g.set(7.0)
        registry.reset()
        assert g.value == 0.0
        assert registry.gauge("g") is g


class TestTimer:
    def test_observe_accumulates(self, registry):
        t = registry.timer("t")
        for value in (0.1, 0.2, 0.3):
            t.observe(value)
        assert t.count == 3
        assert t.total == pytest.approx(0.6)
        assert t.mean == pytest.approx(0.2)
        assert t.quantile(100.0) == pytest.approx(0.3)

    def test_empty_timer_has_no_quantiles(self, registry):
        t = registry.timer("t")
        assert t.count == 0
        assert t.mean is None
        assert t.quantile(50.0) is None

    def test_time_context_manager(self, registry):
        t = registry.timer("t")
        with t.time():
            pass
        assert t.count == 1
        assert t.total >= 0.0

    def test_reset_drops_observations(self, registry):
        t = registry.timer("t")
        t.observe(1.0)
        registry.reset()
        assert t.count == 0
        assert t.quantile(50.0) is None
        assert registry.timer("t") is t


class TestTimerExemplars:
    """The slow-outlier pointer: exemplar of the largest observation."""

    def test_exemplar_tracks_the_maximum(self, registry):
        t = registry.timer("t")
        t.observe(0.1, exemplar="fast-span")
        t.observe(0.9, exemplar="slow-span")
        t.observe(0.5, exemplar="middling-span")
        assert t.max_value == pytest.approx(0.9)
        assert t.exemplar == "slow-span"

    def test_exemplar_free_observations_leave_it_unset(self, registry):
        t = registry.timer("t")
        t.observe(0.5)
        assert t.exemplar is None

    def test_new_maximum_without_exemplar_keeps_old_pointer(
        self, registry
    ):
        # A bare observation can displace the max; the stale span id is
        # still the best pointer available, so it survives.
        t = registry.timer("t")
        t.observe(0.1, exemplar="small-span")
        t.observe(5.0)
        assert t.max_value == pytest.approx(5.0)
        assert t.exemplar == "small-span"

    def test_snapshot_emits_exemplar_only_when_set(self, registry):
        registry.timer("bare").observe(0.1)
        registry.timer("tagged").observe(0.2, exemplar="abc123")
        timers = registry.snapshot()["timers"]
        assert "exemplar" not in timers["bare"]
        assert timers["tagged"]["exemplar"] == "abc123"

    def test_reset_clears_exemplar(self, registry):
        t = registry.timer("t")
        t.observe(1.0, exemplar="gone")
        registry.reset()
        assert t.exemplar is None

    def test_span_exit_attaches_span_id_as_exemplar(self):
        from repro.obs import REGISTRY, span

        with span("exemplar_unit_test") as s:
            pass
        assert REGISTRY.timer("span.exemplar_unit_test").exemplar == (
            s.span_id
        )


class TestSnapshot:
    def test_structure(self, registry):
        registry.counter("a").inc(2)
        registry.gauge("b").set(1.5)
        registry.timer("c").observe(0.25)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 1.5}
        stats = snap["timers"]["c"]
        assert stats["count"] == 1
        assert stats["total_s"] == pytest.approx(0.25)
        assert stats["p50_s"] == pytest.approx(0.25)
        assert stats["p95_s"] == pytest.approx(0.25)
        assert stats["max_s"] == pytest.approx(0.25)

    def test_snapshot_is_json_compatible(self, registry):
        registry.counter("a").inc()
        registry.timer("t").observe(0.5)
        parsed = json.loads(registry.render_json())
        assert parsed["counters"]["a"] == 1

    def test_render_text_lists_every_instrument(self, registry):
        registry.counter("hits").inc(9)
        registry.gauge("depth").set(3.0)
        registry.timer("lat").observe(0.001)
        registry.timer("idle")  # never observed
        text = registry.render_text()
        assert "counter hits = 9" in text
        assert "gauge   depth = 3.0" in text
        assert "timer   lat: n=1" in text
        assert "timer   idle: n=0" in text

    def test_iter_yields_all_names(self, registry):
        registry.counter("c")
        registry.gauge("g")
        registry.timer("t")
        assert list(registry) == ["c", "g", "t"]


class TestDefaultRegistry:
    def test_module_helpers_target_default_registry(self):
        c = counter("test_registry.module_helper")
        assert isinstance(c, Counter)
        assert REGISTRY.counter("test_registry.module_helper") is c
        t = timer("test_registry.module_timer")
        assert REGISTRY.timer("test_registry.module_timer") is t
