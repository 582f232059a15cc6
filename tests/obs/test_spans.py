"""Unit tests for repro.obs.spans (nesting, timing, error paths)."""

import re

import pytest

from repro.obs import REGISTRY, current_span, span


class TestSpan:
    def test_records_duration_into_timer(self):
        t = REGISTRY.timer("span.unit_test_stage")
        before = t.count
        with span("unit_test_stage"):
            pass
        assert t.count == before + 1

    def test_duration_populated_on_exit(self):
        with span("outer") as s:
            assert s.duration is None
        assert s.duration is not None
        assert s.duration >= 0.0

    def test_nesting_builds_paths_and_depths(self):
        with span("parent") as parent:
            assert parent.path == "parent"
            assert parent.depth == 0
            with span("child") as child:
                assert child.path == "parent/child"
                assert child.depth == 1
                with span("grandchild") as grandchild:
                    assert grandchild.path == "parent/child/grandchild"
                    assert grandchild.depth == 2

    def test_current_span_tracks_stack(self):
        assert current_span() is None
        with span("a") as a:
            assert current_span() is a
            with span("b") as b:
                assert current_span() is b
            assert current_span() is a
        assert current_span() is None

    def test_exception_propagates_and_pops_stack(self):
        with pytest.raises(RuntimeError, match="boom"):
            with span("failing"):
                raise RuntimeError("boom")
        assert current_span() is None

    def test_annotate_merges_fields(self):
        with span("stage", items=3) as s:
            s.annotate(regions=2)
        assert s.fields == {"items": 3, "regions": 2}


class TestTraceContext:
    """trace_id/span_id/parent_id wiring along the span stack."""

    def test_root_span_mints_a_trace(self):
        with span("root") as root:
            assert re.fullmatch(r"[0-9a-f]{16}", root.trace_id)
            assert re.fullmatch(r"[0-9a-f]{16}", root.span_id)
            assert root.parent_id is None

    def test_children_inherit_trace_and_parent(self):
        with span("root") as root:
            with span("child") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                assert child.span_id != root.span_id
                with span("grandchild") as grandchild:
                    assert grandchild.trace_id == root.trace_id
                    assert grandchild.parent_id == child.span_id

    def test_sibling_roots_start_distinct_traces(self):
        with span("first") as first:
            pass
        with span("second") as second:
            pass
        assert first.trace_id != second.trace_id

    def test_current_trace_context_follows_stack(self):
        # A new span takes its context from the innermost open span:
        # closing a child hands it back to the parent, and closing the
        # root leaves none, so the next span starts a trace of its own.
        with span("a") as a:
            with span("b") as b:
                with span("c") as c:
                    assert (c.trace_id, c.parent_id) == (a.trace_id, b.span_id)
            with span("d") as d:
                assert (d.trace_id, d.parent_id) == (a.trace_id, a.span_id)
        with span("e") as e:
            assert e.parent_id is None
            assert e.trace_id != a.trace_id


class TestStackRepair:
    """Out-of-order exits must not corrupt later spans on the thread."""

    def _mismatch(self):
        return REGISTRY.counter("span.stack.mismatch")

    def test_out_of_order_exit_pops_stale_entries(self):
        before = self._mismatch().value
        outer = span("repair_outer")
        outer.__enter__()
        stale_a = span("repair_stale_a")
        stale_a.__enter__()
        stale_b = span("repair_stale_b")
        stale_b.__enter__()
        # The outer scope unwinds while two abandoned spans still sit
        # above it (the generator-GC shape): both stale entries must go.
        outer.__exit__(None, None, None)
        assert current_span() is None
        assert self._mismatch().value == before + 2

    def test_later_spans_see_clean_paths_after_repair(self):
        outer = span("repair2_outer")
        outer.__enter__()
        span("repair2_stale").__enter__()
        outer.__exit__(None, None, None)
        with span("repair2_later") as later:
            assert later.path == "repair2_later"
            assert later.depth == 0

    def test_exit_of_span_not_on_stack_counts_one_mismatch(self):
        ghost = span("repair_ghost")
        ghost.__enter__()
        ghost.__exit__(None, None, None)  # normal exit
        before = self._mismatch().value
        ghost.__exit__(None, None, None)  # double exit: not on stack
        assert self._mismatch().value == before + 1
        assert current_span() is None

    def test_double_exit_leaves_unrelated_stack_alone(self):
        ghost = span("repair_ghost2")
        ghost.__enter__()
        ghost.__exit__(None, None, None)
        with span("repair_live") as live:
            ghost.__exit__(None, None, None)
            assert current_span() is live

    def test_abandoned_generator_scenario(self):
        before = self._mismatch().value

        def holds_span():
            with span("repair_gen_held"):
                yield

        with span("repair_gen_outer"):
            generator = holds_span()
            next(generator)  # stack: outer, held (suspended)
        # Exiting outer repaired the stack past the held span...
        assert current_span() is None
        assert self._mismatch().value == before + 1
        # ...and closing the generator later is the not-on-stack case.
        generator.close()
        assert self._mismatch().value == before + 2
        assert current_span() is None
