"""trace_run wiring: manifest first, metrics last, context installation."""

import json

import pytest

from repro.obs.manifest import collect_manifest
from repro.obs.metrics import current_registry, inc
from repro.obs.run import trace_run
from repro.obs.sinks import MemorySink
from repro.obs.trace import current_tracer, span


class TestTraceRun:
    def test_installs_tracer_and_registry(self):
        sink = MemorySink()
        assert current_tracer() is None
        with trace_run(sink) as tracer:
            assert current_tracer() is tracer
            assert current_registry() is not None
        assert current_tracer() is None
        assert current_registry() is None

    def test_manifest_first_metrics_last(self):
        sink = MemorySink()
        manifest = collect_manifest("test", seed=3)
        with trace_run(sink, manifest=manifest):
            with span("work"):
                inc("things", 2)
        assert sink.records[0]["type"] == "manifest"
        assert sink.records[0]["seed"] == 3
        assert sink.records[-1]["type"] == "metrics"
        assert sink.records[-1]["metrics"]["counters"]["things"] == 2.0

    def test_metrics_snapshot_survives_exceptions(self):
        sink = MemorySink()
        with pytest.raises(RuntimeError):
            with trace_run(sink):
                inc("partial")
                raise RuntimeError("boom")
        assert sink.records[-1]["type"] == "metrics"
        assert sink.records[-1]["metrics"]["counters"]["partial"] == 1.0

    def test_path_opens_and_closes_jsonl_sink(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with trace_run(path):
            with span("work"):
                pass
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["type"] for r in lines] == ["span", "metrics"]

    def test_memory_sink_not_closed_by_trace_run(self):
        sink = MemorySink()
        with trace_run(sink):
            pass
        assert not sink.closed  # caller-owned sink stays open


class TestMappingPipelineSpans:
    def test_routing_and_table_spans(self, topo8):
        from repro.core.scheduler import CommunicationAwareScheduler
        from repro.distance.cache import cache_enabled, configure_cache

        was_enabled = cache_enabled()
        configure_cache(enabled=False)
        try:
            sink = MemorySink()
            with trace_run(sink):
                CommunicationAwareScheduler(topo8)
        finally:
            configure_cache(enabled=was_enabled)
        (routing,) = sink.by_name("routing.build")
        (table,) = sink.by_name("distance.table")
        assert routing["attrs"]["routing"] == table["attrs"]["routing"] \
            == "updown"
        assert routing["attrs"]["switches"] == 8

    def test_cache_hit_builds_no_table(self, topo8):
        from repro.core.scheduler import CommunicationAwareScheduler
        from repro.distance.cache import cache_enabled, configure_cache

        was_enabled = cache_enabled()
        configure_cache(enabled=True)
        try:
            CommunicationAwareScheduler(topo8)   # fills the cache
            sink = MemorySink()
            with trace_run(sink):
                CommunicationAwareScheduler(topo8)
        finally:
            configure_cache(enabled=was_enabled)
        assert len(sink.by_name("routing.build")) == 1
        assert sink.by_name("distance.table") == []
