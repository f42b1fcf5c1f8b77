"""Unit tests for repro.obs: tracer, exporters, and metrics registry.

These tests use private :class:`Tracer` instances wherever possible so
they never perturb the process-wide ``obs_trace.tracer`` that the rest
of the suite's instrumented code paths read.
"""

import json
import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.export import (
    forest,
    from_chrome_trace,
    summarize,
    to_chrome_trace,
    to_folded,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, TRACE_CTX_KEY, Tracer


class TestDisabledPath:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        t = Tracer()
        span = t.span("x", attr=1)
        assert span is NOOP_SPAN
        assert t.span("y") is span  # no allocation per call

    def test_noop_span_api_is_inert(self):
        with NOOP_SPAN as s:
            assert s.set(a=1) is s
            assert s.context() is None
            s.end("error")

    def test_disabled_records_nothing(self):
        t = Tracer()
        with t.span("x"):
            pass
        t.event("e")
        assert t.record_span("y", 0.0, 1.0) is None
        assert t.records() == []
        assert t.current_context() is None

    def test_traced_decorator_calls_through_when_disabled(self):
        calls = []

        @obs_trace.traced("obs.test_fn")
        def fn(a, b=2):
            calls.append((a, b))
            return a + b

        assert fn.__name__ == "fn"
        obs_trace.tracer.disable()
        assert fn(1, b=3) == 4
        assert calls == [(1, 3)]


class TestEnabledPath:
    def test_nesting_infers_parent_links(self):
        t = Tracer().enable()
        with t.span("root") as root:
            assert t.current_context() == root.context()
            with t.span("child") as child:
                with t.span("leaf"):
                    pass
            assert child.parent_id == root.span_id
        records = {r["name"]: r for r in t.records()}
        assert records["root"]["parent"] is None
        assert records["child"]["parent"] == records["root"]["span"]
        assert records["leaf"]["parent"] == records["child"]["span"]
        assert len({r["trace"] for r in records.values()}) == 1

    def test_exception_marks_error_status(self):
        t = Tracer().enable()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("x")
        (record,) = t.records()
        assert record["status"] == "error"

    def test_end_is_idempotent(self):
        t = Tracer().enable()
        span = t.span("once")
        span.end()
        span.end("error")
        (record,) = t.records()
        assert record["status"] == "ok"

    def test_ring_buffer_is_bounded(self):
        t = Tracer(capacity=4).enable()
        for i in range(10):
            with t.span("s%d" % i):
                pass
        records = t.records()
        assert len(records) == 4
        assert [r["name"] for r in records] == ["s6", "s7", "s8", "s9"]

    def test_drain_empties_and_ingest_restores(self):
        t = Tracer().enable()
        with t.span("a"):
            pass
        drained = t.drain()
        assert t.records() == []
        assert t.ingest(drained + ["junk", {"no": "ids"}]) == 1
        assert [r["name"] for r in t.records()] == ["a"]

    def test_record_span_parents_to_explicit_context(self):
        t = Tracer().enable()
        with t.span("root") as root:
            ctx = root.context()
        got = t.record_span(
            "manual", 1.0, 2.5, parent=ctx, status="truncated", slot=3
        )
        assert got is not None
        manual = [r for r in t.records() if r["name"] == "manual"][0]
        assert manual["parent"] == ctx[1]
        assert manual["trace"] == ctx[0]
        assert manual["status"] == "truncated"
        assert manual["dur"] == pytest.approx(1.5)

    def test_ids_unique_and_pid_tagged(self):
        t = Tracer().enable()
        ids = set()
        for _ in range(100):
            with t.span("s"):
                pass
        for r in t.records():
            assert r["span"] not in ids
            ids.add(r["span"])


class TestWireContext:
    def test_stamp_is_a_noop_without_an_active_span(self):
        obs_trace.tracer.disable()
        payloads = [{"n": 1}]
        obs_trace.stamp_trace_context(payloads)
        assert payloads == [{"n": 1}]  # byte-identical envelope

    def test_stamp_and_pop_round_trip(self):
        tracer = obs_trace.tracer
        tracer.enable(capacity=64)
        tracer.clear()
        try:
            with tracer.span("root") as root:
                payloads = [{"n": 1}, {"n": 2}]
                obs_trace.stamp_trace_context(payloads)
                assert all(TRACE_CTX_KEY in p for p in payloads)
                ctx = obs_trace.pop_trace_context(payloads[0])
                assert ctx == root.context()
                assert TRACE_CTX_KEY not in payloads[0]
        finally:
            tracer.drain()
            tracer.disable()

    def test_pop_tolerates_garbage(self):
        assert obs_trace.pop_trace_context(None) is None
        assert obs_trace.pop_trace_context({"x": 1}) is None
        assert obs_trace.pop_trace_context({TRACE_CTX_KEY: "bad"}) is None

    def test_reset_for_fork_rebinds_a_fresh_disabled_tracer(self):
        before = obs_trace.tracer
        before.enable(capacity=16)
        try:
            fresh = obs_trace.reset_for_fork()
            assert fresh is obs_trace.tracer
            assert fresh is not before
            assert not fresh.enabled
        finally:
            obs_trace.reset_for_fork()


class TestIncidentDumps:
    def test_incident_event_dumps_the_ring(self, tmp_path):
        t = Tracer().enable(incident_dir=str(tmp_path))
        with t.span("work"):
            pass
        t.event("worker_death", incident=True, slot=0)
        dumps = list(tmp_path.glob("obs-incident-*.json"))
        assert len(dumps) == 1
        records = from_chrome_trace(json.loads(dumps[0].read_text()))
        names = {r["name"] for r in records}
        assert {"work", "worker_death"} <= names

    def test_non_incident_event_does_not_dump(self, tmp_path):
        t = Tracer().enable(incident_dir=str(tmp_path))
        t.event("routine")
        assert list(tmp_path.glob("*.json")) == []


class TestExport:
    def _sample_records(self):
        t = Tracer().enable()
        with t.span("root", mode="ntt"):
            with t.span("child"):
                pass
            t.event("ping")
        return t.drain()

    def test_chrome_trace_round_trips_exactly(self):
        records = self._sample_records()
        doc = to_chrome_trace(records)
        assert doc["displayTimeUnit"] == "ms"
        back = from_chrome_trace(doc)
        for orig, got in zip(
            sorted(records, key=lambda r: r["span"]),
            sorted(back, key=lambda r: r["span"]),
        ):
            for key in ("name", "trace", "span", "parent", "status", "kind"):
                assert got[key] == orig[key]
            assert got["ts"] == pytest.approx(orig["ts"])
            assert got["dur"] == pytest.approx(orig["dur"])
        child = [r for r in back if r["name"] == "root"][0]
        assert child["attrs"]["mode"] == "ntt"

    def test_write_chrome_trace(self, tmp_path):
        records = self._sample_records()
        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), records) == len(records)
        assert len(from_chrome_trace(json.loads(path.read_text()))) == len(
            records
        )

    def test_forest_classifies_roots_and_orphans(self):
        records = self._sample_records()
        # Fabricate an orphan: parent id that exists nowhere.
        orphan = dict(records[0], span=999999, parent=888888, name="lost")
        groves = forest(records + [orphan])
        grove = groves[records[0]["trace"]]
        assert len(grove["roots"]) == 1
        assert [r["name"] for r in grove["orphans"]] == ["lost"]

    def test_folded_self_time_excludes_children(self):
        t = Tracer().enable()
        root = t.span("root")
        child = t.span("child")
        child.start_s = 10.0
        child.end()
        root.start_s = 10.0
        root.end()
        records = t.drain()
        by_name = {r["name"]: r for r in records}
        by_name["root"]["dur"] = 0.005
        by_name["child"]["dur"] = 0.003
        folded = dict(
            line.rsplit(" ", 1) for line in to_folded(records).splitlines()
        )
        assert int(folded["root"]) == 2000
        assert int(folded["root;child"]) == 3000

    def test_summarize_counts_truncated_spans(self):
        t = Tracer().enable()
        t.record_span("cluster.job", 0.0, 1.0, status="truncated")
        summary = summarize(t.drain())
        assert summary["truncated"] == 1
        assert summary["spans"] == 1
        assert summary["by_name"]["cluster.job"]["count"] == 1


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", kind="conv")
        reg.inc("requests_total", 2, kind="conv")
        reg.set_gauge("up", 1.0)
        reg.observe("latency_ms", 3.0)
        reg.observe("latency_ms", 7000.0)
        assert reg.counter_value("requests_total", kind="conv") == 3.0
        assert reg.gauge_value("up") == 1.0
        snap = reg.to_dict()
        cell = snap["histograms"]["latency_ms"]
        assert cell["count"] == 2
        assert cell["sum"] == pytest.approx(7003.0)
        # 3.0 lands in the le=5 bucket; 7000 overflows to +Inf.
        assert cell["counts"][list(cell["buckets"]).index(5.0)] == 1
        assert cell["counts"][-1] == 1

    def test_bucket_edge_value_uses_le_semantics(self):
        reg = MetricsRegistry(buckets=(1.0, 10.0))
        reg.observe("h", 10.0)
        assert reg.to_dict()["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(buckets=(5.0, 1.0))

    def test_to_dict_is_deterministically_ordered(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("z_total")
        a.inc("a_total", tenant="t2")
        a.inc("a_total", tenant="t1")
        b.inc("a_total", tenant="t1")
        b.inc("a_total", tenant="t2")
        b.inc("z_total")
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_to_text_emits_cumulative_buckets(self):
        reg = MetricsRegistry(buckets=(1.0, 10.0))
        reg.observe("h_ms", 0.5, kind="conv")
        reg.observe("h_ms", 5.0, kind="conv")
        text = reg.to_text()
        assert 'h_ms_bucket{kind="conv",le="1.0"} 1' in text
        assert 'h_ms_bucket{kind="conv",le="10.0"} 2' in text
        assert 'h_ms_bucket{kind="conv",le="+Inf"} 2' in text
        assert 'h_ms_count{kind="conv"} 2' in text

    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                reg.inc("hits_total")
                reg.observe("lat_ms", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert reg.counter_value("hits_total") == 8000.0
        assert reg.to_dict()["histograms"]["lat_ms"]["count"] == 8000

    def test_default_buckets_cover_sub_ms_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] == 5000.0


class TestTraceArtifactPath:
    def test_sibling_path_derivation(self):
        from repro.cli import _trace_artifact_path

        assert (
            _trace_artifact_path("out/CHAOS_serve.json")
            == "out/CHAOS_serve_trace.json"
        )
        assert _trace_artifact_path("report") == "report_trace.json"
