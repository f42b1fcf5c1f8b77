"""Cross-process trace stitching: engine -> cluster workers -> serve.

The acceptance property (ISSUE 10): a traced request produces **one
connected span tree** -- a single root, zero orphans -- even when parts
of the work ran in forked cluster worker processes, and a worker killed
mid-span leaves a ``status="truncated"`` marker instead of a hole or a
hang.

All tests drive the process-wide ``obs_trace.tracer`` (that is the one
the instrumented code paths read) and restore it in ``finally`` blocks
so the rest of the suite sees tracing disabled.
"""

import os
import threading

import numpy as np
import pytest

from repro.cluster import ClusterExecutor, ClusterFaultInjector, ClusterPolicy
from repro.encoding.conv_encoding import ConvShape
from repro.obs import trace as obs_trace
from repro.obs.export import forest, summarize, to_chrome_trace
from repro.runtime import BatchedHConvEngine
from repro.serve import InferenceServer, ServeConfig
from repro.serve.messages import conv_request, decode_reply

N = 64
SHAPE = ConvShape.square(1, 4, 1, 3, padding=1)


def conv_inputs(seed=0, batch=4):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-7, 8, size=(batch, 1, 4, 4))
    w = rng.integers(-3, 4, size=(1, 1, 3, 3))
    return xs, w


def _traced(capacity=4096):
    tracer = obs_trace.tracer
    tracer.enable(capacity=capacity)
    tracer.clear()
    return tracer


def _restore(tracer):
    tracer.drain()
    tracer.disable()


class TestClusterStitching:
    def test_cluster_spans_form_one_tree_across_processes(self):
        xs, w = conv_inputs()
        tracer = _traced()
        try:
            policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
            with ClusterExecutor(policy=policy) as ex:
                with tracer.span("test.root"):
                    got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            records = tracer.drain()
        finally:
            _restore(tracer)
        assert np.array_equal(
            got, BatchedHConvEngine(mode="ntt").conv2d_batch(xs, w, SHAPE, N)
        )
        groves = forest(records)
        assert len(groves) == 1
        (grove,) = groves.values()
        assert len(grove["roots"]) == 1
        assert grove["roots"][0]["name"] == "test.root"
        assert grove["orphans"] == []
        # Worker-side spans really crossed a process boundary.
        assert len(grove["pids"]) >= 2
        assert os.getpid() in grove["pids"]
        names = {r["name"] for r in grove["spans"]}
        assert "cluster.job" in names
        assert any(n.startswith("runtime.") for n in names)

    def test_untraced_cluster_payloads_carry_no_wire_key(self):
        # Tracing disabled: the envelope must stay byte-identical, so the
        # stamp helper must not add the key.
        payloads = [{"n": 1}]
        obs_trace.tracer.disable()
        obs_trace.stamp_trace_context(payloads)
        assert obs_trace.TRACE_CTX_KEY not in payloads[0]

    def test_worker_sigkill_mid_span_leaves_truncated_marker(self):
        xs, w = conv_inputs(seed=1)
        tracer = _traced()
        try:
            policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
            injector = ClusterFaultInjector(kill_before_jobs=[0])
            with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
                with tracer.span("test.root"):
                    got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
                deaths = ex.stats.worker_deaths
            records = tracer.drain()
        finally:
            _restore(tracer)
        # The run recovered (no hang, correct result) ...
        assert deaths >= 1
        assert np.array_equal(
            got, BatchedHConvEngine(mode="ntt").conv2d_batch(xs, w, SHAPE, N)
        )
        # ... and the killed job left a truncated span plus an incident
        # event, parented into the request tree.
        truncated = [r for r in records if r.get("status") == "truncated"]
        assert truncated, "expected a truncated cluster.job marker"
        assert truncated[0]["name"] == "cluster.job"
        events = [
            r for r in records
            if r.get("kind") == "event" and r["name"] == "cluster.worker_death"
        ]
        assert events
        groves = forest(records)
        assert sum(len(g["orphans"]) for g in groves.values()) == 0


class TestServeStitching:
    def test_each_serve_request_is_one_rooted_tree(self):
        xs, w = conv_inputs(seed=2, batch=3)
        tracer = _traced(capacity=8192)
        try:
            policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
            with ClusterExecutor(policy=policy) as ex:
                config = ServeConfig(
                    coalesce_window_s=0.005, reply_timeout_s=30.0
                )
                with InferenceServer(config, cluster=ex) as server:
                    replies = [None] * len(xs)

                    def submit(i):
                        frame = conv_request(
                            i, "tenant", "ntt", None, N, SHAPE, xs[i], w
                        )
                        replies[i] = decode_reply(server.submit(frame))

                    threads = [
                        threading.Thread(target=submit, args=(i,))
                        for i in range(len(xs))
                    ]
                    for th in threads:
                        th.start()
                    for th in threads:
                        th.join()
            records = tracer.drain()
        finally:
            _restore(tracer)
        for kind, _rid, _body in replies:
            assert kind.endswith("result")
        groves = forest(records)
        request_groves = [
            g for g in groves.values()
            if any(r["name"] == "serve.request" for r in g["spans"])
        ]
        assert len(request_groves) == len(xs)
        for grove in request_groves:
            assert len(grove["roots"]) == 1, "one root per request trace"
            assert grove["roots"][0]["name"] == "serve.request"
            assert grove["orphans"] == [], "no orphan spans after stitching"
        # At least one request's work crossed into a worker process.
        assert any(len(g["pids"]) >= 2 for g in request_groves)
        names = {
            r["name"] for g in request_groves for r in g["spans"]
        }
        assert {"serve.request", "serve.execute"} <= names

    def test_serve_trace_exports_and_summarizes(self):
        xs, w = conv_inputs(seed=3, batch=2)
        tracer = _traced()
        try:
            with InferenceServer(ServeConfig(coalesce_window_s=0.0)) as server:
                for i in range(len(xs)):
                    frame = conv_request(
                        i, "t", "ntt", None, N, SHAPE, xs[i], w
                    )
                    kind, _, _ = decode_reply(server.submit(frame))
                    assert kind.endswith("result")
            records = tracer.drain()
        finally:
            _restore(tracer)
        doc = to_chrome_trace(records)
        assert doc["traceEvents"]
        summary = summarize(records)
        assert summary["orphans"] == 0
        assert summary["by_name"]["serve.request"]["count"] == len(xs)


class TestServeHealthObservability:
    def test_health_exposes_breaker_age_and_metrics(self):
        with InferenceServer(ServeConfig()) as server:
            health = server.health()
            assert health["breaker"] == "closed"
            assert health["breaker_state_age_s"] >= 0.0
            assert health["breaker_last_transition"] is None
            metrics = health["metrics"]
            assert metrics["counters"] == {}  # nothing served yet
            assert (
                metrics["gauges"]["serve_breaker_state_code"] == 0.0
            )

    def test_breaker_transition_updates_registry_and_health(self):
        with InferenceServer(ServeConfig()) as server:
            for _ in range(server.config.breaker_failures + 1):
                server.breaker.record_failure("boom")
            health = server.health()
            assert health["breaker"] == "open"
            last = health["breaker_last_transition"]
            assert last is not None and last["to"] == "open"
            gauges = health["metrics"]["gauges"]
            assert gauges["serve_breaker_state_code"] == 1.0
            assert (
                server.metrics.counter_value(
                    "serve_breaker_transitions_total", to="open"
                )
                >= 1.0
            )

    def test_metrics_text_exposition(self):
        with InferenceServer(ServeConfig()) as server:
            text = server.metrics_text()
        assert "serve_breaker_state_code 0" in text
