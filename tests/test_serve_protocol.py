"""Serve wire format and InferenceServer end-to-end behaviour.

The server contract under test: every submitted frame gets exactly one
explicit reply, results are bit-identical to the batched runtime,
admission refusals carry named reasons, the degradation ladder and
noise-budget guard rewrite modes visibly, and the circuit breaker routes
around a churning cluster and recovers -- with every transition recorded.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterExecutor, ClusterFaultInjector, ClusterPolicy
from repro.cluster.jobs import config_to_wire, encode_message
from repro.encoding import ConvShape
from repro.faults.channel import ChecksumError
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.runtime import BatchedHConvEngine
from repro.serve import InferenceServer, ServeConfig
from repro.serve.messages import (
    REP_DEADLINE,
    REP_ERROR,
    REP_PONG,
    REP_RESULT,
    REP_SHED,
    conv_request,
    decode_reply,
    decode_request,
    ping_request,
)

N = 64
SHAPE = ConvShape.square(1, 4, 1, 3, padding=1)
GOOD_CFG = ApproxFftConfig(
    n=N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)


def conv_inputs(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(-8, 8, size=(1, 4, 4))
    w = rng.integers(-3, 4, size=(1, 1, 3, 3))
    return x, w


def serve(**overrides):
    defaults = dict(coalesce_window_s=0.0, reply_timeout_s=10.0)
    defaults.update(overrides)
    return InferenceServer(ServeConfig(**defaults))


class TestMessages:
    def test_conv_request_round_trip(self):
        x, w = conv_inputs()
        frame = conv_request(
            7, "acme", "sparse", GOOD_CFG, N, SHAPE, x, w, deadline_at=12.5
        )
        kind, request_id, payload = decode_request(frame)
        assert kind == "serve-conv"
        assert request_id == 7
        assert payload["tenant"] == "acme"
        assert payload["mode"] == "sparse"
        assert payload["config"] == config_to_wire(GOOD_CFG)
        assert payload["deadline_at"] == 12.5
        assert np.array_equal(payload["x"], x)
        assert np.array_equal(payload["w"], w)

    def test_corrupt_frame_raises_checksum_error(self):
        x, w = conv_inputs()
        frame = bytearray(conv_request(1, "t", "ntt", None, N, SHAPE, x, w))
        frame[len(frame) // 2] ^= 0x10
        with pytest.raises(ChecksumError):
            decode_request(bytes(frame))

    def test_reply_kinds_are_rejected_as_requests(self):
        from repro.serve.messages import shed_reply

        # A reply kind, and the retired serve-mul request kind.
        frames = [
            shed_reply(1, "rate"),
            encode_message("serve-mul", 2, {"tenant": "t"}),
        ]
        for frame in frames:
            with pytest.raises(ValueError, match="unknown serve request"):
                decode_request(frame)
        with serve() as server:
            for frame in frames:
                kind, _, body = decode_reply(server.submit(frame))
                assert kind == REP_ERROR
                assert body["error"].startswith("wire error")
            assert server.stats_dict()["wire_errors"] == len(frames)

    def test_request_kinds_are_rejected_as_replies(self):
        with pytest.raises(ValueError, match="unknown serve reply"):
            decode_reply(ping_request(1))


class TestServerConv:
    def test_result_bit_identical_to_engine_ntt(self):
        x, w = conv_inputs(1)
        expected = BatchedHConvEngine(mode="ntt").conv2d_batch(
            x[None], w, SHAPE, N
        )[0]
        with serve() as server:
            kind, rid, body = decode_reply(
                server.submit(conv_request(3, "t", "ntt", None, N, SHAPE, x, w))
            )
        assert kind == REP_RESULT
        assert rid == 3
        assert body["mode"] == "ntt"
        assert body["path"] == "serial"
        assert body["degraded"] is False
        assert body["latency_s"] >= 0.0
        assert np.array_equal(body["out"], expected)

    def test_result_bit_identical_to_engine_sparse(self):
        x, w = conv_inputs(2)
        expected = BatchedHConvEngine(
            mode="sparse", weight_config=GOOD_CFG
        ).conv2d_batch(x[None], w, SHAPE, N)[0]
        with serve() as server:
            kind, _, body = decode_reply(
                server.submit(
                    conv_request(1, "t", "sparse", GOOD_CFG, N, SHAPE, x, w)
                )
            )
        assert kind == REP_RESULT
        assert body["mode"] == "sparse"
        assert np.array_equal(body["out"], expected)

    def test_concurrent_compatible_requests_coalesce(self):
        xs = [conv_inputs(seed)[0] for seed in range(4)]
        _, w = conv_inputs(0)
        expected = BatchedHConvEngine(mode="ntt").conv2d_batch(
            np.stack(xs), w, SHAPE, N
        )
        replies = [None] * len(xs)

        with serve(coalesce_window_s=0.25, max_batch=4) as server:
            def client(i):
                replies[i] = decode_reply(server.submit(
                    conv_request(i, "t", "ntt", None, N, SHAPE, xs[i], w)
                ))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(xs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats_dict()

        for i, (kind, rid, body) in enumerate(replies):
            assert kind == REP_RESULT
            assert np.array_equal(body["out"], expected[rid])
        # All four arrived within the window: at least one real batch formed.
        assert stats["largest_batch"] >= 2
        assert stats["batched_requests"] == 4
        assert stats["accounting"]["unaccounted"] == 0


class TestWorkConservingCoalescer:
    """The coalescer holds a batch open only while another request is on
    its way in: ``coalesce_window_s`` is an upper bound, not a fixed
    wait, so a lone request runs at once."""

    WINDOW_S = 0.5

    def timed_submit(self, server, request_id, tenant="t"):
        x, w = conv_inputs(request_id)
        start = time.monotonic()
        reply = decode_reply(server.submit(
            conv_request(request_id, tenant, "ntt", None, N, SHAPE, x, w)
        ))
        return reply, time.monotonic() - start

    def test_lone_request_runs_without_the_window(self):
        with serve(coalesce_window_s=self.WINDOW_S) as server:
            for request_id in (1, 2):
                (kind, rid, _), elapsed = self.timed_submit(
                    server, request_id
                )
                assert (kind, rid) == (REP_RESULT, request_id)
                assert elapsed < self.WINDOW_S / 2

    def test_every_exit_path_ends_the_way_in(self):
        # Each non-queued exit (rate shed, infeasible shed, ping, wire
        # error, an exception inside admission) must take its request off
        # the on-the-way count; one that did not would hold every later
        # batch open for the full window.
        x, w = conv_inputs()
        corrupt = bytearray(conv_request(5, "t", "ntt", None, N, SHAPE, x, w))
        corrupt[len(corrupt) // 2] ^= 0x10
        with serve(
            coalesce_window_s=self.WINDOW_S, tenant_rate=0.5, tenant_burst=1
        ) as server:
            (kind, _, _), _ = self.timed_submit(server, 1, tenant="flood")
            assert kind == REP_RESULT
            (kind, _, body), _ = self.timed_submit(server, 2, tenant="flood")
            assert (kind, body["reason"]) == (REP_SHED, "rate")
            kind, _, body = decode_reply(server.submit(conv_request(
                3, "late", "ntt", None, N, SHAPE, x, w,
                deadline_at=time.monotonic() - 1.0,
            )))
            assert (kind, body["reason"]) == (REP_SHED, "infeasible")
            assert decode_reply(server.submit(ping_request(4)))[0] == REP_PONG
            assert decode_reply(server.submit(bytes(corrupt)))[0] == REP_ERROR

            admit = server.admission.admit

            def broken_admit(tenant):
                raise RuntimeError("admission fault")

            server.admission.admit = broken_admit
            with pytest.raises(RuntimeError, match="admission fault"):
                self.timed_submit(server, 6)
            server.admission.admit = admit

            (kind, rid, _), elapsed = self.timed_submit(
                server, 7, tenant="polite"
            )
            stats = server.stats_dict()
        assert (kind, rid) == (REP_RESULT, 7)
        assert elapsed < self.WINDOW_S / 2
        assert stats["wire_errors"] == 1

    def test_count_survives_concurrent_submits(self):
        # More client threads than cores, with a short switch interval so
        # increments and decrements interleave: a lost update would leave
        # the count above zero and hold every later batch for the window.
        clients, convs = 6, 3
        x, w = conv_inputs()
        corrupt = bytearray(conv_request(0, "t", "ntt", None, N, SHAPE, x, w))
        corrupt[len(corrupt) // 2] ^= 0x10
        kinds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serve(coalesce_window_s=0.05, max_batch=4) as server:
                def client(i):
                    frames = [bytes(corrupt), ping_request(i)] + [
                        conv_request(
                            10 * i + j, f"t{i}", "ntt", None, N, SHAPE, x, w
                        )
                        for j in range(convs)
                    ]
                    for frame in frames:
                        kinds.append(decode_reply(server.submit(frame))[0])

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert server._on_way == 0
        finally:
            sys.setswitchinterval(interval)
        # Read after close: the coalescer books a result just after the
        # client wakes, so only a drained server has settled books.
        stats = server.stats_dict()
        assert kinds.count(REP_ERROR) == clients
        assert kinds.count(REP_PONG) == clients
        assert kinds.count(REP_RESULT) == clients * convs
        assert stats["accounting"]["unaccounted"] == 0


def malformed_conv(request_id, drop=(), **fields):
    """A CRC-valid ``serve-conv`` frame whose payload lacks ``drop`` and
    has ``fields`` overridden: a client bug, not a corrupted frame."""
    x, w = conv_inputs(request_id)
    _, _, payload = decode_request(
        conv_request(request_id, "t", "sparse", GOOD_CFG, N, SHAPE, x, w)
    )
    for field in drop:
        del payload[field]
    payload.update(fields)
    return encode_message("serve-conv", request_id, payload)


class TestMalformedFrames:
    """A CRC-valid frame with a bad payload is a wire error: answered,
    counted, never admitted, and harmless to the next request."""

    REPLY_TIMEOUT_S = 2.0

    def assert_rejected_then_serves(self, frame):
        x, w = conv_inputs()
        with serve(reply_timeout_s=self.REPLY_TIMEOUT_S) as server:
            kind, _, body = decode_reply(server.submit(frame))
            assert kind == REP_ERROR
            assert body["error"].startswith("wire error")
            assert server.admission.depth() == 0
            start = time.monotonic()
            kind, _, _ = decode_reply(server.submit(
                conv_request(2, "t", "ntt", None, N, SHAPE, x, w)
            ))
            elapsed = time.monotonic() - start
            stats = server.stats_dict()
        assert kind == REP_RESULT
        assert elapsed < self.REPLY_TIMEOUT_S
        assert stats["wire_errors"] == 1
        assert stats["accounting"]["unaccounted"] == 0

    @pytest.mark.parametrize("field", ["mode", "n", "shape"])
    def test_missing_admission_field(self, field):
        # Read before admission: a missing one must not escape submit()
        # with the tenant's admission slot still held.
        self.assert_rejected_then_serves(malformed_conv(1, drop=(field,)))

    @pytest.mark.parametrize("field", ["config", "w"])
    def test_missing_execution_field(self, field):
        # Read by the coalescer: a missing one must not kill its thread.
        self.assert_rejected_then_serves(malformed_conv(1, drop=(field,)))

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"tenant": 7}, "'tenant'"),
            ({"mode": "fast"}, "'mode'"),
            ({"n": 0}, "'n'"),
            ({"n": 48}, "'n'"),
            ({"shape": (1, 4, 4, 1, 3, 3, 1)}, "'shape'"),
            ({"shape": (1, 4, 4, 1, 3, 3, 0, 1)}, "invalid shape"),
            ({"config": (32, (27,))}, "'config'"),
            ({"config": None}, "'config'"),
            ({"x": np.zeros((1, 4, 5), dtype=np.int64)}, "'x'"),
            ({"w": np.zeros((1, 1, 3, 3))}, "'w'"),
            ({"deadline_at": "soon"}, "'deadline_at'"),
            ({"deadline_at": float("nan")}, "'deadline_at'"),
        ],
        ids=[
            "tenant", "mode", "n", "n-not-pow2", "shape-len",
            "shape-stride", "config", "config-missing-for-sparse",
            "x-shape", "w-float", "deadline", "deadline-nan",
        ],
    )
    def test_decode_names_the_bad_field(self, fields, match):
        with pytest.raises(ValueError, match=match):
            decode_request(malformed_conv(1, **fields))

    def test_non_int_request_id(self):
        import pickle

        from repro.faults.channel import encode_frame

        _, _, payload = decode_request(malformed_conv(1))
        frame = encode_frame(1, pickle.dumps(("serve-conv", None, payload)))
        self.assert_rejected_then_serves(frame)

    def test_failed_plan_is_answered_and_the_coalescer_lives(self):
        x, w = conv_inputs()
        with serve(reply_timeout_s=self.REPLY_TIMEOUT_S) as server:
            plan = server._effective_plan

            def broken_plan(pending):
                server._effective_plan = plan
                raise RuntimeError("plan fault")

            server._effective_plan = broken_plan
            kind, _, body = decode_reply(server.submit(
                conv_request(1, "t", "ntt", None, N, SHAPE, x, w)
            ))
            assert (kind, body["error"]) == (
                REP_ERROR, "RuntimeError: plan fault"
            )
            kind, _, _ = decode_reply(server.submit(
                conv_request(2, "t", "ntt", None, N, SHAPE, x, w)
            ))
            stats = server.stats_dict()
        assert kind == REP_RESULT
        assert stats["reply_timeouts"] == 0
        assert stats["accounting"]["unaccounted"] == 0


class TestAdmissionOnCallersThread:
    def test_tenant_queue_limit_binds_above_eight_clients(self):
        # Admission runs on each caller's thread, so every client reaches
        # the bounded queues at once: with the coalescer held, 10 of 12
        # clients are admitted and the other 2 are shed, none wait unseen.
        clients, limit = 12, 10
        x, w = conv_inputs()
        release = threading.Event()
        replies = [None] * clients
        with serve(tenant_queue_limit=limit) as server:
            execute = server._execute_conv_batch

            def held_execute(live, deadline_s):
                release.wait(timeout=30.0)
                execute(live, deadline_s)

            server._execute_conv_batch = held_execute

            def client(i):
                replies[i] = decode_reply(server.submit(
                    conv_request(i, "t", "ntt", None, N, SHAPE, x, w)
                ))

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(clients)
            ]
            for t in threads:
                t.start()
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up and (
                server.admission.depth() < limit
                or sum(r is not None for r in replies) < clients - limit
            ):
                time.sleep(0.005)
            depth = server.admission.depth()
            release.set()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            stats = server.stats_dict()
        assert depth == limit
        kinds = [kind for kind, _, _ in replies]
        assert kinds.count(REP_RESULT) == limit
        sheds = [body["reason"] for kind, _, body in replies if kind == REP_SHED]
        assert sheds == ["tenant_queue"] * (clients - limit)
        assert stats["shed"]["tenant_queue"] == clients - limit
        assert stats["accounting"]["unaccounted"] == 0


class TestAdmissionReplies:
    def test_rate_shed_is_explicit_and_isolated(self):
        x, w = conv_inputs()
        with serve(tenant_rate=0.5, tenant_burst=1) as server:
            first = decode_reply(server.submit(
                conv_request(1, "flood", "ntt", None, N, SHAPE, x, w)
            ))
            second = decode_reply(server.submit(
                conv_request(2, "flood", "ntt", None, N, SHAPE, x, w)
            ))
            other = decode_reply(server.submit(
                conv_request(3, "polite", "ntt", None, N, SHAPE, x, w)
            ))
            stats = server.stats_dict()
        assert first[0] == REP_RESULT
        assert second[0] == REP_SHED
        assert second[2]["reason"] == "rate"
        assert second[2]["retry_after_s"] > 0
        assert other[0] == REP_RESULT  # the flood never touched this bucket
        assert stats["shed"]["rate"] == 1
        assert stats["accounting"]["unaccounted"] == 0

    def test_expired_deadline_is_shed_as_infeasible(self):
        x, w = conv_inputs()
        with serve() as server:
            kind, _, body = decode_reply(server.submit(conv_request(
                1, "t", "ntt", None, N, SHAPE, x, w,
                deadline_at=time.monotonic() - 1.0,
            )))
            stats = server.stats_dict()
        assert kind == REP_SHED
        assert body["reason"] == "infeasible"
        assert stats["shed"]["infeasible"] == 1
        # Admitted then released pre-queue: the books still balance.
        assert stats["accounting"]["unaccounted"] == 0

    def test_ping_reports_health(self):
        with serve() as server:
            kind, rid, body = decode_reply(server.submit(ping_request(42)))
        assert kind == REP_PONG
        assert rid == 42
        assert body["health"]["status"] == "ok"
        assert body["health"]["ready"] is True
        assert body["health"]["breaker"] == "closed"

    def test_garbage_frame_gets_error_reply_and_is_counted(self):
        with serve() as server:
            kind, _, body = decode_reply(server.submit(b"not a frame"))
            stats = server.stats_dict()
        assert kind == REP_ERROR
        assert "wire error" in body["error"]
        assert stats["wire_errors"] == 1

    def test_submit_after_close_sheds_shutdown(self):
        x, w = conv_inputs()
        server = serve()
        server.close()
        kind, _, body = decode_reply(server.submit(
            conv_request(1, "t", "ntt", None, N, SHAPE, x, w)
        ))
        assert kind == REP_SHED
        assert body["reason"] == "shutdown"
        assert not server.ready()


class TestGuardAndLadder:
    def undersized_params(self):
        from repro.he import BfvParameters

        # Same predicted-exhaustion setup the protocol guard tests use: a
        # single 30-bit prime against t = 2^18 leaves a negative margin.
        return BfvParameters(n=64, plain_modulus=1 << 18, q_bits=(30,))

    def guard_inputs(self, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 4, size=(1, 4, 4))
        w = rng.integers(-2, 3, size=(1, 1, 3, 3))
        return x, w

    def test_guard_forces_exact_mode_and_pushes_ladder(self):
        x, w = self.guard_inputs()
        expected = BatchedHConvEngine(mode="ntt").conv2d_batch(
            x[None], w, SHAPE, N
        )[0]
        with serve(
            guard_params=self.undersized_params(), ladder_recover_after=2
        ) as server:
            kind, _, body = decode_reply(server.submit(
                conv_request(1, "acme", "sparse", GOOD_CFG, N, SHAPE, x, w)
            ))
            snapshot = server.admission.snapshot()
            guard = server._guards["acme"]
            stats = server.stats_dict()
        assert kind == REP_RESULT
        assert body["mode"] == "ntt"          # rewritten, not refused
        assert body["degraded"] is True
        assert np.array_equal(body["out"], expected)  # exact result
        assert stats["degraded"] == 1
        assert snapshot["acme"]["level"] >= 1
        assert guard.events[0].reason == "predicted"

    def test_clean_completions_climb_the_ladder_back(self):
        x, w = self.guard_inputs(1)
        with serve(
            guard_params=self.undersized_params(), ladder_recover_after=2
        ) as server:
            decode_reply(server.submit(
                conv_request(1, "acme", "sparse", GOOD_CFG, N, SHAPE, x, w)
            ))
            assert server.admission.snapshot()["acme"]["level"] == 1
            # Exact-mode requests skip the guard and complete clean.
            for rid in (2, 3):
                kind, _, body = decode_reply(server.submit(
                    conv_request(rid, "acme", "ntt", None, N, SHAPE, x, w)
                ))
                assert kind == REP_RESULT
                assert body["degraded"] is False
            assert server.admission.snapshot()["acme"]["level"] == 0

    def test_raise_guard_policy_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="fallback"):
            ServeConfig(guard_policy="raise")


class TestBreakerEndToEnd:
    def test_worker_churn_trips_then_recovers_deterministically(self):
        x, w = conv_inputs(3)
        expected = BatchedHConvEngine(mode="ntt").conv2d_batch(
            x[None], w, SHAPE, N
        )[0]
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        injector = ClusterFaultInjector(kill_before_jobs=[0])
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            server = InferenceServer(
                ServeConfig(
                    coalesce_window_s=0.0,
                    breaker_failures=1,
                    breaker_recovery_s=0.5,
                    reply_timeout_s=60.0,
                ),
                cluster=ex,
            )
            try:
                # 1: the injected SIGKILL is recovered inside the cluster
                # (correct result), but the churn trips the breaker.
                kind, _, body = decode_reply(server.submit(
                    conv_request(1, "t", "ntt", None, N, SHAPE, x, w)
                ))
                assert kind == REP_RESULT
                assert body["path"] == "cluster"
                assert np.array_equal(body["out"], expected)
                assert server.breaker.state() == "open"
                assert server.stats.breaker_trips == 1

                # 2: while open, traffic takes the serial fallback --
                # bit-identical, so the client cannot tell.
                ex.supervisor.fault_injector = None
                kind, _, body = decode_reply(server.submit(
                    conv_request(2, "t", "ntt", None, N, SHAPE, x, w)
                ))
                assert kind == REP_RESULT
                assert body["path"] == "serial"
                assert np.array_equal(body["out"], expected)

                # 3: after the recovery window a probe goes to the (now
                # healthy) cluster and closes the breaker.
                time.sleep(0.6)
                kind, _, body = decode_reply(server.submit(
                    conv_request(3, "t", "ntt", None, N, SHAPE, x, w)
                ))
                assert kind == REP_RESULT
                assert body["path"] == "cluster"
                assert np.array_equal(body["out"], expected)
                assert server.breaker.state() == "closed"

                stats = server.stats_dict()
                assert stats["breaker"]["trips"] == 1
                assert stats["breaker"]["recoveries"] == 1
                transitions = [
                    (t["from"], t["to"])
                    for t in stats["breaker"]["transitions"]
                ]
                assert transitions == [
                    ("closed", "open"),
                    ("open", "half_open"),
                    ("half_open", "closed"),
                ]
                assert stats["cluster_recoveries"] >= 1
                assert stats["serial_routed_batches"] >= 1
                assert stats["cluster_routed_batches"] >= 2
                assert stats["accounting"]["unaccounted"] == 0
            finally:
                server.close()


class _SteppedClock:
    """Monotonic clock plus a settable offset: a test moves time forward
    at a chosen point instead of sleeping through it."""

    def __init__(self):
        self.offset = 0.0

    def __call__(self):
        return time.monotonic() + self.offset


class TestDeadlineReplies:
    def test_missed_deadline_yields_deadline_reply_not_result(self):
        # A primed estimator refuses a tight-but-future deadline as
        # infeasible at admission; an *unprimed* server admits it and the
        # coalescer answers the miss with a deadline notice.  Either way
        # the request terminates explicitly -- here the server's clock
        # jumps past the deadline right after admission, so the deadline
        # passes between acceptance and execution without any sleep.
        x, w = conv_inputs(4)
        clock = _SteppedClock()
        server = InferenceServer(
            ServeConfig(coalesce_window_s=0.3, max_batch=4,
                        reply_timeout_s=10.0),
            clock=clock,
        )
        admit = server.admission.admit

        def admit_then_expire(tenant):
            verdict = admit(tenant)
            clock.offset = 1.0
            return verdict

        server.admission.admit = admit_then_expire
        with server:
            kind, _, body = decode_reply(server.submit(conv_request(
                1, "t", "ntt", None, N, SHAPE, x, w,
                deadline_at=clock() + 0.05,
            )))
            stats = server.stats_dict()
        assert kind == REP_DEADLINE
        assert body["late_by_s"] >= 0.0
        assert stats["deadline_misses"] == 1
        assert stats["accounting"]["unaccounted"] == 0
