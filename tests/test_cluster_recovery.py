"""Crash recovery, exactly-once application and graceful degradation.

Every test injects a deterministic fault (explicit job indices or a 100%
rate on first attempts) and asserts two things: the *result* is
bit-identical to the serial oracle, and the *accounting* in
:class:`ClusterStats` names the recovery that produced it.  A cluster
fault may cost time, never correctness -- these tests are the proof.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterError,
    ClusterExecutor,
    ClusterFaultInjector,
    ClusterPolicy,
    ClusterStats,
)
from repro.cluster import supervisor as supervisor_module
from repro.cluster.jobs import (
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    MSG_PING,
    mul_job_payload,
)
from repro.encoding.conv_encoding import ConvShape
from repro.faults.session import RetryPolicy
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.protocol.wire import serialize_poly
from repro.runtime import BatchedHConvEngine

N = 128
SHAPE = ConvShape(
    in_channels=2, height=6, width=6, out_channels=2,
    kernel_h=3, kernel_w=3, stride=1, padding=1,
)


def conv_inputs(seed=0, batch=4):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-7, 8, size=(batch, 2, 6, 6))
    w = rng.integers(-3, 4, size=(2, 2, 3, 3))
    return xs, w


def serial_reference(xs, w):
    return BatchedHConvEngine(mode="ntt").conv2d_batch(xs, w, SHAPE, N)


def run_clustered(injector, policy=None, xs=None, w=None):
    if xs is None:
        xs, w = conv_inputs()
    policy = policy or ClusterPolicy(workers=2, heartbeat_timeout=30.0)
    with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
        got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
        stats = ex.stats
    assert np.array_equal(got, serial_reference(xs, w))
    return stats


class TestCrashRecovery:
    def test_sigkill_mid_job_requeues_and_respawns(self):
        stats = run_clustered(ClusterFaultInjector(kill_before_jobs=[0]))
        assert stats.worker_deaths >= 1
        assert stats.respawns >= 1
        assert stats.jobs_requeued >= 1
        assert stats.backoff_seconds > 0
        assert stats.dead_letters == 0
        assert stats.recoveries > 0

    def test_respawned_worker_replays_warmups(self):
        # The executor records one warmup per execution context before the
        # first dispatch, so the replacement spawned after the SIGKILL
        # rebuilds its plan caches before rejoining.
        stats = run_clustered(ClusterFaultInjector(kill_before_jobs=[0]))
        assert stats.warmup_replays >= 1

    def test_hang_detected_at_deadline(self):
        stats = run_clustered(
            ClusterFaultInjector(hang_jobs=[1]),
            policy=ClusterPolicy(workers=2, heartbeat_timeout=1.0),
        )
        assert stats.hang_timeouts >= 1
        assert stats.jobs_requeued >= 1

    def test_corrupted_job_frame_detected_and_requeued(self):
        # Every first dispatch arrives with a flipped byte: the worker's
        # CRC check reports a wire fault and the retry runs clean.
        stats = run_clustered(ClusterFaultInjector(corrupt_rate=1.0))
        assert stats.wire_errors >= 2
        assert stats.jobs_requeued >= 2
        assert stats.worker_deaths == 0  # detected in-band, nobody died

    def test_rate_based_kills_deterministic_under_seed(self):
        plans = []
        for _ in range(2):
            inj = ClusterFaultInjector(
                kill_rate=0.5, hang_rate=0.3, corrupt_rate=0.3,
                duplicate_rate=0.3, seed=17,
            )
            plans.append([inj.plan_dispatch(i, 1) for i in range(30)])
        assert plans[0] == plans[1]


class TestExactlyOnce:
    def test_duplicate_result_discarded(self):
        xs, w = conv_inputs()
        injector = ClusterFaultInjector(duplicate_rate=1.0)
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            assert np.array_equal(got, serial_reference(xs, w))
            # Whatever the end-of-run sweep missed, the next liveness
            # probe consumes (the pipe is FIFO: stale results precede the
            # pong).  Every duplicated send must be counted as a discard.
            ex.supervisor.probe()
            assert ex.stats.duplicate_results == 2
            assert ex.stats.jobs_requeued == 0

    def test_kill_after_result_is_not_requeued(self):
        # The worker dies right after its result is applied: the job must
        # not run twice, and the next batch heals the pool.
        xs, w = conv_inputs()
        injector = ClusterFaultInjector(kill_after_jobs=[0])
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            assert np.array_equal(got, serial_reference(xs, w))
            assert injector.injected["kills_after"] == 1
            first = ex.stats.to_dict()
            assert first["jobs_requeued"] == 0
            assert first["serial_fallback_jobs"] == 0
            # Second batch: the probe (or EOF) notices the corpse, the
            # pool is healed, results stay correct.
            got2 = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            assert np.array_equal(got2, serial_reference(xs, w))
            assert ex.stats.worker_deaths >= 1
            assert ex.stats.respawns >= 1


class TestDegradation:
    def test_pool_shrink_falls_back_to_serial(self):
        # Both workers die, the respawn budget is zero: the pool shrinks
        # below min_workers and everything runs on the in-process path.
        stats = run_clustered(
            ClusterFaultInjector(kill_before_jobs=[0, 1]),
            policy=ClusterPolicy(
                workers=2, heartbeat_timeout=5.0,
                max_respawns=0, min_workers=2,
            ),
        )
        assert stats.pool_shrinks >= 1
        assert stats.serial_fallback_jobs >= 1
        assert stats.workers < 2

    def test_exhausted_retries_dead_letter_then_serial(self):
        # max_attempts=1 with guaranteed first-attempt corruption: every
        # job dead-letters after its only try, then the serial oracle
        # still produces the exact answer.
        stats = run_clustered(
            ClusterFaultInjector(corrupt_rate=1.0),
            policy=ClusterPolicy(
                workers=2, heartbeat_timeout=30.0,
                retry=RetryPolicy(max_attempts=1, timeout=30.0),
            ),
        )
        assert stats.dead_letters == 2
        assert stats.serial_fallback_jobs == 2
        assert len(stats.dead_letter_log) == 2
        assert all(
            letter.attempts == 1 for letter in stats.dead_letter_log
        )

    def test_poisoned_payload_reproduces_loudly_on_serial_path(self):
        # A *persistently* bad job (corrupt ciphertext bytes inside the
        # payload, not on the pipe) fails on every worker attempt and on
        # the serial path too: the supervisor must raise, never invent an
        # answer -- and the workers' deserialize_poly detections must
        # still be folded into the supervisor stats (satellite: worker
        # wire-error propagation).
        basis = RnsBasis.generate(64, [30, 31])
        rng = np.random.default_rng(0)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        blob = bytearray(serialize_poly(poly))
        blob[0] ^= 0xFF  # break the wire header: structurally invalid
        payload = mul_job_payload(
            "ntt", None, basis, [bytes(blob)],
            [rng.integers(-5, 6, size=64)],
        )
        policy = ClusterPolicy(
            workers=1, heartbeat_timeout=30.0,
            retry=RetryPolicy(max_attempts=2, timeout=30.0),
        )
        with ClusterExecutor(policy=policy) as ex:
            with pytest.raises(ClusterError, match="serial fallback"):
                ex.supervisor.run_jobs(MSG_JOB_MUL, [payload])
            assert ex.stats.wire_errors >= 2  # one per worker attempt
            assert ex.stats.dead_letters == 1

    def test_worker_cache_tamper_detected_and_propagated(self):
        # Chaos hook: corrupt one cached plan inside each live worker;
        # the next job must detect it (integrity digest), evict,
        # recompute bit-identically, and the eviction count must survive
        # the process boundary into ClusterStats.
        xs, w = conv_inputs()
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        with ClusterExecutor(policy=policy) as ex:
            got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            assert np.array_equal(got, serial_reference(xs, w))
            assert ex.supervisor.tamper_worker_caches() >= 1
            got2 = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
            assert np.array_equal(got2, serial_reference(xs, w))
            assert ex.stats.cache_corruptions >= 1


class TestAccounting:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClusterPolicy(workers=0)
        with pytest.raises(ValueError):
            ClusterPolicy(heartbeat_timeout=0.0)
        with pytest.raises(ValueError):
            ClusterPolicy(max_respawns=-1)
        with pytest.raises(ValueError):
            ClusterPolicy(workers=2, min_workers=0)
        with pytest.raises(ValueError):
            ClusterPolicy(workers=2, min_workers=3)

    def test_injector_rate_validation(self):
        with pytest.raises(ValueError):
            ClusterFaultInjector(kill_rate=1.5)
        with pytest.raises(ValueError):
            ClusterFaultInjector(corrupt_rate=-0.1)

    def test_faults_only_hit_first_attempts(self):
        inj = ClusterFaultInjector(
            kill_rate=1.0, hang_rate=1.0, corrupt_rate=1.0,
            duplicate_rate=1.0,
        )
        retry_plan = inj.plan_dispatch(0, attempt=2)
        assert not any(retry_plan.values())

    def test_snapshot_delta_treats_workers_as_gauge(self):
        stats = ClusterStats(workers=2, jobs=10, dispatches=12)
        before = stats.to_dict()
        stats.jobs += 3
        stats.dispatches += 4
        delta = stats.snapshot_delta(before)
        assert delta["workers"] == 2  # pool width, not a rate
        assert delta["jobs"] == 3
        assert delta["dispatches"] == 4

    def test_recoveries_rollup(self):
        stats = ClusterStats(
            worker_deaths=2, hang_timeouts=1, jobs_requeued=3,
            serial_fallback_jobs=4,
        )
        assert stats.recoveries == 10
        assert stats.to_dict()["recoveries"] == 10

    def test_closed_supervisor_rejects_work(self):
        ex = ClusterExecutor(policy=ClusterPolicy(workers=1))
        ex.close()
        xs, w = conv_inputs(batch=1)
        with pytest.raises(ClusterError, match="closed"):
            ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)


class TestPerJobDeadline:
    """Per-job ``deadline_ms`` arms a tighter hang deadline than the pool
    heartbeat, so a stuck worker is declared within the request SLO."""

    def test_hang_declared_within_deadline_not_heartbeat(self):
        import time

        xs, w = conv_inputs()
        # A 30s heartbeat alone would leave the hung worker undetected
        # for half a minute; the 0.5s request budget must win.
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        injector = ClusterFaultInjector(hang_jobs=[0])
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            start = time.monotonic()
            got = ex.conv2d_batch(
                "ntt", None, xs, w, SHAPE, N, deadline_s=0.5
            )
            elapsed = time.monotonic() - start
            stats = ex.stats
        assert np.array_equal(got, serial_reference(xs, w))
        assert stats.hang_timeouts >= 1
        assert stats.jobs_requeued >= 1
        assert elapsed < 10.0  # far below the 30s heartbeat

    def test_deadline_run_bit_identical_to_undeadlined(self):
        xs, w = conv_inputs(seed=5)
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        with ClusterExecutor(policy=policy) as ex:
            timed = ex.conv2d_batch(
                "ntt", None, xs, w, SHAPE, N, deadline_s=5.0
            )
        with ClusterExecutor(policy=policy) as ex:
            untimed = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
        assert np.array_equal(timed, untimed)

    def test_stamp_floors_and_skips(self):
        payloads = [{"mode": "ntt"}, {"mode": "ntt"}]
        ClusterExecutor._stamp_deadline(payloads, 0.25)
        assert all(p["deadline_ms"] == 250.0 for p in payloads)
        # Sub-millisecond budgets floor at 1ms so jobs are never armed
        # with a zero or negative deadline.
        floored = ClusterExecutor._stamp_deadline([{}], 1e-6)
        assert floored[0]["deadline_ms"] == 1.0
        # No deadline, no key: the envelope stays byte-identical.
        assert "deadline_ms" not in ClusterExecutor._stamp_deadline([{}], None)[0]


class TestPingFreeLiveness:
    """``run_jobs`` checks liveness without a round trip: it replaces
    exited workers before dispatch and never pings; ``probe()`` stays the
    explicit blocking heartbeat."""

    @staticmethod
    def wait_for_exit(processes):
        until = time.monotonic() + 10.0
        while all(p.exitcode is None for p in processes):
            assert time.monotonic() < until, "SIGKILL never landed"
            time.sleep(0.01)

    def test_run_jobs_pings_nobody_and_replaces_dead_workers(
        self, monkeypatch
    ):
        written = []
        encode = supervisor_module.encode_message

        def spy(kind, job_id, payload):
            written.append(kind)
            return encode(kind, job_id, payload)

        monkeypatch.setattr(supervisor_module, "encode_message", spy)
        xs, w = conv_inputs()
        expected = serial_reference(xs, w)
        injector = ClusterFaultInjector(kill_after_jobs=[0])
        policy = ClusterPolicy(workers=2, heartbeat_timeout=30.0)
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            pool = ex.supervisor._pool
            first_pool = [h.process for h in pool]
            assert np.array_equal(
                ex.conv2d_batch("ntt", None, xs, w, SHAPE, N), expected
            )
            assert injector.injected["kills_after"] == 1
            # The worker killed after its result is healed by the next
            # call (or already by the first call's end-of-run drain).
            self.wait_for_exit(first_pool)
            assert np.array_equal(
                ex.conv2d_batch("ntt", None, xs, w, SHAPE, N), expected
            )
            assert ex.stats.worker_deaths == 1
            assert ex.stats.respawns == 1
            assert all(h.process.is_alive() for h in pool)

            # A worker that exited between calls is replaced before
            # dispatch: no job is sent to it, so none is requeued.
            victim = pool[0].process
            os.kill(victim.pid, signal.SIGKILL)
            self.wait_for_exit([victim])
            before = ex.stats.to_dict()
            assert np.array_equal(
                ex.conv2d_batch("ntt", None, xs, w, SHAPE, N), expected
            )
            delta = ex.stats.snapshot_delta(before)
        assert MSG_JOB_CONV in written
        assert MSG_PING not in written
        assert delta["worker_deaths"] == 1
        assert delta["respawns"] == 1
        assert delta["jobs_requeued"] == 0
        assert delta["serial_fallback_jobs"] == 0
        assert delta["dispatches"] == delta["jobs"]
        assert delta["workers"] == 2


class TestRespawnBudget:
    """``max_respawns`` bounds replacements between clean calls."""

    @staticmethod
    def run_calls(kill_first_job):
        # One call per entry; an entry of True SIGKILLs the worker that
        # takes job 0, before its dispatch.
        xs, w = conv_inputs()
        expected = serial_reference(xs, w)
        injector = ClusterFaultInjector()
        policy = ClusterPolicy(
            workers=2, heartbeat_timeout=30.0, max_respawns=1,
        )
        with ClusterExecutor(policy=policy, fault_injector=injector) as ex:
            for kill in kill_first_job:
                injector.kill_before_jobs = {0} if kill else set()
                got = ex.conv2d_batch("ntt", None, xs, w, SHAPE, N)
                assert np.array_equal(got, expected)
            return ex.stats.to_dict()

    def test_clean_call_refills_the_budget(self):
        # A death, a clean call, a death: each death is within budget.
        stats = self.run_calls([True, False, True])
        assert stats["worker_deaths"] == 2
        assert stats["respawns"] == 2
        assert stats["pool_shrinks"] == 0
        assert stats["workers"] == 2

    def test_deaths_without_a_clean_call_shrink_the_pool(self):
        # Back-to-back failing calls still spend the budget: the second
        # death finds it empty and the pool shrinks.
        stats = self.run_calls([True, True])
        assert stats["worker_deaths"] == 2
        assert stats["respawns"] == 1
        assert stats["pool_shrinks"] == 1
        assert stats["workers"] == 1
