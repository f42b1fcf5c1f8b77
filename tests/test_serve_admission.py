"""Admission control, degradation ladders and serve accounting.

All clock-dependent behaviour runs against an injected fake clock, so
token refills, retry hints and percentile windows are exact rather than
timing-dependent.
"""

import sys
import threading

import pytest

from repro.serve import (
    LADDER,
    SHED_REASONS,
    AdmissionController,
    RollingLatency,
    ServeStats,
    TokenBucket,
    clamp_mode,
)
from repro.serve.admission import ladder_level


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += float(dt)


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        assert [bucket.try_acquire()[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(0.1)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1, clock=clock)
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]
        clock.advance(0.1)  # exactly one token accrues
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens() == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestLadder:
    def test_levels_are_ordered_fast_to_exact(self):
        assert LADDER == ("sparse", "flash", "ntt")
        assert ladder_level("sparse") == 0
        assert ladder_level("ntt") == 2

    def test_clamp_never_promotes(self):
        assert clamp_mode("sparse", 0) == "sparse"
        assert clamp_mode("sparse", 1) == "flash"
        assert clamp_mode("sparse", 2) == "ntt"
        assert clamp_mode("flash", 2) == "ntt"
        # A request already at the bottom rung stays there.
        assert clamp_mode("ntt", 0) == "ntt"

    def test_modes_outside_ladder_are_untouched(self):
        # An unknown mode is not on the ladder: degradation never
        # rewrites it.
        assert clamp_mode("custom", 2) == "custom"


class TestAdmissionController:
    def controller(self, **kwargs):
        clock = kwargs.pop("clock", FakeClock())
        defaults = dict(
            tenant_rate=100.0,
            tenant_burst=8,
            tenant_queue_limit=2,
            server_queue_limit=3,
            ladder_recover_after=2,
        )
        defaults.update(kwargs)
        return AdmissionController(clock=clock, **defaults), clock

    def test_admit_release_pairs_track_depth(self):
        ctl, _ = self.controller()
        ok, reason, _ = ctl.admit("a")
        assert ok and reason == ""
        assert ctl.depth() == 1
        ctl.release("a")
        assert ctl.depth() == 0

    def test_tenant_queue_bound(self):
        ctl, _ = self.controller()
        assert ctl.admit("a")[0]
        assert ctl.admit("a")[0]
        ok, reason, retry_after = ctl.admit("a")
        assert not ok
        assert reason == "tenant_queue"
        assert retry_after > 0
        # Releasing frees the tenant slot again.
        ctl.release("a")
        assert ctl.admit("a")[0]

    def test_server_queue_bound_spans_tenants(self):
        ctl, _ = self.controller()
        assert ctl.admit("a")[0]
        assert ctl.admit("a")[0]
        assert ctl.admit("b")[0]
        ok, reason, _ = ctl.admit("c")
        assert not ok
        assert reason == "server_queue"

    def test_flooding_tenant_cannot_starve_others(self):
        ctl, _ = self.controller(
            tenant_burst=2, tenant_queue_limit=32, server_queue_limit=64
        )
        sheds = 0
        for _ in range(10):
            ok, reason, _ = ctl.admit("flood")
            if ok:
                ctl.release("flood")
            else:
                assert reason == "rate"
                sheds += 1
        assert sheds == 8  # burst of 2, no time passes
        # The polite tenant's bucket is untouched by the flood.
        ok, reason, _ = ctl.admit("polite")
        assert ok

    def test_ladder_degrade_and_recover(self):
        ctl, _ = self.controller(ladder_recover_after=2)
        assert ctl.effective_mode("a", "sparse") == "sparse"
        assert ctl.degrade("a") == 1
        assert ctl.effective_mode("a", "sparse") == "flash"
        assert ctl.degrade("a") == 2
        assert ctl.effective_mode("a", "sparse") == "ntt"
        # Two clean completions climb exactly one rung.
        ctl.note_clean_completion("a")
        assert ctl.note_clean_completion("a") == 1
        assert ctl.effective_mode("a", "sparse") == "flash"
        # A fresh degradation resets the streak.
        ctl.note_clean_completion("a")
        ctl.degrade("a")
        assert ctl.effective_mode("a", "sparse") == "ntt"

    def test_snapshot_names_mode_floor(self):
        ctl, _ = self.controller()
        ctl.admit("a")
        ctl.degrade("a")
        snap = ctl.snapshot()["a"]
        assert snap["queued"] == 1
        assert snap["level"] == 1
        assert snap["mode_floor"] == "flash"
        assert snap["degradations"] == 1


class TestRollingLatency:
    def test_nearest_rank_percentiles(self):
        window = RollingLatency(window=100)
        for v in range(1, 101):  # 1..100 ms
            window.record(v / 1e3)
        assert window.percentile(50.0) == pytest.approx(0.050)
        assert window.percentile(99.0) == pytest.approx(0.099)
        assert window.percentile(100.0) == pytest.approx(0.100)

    def test_window_is_bounded(self):
        window = RollingLatency(window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            window.record(v)
        assert len(window) == 4
        assert window.percentile(1.0) == pytest.approx(2.0)  # 1.0 evicted

    def test_empty_window_and_bad_pct(self):
        window = RollingLatency()
        assert window.percentile(99.0) == 0.0
        with pytest.raises(ValueError):
            window.percentile(0.0)


class TestServeStatsAccounting:
    def test_identity_balances_with_post_admit_sheds(self):
        stats = ServeStats(clock=FakeClock())
        for _ in range(6):
            stats.record_received("a")
        stats.record_shed("a", "rate")                       # pre-admission
        for _ in range(5):
            stats.record_admitted("a")
        stats.record_completed("a", 0.010)
        stats.record_deadline_miss("a")
        stats.record_error("a")
        stats.record_shed("a", "infeasible", post_admit=True)
        acct = stats.accounting(in_flight=1)
        assert acct["received"] == 6
        assert acct["admitted"] == 5
        assert acct["admission_shed"] == 1
        assert acct["terminal"] == 4
        assert acct["unaccounted"] == 0

    def test_unaccounted_flags_a_lost_request(self):
        stats = ServeStats(clock=FakeClock())
        stats.record_received("a")
        stats.record_admitted("a")
        # ... and no terminal record: the identity must expose the loss.
        assert stats.accounting(in_flight=0)["unaccounted"] == 1

    def test_shutdown_shed_can_be_pre_admission(self):
        # A request refused at the door while closing never counted as
        # admitted; the identity must not go negative.
        stats = ServeStats(clock=FakeClock())
        stats.record_received("a")
        stats.record_shed("a", "shutdown")  # pre-admission refusal
        acct = stats.accounting()
        assert acct["admission_shed"] == 1
        assert acct["unaccounted"] == 0

    def test_unknown_shed_reason_rejected(self):
        stats = ServeStats(clock=FakeClock())
        with pytest.raises(ValueError):
            stats.record_shed("a", "because")
        assert set(SHED_REASONS) == set(stats.to_dict()["shed"])

    def test_breaker_transitions_count_trips_and_recoveries(self):
        stats = ServeStats(clock=FakeClock())
        stats.record_breaker_transition("closed", "open", "3 failures")
        stats.record_breaker_transition("open", "half_open", "probe window")
        stats.record_breaker_transition("half_open", "open", "probe failed")
        stats.record_breaker_transition("open", "half_open", "probe window")
        stats.record_breaker_transition("half_open", "closed", "probe ok")
        breaker = stats.to_dict()["breaker"]
        assert breaker["trips"] == 2
        assert breaker["recoveries"] == 1
        assert sum(
            value for (name, _), value in stats.metrics.counters().items()
            if name == "serve_breaker_transitions_total"
        ) == 5

    def test_concurrent_records_lose_no_update(self):
        # Callers' threads and the coalescer record at once; every
        # increment must land in the registry and the identity balance.
        stats = ServeStats(clock=FakeClock())
        threads_n, per_thread = 8, 300

        def hammer(tenant):
            for i in range(per_thread):
                stats.record_received(tenant)
                stats.record_admitted(tenant)
                stats.record_completed(tenant, 0.001, degraded=i % 3 == 0)
                stats.record_batch(i % 5 + 1, "cluster")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(f"t{k % 2}",))
                for k in range(threads_n)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        d = stats.to_dict()
        total = threads_n * per_thread
        assert d["received"] == d["admitted"] == d["completed"] == total
        assert d["degraded"] == threads_n * len(range(0, per_thread, 3))
        assert d["cluster_routed_batches"] == d["batches"] == total
        assert d["largest_batch"] == 5
        assert d["per_tenant"]["t0"]["completed"] == total // 2
        assert d["accounting"]["unaccounted"] == 0

    def test_to_dict_round_trip_sections(self):
        clock = FakeClock()
        stats = ServeStats(clock=clock)
        stats.record_received("a")
        stats.record_admitted("a")
        clock.advance(0.020)
        stats.record_completed("a", 0.020, degraded=True)
        stats.record_batch(3, "cluster", recoveries=1)
        d = stats.to_dict(in_flight=0)
        assert d["degraded"] == 1
        assert d["largest_batch"] == 3
        assert d["cluster_routed_batches"] == 1
        assert d["cluster_recoveries"] == 1
        assert d["p50_ms"] == pytest.approx(20.0)
        assert d["per_tenant"]["a"]["degraded"] == 1
        assert d["accounting"]["unaccounted"] == 0
        assert "serve:" in stats.describe()
