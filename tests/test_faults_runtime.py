"""Runtime fault tolerance: worker recovery and plan-cache integrity."""

import numpy as np
import pytest

from repro.encoding import ConvShape
from repro.faults import (
    FaultRecovery,
    InjectedWorkerFault,
    WorkerFaultInjector,
)
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import FftPolyMulBackend, NttPolyMulBackend
from repro.he.params import toy_preset
from repro.he.poly import RingPoly
from repro.runtime import (
    BatchedHConvEngine,
    PlanCache,
    fan_out,
    value_digest,
)

BASIS = toy_preset(n=64).basis
FLASH_CFG = ApproxFftConfig(
    n=32, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)


def _random_products(seed, count=6):
    rng = np.random.default_rng(seed)
    polys, weights = [], []
    for _ in range(count):
        coeffs = rng.integers(0, 1 << 29, size=BASIS.n)
        polys.append(RingPoly(BASIS, BASIS.to_rns(coeffs)))
        weights.append(rng.integers(-5, 6, size=BASIS.n))
    return polys, weights


def _identical(outs, refs):
    return all(
        np.array_equal(a, b)
        for out, ref in zip(outs, refs)
        for a, b in zip(out.residues, ref.residues)
    )


class TestWorkerFaultInjector:
    def test_poisoned_job_fails_then_recovers(self):
        injector = WorkerFaultInjector(tags=[("limb", 0)])
        with pytest.raises(InjectedWorkerFault):
            injector.poison(("limb", 0))
        injector.poison(("limb", 0))  # second attempt survives
        injector.poison(("limb", 1))  # unpoisoned tags never fire
        assert injector.injected == 1

    def test_rate_based_decisions_are_deterministic(self):
        counts = []
        for _ in range(2):
            injector = WorkerFaultInjector(rate=0.5, seed=3)
            fired = 0
            for tag in range(40):
                try:
                    injector.poison(("job", tag))
                except InjectedWorkerFault:
                    fired += 1
            counts.append(fired)
        assert counts[0] == counts[1] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerFaultInjector(rate=2.0)
        with pytest.raises(ValueError):
            WorkerFaultInjector(failures_per_job=0)


class TestFanOutRecovery:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_single_failure_recovered(self, workers):
        failures = {2}

        def job(i):
            if i in failures:
                failures.discard(i)
                raise RuntimeError("worker died")
            return i * i

        recovery = FaultRecovery()
        out = fan_out(range(5), job, workers, recovery=recovery)
        assert out == [0, 1, 4, 9, 16]
        assert recovery.faults == 1
        assert "worker died" in recovery.errors[0]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_without_recovery_failure_propagates(self, workers):
        def job(i):
            if i == 1:
                raise RuntimeError("boom")
            return i

        with pytest.raises(RuntimeError, match="boom"):
            fan_out(range(3), job, workers)

    def test_permanent_failure_propagates_through_recovery(self):
        def job(i):
            raise RuntimeError("always broken")

        with pytest.raises(RuntimeError, match="always broken"):
            fan_out(range(2), job, 2, recovery=FaultRecovery())


class TestBackendFaultTolerance:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ntt_multiply_many_byte_identical_under_faults(self, workers):
        polys, weights = _random_products(0)
        reference = NttPolyMulBackend(max_workers=workers).multiply_many(
            polys, weights
        )
        injector = WorkerFaultInjector(tags=[("limb", 0), ("limb", 1)])
        backend = NttPolyMulBackend(
            max_workers=workers, fault_injector=injector
        )
        outs = backend.multiply_many(polys, weights)
        assert _identical(outs, reference)
        assert injector.injected == 2
        assert backend.last_stats.worker_faults == 2

    def test_fft_multiply_many_byte_identical_under_faults(self):
        polys, weights = _random_products(1, count=4)
        reference = FftPolyMulBackend(
            weight_config=FLASH_CFG, max_workers=2
        ).multiply_many(polys, weights)
        injector = WorkerFaultInjector(
            tags=[("lift", 0), ("reduce", 3)]
        )
        backend = FftPolyMulBackend(
            weight_config=FLASH_CFG, max_workers=2, fault_injector=injector
        )
        outs = backend.multiply_many(polys, weights)
        assert _identical(outs, reference)
        assert backend.last_stats.worker_faults == 2

    def test_permanently_poisoned_job_propagates(self):
        polys, weights = _random_products(2)
        injector = WorkerFaultInjector(
            tags=[("limb", 0)], failures_per_job=99
        )
        backend = NttPolyMulBackend(max_workers=2, fault_injector=injector)
        with pytest.raises(InjectedWorkerFault):
            backend.multiply_many(polys, weights)

    def test_engine_conv_batch_identical_under_faults(self):
        shape = ConvShape(
            in_channels=2, height=6, width=6, out_channels=3,
            kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        rng = np.random.default_rng(3)
        xs = rng.integers(-7, 8, size=(2, 2, 6, 6))
        w = rng.integers(-3, 4, size=(3, 2, 3, 3))
        reference = BatchedHConvEngine(mode="ntt", max_workers=2).conv2d_batch(
            xs, w, shape, 64
        )
        engine = BatchedHConvEngine(
            mode="ntt",
            max_workers=2,
            fault_injector=WorkerFaultInjector(tags=[("group", 0)]),
        )
        got = engine.conv2d_batch(xs, w, shape, 64)
        assert np.array_equal(got, reference)
        assert engine.last_stats.worker_faults >= 1


class TestPlanCacheIntegrity:
    def test_digest_covers_arrays_and_containers(self):
        a = np.arange(8, dtype=np.int64)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a + 1)
        assert value_digest([a, 2.5]) != value_digest([a, 3.5])
        assert value_digest(object()) is None  # opaque: skipped

    def test_tampered_entry_evicted_and_rebuilt(self):
        cache = PlanCache(check_integrity=True)
        builds = []

        def build():
            builds.append(1)
            return np.arange(16, dtype=np.int64)

        first = cache.get_or_build("spec", build)
        first[3] = 999  # bit-rot / tamper in place
        again = cache.get_or_build("spec", build)
        assert cache.corruptions == 1
        assert len(builds) == 2
        assert again[3] == 3  # the rebuilt, clean value

    def test_tampered_entry_raises_keyerror_on_getitem(self):
        cache = PlanCache(check_integrity=True)
        value = np.ones(4)
        cache.put("k", value)
        value[0] = -1.0
        with pytest.raises(KeyError):
            cache["k"]
        assert "k" not in cache

    def test_get_returns_default_for_corrupt_entry(self):
        cache = PlanCache(check_integrity=True)
        value = np.ones(4)
        cache.put("k", value)
        value[0] = 7.0
        assert cache.get("k", "fallback") == "fallback"
        assert cache.stats()["corruptions"] == 1

    def test_integrity_off_by_default(self):
        cache = PlanCache()
        value = np.ones(4)
        cache.put("k", value)
        value[0] = 9.0
        assert cache.get("k") is value  # legacy behaviour preserved

    def test_backend_recomputes_tampered_spectrum_bit_identical(self):
        polys, weights = _random_products(4)
        backend = NttPolyMulBackend()
        reference = backend.multiply_many(polys, weights)
        # Corrupt every cached weight spectrum in place.
        for key in backend.plan_cache.keys():
            entry = backend.plan_cache._entries[key][0]
            if isinstance(entry, np.ndarray):
                entry += 1
        outs = backend.multiply_many(polys, weights)
        assert backend.plan_cache.corruptions > 0
        assert _identical(outs, reference)
