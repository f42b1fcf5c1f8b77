"""Property tests for :class:`repro.runtime.PlanCache` and the bounded
backend caches that route through it.

Hypothesis drives randomized get/put sequences against a reference model:
hit/miss counters must match exact bookkeeping, the byte-accounted LRU
must never exceed its capacity, and cached plans must be the same objects
(and produce identical transforms) as freshly built ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.backend import FftPolyMulBackend, NttPolyMulBackend
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis, get_ntt
from repro.runtime import PlanCache, approx_config_key, estimate_nbytes

# An operation is (key, nbytes): puts insert a payload of that size,
# gets look the key up.
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),  # True = put, False = get
        st.integers(min_value=0, max_value=7),  # key id
        st.integers(min_value=0, max_value=64),  # payload size
    ),
    max_size=60,
)


class TestPlanCacheProperties:
    @given(ops=ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_hit_miss_counting_matches_reference(self, ops):
        cache = PlanCache()  # unbounded: pure counting semantics
        model = {}
        hits = misses = 0
        for is_put, key, size in ops:
            if is_put:
                cache.put(key, bytes(size))
                model[key] = size
            else:
                got = cache.get(key)
                if key in model:
                    hits += 1
                    assert got == bytes(model[key])
                else:
                    misses += 1
                    assert got is None
        assert cache.hits == hits
        assert cache.misses == misses
        assert len(cache) == len(model)

    @given(
        ops=ops_strategy,
        capacity=st.integers(min_value=0, max_value=128),
    )
    @settings(max_examples=200, deadline=None)
    def test_lru_never_exceeds_capacity(self, ops, capacity):
        cache = PlanCache(capacity_bytes=capacity)
        for is_put, key, size in ops:
            if is_put:
                cache.put(key, bytes(size))
            else:
                cache.get(key)
            assert cache.cached_bytes <= capacity
            assert cache.cached_bytes == sum(
                len(cache._entries[k][0]) for k in cache.keys()
            )

    @given(
        ops=ops_strategy,
        capacity=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_lru_eviction_order_matches_reference_model(self, ops, capacity):
        from collections import OrderedDict

        cache = PlanCache(capacity_bytes=capacity)
        model = OrderedDict()  # key -> size, most-recent last

        for is_put, key, size in ops:
            if is_put:
                cache.put(key, bytes(size))
                model.pop(key, None)
                model[key] = size
                if size <= capacity:
                    while sum(model.values()) > capacity:
                        model.popitem(last=False)
                else:
                    model.pop(key)  # oversized entries are not retained
            else:
                cache.get(key)
                if key in model:
                    model.move_to_end(key)
        assert cache.keys() == list(model.keys())

    @given(entries=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_max_entries_bound(self, entries):
        cache = PlanCache(max_entries=entries)
        for i in range(3 * entries):
            cache.put(i, i)
            assert len(cache) <= entries
        assert cache.keys() == list(range(2 * entries, 3 * entries))

    def test_cached_plan_identical_to_fresh(self):
        cache = PlanCache()
        built = cache.get_or_build("plan", lambda: get_ntt(64, 7681))
        again = cache.get_or_build("plan", lambda: get_ntt(64, 7681))
        assert built is again
        fresh = get_ntt(64, 7681)
        x = np.arange(64, dtype=np.uint64) % 7681
        assert np.array_equal(built.forward(x), fresh.forward(x))
        assert cache.hits == 1 and cache.misses == 1

    def test_error_policy_raises_after_insert(self):
        cache = PlanCache(capacity_bytes=16, on_full="error")
        cache.put("a", bytes(10))
        with pytest.raises(MemoryError):
            cache.put("b", bytes(10))
        assert cache.cached_bytes == 20  # footprint is reported, not hidden

    def test_estimate_nbytes_understands_arrays_and_plans(self):
        assert estimate_nbytes(np.zeros(8, dtype=np.int64)) == 64
        assert estimate_nbytes([np.zeros(4), np.zeros(4)]) == 64
        plan = get_ntt(64, 7681)
        assert estimate_nbytes(plan) == plan.plan_bytes > 0

    def test_approx_config_key_distinguishes_configs(self):
        from repro.fftcore.fixed_point import ApproxFftConfig

        a = ApproxFftConfig(n=32, stage_widths=27, twiddle_k=5)
        b = ApproxFftConfig(n=32, stage_widths=27, twiddle_k=6)
        assert approx_config_key(a) != approx_config_key(b)
        assert approx_config_key(None) == ("fp64",)


class TestBoundedBackendCaches:
    """Regression: the ad-hoc unbounded dict caches in repro.he.backend
    are gone; spectra now live in capacity-honoring PlanCaches."""

    def test_fft_spectrum_cache_honors_capacity(self):
        basis = RnsBasis.generate(64, [30, 30])
        one_spectrum = 64 // 2 * 16 + 8  # complex128 half-spectrum + scale
        backend = FftPolyMulBackend(
            spectrum_cache_bytes=3 * one_spectrum
        )
        rng = np.random.default_rng(0)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        for i in range(10):
            backend.multiply(poly, rng.integers(-5, 6, size=64))
            assert (
                backend._spectrum_cache.cached_bytes <= 3 * one_spectrum
            )
        assert len(backend._spectrum_cache) <= 3
        assert backend.cache_stats["evictions"] > 0

    def test_fft_backend_clear_cache(self):
        basis = RnsBasis.generate(64, [30, 30])
        backend = FftPolyMulBackend()
        rng = np.random.default_rng(1)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        backend.multiply(poly, rng.integers(-5, 6, size=64))
        assert len(backend._spectrum_cache) == 1
        backend.clear_cache()
        assert len(backend._spectrum_cache) == 0
        assert backend._spectrum_cache.cached_bytes == 0

    def test_cached_ntt_backend_memory_wall_preserved(self):
        basis = RnsBasis.generate(64, [30, 30])
        rng = np.random.default_rng(2)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        # Room for three weights' spectra: one 8*n-byte FFT spectrum per
        # weight, shared by both primes.
        cache = PlanCache(capacity_bytes=3 * 8 * 64, on_full="error")
        backend = NttPolyMulBackend(plan_cache=cache)
        for i in range(3):
            backend.multiply(poly, rng.integers(-5, 6, size=64))
        assert cache.misses == 3 and cache.hits == 0
        assert cache.cached_bytes == 3 * 8 * 64
        with pytest.raises(MemoryError):
            backend.multiply(poly, rng.integers(-5, 6, size=64))
        cache.clear()
        backend.multiply(poly, rng.integers(-5, 6, size=64))

    def test_cached_backend_results_identical_to_fresh(self):
        basis = RnsBasis.generate(64, [30, 30])
        rng = np.random.default_rng(3)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        w = rng.integers(-5, 6, size=64)
        cache = PlanCache(on_full="error")
        backend = NttPolyMulBackend(plan_cache=cache)
        first = backend.multiply(poly, w)
        second = backend.multiply(poly, w)  # one hit: the shared spectrum
        assert (cache.misses, cache.hits) == (1, 1)
        for a, b in zip(first.residues, second.residues):
            assert np.array_equal(a, b)
