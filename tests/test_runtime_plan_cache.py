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


class TestGetOrBuildMany:
    """The one fill path of weight spectra: lookup, one batched build."""

    def test_one_lookup_per_distinct_key_and_one_build(self):
        cache = PlanCache()
        cache.put("b", "B")
        calls = []

        def build(items):
            calls.append(list(items))
            return [item.upper() for item in items]

        out = cache.get_or_build_many(list("abcab"), lambda x: x, build)
        assert out == list("ABCAB")
        assert calls == [["a", "c"]]  # misses only, first occurrence order
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.get_or_build_many(list("ca"), lambda x: x, build) == [
            "C", "A",
        ]
        assert len(calls) == 1  # a warm call builds nothing
        assert cache.get_or_build_many([], lambda x: x, build) == []


def _fft_backend(kind: str, cache=None):
    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.he.backend import SparseFftPolyMulBackend

    cfg = ApproxFftConfig(
        n=32, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
    )
    cls = {"flash": FftPolyMulBackend, "sparse": SparseFftPolyMulBackend}
    return cls[kind](weight_config=cfg, plan_cache=cache)


def _products(seed: int, count: int):
    basis = RnsBasis.generate(64, [30, 30])
    rng = np.random.default_rng(seed)
    polys = [
        RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        for _ in range(count)
    ]
    weights = []
    for _ in range(count):
        w = rng.integers(-5, 6, size=64)
        w[rng.random(64) < 0.5] = 0
        weights.append(w)
    return polys, weights


class TestBoundedBackendCaches:
    """Every backend keeps one capacity-honoring ``plan_cache`` holding
    its pipeline, sparse plans and weight spectra."""

    def test_fft_spectrum_cache_honors_capacity(self):
        one_spectrum = 64 // 2 * 16  # one complex128 half-spectrum row
        for kind in ("flash", "sparse"):
            capacity = 1024 + 3 * one_spectrum  # pipeline + 3 spectra
            cache = PlanCache(capacity_bytes=capacity, check_integrity=True)
            backend = _fft_backend(kind, cache)
            polys, weights = _products(0, 10)
            for poly, w in zip(polys, weights):
                backend.multiply(poly, w)
                assert cache.cached_bytes <= capacity
            assert cache.evictions > 0

    def test_fft_backend_clear_cache(self):
        basis = RnsBasis.generate(64, [30, 30])
        backend = FftPolyMulBackend()
        rng = np.random.default_rng(1)
        poly = RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 20, 64)))
        backend.multiply(poly, rng.integers(-5, 6, size=64))
        assert len(backend.plan_cache) == 2  # the pipeline and one spectrum
        backend.plan_cache.clear()
        assert len(backend.plan_cache) == 0
        assert backend.plan_cache.cached_bytes == 0

    @pytest.mark.parametrize("kind", ["flash", "sparse"])
    def test_warm_call_makes_no_misses(self, kind):
        backend = _fft_backend(kind)
        polys, weights = _products(4, 6)
        first = backend.multiply_many(polys, weights)
        misses = backend.plan_cache.misses
        second = backend.multiply_many(polys, weights)
        assert backend.plan_cache.misses == misses
        for a, b in zip(first, second):
            assert all(np.array_equal(x, y) for x, y in zip(a.residues, b.residues))

    @pytest.mark.parametrize("kind", ["flash", "sparse"])
    def test_shared_weight_is_looked_up_once(self, kind):
        """c0 and c1 of one ciphertext share their weight: one spectrum
        key, missed once, built once."""
        backend = _fft_backend(kind)
        polys, weights = _products(5, 2)
        backend.multiply_many(polys, [weights[0], weights[0]])
        cache = backend.plan_cache
        spectra = [k for k in cache.keys() if k[0].endswith("-wspec")]
        assert len(spectra) == 1
        assert cache.misses == len(cache)  # every key missed exactly once

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
