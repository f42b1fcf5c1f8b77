"""Streaming conformance tier: weight spectra that do not fit the cache.

When a call's distinct weight spectra exceed the plan cache's byte budget,
:class:`BatchedHConvEngine` transforms each group job's weights, uses and
drops them instead of caching them.  The streamed path must be
bit-identical to the cached one and to the exact integer convolution,
charge the same work counters, leave no spectrum in the cache and evict
nothing; it must also stay deterministic when one engine serves several
threads over a shared cache.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.encoding.conv_encoding import ConvShape
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.nn.model import conv2d_int_batch
from repro.runtime import BatchedHConvEngine, PlanCache
from repro.runtime.engine import _split_groups

N = 128
CFG = ApproxFftConfig(
    n=N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)
#: Strided and padded: four stride phases of one tile and 16 output
#: channels each, so the layer has 64 weight spectra (about 66 KiB at
#: n=128).
SHAPE = ConvShape(
    in_channels=3, height=9, width=9, out_channels=16,
    kernel_h=3, kernel_w=3, stride=2, padding=1,
)
#: Holds every plan (the sparse plans of the four phases are ~29 KiB) but
#: not the layer's spectra.
SMALL_CACHE_BYTES = 48 << 10
MODES = ("ntt", "flash", "sparse")
COUNTERS = (
    "products", "weight_transforms", "weight_mults_realized",
    "weight_mults_dense", "weight_mults_model",
)


def _inputs(batch: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    xs = rng.integers(-7, 8, size=(batch, 3, 9, 9))
    w = rng.integers(-4, 5, size=(16, 3, 3, 3))
    return xs, w


def _engine(mode: str, cache: PlanCache, workers=2) -> BatchedHConvEngine:
    return BatchedHConvEngine(
        mode=mode, weight_config=CFG, plan_cache=cache, max_workers=workers
    )


def _spectrum_keys(cache: PlanCache) -> list:
    return [k for k in cache.keys() if str(k[0]).endswith("-wspec")]


class TestStreamingMatchesCached:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_counts_and_no_spectra(self, mode, batch):
        xs, w = _inputs(batch)
        small = PlanCache(capacity_bytes=SMALL_CACHE_BYTES)
        streaming = _engine(mode, small)
        cached = _engine(mode, PlanCache())
        ref = conv2d_int_batch(xs, w, SHAPE.stride, SHAPE.padding)
        # Twice each: the second call runs the cached engine warm.
        for _ in range(2):
            got = streaming.conv2d_batch(xs, w, SHAPE, N)
            want = cached.conv2d_batch(xs, w, SHAPE, N)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
            assert np.array_equal(got, ref)
            for name in COUNTERS:
                assert getattr(streaming.last_stats, name) == getattr(
                    cached.last_stats, name
                ), name
        assert _spectrum_keys(small) == []
        assert small.evictions == 0
        assert _spectrum_keys(cached.plan_cache)  # the fit path caches

    @pytest.mark.parametrize("mode", MODES)
    def test_serial_and_pooled_streaming_agree(self, mode):
        xs, w = _inputs(3, seed=1)
        outs = [
            _engine(
                mode, PlanCache(capacity_bytes=SMALL_CACHE_BYTES), workers
            ).conv2d_batch(xs, w, SHAPE, N)
            for workers in (None, 2, 8)
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)


class TestStreamingThreads:
    @pytest.mark.parametrize("mode", MODES)
    def test_one_engine_four_threads_shared_cache(self, mode):
        """One streaming engine on a shared cache, called from 4 threads."""
        xs, w = _inputs(3, seed=2)
        shared = PlanCache(
            capacity_bytes=SMALL_CACHE_BYTES, check_integrity=True
        )
        engine = _engine(mode, shared)
        ref = conv2d_int_batch(xs, w, SHAPE.stride, SHAPE.padding)
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(
                pool.map(
                    lambda _: engine.conv2d_batch(xs, w, SHAPE, N), range(8)
                )
            )
        for out in outs:
            assert np.array_equal(out, ref)
        assert _spectrum_keys(shared) == []
        assert shared.evictions == 0


class TestEmptyBatch:
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_batch_returns_empty_output(self, mode):
        cache = PlanCache()
        engine = _engine(mode, cache)
        xs = np.zeros((0, 3, 9, 9), dtype=np.int64)
        out = engine.conv2d_batch(xs, _inputs(1)[1], SHAPE, N)
        assert out.dtype == np.int64
        assert out.shape == (0, 16, SHAPE.out_height, SHAPE.out_width)
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0
        assert engine.last_stats.batch == 0
        assert engine.last_stats.products == 0

    def test_split_groups_of_nothing(self):
        assert _split_groups([], 4) == []
        assert _split_groups([], 0) == []
