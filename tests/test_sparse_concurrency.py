"""Concurrency tier for the batched sparse runtime.

The sparse plan caches and the worker pool must never change results:
1 / 2 / 8 workers (and the serial fallback) are byte-identical through
``SparseFftPolyMulBackend.multiply_many`` and through the engine's
sparse mode, and a shared sparse-plan :class:`PlanCache` survives an
8-worker stress run under the dynamic race sanitizer with no
happens-before violation.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.hconv import hconv_sparse
from repro.encoding.conv_encoding import ConvShape
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import SparseFftPolyMulBackend
from repro.he.poly import RingPoly
from repro.lint import instrument
from repro.ntt import RnsBasis
from repro.runtime import BatchedHConvEngine

WORKER_GRID = [None, 1, 2, 8]


class TestSparseEngineConcurrency:
    def test_worker_counts_byte_identical(self):
        shape = ConvShape(
            in_channels=3, height=7, width=7, out_channels=5,
            kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        cfg = ApproxFftConfig(
            n=64, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
        rng = np.random.default_rng(21)
        xs = rng.integers(-7, 8, size=(6, 3, 7, 7))
        w = rng.integers(-4, 5, size=(5, 3, 3, 3))
        ref = np.stack([hconv_sparse(x, w, shape, 128, cfg) for x in xs])
        for workers in WORKER_GRID:
            engine = BatchedHConvEngine(
                mode="sparse", weight_config=cfg, max_workers=workers
            )
            got = engine.conv2d_batch(xs, w, shape, 128)
            assert np.array_equal(got, ref), workers

    def test_stats_independent_of_workers(self):
        """Mult accounting is deterministic: charged per requested
        transform, never per cache state or pool schedule."""
        shape = ConvShape(
            in_channels=2, height=6, width=6, out_channels=3,
            kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        cfg = ApproxFftConfig(
            n=64, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
        rng = np.random.default_rng(22)
        xs = rng.integers(-7, 8, size=(4, 2, 6, 6))
        w = rng.integers(-4, 5, size=(3, 2, 3, 3))
        counts = set()
        for workers in WORKER_GRID:
            engine = BatchedHConvEngine(
                mode="sparse", weight_config=cfg, max_workers=workers
            )
            engine.conv2d_batch(xs, w, shape, 128)
            st = engine.last_stats
            counts.add(
                (
                    st.weight_transforms,
                    st.weight_mults_realized,
                    st.weight_mults_dense,
                    st.weight_mults_model,
                )
            )
        assert len(counts) == 1
        assert next(iter(counts))[1] > 0


class TestSparseBackendConcurrency:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    @pytest.fixture(scope="class")
    def cfg(self, basis):
        return ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )

    @pytest.fixture(scope="class")
    def workload(self, basis):
        # 7 weights over 3 distinct supports: the plan cache is shared
        # across jobs while the pool fans out.
        rng = np.random.default_rng(23)
        supports = [
            np.sort(rng.choice(basis.n, size=k, replace=False))
            for k in (6, 10, 14)
        ]
        polys, weights = [], []
        for i in range(7):
            coeffs = rng.integers(0, 1 << 20, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            sup = supports[i % len(supports)]
            w = np.zeros(basis.n, dtype=np.int64)
            w[sup] = rng.integers(1, 6, size=sup.size)
            weights.append(w)
        return polys, weights

    def test_workers_byte_identical(self, basis, cfg, workload):
        polys, weights = workload
        ref = SparseFftPolyMulBackend(weight_config=cfg).multiply_many(
            polys, weights
        )
        for workers in WORKER_GRID[1:]:
            backend = SparseFftPolyMulBackend(
                weight_config=cfg, max_workers=workers
            )
            outs = backend.multiply_many(polys, weights)
            for out, expect in zip(outs, ref):
                for a, b in zip(out.residues, expect.residues):
                    assert np.array_equal(a, b), workers

    def test_concurrent_calls_share_plan_cache(self, basis, cfg, workload):
        """Concurrent multiply_many calls against one backend keep
        deterministic results (first-insert-wins plan builds)."""
        polys, weights = workload
        backend = SparseFftPolyMulBackend(weight_config=cfg, max_workers=2)
        ref = backend.multiply_many(polys, weights)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(4)
            ]
            for future in futures:
                for out, expect in zip(future.result(), ref):
                    for a, b in zip(out.residues, expect.residues):
                        assert np.array_equal(a, b)
        assert backend.plan_cache.hits > 0

    @pytest.mark.slow
    def test_sparse_plan_cache_race_free_under_sanitizer(
        self, basis, cfg, workload
    ):
        """8 workers hammering the sparse-plan cache: the dynamic race
        sanitizer observes the stress and finds no happens-before
        violation on the cache's shared state."""
        polys, weights = workload
        backend = SparseFftPolyMulBackend(weight_config=cfg, max_workers=2)
        san = instrument(
            backend.plan_cache,
            fields=("hits", "misses", "evictions", "corruptions", "_bytes"),
            mutable_fields=("_entries",),
        )
        san.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(backend.multiply_many, polys, weights)
                for _ in range(8)
            ]
            for future in futures:
                future.result()
        san.join_all()
        assert backend.plan_cache.hits > 0
        assert san.races == [], san.describe()
