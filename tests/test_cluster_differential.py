"""Differential conformance for the cluster executor.

The supervised multi-process path must be **bit-identical** to the
in-process batched runtime it shards -- for every pool width, for dense
and sparse weight transforms, for clear-domain convolution and encrypted
``multiply_many``, and through the full ``Flash.private_conv2d`` facade.
Shard boundaries depend only on the configured width, so 1, 2 and 4
workers all reproduce the serial answer word for word.
"""

import numpy as np
import pytest

from repro.cluster import ClusterPolicy, ClusterExecutor, make_executor
from repro.cluster.jobs import MSG_JOB_MUL
from repro.encoding.conv_encoding import ConvShape
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import (
    FftPolyMulBackend,
    NttPolyMulBackend,
    SparseFftPolyMulBackend,
)
from repro.he.params import toy_preset
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.runtime import BatchedHConvEngine

N = 128
FLASH_CFG = ApproxFftConfig(
    n=N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)
FLASH_CFG_64 = ApproxFftConfig(
    n=32, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)


def random_shape_grid(seed: int, count: int):
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(count):
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        size = int(rng.integers(max(kh, kw), 8))
        shapes.append(
            ConvShape(
                in_channels=int(rng.integers(1, 4)),
                height=size,
                width=size,
                out_channels=int(rng.integers(1, 4)),
                kernel_h=kh,
                kernel_w=kw,
                stride=int(rng.choice([1, 2])),
                padding=int(rng.integers(0, 2)),
            )
        )
    return shapes


def random_batch(rng, shape: ConvShape, batch: int) -> np.ndarray:
    return rng.integers(
        -7, 8, size=(batch, shape.in_channels, shape.height, shape.width)
    )


def random_kernel(rng, shape: ConvShape) -> np.ndarray:
    return rng.integers(
        -4, 5,
        size=(
            shape.out_channels, shape.in_channels,
            shape.kernel_h, shape.kernel_w,
        ),
    )


@pytest.fixture(scope="module", params=[1, 2, 4])
def executor(request):
    ex = make_executor(workers=request.param, heartbeat_timeout=60.0)
    yield ex
    ex.close()


class TestConvDifferential:
    # Batch of 5 leaves the last shard short at widths 2 and 4: the
    # reassembly order and uneven-shard arithmetic are both exercised.
    BATCH = 5

    def _engine_mode_cases(self):
        return [
            ("ntt", None),
            ("flash", FLASH_CFG),
            ("sparse", FLASH_CFG),
        ]

    def test_bit_identical_to_serial_engine(self, executor):
        for mode, cfg in self._engine_mode_cases():
            serial = BatchedHConvEngine(mode=mode, weight_config=cfg)
            rng = np.random.default_rng(31)
            for shape in random_shape_grid(seed=23, count=3):
                xs = random_batch(rng, shape, self.BATCH)
                w = random_kernel(rng, shape)
                got = executor.conv2d_batch(mode, cfg, xs, w, shape, N)
                ref = serial.conv2d_batch(xs, w, shape, N)
                assert np.array_equal(got, ref), (mode, shape)

    def test_clean_run_reports_no_recoveries(self, executor):
        shape = random_shape_grid(seed=29, count=1)[0]
        rng = np.random.default_rng(5)
        xs = random_batch(rng, shape, self.BATCH)
        w = random_kernel(rng, shape)
        executor.conv2d_batch("ntt", None, xs, w, shape, N)
        from repro.runtime.engine import _split_groups

        delta = executor.last_stats.cluster
        assert delta["recoveries"] == 0
        shards = len(_split_groups(range(self.BATCH), executor.policy.workers))
        assert delta["jobs"] == shards
        assert delta["dispatches"] == shards

    def test_single_item_batch(self, executor):
        # One item -> one shard regardless of pool width.
        shape = random_shape_grid(seed=37, count=1)[0]
        rng = np.random.default_rng(9)
        xs = random_batch(rng, shape, 1)
        w = random_kernel(rng, shape)
        serial = BatchedHConvEngine(mode="ntt")
        got = executor.conv2d_batch("ntt", None, xs, w, shape, N)
        assert np.array_equal(got, serial.conv2d_batch(xs, w, shape, N))
        assert executor.last_stats.cluster["jobs"] == 1

    def test_empty_batch_dispatches_nothing(self, executor):
        shape = random_shape_grid(seed=41, count=1)[0]
        rng = np.random.default_rng(11)
        xs = random_batch(rng, shape, 1)[:0]
        w = random_kernel(rng, shape)
        before = executor.stats.dispatches
        got = executor.conv2d_batch("ntt", None, xs, w, shape, N)
        ref = BatchedHConvEngine(mode="ntt").conv2d_batch(xs, w, shape, N)
        assert got.dtype == ref.dtype == np.int64
        assert got.shape == ref.shape == (
            0, shape.out_channels, shape.out_height, shape.out_width,
        )
        assert executor.stats.dispatches == before
        assert executor.last_stats.cluster["jobs"] == 0


class TestMultiplyManyDifferential:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    def _polys(self, basis, seed, count=5, hi=1 << 20):
        rng = np.random.default_rng(seed)
        polys, weights = [], []
        for _ in range(count):
            coeffs = rng.integers(0, hi, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            weights.append(rng.integers(-5, 6, size=basis.n))
        return polys, weights

    def _assert_same(self, outs, refs):
        assert len(outs) == len(refs)
        for out, ref in zip(outs, refs):
            for a, b in zip(out.residues, ref.residues):
                assert np.array_equal(a, b)

    def test_ntt_backend_sharded_matches_serial(self, executor, basis):
        polys, weights = self._polys(basis, 0, hi=1 << 62)
        serial = NttPolyMulBackend()
        got = executor.multiply_many("ntt", None, polys, weights)
        self._assert_same(got, serial.multiply_many(polys, weights))

    def test_flash_backend_sharded_matches_serial(self, executor, basis):
        cfg = ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )
        polys, weights = self._polys(basis, 1)
        serial = FftPolyMulBackend(weight_config=cfg)
        got = executor.multiply_many("flash", cfg, polys, weights)
        self._assert_same(got, serial.multiply_many(polys, weights))

    def test_sparse_backend_sharded_matches_serial(self, executor, basis):
        cfg = ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )
        polys, weights = self._polys(basis, 2)
        serial = SparseFftPolyMulBackend(weight_config=cfg)
        got = executor.multiply_many("sparse", cfg, polys, weights)
        self._assert_same(got, serial.multiply_many(polys, weights))

    @pytest.mark.parametrize("kind", ["ntt", "flash", "sparse"])
    def test_shared_polys_ship_once_per_shard(
        self, executor, basis, kind, monkeypatch
    ):
        """A private round's shape: two ciphertext polynomials, each
        against every output channel's weight.  Outputs match the
        in-process backend byte for byte, every shard carries one blob per
        distinct polynomial it uses, and a worker replaying the shard
        deserializes exactly those blobs."""
        import repro.protocol.wire as wire
        from repro.cluster.worker import WorkerState, execute_job

        cfg = None if kind == "ntt" else FLASH_CFG_64
        backend = {
            "ntt": lambda: NttPolyMulBackend(),
            "flash": lambda: FftPolyMulBackend(weight_config=cfg),
            "sparse": lambda: SparseFftPolyMulBackend(weight_config=cfg),
        }[kind]()
        distinct, weights = self._polys(basis, 4, count=6)
        c0, c1 = distinct[:2]
        polys = [c0, c1] * 5 + [c1, c0]
        weights = [weights[i // 2] for i in range(len(polys))]
        payloads = []
        run_jobs = executor.supervisor.run_jobs

        def recording(kind_, jobs, *args, **kwargs):
            payloads.extend(dict(job) for job in jobs)
            return run_jobs(kind_, jobs, *args, **kwargs)

        monkeypatch.setattr(executor.supervisor, "run_jobs", recording)
        got = executor.multiply_many(kind, cfg, polys, weights)
        self._assert_same(got, backend.multiply_many(polys, weights))

        shards = executor.policy.workers
        assert len(payloads) == min(shards, len(polys))
        lo = 0
        for payload in payloads:
            hi = lo + len(payload["weights"])
            shard = polys[lo:hi]
            assert len(payload["polys"]) == len({id(p) for p in shard})
            lo = hi
        assert lo == len(polys)

        calls = []
        deserialize = wire.deserialize_poly

        def counting(blob, params):
            calls.append(blob)
            return deserialize(blob, params)

        monkeypatch.setattr(wire, "deserialize_poly", counting)
        for payload in payloads:
            calls.clear()
            payload = {k: v for k, v in payload.items()
                       if k in ("backend", "config", "basis", "polys",
                                "index", "weights")}
            execute_job(MSG_JOB_MUL, payload, WorkerState())
            assert calls == payload["polys"]

    def test_empty_input_returns_empty(self, executor):
        assert executor.multiply_many("ntt", None, [], []) == []

    def test_length_mismatch_rejected(self, executor, basis):
        polys, weights = self._polys(basis, 3, count=2)
        with pytest.raises(ValueError, match="equal length"):
            executor.multiply_many("ntt", None, polys, weights[:1])


class TestFacadeDifferential:
    """`Flash.private_conv2d(cluster=...)` end to end: encrypted batch,
    cluster-sharded backend, bit-identical reconstruction."""

    SHAPE = ConvShape(
        in_channels=2, height=6, width=6, out_channels=2,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )

    def test_encrypted_batch_matches_serial(self):
        from repro.core import Flash
        from repro.core.config import FlashConfig

        params = toy_preset()
        rng = np.random.default_rng(7)
        xs = rng.integers(-7, 8, size=(3, 2, 6, 6))
        w = rng.integers(-3, 4, size=(2, 2, 3, 3))
        with Flash(FlashConfig(params=params)) as flash:
            serial = flash.private_conv2d(
                xs, w, self.SHAPE, np.random.default_rng(42),
                exact=True, batch=True,
            )
            clustered = flash.private_conv2d(
                xs, w, self.SHAPE, np.random.default_rng(42),
                exact=True, batch=True, cluster=2,
            )
            # Supervision counters surface through the backend's stats.
            backend = flash._batched_backend("exact", None, 2)
            cluster = backend.last_stats.cluster
        for a, b in zip(serial, clustered):
            assert np.array_equal(a.reconstructed, b.reconstructed)
            assert a.exact and b.exact
        assert cluster["dispatches"] > 0
        assert cluster["recoveries"] == 0

    def test_policy_width_validation(self):
        with pytest.raises(ValueError):
            ClusterPolicy(workers=0)
        with pytest.raises(ValueError):
            ClusterExecutor(policy=ClusterPolicy(workers=2, min_workers=3))
