"""Sparse differential-conformance tier for the batched sparse runtime.

The batched sparse path (:class:`repro.sparse.plan.SparsePlan` and
everything built on it) must be **bit-identical** to the per-call
skipping/merging oracles it replaces, across a randomized
shape x batch x sparsity grid:

* ``SparsePlan.execute`` row-by-row equals
  ``SparseFixedPointFft.run(..., valid=pattern)`` -- values *and*
  multiplication count;
* ``SparseWeightPipeline.weight_forward_batch`` equals per-call
  ``SparseApproxNegacyclic.weight_forward`` -- values *and* scales;
* ``BatchedHConvEngine(mode="sparse")`` equals per-call
  :func:`repro.core.hconv.hconv_sparse`;
* ``SparseFftPolyMulBackend.multiply_many`` equals the serial encrypted
  pipeline with the per-call sparse weight transform, word for word;
* realized mult counts reported by the runtime stats match the
  :mod:`repro.sparse.opcount` analytical model within the 2% acceptance
  band (they are exactly equal on every tested pattern).
"""

import numpy as np
import pytest

from repro.core.hconv import hconv_sparse
from repro.encoding.conv_encoding import ConvShape
from repro.encoding.plain_eval import conv2d_via_polynomials
from repro.fftcore.approx_pipeline import ApproxNegacyclic
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import SparseFftPolyMulBackend
from repro.he.noise import fft_error_tolerance
from repro.he.params import toy_preset
from repro.he.poly import RingPoly
from repro.ntt import RnsBasis
from repro.protocol.hybrid import HybridConvProtocol
from repro.runtime import BatchedHConvEngine
from repro.sparse import SparsePlan, SparseWeightPipeline
from repro.sparse.opcount import sparse_fft_mults
from repro.sparse.patterns import (
    contiguous_block_pattern,
    fold_valid_indices,
    uniform_stride_pattern,
)
from repro.sparse.sparse_fxp import SparseApproxNegacyclic, SparseFixedPointFft

from tests.test_runtime_differential import (
    FLASH_CFG,
    N,
    random_batch,
    random_kernel,
    random_shape_grid,
)

CORE_CFG = ApproxFftConfig(
    n=N // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)

#: Realized-vs-model acceptance band (the PR's contract is 2%; in practice
#: the counts are exactly equal on every pattern in this grid).
MULT_MODEL_TOLERANCE = 0.02


def random_patterns(n: int, seed: int, count: int):
    """Randomized sparsity grid in natural coefficient order: structured
    (stride / block) and unstructured supports at varying densities."""
    rng = np.random.default_rng(seed)
    patterns = [
        uniform_stride_pattern(n, max(1, n // 8)),
        contiguous_block_pattern(n, max(2, n // 6)),
        np.arange(n, dtype=np.int64),  # dense: sparse path == full grid
    ]
    for _ in range(count):
        k = int(rng.integers(1, max(2, n // 3)))
        patterns.append(
            np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
        )
    return patterns


def random_supported_weights(rng, n: int, pattern, batch: int) -> np.ndarray:
    """Integer weight stack supported on ``pattern`` (rows may be sparser)."""
    weights = np.zeros((batch, n), dtype=np.int64)
    weights[:, pattern] = rng.integers(-4, 5, size=(batch, len(pattern)))
    return weights


class TestPlanVsSparseFxpOracle:
    """SparsePlan.execute vs the per-call SparseFixedPointFft walk."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_plan_bit_identical_to_engine(self, sign):
        n_core = CORE_CFG.n
        engine = SparseFixedPointFft(CORE_CFG, sign=sign)
        rng = np.random.default_rng(31 + sign)
        for pattern in random_patterns(n_core, seed=23, count=5):
            folded = np.array(sorted({int(v) % n_core for v in pattern}))
            plan = SparsePlan(CORE_CFG, folded, sign=sign)
            x = np.zeros((4, n_core), dtype=np.complex128)
            x[:, folded] = (
                rng.uniform(-0.5, 0.5, size=(4, folded.size))
                + 1j * rng.uniform(-0.5, 0.5, size=(4, folded.size))
            )
            got = plan.execute(x)
            for row, got_row in zip(x, got):
                ref = engine.run(row, valid=folded)
                assert np.array_equal(got_row, ref.values), folded[:5]
                assert plan.mults == ref.mults
                assert plan.dense_mults == ref.dense_mults

    @staticmethod
    def _replay_vs_walk(config, n, pattern, rows, seed):
        """``(plan rows, per-call rows)`` on uniform inputs over ``pattern``."""
        plan = SparsePlan(config, pattern)
        engine = SparseFixedPointFft(config, sign=+1)
        rng = np.random.default_rng(seed)
        x = np.zeros((rows, n), dtype=np.complex128)
        x[:, pattern] = rng.uniform(-0.5, 0.5, (rows, len(pattern))) + (
            1j * rng.uniform(-0.5, 0.5, (rows, len(pattern)))
        )
        walk = np.array([engine.run(r, valid=pattern).values for r in x])
        return plan.execute(x), walk

    @pytest.mark.parametrize("n", [16, 64, 128])
    @pytest.mark.parametrize(
        "widths,input_width",
        # twiddle_max_shift 16 + the widest data width + 1 <= 53 bits
        [(27, 20), (12, 10), (36, 36), ([30, 28, 26, 24, 22, 20, 18], 16)],
    )
    def test_exact_products_replay_bitwise(self, n, widths, input_width):
        """With quantized twiddles and on-grid inputs, every twiddle
        product is exact in float64 when ``twiddle_max_shift`` plus the
        widest data width plus one fits the 53-bit significand; the
        vectorized and scalar complex multiplies then agree, and so do
        the replay and the walk, whatever the pattern."""
        if isinstance(widths, list):
            widths = widths[: n.bit_length() - 1]
        cfg = ApproxFftConfig(
            n=n, stage_widths=widths, twiddle_k=5, input_width=input_width
        )
        for i, pattern in enumerate(random_patterns(n, seed=n, count=2)):
            pattern = np.unique(pattern % n)
            got, walk = self._replay_vs_walk(cfg, n, pattern, 16, seed=i)
            assert got.tobytes() == walk.tobytes(), i

    #: Largest per-part gap between replay and walk at 52-bit widths, in
    #: units of the last stage's LSB (2**-51), as measured on this grid.
    INEXACT_GAP_LSB = 1

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_inexact_products_stay_within_measured_gap(self, n):
        """At 52-bit widths twiddle products round, and numpy's vectorized
        complex multiply may round a product's last bit differently from
        the scalar one the walk uses (on AVX-512 hosts 3, 45 and 120 of
        the 200 rows differ at n = 16, 64, 256); the gap that survives
        quantization is one last-stage LSB per part on this grid."""
        cfg = ApproxFftConfig(n=n, stage_widths=52, twiddle_k=5)
        lsb = 2.0 ** -51
        worst = 0.0
        for i, pattern in enumerate(random_patterns(n, seed=n, count=2)):
            pattern = np.unique(pattern % n)
            got, walk = self._replay_vs_walk(cfg, n, pattern, 40, seed=i)
            gap = np.abs(got.view(np.float64) - walk.view(np.float64))
            worst = max(worst, float(gap.max()))
        assert worst <= self.INEXACT_GAP_LSB * lsb, worst / lsb

    def test_plan_mults_match_opcount_model(self):
        n_core = CORE_CFG.n
        for pattern in random_patterns(n_core, seed=29, count=6):
            folded = tuple(sorted({int(v) % n_core for v in pattern}))
            plan = SparsePlan(CORE_CFG, folded)
            model = sparse_fft_mults(folded, n_core)
            assert plan.dense_mults > 0
            gap = abs(plan.mults - model) / plan.dense_mults
            assert gap <= MULT_MODEL_TOLERANCE, (plan.mults, model)


class TestWeightPipelineVsNegacyclicOracle:
    """SparseWeightPipeline vs per-call SparseApproxNegacyclic."""

    def test_batch_bit_identical_to_per_call(self):
        rng = np.random.default_rng(7)
        for i, pattern in enumerate(random_patterns(N, seed=41, count=5)):
            pipe = SparseWeightPipeline(N, CORE_CFG, pattern)
            oracle = SparseApproxNegacyclic(
                N, CORE_CFG, valid_pattern=pattern
            )
            weights = random_supported_weights(rng, N, pattern, batch=4)
            spec = pipe.weight_forward_batch(weights)
            for b, w in enumerate(weights):
                ref = oracle.weight_forward(w)
                assert np.array_equal(spec.values[b], ref.values), i
                assert float(spec.scale[b]) == ref.scale
                assert pipe.mults == oracle.last_mults

    def test_single_weight_wrapper_matches_batch(self):
        rng = np.random.default_rng(11)
        pattern = uniform_stride_pattern(N, N // 8)
        pipe = SparseWeightPipeline(N, CORE_CFG, pattern)
        w = random_supported_weights(rng, N, pattern, batch=1)[0]
        one = pipe.weight_forward(w)
        many = pipe.weight_forward_batch(w[None, :])
        assert np.array_equal(one.values, many.values[0])
        assert one.scale == float(many.scale[0])

    def test_accepts_prefolded_pattern(self):
        """Folding is idempotent: natural and folded patterns compile to
        the same plan and produce the same spectra."""
        rng = np.random.default_rng(13)
        natural = contiguous_block_pattern(N, N // 6)
        folded = fold_valid_indices(natural, N)
        a = SparseWeightPipeline(N, CORE_CFG, natural)
        b = SparseWeightPipeline(N, CORE_CFG, folded)
        assert np.array_equal(a.pattern, b.pattern)
        assert a.plan.to_bytes() == b.plan.to_bytes()
        w = random_supported_weights(rng, N, natural, batch=2)
        sa, sb = a.weight_forward_batch(w), b.weight_forward_batch(w)
        assert np.array_equal(sa.values, sb.values)


    def test_cached_plan_is_not_refolded(self, monkeypatch):
        """``sparse_pipeline`` hands over a folded pattern and its plan:
        the pipeline takes both as they are and shares one read-only
        ``NegacyclicFft`` per ring degree."""
        import repro.sparse.patterns as patterns
        from repro.runtime import PlanCache
        from repro.runtime.plan_cache import sparse_pipeline

        folded = fold_valid_indices(contiguous_block_pattern(N, N // 6), N)
        cache = PlanCache()
        first = sparse_pipeline(cache, N, CORE_CFG, folded)

        def no_fold(*args):
            raise AssertionError("an already folded pattern was re-folded")

        monkeypatch.setattr(patterns, "fold_valid_indices", no_fold)
        second = sparse_pipeline(cache, N, CORE_CFG, folded)
        assert second.plan is first.plan
        assert np.array_equal(second.pattern, folded)
        assert second.base is first.base
        assert not second.base._fold_twist.flags.writeable
        with pytest.raises(ValueError, match="different pattern"):
            SparseWeightPipeline(N, CORE_CFG, folded[1:], plan=first.plan)


class TestClearSparseDifferential:
    """Engine mode="sparse" vs per-call hconv_sparse over the shape grid."""

    @pytest.mark.parametrize("batch", [1, 4])
    def test_batched_sparse_bit_identical_to_per_call(self, batch):
        engine = BatchedHConvEngine(mode="sparse", weight_config=FLASH_CFG)
        rng = np.random.default_rng(batch + 30)
        for shape in random_shape_grid(seed=37, count=4):
            xs = random_batch(rng, shape, batch)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            ref = np.stack(
                [hconv_sparse(x, w, shape, N, FLASH_CFG) for x in xs]
            )
            assert np.array_equal(got, ref), shape

    def test_realized_mults_within_model_band(self):
        engine = BatchedHConvEngine(mode="sparse", weight_config=FLASH_CFG)
        rng = np.random.default_rng(2)
        for shape in random_shape_grid(seed=43, count=4):
            xs = random_batch(rng, shape, 2)
            w = random_kernel(rng, shape)
            engine.conv2d_batch(xs, w, shape, N)
            stats = engine.last_stats
            assert stats.weight_transforms > 0
            assert stats.weight_mults_dense > 0
            assert 0 < stats.weight_mults_realized <= stats.weight_mults_dense
            gap = abs(
                stats.realized_mult_reduction - stats.model_mult_reduction
            )
            assert gap <= MULT_MODEL_TOLERANCE, shape
            # Encoder tiles are genuinely sparse: the plans must skip work.
            assert stats.realized_mult_reduction > 0.2, shape

    def test_sparse_error_within_noise_budget(self):
        params = toy_preset(n=N, share_bits=16)
        tol = fft_error_tolerance(params)
        engine = BatchedHConvEngine(mode="sparse", weight_config=FLASH_CFG)
        rng = np.random.default_rng(6)
        for shape in random_shape_grid(seed=47, count=4):
            xs = random_batch(rng, shape, 3)
            w = random_kernel(rng, shape)
            got = engine.conv2d_batch(xs, w, shape, N)
            exact = np.stack(
                [
                    conv2d_via_polynomials(x, w, shape, N)
                    for x in xs.astype(np.int64)
                ]
            )
            assert int(np.abs(got - exact).max()) <= tol, shape


class TestEncryptedSparseDifferential:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30, 31, 32])

    @pytest.fixture(scope="class")
    def cfg(self, basis):
        return ApproxFftConfig(
            n=basis.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )

    def _serial_sparse_multiply(self, poly, weights, cfg):
        """Per-call encrypted oracle: the FftPolyMulBackend pipeline with
        the weight transform on SparseApproxNegacyclic."""
        n = poly.basis.n
        q = poly.basis.modulus
        pipe = ApproxNegacyclic(n, cfg)
        weights = np.asarray(weights, dtype=np.int64)
        oracle = SparseApproxNegacyclic(
            n, cfg, valid_pattern=np.nonzero(weights)[0]
        )
        w_spec = oracle.weight_forward(weights)
        centered = np.array(
            [float(v) for v in poly.to_centered()], dtype=np.float64
        )
        a_spec = pipe.activation_forward(centered)
        product = pipe.multiply_spectra(w_spec, a_spec)
        ints = [int(round(float(v))) % q for v in product]
        return RingPoly(
            poly.basis, poly.basis.to_rns(np.array(ints, dtype=object))
        )

    def _workload(self, basis, seed, count=5, support=10):
        rng = np.random.default_rng(seed)
        polys, weights = [], []
        for _ in range(count):
            coeffs = rng.integers(0, 1 << 20, size=basis.n)
            polys.append(RingPoly(basis, basis.to_rns(coeffs)))
            w = np.zeros(basis.n, dtype=np.int64)
            pos = rng.choice(basis.n, size=support, replace=False)
            w[pos] = rng.integers(1, 6, size=support) * rng.choice(
                [-1, 1], size=support
            )
            weights.append(w)
        return polys, weights

    def test_sparse_backend_matches_serial_oracle(self, basis, cfg):
        polys, weights = self._workload(basis, seed=3)
        backend = SparseFftPolyMulBackend(weight_config=cfg)
        outs = backend.multiply_many(polys, weights)
        for poly, w, out in zip(polys, weights, outs):
            ref = self._serial_sparse_multiply(poly, w, cfg)
            for a, b in zip(out.residues, ref.residues):
                assert np.array_equal(a, b)

    def test_backend_stats_match_oracle_counts(self, basis, cfg):
        polys, weights = self._workload(basis, seed=4, count=4)
        backend = SparseFftPolyMulBackend(weight_config=cfg)
        backend.multiply_many(polys, weights)
        stats = backend.last_stats
        # Distinct weights each charge one transform (c0/c1 reuse is free).
        assert stats.weight_transforms == len(set(w.tobytes() for w in weights))
        assert 0 < stats.weight_mults_realized < stats.weight_mults_dense
        # Per-weight realized counts equal the per-call oracle's.
        total = 0
        for w in {w.tobytes(): w for w in weights}.values():
            oracle = SparseApproxNegacyclic(
                basis.n, cfg, valid_pattern=np.nonzero(w)[0]
            )
            oracle.weight_forward(w)
            total += oracle.last_mults
        assert stats.weight_mults_realized == total
        gap = abs(
            stats.realized_mult_reduction - stats.model_mult_reduction
        )
        assert gap <= MULT_MODEL_TOLERANCE

    def test_protocol_run_batch_reports_sparse_stats(self, cfg):
        params = toy_preset()
        shape = ConvShape(
            in_channels=2, height=6, width=6, out_channels=3,
            kernel_h=3, kernel_w=3, stride=1, padding=1,
        )
        rng = np.random.default_rng(17)
        xs = rng.integers(-7, 8, size=(3, 2, 6, 6))
        w = rng.integers(-3, 4, size=(3, 2, 3, 3))
        weight_cfg = ApproxFftConfig(
            n=params.n // 2, stage_widths=27, twiddle_k=18,
            twiddle_max_shift=24,
        )
        protocol = HybridConvProtocol(
            params, shape,
            backend=SparseFftPolyMulBackend(weight_config=weight_cfg),
        )
        results = protocol.run_batch(xs, w, np.random.default_rng(42))
        tol = fft_error_tolerance(params)
        for result in results:
            assert result.max_error <= max(1, tol)
            st = result.stats
            assert st.weight_mults_dense > 0
            assert 0 < st.weight_mults_realized <= st.weight_mults_dense
            assert (
                abs(st.realized_mult_reduction - st.model_mult_reduction)
                <= MULT_MODEL_TOLERANCE
            )
