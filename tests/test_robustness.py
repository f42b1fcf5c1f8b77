"""Failure-injection and robustness sanity checks across the stack."""

import numpy as np
import pytest

from repro.encoding import ConvShape, LinearShape
from repro.he import BfvContext, toy_preset
from repro.he.poly import RingPoly, uniform_poly
from repro.protocol import HybridConvProtocol, HybridLinearProtocol, ShareRing


class TestBfvTampering:
    @pytest.fixture(scope="class")
    def setup(self):
        params = toy_preset(n=64, share_bits=12)
        ctx = BfvContext(params)
        rng = np.random.default_rng(0)
        sk, pk = ctx.keygen(rng)
        m = rng.integers(0, params.t, size=64)
        ct = ctx.encrypt(pk, m, rng)
        return params, ctx, sk, pk, m, ct

    def test_wrong_key_decrypts_garbage(self, setup):
        params, ctx, _, pk, m, ct = setup
        other_sk, _ = ctx.keygen(np.random.default_rng(99))
        wrong = ctx.decrypt(other_sk, ct)
        # A wrong ternary key scrambles essentially every coefficient.
        assert np.mean(wrong == m) < 0.2

    def test_large_tamper_corrupts_message(self, setup):
        params, ctx, sk, _, m, ct = setup
        tampered = ct.copy()
        big = np.zeros(64, dtype=np.int64)
        big[7] = params.q // 3
        tampered.c0 = tampered.c0 + RingPoly.from_signed(params.basis, big)
        out = ctx.decrypt(sk, tampered)
        assert out[7] != m[7]
        # Other slots are untouched (coefficient-wise independence).
        mask = np.arange(64) != 7
        assert np.array_equal(out[mask], m[mask])

    def test_sub_threshold_tamper_harmless(self, setup):
        # The kernel-level bound: perturbations below q/2t never flip any
        # coefficient.
        params, ctx, sk, _, m, ct = setup
        rng = np.random.default_rng(1)
        margin = params.noise_ceiling // 4
        tampered = ct.copy()
        tampered.c0 = tampered.c0 + RingPoly.from_signed(
            params.basis, rng.integers(-margin, margin, size=64)
        )
        assert np.array_equal(ctx.decrypt(sk, tampered), m)

    def test_ciphertexts_are_randomized(self, setup):
        params, ctx, _, pk, m, _ = setup
        rng = np.random.default_rng(2)
        a = ctx.encrypt(pk, m, rng)
        b = ctx.encrypt(pk, m, rng)
        assert a.c0 != b.c0  # fresh randomness per encryption

    def test_fresh_ciphertext_components_full_range(self, setup):
        # c1 is (pseudo)uniform mod q: it must span the whole range, not
        # leak small-magnitude structure.
        params, ctx, _, pk, m, ct = setup
        centered = ct.c1.to_centered()
        mags = np.array([abs(int(v)) for v in centered], dtype=np.float64)
        assert mags.max() > params.q / 4


class TestProtocolRobustness:
    def test_client_share_alone_reveals_nothing(self):
        # With a fresh mask per output, the client's share is uniform:
        # identical inputs produce unrelated client shares across runs.
        params = toy_preset(n=64, share_bits=16)
        shape = ConvShape.square(1, 4, 1, 3)
        rng_inputs = np.random.default_rng(3)
        x = rng_inputs.integers(-8, 8, size=(1, 4, 4))
        w = rng_inputs.integers(-8, 8, size=(1, 1, 3, 3))
        shares = []
        for seed in (10, 11):
            result = HybridConvProtocol(params, shape).run(
                x, w, np.random.default_rng(seed)
            )
            shares.append(result.client_share.copy())
            assert result.exact
        assert not np.array_equal(shares[0], shares[1])

    def test_share_ring_masks_are_fresh(self):
        ring = ShareRing(16)
        rng = np.random.default_rng(4)
        a = ring.random((100,), rng)
        b = ring.random((100,), rng)
        assert not np.array_equal(a, b)


class TestNumericalEdges:
    def test_ntt_handles_all_zero_and_all_max(self):
        from repro.ntt import find_ntt_primes, get_ntt

        (q,) = find_ntt_primes(30, 64)
        ntt = get_ntt(64, q)
        zeros = np.zeros(64, dtype=np.uint64)
        assert np.array_equal(ntt.inverse(ntt.forward(zeros)), zeros)
        maxed = np.full(64, q - 1, dtype=np.uint64)
        assert np.array_equal(ntt.inverse(ntt.forward(maxed)), maxed)

    def test_fxp_fft_saturating_input(self):
        from repro.fftcore import ApproxFftConfig, FixedPointFft

        cfg = ApproxFftConfig(n=32, stage_widths=10)
        fxp = FixedPointFft(cfg)
        x = np.full(32, 10.0 + 10.0j)  # far beyond the [-1, 1) range
        out = fxp(x)
        assert np.all(np.isfinite(out.view(np.float64)))

    def test_uniform_poly_spans_all_primes(self):
        from repro.he import toy_preset

        params = toy_preset(n=64)
        rng = np.random.default_rng(5)
        poly = uniform_poly(params.basis, rng)
        for residues, prime in zip(poly.residues, params.basis.primes):
            assert int(residues.max()) < prime

    def test_protocol_with_minimal_image(self):
        # 1x3x3 input with a 3x3 kernel: a single output pixel.
        params = toy_preset(n=64, share_bits=16)
        rng = np.random.default_rng(6)
        shape = ConvShape.square(1, 3, 1, 3)
        x = rng.integers(-8, 8, size=(1, 3, 3))
        w = rng.integers(-8, 8, size=(1, 1, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng)
        assert result.exact
        assert result.reconstructed.shape == (1, 1, 1)


class TestNoiseBudgetGuard:
    """Graceful approx->exact degradation when the noise budget runs out."""

    SHAPE = ConvShape(
        in_channels=1, height=4, width=4, out_channels=1,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )

    FC_SHAPE = LinearShape(in_features=16, out_features=2)

    def _inputs(self, seed=0, kind="conv"):
        rng = np.random.default_rng(seed)
        if kind == "fc":
            x = rng.integers(-3, 4, size=16)
            w = rng.integers(-2, 3, size=(2, 16))
            return x, w
        x = rng.integers(-3, 4, size=(1, 4, 4))
        w = rng.integers(-2, 3, size=(1, 1, 3, 3))
        return x, w

    def _protocol(self, kind, params, **kwargs):
        """The guarded conv layer, or the same guard on an FC layer."""
        if kind == "fc":
            return HybridLinearProtocol(params, self.FC_SHAPE, **kwargs)
        return HybridConvProtocol(params, self.SHAPE, **kwargs)

    def _undersized_params(self):
        from repro.he import BfvParameters

        # Single 30-bit prime against t = 2^18: the predicted margin of
        # this kernel goes negative (the approximate path cannot absorb
        # its own rounding error here).
        return BfvParameters(n=64, plain_modulus=1 << 18, q_bits=(30,))

    def _bad_fft_backend(self):
        from repro.fftcore.fixed_point import ApproxFftConfig
        from repro.he.backend import FftPolyMulBackend

        # Aggressive approximation the noise model does not see: errors
        # surface only in the observed reconstructed-vs-expected check.
        cfg = ApproxFftConfig(
            n=32, stage_widths=12, twiddle_k=2, twiddle_max_shift=8
        )
        return FftPolyMulBackend(weight_config=cfg)

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    def test_undersized_q_triggers_predicted_fallback_bit_exact(self, kind):
        from repro.faults import BudgetGuard
        from repro.he.backend import FftPolyMulBackend
        from repro.protocol import make_session

        params = self._undersized_params()
        x, w = self._inputs(kind=kind)
        from repro.he.noise import conv_budget_margin_bits

        assert conv_budget_margin_bits(params, w, 1) < 1.0

        guard = BudgetGuard(params, policy="fallback")
        guarded = self._protocol(
            kind, params, backend=FftPolyMulBackend(),
            guard=guard, layer_name="conv0",
        ).run(x, w, np.random.default_rng(42),
              session=make_session(params, np.random.default_rng(9)))
        exact = self._protocol(kind, params).run(
            x, w, np.random.default_rng(42),
            session=make_session(params, np.random.default_rng(9)),
        )
        assert guarded.stats.degraded
        assert guard.events[0].reason == "predicted"
        assert guard.degraded_layers == ["conv0"]
        # Bit-exact vs the exact-NTT protocol under the same randomness.
        assert np.array_equal(guarded.reconstructed, exact.reconstructed)
        assert np.array_equal(guarded.client_share, exact.client_share)

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    def test_observed_error_triggers_fallback_to_exact_result(self, kind):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        x, w = self._inputs(1, kind)
        guard = BudgetGuard(params, policy="fallback")
        result = self._protocol(
            kind, params, backend=self._bad_fft_backend(),
            guard=guard, layer_name="conv0",
        ).run(x, w, np.random.default_rng(1))
        assert result.exact  # the fallback rerun is exact
        assert result.stats.degraded
        assert guard.events[0].reason == "observed"
        assert guard.events[0].observed_error > 0

    def test_run_batch_degrades_whole_batch(self):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        rng = np.random.default_rng(2)
        xs = rng.integers(-3, 4, size=(2, 1, 4, 4))
        _, w = self._inputs(2)
        guard = BudgetGuard(params, policy="fallback")
        results = HybridConvProtocol(
            params, self.SHAPE, backend=self._bad_fft_backend(), guard=guard,
        ).run_batch(xs, w, rng)
        assert all(r.exact and r.stats.degraded for r in results)
        assert len(guard.events) == 1  # one degradation for the batch

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    def test_raise_policy_aborts_with_noise_budget_error(self, kind):
        from repro.faults import BudgetGuard, NoiseBudgetError
        from repro.he.backend import FftPolyMulBackend

        params = self._undersized_params()
        x, w = self._inputs(kind=kind)
        guard = BudgetGuard(params, policy="raise")
        with pytest.raises(NoiseBudgetError, match="predicted"):
            self._protocol(
                kind, params, backend=FftPolyMulBackend(), guard=guard,
            ).run(x, w, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    def test_warn_policy_keeps_approximate_result(self, kind):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        x, w = self._inputs(3, kind)
        guard = BudgetGuard(params, policy="warn")
        with pytest.warns(RuntimeWarning, match="observed"):
            result = self._protocol(
                kind, params, backend=self._bad_fft_backend(),
                guard=guard,
            ).run(x, w, np.random.default_rng(3))
        assert not result.stats.degraded  # kept the approximate output
        assert result.max_error > 0

    @pytest.mark.parametrize("kind", ["conv", "fc"])
    def test_guard_ignores_exact_backends(self, kind):
        from repro.faults import BudgetGuard

        params = self._undersized_params()
        x, w = self._inputs(kind=kind)
        guard = BudgetGuard(params, policy="raise")
        # Exact NTT backend: no fallback exists, the guard stays silent.
        self._protocol(kind, params, guard=guard).run(
            x, w, np.random.default_rng(4)
        )
        assert guard.events == []

    def test_guard_validates_policy(self):
        from repro.faults import BudgetGuard

        with pytest.raises(ValueError, match="policy"):
            BudgetGuard(toy_preset(n=64), policy="panic")


class TestNoiseBudgetGuardSparseBatched:
    """The guard on the batched sparse hot path (SparseFftPolyMulBackend).

    PR 7 compiled sparse plans into ``multiply_many``; these tests close
    the loop with :class:`TestNoiseBudgetGuard` by proving both guard
    policies behave identically when the protocol's batched path runs the
    sparse backend instead of the per-call FFT backend.
    """

    SHAPE = TestNoiseBudgetGuard.SHAPE

    def _batch_inputs(self, seed=0, batch=3):
        rng = np.random.default_rng(seed)
        xs = rng.integers(-3, 4, size=(batch, 1, 4, 4))
        w = rng.integers(-2, 3, size=(1, 1, 3, 3))
        return xs, w

    def _bad_sparse_backend(self):
        from repro.fftcore.fixed_point import ApproxFftConfig
        from repro.he.backend import SparseFftPolyMulBackend

        # Same aggressive fixed-point budget as the dense observed-error
        # trigger, but executed through compiled sparse plans.
        cfg = ApproxFftConfig(
            n=32, stage_widths=12, twiddle_k=2, twiddle_max_shift=8
        )
        return SparseFftPolyMulBackend(weight_config=cfg)

    def _good_sparse_backend(self):
        from repro.fftcore.fixed_point import ApproxFftConfig
        from repro.he.backend import SparseFftPolyMulBackend

        cfg = ApproxFftConfig(
            n=32, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
        return SparseFftPolyMulBackend(weight_config=cfg)

    def test_predicted_trigger_degrades_sparse_batch_bit_exact(self):
        from repro.faults import BudgetGuard
        from repro.he import BfvParameters
        from repro.he.noise import conv_budget_margin_bits

        params = BfvParameters(n=64, plain_modulus=1 << 18, q_bits=(30,))
        xs, w = self._batch_inputs()
        assert conv_budget_margin_bits(params, w, 1) < 1.0

        guard = BudgetGuard(params, policy="fallback")
        rng_seed = 42
        guarded = HybridConvProtocol(
            params, self.SHAPE, backend=self._good_sparse_backend(),
            guard=guard, layer_name="conv0",
        ).run_batch(xs, w, np.random.default_rng(rng_seed))
        exact = HybridConvProtocol(params, self.SHAPE).run_batch(
            xs, w, np.random.default_rng(rng_seed)
        )
        assert all(r.stats.degraded for r in guarded)
        assert guard.events[0].reason == "predicted"
        assert guard.degraded_layers == ["conv0"]
        # Bit-exact vs the exact-NTT protocol under the same randomness.
        for g, e in zip(guarded, exact):
            assert np.array_equal(g.reconstructed, e.reconstructed)
            assert np.array_equal(g.client_share, e.client_share)

    def test_observed_trigger_degrades_whole_sparse_batch(self):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        xs, w = self._batch_inputs(1)
        guard = BudgetGuard(params, policy="fallback")
        results = HybridConvProtocol(
            params, self.SHAPE, backend=self._bad_sparse_backend(),
            guard=guard,
        ).run_batch(xs, w, np.random.default_rng(1))
        assert all(r.exact and r.stats.degraded for r in results)
        assert guard.events[0].reason == "observed"
        assert guard.events[0].observed_error > 0
        assert len(guard.events) == 1  # one degradation covers the batch

    def test_warn_policy_keeps_approximate_sparse_batch(self):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        xs, w = self._batch_inputs(2)
        guard = BudgetGuard(params, policy="warn")
        with pytest.warns(RuntimeWarning, match="observed"):
            results = HybridConvProtocol(
                params, self.SHAPE, backend=self._bad_sparse_backend(),
                guard=guard,
            ).run_batch(xs, w, np.random.default_rng(2))
        # The approximate sparse output is kept, degradation only logged.
        assert not any(r.stats.degraded for r in results)
        assert max(r.max_error for r in results) > 0
        assert guard.events[0].action == "warn"

    def test_good_sparse_config_passes_clean(self):
        from repro.faults import BudgetGuard
        from repro.he import toy_preset as preset

        params = preset(n=64)
        xs, w = self._batch_inputs(3)
        guard = BudgetGuard(params, policy="raise")
        results = HybridConvProtocol(
            params, self.SHAPE, backend=self._good_sparse_backend(),
            guard=guard,
        ).run_batch(xs, w, np.random.default_rng(3))
        assert guard.events == []  # a healthy sparse batch never triggers
        assert all(r.exact for r in results)
