"""Tests for arithmetic secret sharing and the hybrid HE/2PC protocols."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import ConvShape, LinearShape
from repro.he import BfvContext, flash_backend, fp_fft_backend, toy_preset
from repro.he.backend import NttPolyMulBackend
from repro.protocol import (
    HybridConvProtocol,
    HybridLinearProtocol,
    ShareRing,
    make_session,
)


class TestShareRing:
    def test_share_reconstruct_roundtrip(self):
        ring = ShareRing(16)
        rng = np.random.default_rng(0)
        x = rng.integers(-1000, 1000, size=50)
        c, s = ring.share(x, rng)
        assert np.array_equal(ring.reconstruct(c, s), x)

    def test_shares_look_uniform(self):
        ring = ShareRing(16)
        rng = np.random.default_rng(1)
        x = np.zeros(4096, dtype=np.int64)
        c, _ = ring.share(x, rng)
        # Client share of an all-zero secret must span the ring.
        assert c.min() < ring.modulus // 8
        assert c.max() > ring.modulus * 7 // 8

    def test_signed_semantics(self):
        ring = ShareRing(8)
        assert ring.to_signed(np.array([255])).tolist() == [-1]
        assert ring.to_signed(np.array([127])).tolist() == [127]
        assert ring.to_signed(np.array([128])).tolist() == [-128]

    def test_arithmetic(self):
        ring = ShareRing(8)
        assert ring.add(250, 10).tolist() == 4
        assert ring.sub(3, 10).tolist() == 249
        assert ring.neg(1).tolist() == 255

    def test_fits_signed(self):
        ring = ShareRing(8)
        assert ring.fits_signed(np.array([-128, 127]))
        assert not ring.fits_signed(np.array([128]))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ShareRing(1)
        with pytest.raises(ValueError):
            ShareRing(63)

    @given(
        bits=st.integers(4, 32),
        value=st.integers(-1000, 1000),
        seed=st.integers(0, 1 << 16),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, bits, value, seed):
        ring = ShareRing(bits)
        half = ring.modulus >> 1
        if not -half <= value < half:
            value %= half
        rng = np.random.default_rng(seed)
        c, s = ring.share(np.array([value]), rng)
        assert ring.reconstruct(c, s).tolist() == [value]


@pytest.fixture(scope="module")
def params():
    return toy_preset(n=64, share_bits=16)


@pytest.fixture(scope="module")
def session(params):
    return make_session(params, np.random.default_rng(1234))


class TestHybridConv:
    def test_exact_with_ntt_backend(self, params, session):
        rng = np.random.default_rng(2)
        shape = ConvShape.square(2, 4, 2, 3)
        x = rng.integers(-8, 8, size=(2, 4, 4))
        w = rng.integers(-8, 8, size=(2, 2, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng, session)
        assert result.exact
        assert result.stats.min_noise_budget > 0

    def test_exact_with_fp_fft_backend(self, params, session):
        rng = np.random.default_rng(3)
        shape = ConvShape.square(2, 4, 2, 3)
        x = rng.integers(-8, 8, size=(2, 4, 4))
        w = rng.integers(-8, 8, size=(2, 2, 3, 3))
        result = HybridConvProtocol(params, shape, fp_fft_backend()).run(
            x, w, rng, session
        )
        assert result.exact

    def test_flash_backend_small_error(self, params, session):
        rng = np.random.default_rng(4)
        shape = ConvShape.square(2, 4, 2, 3)
        x = rng.integers(-8, 8, size=(2, 4, 4))
        w = rng.integers(-8, 8, size=(2, 2, 3, 3))
        # Message-domain error scales as rel_fft_error * t: a 30-bit
        # datapath with exact twiddles keeps it below one LSB; a coarse
        # k=5 twiddle ROM (rel error ~2^-7) leaves errors in the low bits.
        exact_tw = flash_backend(params.n, stage_widths=30, twiddle_k=0)
        result = HybridConvProtocol(params, shape, exact_tw).run(
            x, w, rng, session
        )
        assert result.max_error <= 1
        coarse = flash_backend(params.n, stage_widths=30, twiddle_k=5)
        result2 = HybridConvProtocol(params, shape, coarse).run(
            x, w, rng, session
        )
        assert 0 < result2.max_error <= params.t >> 5

    def test_strided_padded_conv(self, params, session):
        rng = np.random.default_rng(5)
        shape = ConvShape.square(1, 7, 2, 3, stride=2, padding=1)
        x = rng.integers(-8, 8, size=(1, 7, 7))
        w = rng.integers(-8, 8, size=(2, 1, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng, session)
        assert result.exact

    def test_multi_tile_accumulation(self, params, session):
        rng = np.random.default_rng(6)
        # 8 channels of 4x4 = 2 tiles in a 64-degree ring.
        shape = ConvShape.square(8, 4, 1, 3)
        x = rng.integers(-4, 4, size=(8, 4, 4))
        w = rng.integers(-4, 4, size=(1, 8, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng, session)
        assert result.exact
        assert result.stats.ciphertexts_sent == 2

    def test_shares_are_additive(self, params, session):
        rng = np.random.default_rng(7)
        shape = ConvShape.square(1, 4, 1, 3)
        x = rng.integers(-8, 8, size=(1, 4, 4))
        w = rng.integers(-8, 8, size=(1, 1, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng, session)
        ring = ShareRing(16)
        assert np.array_equal(
            ring.reconstruct(result.client_share, result.server_share),
            result.expected,
        )

    def test_overflow_detected(self, params, session):
        shape = ConvShape.square(1, 4, 1, 3)
        x = np.full((1, 4, 4), 30000, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 30000, dtype=np.int64)
        with pytest.raises(ValueError):
            HybridConvProtocol(params, shape).run(
                x, w, np.random.default_rng(8), session
            )

    def test_overflow_raised_before_any_encryption(
        self, params, session, monkeypatch
    ):
        """The whole batch's clear reference is checked before the round
        starts: one overflowing item stops it with no share drawn, no
        encryption and no product."""
        calls = []
        monkeypatch.setattr(
            BfvContext, "encrypt_symmetric",
            lambda *args: calls.append("encrypt"),
        )
        backend = NttPolyMulBackend()
        monkeypatch.setattr(
            backend, "multiply_many", lambda *args: calls.append("multiply")
        )
        shape = ConvShape.square(1, 4, 1, 3)
        rng = np.random.default_rng(8)
        xs = rng.integers(-8, 8, size=(3, 1, 4, 4))
        xs[1, 0, 1, 1] = 30000  # item 1 alone leaves the 16-bit ring
        w = np.full((1, 1, 3, 3), 100, dtype=np.int64)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="overflows the sharing ring"):
            HybridConvProtocol(params, shape, backend).run_batch(
                xs, w, rng, session
            )
        assert calls == []
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "total,fits", [(32767, True), (32768, False), (-32768, True),
                       (-32769, False)],
    )
    def test_overflow_bound_is_the_signed_ring(
        self, params, session, total, fits
    ):
        """A 1x1 output at the edge of the signed 16-bit ring."""
        shape = ConvShape.square(1, 3, 1, 3)
        x = np.ones((1, 3, 3), dtype=np.int64)
        w = np.zeros((1, 1, 3, 3), dtype=np.int64)
        w[0, 0, 0, 0] = total
        protocol = HybridConvProtocol(params, shape)
        rng = np.random.default_rng(8)
        if fits:
            result = protocol.run(x, w, rng, session)
            assert result.expected.tolist() == [[[total]]]
            assert result.exact
        else:
            with pytest.raises(ValueError, match="overflows the sharing"):
                protocol.run(x, w, rng, session)

    def test_transform_accounting(self, params, session):
        rng = np.random.default_rng(9)
        shape = ConvShape.square(2, 4, 3, 3)  # 1 tile, 3 out channels
        x = rng.integers(-4, 4, size=(2, 4, 4))
        w = rng.integers(-4, 4, size=(3, 2, 3, 3))
        result = HybridConvProtocol(params, shape).run(x, w, rng, session)
        assert result.stats.weight_transforms == 3
        assert result.stats.input_transforms == 1
        assert result.stats.ciphertexts_returned == 3

    def test_run_batch_empty(self, params):
        shape = ConvShape.square(2, 4, 2, 3)
        rng = np.random.default_rng(10)
        w = rng.integers(-8, 8, size=(2, 2, 3, 3))
        state = rng.bit_generator.state
        empty = np.zeros((0, 2, 4, 4), dtype=np.int64)
        assert HybridConvProtocol(params, shape).run_batch(empty, w, rng) == []
        assert rng.bit_generator.state == state  # no keygen, no draws

    def test_rejects_odd_plaintext_modulus(self):
        from repro.he import BfvParameters
        from repro.protocol.hybrid import _PartyPair

        odd = BfvParameters(n=64, plain_modulus=65537, q_bits=(30, 30))
        with pytest.raises(ValueError):
            _PartyPair(odd, np.random.default_rng(0))


class TestDefaultBackend:
    """``backend=None`` resolves to one exact backend per protocol, so a
    second run reuses the first run's weight spectra."""

    def test_conv_second_run_hits_cached_spectra(self, params, session):
        rng = np.random.default_rng(5)
        shape = ConvShape.square(2, 4, 2, 3)
        x = rng.integers(-8, 8, size=(2, 4, 4))
        w = rng.integers(-8, 8, size=(2, 2, 3, 3))
        protocol = HybridConvProtocol(params, shape)
        assert protocol.run(x, w, rng, session).exact
        cache = protocol.backend.plan_cache
        hits, misses = cache.hits, cache.misses
        assert protocol.run(x, w, rng, session).exact
        assert cache.misses == misses
        assert cache.hits > hits

    def test_linear_second_run_hits_cached_spectra(self, params, session):
        rng = np.random.default_rng(14)
        shape = LinearShape(16, 6)
        x = rng.integers(-20, 20, size=16)
        w = rng.integers(-8, 8, size=(6, 16))
        protocol = HybridLinearProtocol(params, shape)
        assert protocol.run(x, w, rng, session).exact
        cache = protocol.backend.plan_cache
        misses = cache.misses
        assert protocol.run(x, w, rng, session).exact
        assert cache.misses == misses


class TestHybridLinear:
    def test_exact_matvec(self, params, session):
        rng = np.random.default_rng(10)
        shape = LinearShape(16, 6)
        x = rng.integers(-20, 20, size=16)
        w = rng.integers(-8, 8, size=(6, 16))
        result = HybridLinearProtocol(params, shape).run(x, w, rng, session)
        assert result.exact

    def test_chunked_input(self, params, session):
        rng = np.random.default_rng(11)
        shape = LinearShape(150, 4)  # 3 chunks in a 64-degree ring
        x = rng.integers(-4, 4, size=150)
        w = rng.integers(-4, 4, size=(4, 150))
        result = HybridLinearProtocol(params, shape).run(x, w, rng, session)
        assert result.exact
        assert result.stats.ciphertexts_sent == 3

    def test_flash_backend_linear(self, params, session):
        rng = np.random.default_rng(12)
        shape = LinearShape(16, 4)
        x = rng.integers(-20, 20, size=16)
        w = rng.integers(-8, 8, size=(4, 16))
        # k=18 twiddles with a deep fraction budget (the paper's "<1%
        # degradation without training" point) leave at most LSB error.
        backend = flash_backend(
            params.n, stage_widths=32, twiddle_k=18, twiddle_max_shift=26
        )
        result = HybridLinearProtocol(params, shape, backend).run(
            x, w, rng, session
        )
        assert result.max_error <= 2

    def test_overflow_detected(self, params, session):
        shape = LinearShape(4, 1)
        x = np.full(4, 20000, dtype=np.int64)
        w = np.full((1, 4), 20000, dtype=np.int64)
        with pytest.raises(ValueError):
            HybridLinearProtocol(params, shape).run(
                x, w, np.random.default_rng(13), session
            )


def _separate_decrypt(ctx, sk, cts):
    """The per-ciphertext form ``decrypt_batch`` replaces: one
    ``decrypt`` + ``noise_budget`` pair per returned ciphertext."""
    messages = [ctx.decrypt(sk, ct) for ct in cts]
    budgets = [ctx.noise_budget(sk, ct) for ct in cts]
    return np.array(messages, dtype=np.int64).reshape(len(cts), -1), budgets


class TestFusedDecryption:
    """Every protocol site's batched ``decrypt_batch`` equals separate
    ``decrypt`` + ``noise_budget`` calls per ciphertext, bit for bit."""

    @staticmethod
    def _both(monkeypatch, run):
        fused = run()
        calls = []

        def separate_decrypt(ctx, sk, cts):
            calls.append(len(cts))
            return _separate_decrypt(ctx, sk, cts)

        with monkeypatch.context() as patch:
            patch.setattr(BfvContext, "decrypt_batch", separate_decrypt)
            separate = run()
        assert calls  # the protocol really decrypted through the patch
        return fused, separate

    @staticmethod
    def _assert_same(fused, separate):
        assert np.array_equal(fused.client_share, separate.client_share)
        assert np.array_equal(fused.server_share, separate.server_share)
        budget = fused.stats.min_noise_budget
        assert budget == separate.stats.min_noise_budget
        assert 0 < budget < float("inf")

    def test_conv_run_and_run_batch(self, params, session, monkeypatch):
        shape = ConvShape.square(8, 4, 2, 3)  # 2 tiles, 2 out channels
        rng = np.random.default_rng(14)
        xs = rng.integers(-8, 8, size=(2, 8, 4, 4))
        w = rng.integers(-8, 8, size=(2, 8, 3, 3))
        protocol = HybridConvProtocol(
            params, shape, flash_backend(params.n, stage_widths=30, twiddle_k=5)
        )
        fused, separate = self._both(
            monkeypatch,
            lambda: protocol.run(xs[0], w, np.random.default_rng(15), session),
        )
        self._assert_same(fused, separate)
        fused, separate = self._both(
            monkeypatch,
            lambda: protocol.run_batch(xs, w, np.random.default_rng(16), session),
        )
        for a, b in zip(fused, separate):
            self._assert_same(a, b)

    def test_linear_run(self, params, session, monkeypatch):
        shape = LinearShape(150, 4)
        rng = np.random.default_rng(17)
        x = rng.integers(-4, 4, size=150)
        w = rng.integers(-4, 4, size=(4, 150))
        protocol = HybridLinearProtocol(params, shape)
        fused, separate = self._both(
            monkeypatch,
            lambda: protocol.run(x, w, np.random.default_rng(18), session),
        )
        self._assert_same(fused, separate)


# Supervision counters dropped from ProtocolStats after these digests were
# recorded (they were written but never read).  They are 0 on every run
# here, so hashing them as 0 keeps the pinned digests byte for byte.
RETIRED_STATS = {
    "cluster_jobs_requeued": 0,
    "cluster_serial_fallback_jobs": 0,
    "cluster_worker_deaths": 0,
}


def protocol_digest(result) -> str:
    """Stable digest of a conv run: both shares and every stats field."""
    h = hashlib.sha256()
    for share in (result.client_share, result.server_share):
        h.update(np.ascontiguousarray(share, dtype="<i8").tobytes())
    stats = {**dataclasses.asdict(result.stats), **RETIRED_STATS}
    for name, value in sorted(stats.items()):
        value = value.hex() if isinstance(value, float) else repr(value)
        h.update(f"{name}={value};".encode())
    return h.hexdigest()[:16]


def _flash_k5(params):
    return flash_backend(params.n, stage_widths=30, twiddle_k=5)


def _batched_ntt(params):
    from repro.he.backend import NttPolyMulBackend

    return NttPolyMulBackend()


def _sparse(params):
    from repro.he.backend import SparseFftPolyMulBackend

    weight_config = _flash_k5(params).weight_config
    return SparseFftPolyMulBackend(weight_config=weight_config)


def _bad_fft(params):
    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.he.backend import FftPolyMulBackend

    cfg = ApproxFftConfig(
        n=params.n // 2, stage_widths=12, twiddle_k=2, twiddle_max_shift=8
    )
    return FftPolyMulBackend(weight_config=cfg)


# (shape, backend factory, guarded, digest).  The digests were recorded
# from the original per-call implementation of ``HybridConvProtocol.run``;
# any change to rng draw order, masks, transport hops or stats accounting
# breaks them.
_STRIDED = ConvShape.square(1, 7, 2, 3, stride=2, padding=1)
_TWO_TILE = ConvShape.square(8, 4, 2, 3)
_FC = LinearShape(150, 4)
_DIGEST_CASES = {
    "ntt-strided": (_STRIDED, None, False, "b15c97b8ed006a98"),
    "ntt-two-tile": (_TWO_TILE, None, False, "dac433ad6d7d99b8"),
    "flash-strided": (_STRIDED, _flash_k5, False, "34aec0f05ee0c90a"),
    "flash-two-tile": (_TWO_TILE, _flash_k5, False, "01e36b858f66367e"),
    "batched-ntt-two-tile": (
        _TWO_TILE, _batched_ntt, False, "dac433ad6d7d99b8"
    ),
    "sparse-strided": (_STRIDED, _sparse, False, "badb23c2121b781f"),
    "sparse-two-tile": (_TWO_TILE, _sparse, False, "65e2408369fa6e6a"),
    "guarded-fallback": (_STRIDED, _bad_fft, True, "4271f405898b6c5d"),
    # FC layers (a LinearShape picks HybridLinearProtocol): 3 input chunks
    # in the 64-degree ring.  Recorded before the conv and FC protocols
    # shared one round implementation.
    "fc-ntt": (_FC, None, False, "579a6a9dea723f21"),
    "fc-flash": (_FC, _flash_k5, False, "00e6689009f878cd"),
    "fc-guarded-fallback": (_FC, _bad_fft, True, "4e5e883eddf06fc4"),
    "fc-faulty-transport": (_FC, None, False, "4e8c7e8a998d9edc"),
}


def _digest_protocol(params, case, shape, factory, guarded):
    from repro.faults import BudgetGuard, FaultyChannel, ResilientSession

    guard = BudgetGuard(params, policy="fallback") if guarded else None
    transport = None
    if case.endswith("faulty-transport"):
        transport = ResilientSession(
            channel=FaultyChannel(
                seed=24, drop=0.2, corrupt=0.2, truncate=0.1, duplicate=0.1
            ),
            seed=24,
        )
    cls = (
        HybridLinearProtocol
        if isinstance(shape, LinearShape)
        else HybridConvProtocol
    )
    return cls(
        params, shape, factory and factory(params),
        transport=transport, guard=guard,
    )


def _digest_inputs(shape, rng):
    if isinstance(shape, LinearShape):
        x = rng.integers(-8, 8, size=shape.in_features)
        w = rng.integers(-8, 8, size=(shape.out_features, shape.in_features))
        return x, w
    x = rng.integers(
        -8, 8, size=(shape.in_channels, shape.height, shape.width)
    )
    w = rng.integers(
        -8, 8, size=(shape.out_channels, shape.in_channels, 3, 3)
    )
    return x, w


class TestConvRunDigest:
    """``HybridConvProtocol.run`` and ``HybridLinearProtocol.run`` are
    pinned bit for bit on fixed seeds."""

    @pytest.mark.parametrize("case", sorted(_DIGEST_CASES))
    def test_run_digest(self, params, session, case):
        shape, factory, guarded, digest = _DIGEST_CASES[case]
        x, w = _digest_inputs(shape, np.random.default_rng(21))
        protocol = _digest_protocol(params, case, shape, factory, guarded)
        result = protocol.run(x, w, np.random.default_rng(22), session)
        assert result.stats.degraded == guarded
        assert (result.stats.retries > 0) == (protocol.transport is not None)
        assert protocol_digest(result) == digest

    @pytest.mark.parametrize(
        "exact, digest",
        [(True, "9d6c3fd4ebd5ee60"), (False, "1ca67a1085e7a8b9")],
        ids=["exact", "flash"],
    )
    def test_private_conv2d_digest(self, exact, digest):
        from repro.core import Flash, FlashConfig

        flash = Flash(FlashConfig(params=toy_preset(n=64, share_bits=16)))
        rng = np.random.default_rng(23)
        x = rng.integers(-8, 8, size=(8, 4, 4))
        w = rng.integers(-8, 8, size=(2, 8, 3, 3))
        result = flash.private_conv2d(x, w, _TWO_TILE, rng, exact=exact)
        assert protocol_digest(result) == digest
