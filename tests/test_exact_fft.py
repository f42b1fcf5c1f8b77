"""Exact ring products on the folded FFT: the certificate and the digit split.

The exact backend and the BFV key products run each (weight, prime) pair
on the float64 folded FFT at the smallest digit count whose a-priori
round-off bound is below 1/2: one digit (the centered residues) where
that certifies, more where it does not.  These tests pin down that the
realized rounding stays under the bound, that a call mixing digit counts
keeps its order, that a product no digit count certifies raises, and that
every output is bit-identical to the NTT oracle (``RingPoly`` products,
which run ``RnsBasis.mul``).

The clear-domain engine's exact mode (``BatchedHConvEngine(mode="ntt")``)
decides its digit count once per call, from a certificate for weight
spectra built in float64, activations of known magnitude and a
spectral-domain sum over channel tiles; it runs one inverse transform per
(digit, item, output channel) and stays bit-identical to ``hconv_ntt`` and
the integer convolution.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hconv import channel_value_bound, hconv_ntt, ntt_modulus
from repro.encoding import ConvShape
from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    decompose_strided,
    iter_row_bands,
)
from repro.fftcore.exact import (
    CERTIFIED_BELOW,
    ExactNegacyclic,
    digit_split,
    get_exact_negacyclic,
    split_digits,
    weight_norm,
)
from repro.fftcore.negacyclic import NegacyclicFft
from repro.fftcore.reference import fft_dit_batch
from repro.he.backend import NttPolyMulBackend, exact_fft_products
from repro.he.bfv import BfvContext, SecretKey
from repro.he.params import cham_preset, cheetah_preset
from repro.he.poly import RingPoly, uniform_poly
from repro.nn.model import conv2d_int_batch
from repro.nn.resnet import resnet18_conv_layers
from repro.obs import trace as obs_trace
from repro.runtime import BatchedHConvEngine
from repro.runtime.engine import _encoded_weight_norms

CHEETAH = cheetah_preset()
CHAM = cham_preset()
RESNET18 = {layer.name: layer.shape for layer in resnet18_conv_layers()}


def _conv_weight(rng, n):
    """A 3x3 4-bit conv kernel in its coefficient slots."""
    w = np.zeros(n, dtype=np.int64)
    w[:9] = rng.integers(-8, 8, size=9)
    return w


def _fc_weight(rng, n):
    """Dense FC-like 4-bit weights: 512 taps in one polynomial."""
    w = np.zeros(n, dtype=np.int64)
    w[:512] = rng.integers(-8, 8, size=512)
    return w


def _dense_weight(rng, n):
    """Every coefficient a 4-bit weight: ||w||_1 near 4n."""
    return rng.integers(-8, 8, size=n).astype(np.int64)


def _oracle(polys, weights):
    return [
        p * RingPoly.from_signed(p.basis, w) for p, w in zip(polys, weights)
    ]


def _identical(outs, refs):
    return len(outs) == len(refs) and all(
        np.array_equal(a, b)
        for out, ref in zip(outs, refs)
        for a, b in zip(out.residues, ref.residues)
    )


def _traced_multiply(backend, polys, weights):
    """``multiply_many`` under tracing: outputs and the span's attrs."""
    tracer = obs_trace.tracer
    tracer.enable()
    tracer.clear()
    try:
        outs = backend.multiply_many(polys, weights)
        records = tracer.drain()
    finally:
        tracer.disable()
    (span,) = [r for r in records if r["name"] == "runtime.multiply_many"]
    return outs, span["attrs"]


def _traced_conv(engine, xs, w, shape, n):
    """``conv2d_batch`` under tracing: outputs and the span's attrs."""
    tracer = obs_trace.tracer
    tracer.enable()
    tracer.clear()
    try:
        out = engine.conv2d_batch(xs, w, shape, n)
        records = tracer.drain()
    finally:
        tracer.disable()
    (span,) = [r for r in records if r["name"] == "runtime.conv2d_batch"]
    return out, span["attrs"]


#: A small padded 3x3 layer; at n = 64 each weight polynomial holds one
#: channel's nine taps.
SMALL_CONV = ConvShape(
    in_channels=2, height=6, width=6, out_channels=3,
    kernel_h=3, kernel_w=3, stride=1, padding=1,
)


#: Four one-channel tiles of a 1x1 layer at n = 4096 (a 48x48 plane
#: fills more than half the ring): each weight polynomial is one tap.
REJECTED_CONV = ConvShape(
    in_channels=4, height=48, width=48, out_channels=2,
    kernel_h=1, kernel_w=1,
)


def rejected_conv_inputs(seed=0):
    """18-bit inputs and weights for ``REJECTED_CONV`` at n = 4096, as
    ``(xs, w, shape, n)``: the one-digit certificate for the spectral-domain
    tile sum rejects them (bound about 2.1); two digits certify them."""
    rng = np.random.default_rng(seed)
    xs = rng.integers(-(1 << 17), (1 << 17) + 1, size=(2, 4, 48, 48))
    w = rng.integers(-(1 << 17), (1 << 17) + 1, size=(2, 4, 1, 1))
    return xs, w, REJECTED_CONV, 4096


def _negacyclic_exact(a, w):
    """The exact negacyclic product of two int64 vectors (no overflow
    while ``max|a| * ||w||_1 < 2**63``)."""
    n = a.shape[0]
    full = np.convolve(a, w)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out


def _traced_decrypt(ctx, sk, cts):
    tracer = obs_trace.tracer
    tracer.enable()
    tracer.clear()
    try:
        result = ctx.decrypt_batch(sk, cts)
        records = tracer.drain()
    finally:
        tracer.disable()
    (span,) = [r for r in records if r["name"] == "he.decrypt"]
    return result, span["attrs"]


def _decrypt_oracle(ctx, sk, cts):
    """Messages and budgets from ``RingPoly`` phases ``c0 + c1*s``."""
    phases = np.stack([
        ctx.basis._crt((ct.c0 + ct.c1 * sk.s).residues, centered=True)
        for ct in cts
    ])
    messages, noise = ctx._decode(phases)
    return messages, [ctx._budget_bits(v) for v in noise]


class TestLongDoubleTransform:
    def test_fft_runs_in_the_input_precision(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-8, 8, size=(3, 64))
        wide = fft_dit_batch(x.astype(np.longdouble), sign=+1)
        narrow = fft_dit_batch(x.astype(np.float64), sign=+1)
        assert wide.dtype == np.clongdouble
        assert narrow.dtype == np.complex128
        np.testing.assert_allclose(
            narrow, wide.astype(np.complex128), rtol=0, atol=1e-12
        )

    def test_long_double_round_trip_beats_float64(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-(1 << 20), 1 << 20, size=(2, 2048))

        def round_trip_error(dtype):
            y = fft_dit_batch(fft_dit_batch(x.astype(dtype), +1), -1) / 2048
            return float(np.max(np.abs(y - x.astype(dtype))))

        assert round_trip_error(np.longdouble) * 100 < round_trip_error(
            np.float64
        )

    def test_spectrum_is_plain_complex128(self):
        kernel = get_exact_negacyclic(64)
        w = _conv_weight(np.random.default_rng(2), 64)
        spectrum = kernel.spectrum(w)
        assert spectrum.dtype == np.complex128 and spectrum.shape == (32,)
        np.testing.assert_allclose(
            spectrum, kernel.fft.forward(w), rtol=0, atol=1e-12
        )


class TestCertificate:
    def test_lower_bound_never_exceeds_the_bound(self):
        kernel = get_exact_negacyclic(CHEETAH.n)
        rng = np.random.default_rng(3)
        prime = CHEETAH.basis.primes[0]
        for make in (_conv_weight, _fc_weight, _dense_weight):
            w = make(rng, CHEETAH.n)
            norm = weight_norm(w)
            peak = float(np.max(np.abs(kernel.spectrum(w))))
            assert peak >= norm * (1 - 1e-9)  # Parseval
            assert kernel.bound(prime, norm) <= kernel.bound(prime, norm, peak)

    def test_weight_norm_is_an_upper_bound(self):
        w = np.random.default_rng(4).integers(-8, 8, size=4096)
        exact = int(np.dot(w, w))
        assert weight_norm(w) ** 2 >= exact
        assert weight_norm(w) == pytest.approx(exact ** 0.5, rel=1e-12)

    def test_bound_grows_with_the_prime(self):
        kernel = get_exact_negacyclic(CHEETAH.n)
        w = _conv_weight(np.random.default_rng(5), CHEETAH.n)
        norm = weight_norm(w)
        peak = float(np.max(np.abs(kernel.spectrum(w))))
        (cham_prime,) = CHAM.basis.primes
        low = kernel.bound(CHEETAH.basis.primes[0], norm, peak)
        assert low < CERTIFIED_BELOW <= kernel.bound(cham_prime, norm, peak)


class TestNumericHealth:
    """At ``cheetah_preset``: realized <= bound < 1/2, bit-identical."""

    @pytest.mark.parametrize("make", [_conv_weight, _fc_weight])
    def test_weight_products(self, make):
        rng = np.random.default_rng(6)
        basis = CHEETAH.basis
        polys = [uniform_poly(basis, rng) for _ in range(6)]
        distinct = [make(rng, basis.n) for _ in range(3)]
        weights = [w for w in distinct for _ in range(2)]  # c0/c1 pairs
        backend = NttPolyMulBackend()
        outs, attrs = _traced_multiply(backend, polys, weights)
        assert _identical(outs, _oracle(polys, weights))
        assert attrs["digits"] == 1
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        # One 8*n-byte spectrum per distinct weight.
        assert backend.plan_cache.cached_bytes == 3 * 8 * basis.n
        assert all(key[0] == "exact-wspec" for key in backend.plan_cache.keys())

    def test_keygen_ternary_key(self):
        ctx = BfvContext(CHEETAH)
        rng = np.random.default_rng(7)
        sk, pk = ctx.keygen(rng)
        assert all(b < CERTIFIED_BELOW for b in sk.bounds)
        assert sk.digits == (1, 1)
        assert sk.spectrum.shape == (CHEETAH.n // 2,)  # one, all limbs
        # keygen's a*s ran on the FFT: p0 + p1*s is the small error -e.
        noise = (pk.p0 + pk.p1 * sk.s).to_centered()
        assert max(abs(int(v)) for v in noise) < 64
        m = rng.integers(0, ctx.params.t, size=(4, ctx.params.n))
        cts = [ctx.encrypt_symmetric(sk, row, rng) for row in m]
        cts += [ctx.encrypt(pk, row, rng) for row in m]
        (messages, budgets), attrs = _traced_decrypt(ctx, sk, cts)
        assert np.array_equal(messages, np.concatenate([m, m]))
        oracle = _decrypt_oracle(ctx, sk, cts)
        assert np.array_equal(messages, oracle[0])
        assert [b.hex() for b in budgets] == [b.hex() for b in oracle[1]]
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] == max(sk.bounds) < CERTIFIED_BELOW
        assert attrs["digits"] == 1


class TestFallback:
    """Products one digit does not certify run on more digits."""

    def test_cham_prime_runs_two_digits(self):
        rng = np.random.default_rng(8)
        basis = CHAM.basis
        polys = [uniform_poly(basis, rng) for _ in range(4)]
        weights = [_conv_weight(rng, basis.n) for _ in range(4)]
        backend = NttPolyMulBackend()
        outs, attrs = _traced_multiply(backend, polys, weights)
        assert _identical(outs, _oracle(polys, weights))
        assert attrs["digits"] == 2
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        # One spectrum per weight serves both digits.
        assert backend.plan_cache.cached_bytes == 4 * 8 * basis.n
        assert all(key[0] == "exact-wspec" for key in backend.plan_cache.keys())

    @pytest.mark.parametrize("workers", [None, 2])
    def test_mixed_call_is_bit_identical_in_order(self, workers):
        rng = np.random.default_rng(9)
        basis = CHEETAH.basis
        polys = [uniform_poly(basis, rng) for _ in range(6)]
        dense = _dense_weight(rng, basis.n)
        weights = [
            _conv_weight(rng, basis.n), dense, _fc_weight(rng, basis.n),
            dense, _conv_weight(rng, basis.n), _dense_weight(rng, basis.n),
        ]
        backend = NttPolyMulBackend(max_workers=workers)
        outs, attrs = _traced_multiply(backend, polys, weights)
        assert _identical(outs, _oracle(polys, weights))
        # The three dense rows run two digits at each of the two primes.
        assert attrs["digits"] == 2
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"] < 0.5
        # The dense weights were rejected at one digit on their spectrum's
        # peak; two digits certify them.
        kernel = get_exact_negacyclic(basis.n)
        peak = float(np.max(np.abs(kernel.spectrum(dense))))
        norm = weight_norm(dense)
        prime = basis.primes[0]
        assert kernel.bound(prime, norm) < CERTIFIED_BELOW
        assert kernel.bound(prime, norm, peak) >= CERTIFIED_BELOW
        assert kernel.bound(prime, norm, peak, digits=2) < CERTIFIED_BELOW
        again = backend.multiply_many(polys, weights)  # warm caches
        assert _identical(again, outs)

    def test_fallback_is_load_bearing(self):
        """Dense 11-bit weights at a 40-bit prime: the raw single-digit
        FFT product is wrong; the certificate rejects it and the backend's
        two-digit products still match the oracle."""
        from repro.ntt.rns import RnsBasis

        basis = RnsBasis.generate(1024, [40])
        (prime,) = basis.primes
        rng = np.random.default_rng(11)
        polys = [uniform_poly(basis, rng) for _ in range(2)]
        weights = [rng.integers(-1024, 1024, size=basis.n) for _ in range(2)]
        kernel = get_exact_negacyclic(basis.n)
        raw, _ = exact_fft_products(
            kernel,
            np.stack([p.residues[0] for p in polys]),
            np.stack([kernel.spectrum(w) for w in weights]),
            prime,
            1,
        )
        oracle = _oracle(polys, weights)
        assert not all(
            np.array_equal(row, ref.residues[0]) for row, ref in zip(raw, oracle)
        )
        outs, attrs = _traced_multiply(NttPolyMulBackend(), polys, weights)
        assert _identical(outs, oracle)
        assert attrs["digits"] == 2
        assert attrs["rounding_worst"] <= attrs["rounding_bound"] < 0.5

    def test_cham_decrypt_batch_matches_oracle(self):
        ctx = BfvContext(CHAM)
        rng = np.random.default_rng(10)
        sk, pk = ctx.keygen(rng)
        assert sk.digits == (2,)
        m = rng.integers(0, ctx.params.t, size=(3, ctx.params.n))
        cts = [ctx.encrypt_symmetric(sk, row, rng) for row in m]
        cts += [ctx.encrypt(pk, row, rng) for row in m]
        (messages, budgets), attrs = _traced_decrypt(ctx, sk, cts)
        assert np.array_equal(messages, np.concatenate([m, m]))
        oracle = _decrypt_oracle(ctx, sk, cts)
        assert np.array_equal(messages, oracle[0])
        assert [b.hex() for b in budgets] == [b.hex() for b in oracle[1]]
        assert attrs["digits"] == 2
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] == max(sk.bounds) < CERTIFIED_BELOW


def _no_transform(monkeypatch):
    """Make every exact-FFT transform and weight spectrum fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("a transform ran")

    for name in ("forward_batch", "inverse_batch"):
        monkeypatch.setattr(NegacyclicFft, name, refuse)
    monkeypatch.setattr(ExactNegacyclic, "spectrum", refuse)


class TestDigitCertificate:
    """The digit split and the soundness of its certificate."""

    @pytest.mark.parametrize("digits", [1, 2, 3, 5])
    @pytest.mark.parametrize("magnitude", [1, 255, 256, (1 << 38) + 5])
    def test_digits_recombine_within_their_magnitude(self, magnitude, digits):
        rng = np.random.default_rng(magnitude % 97 + digits)
        values = rng.integers(-magnitude, magnitude + 1, size=500)
        values[:2] = magnitude, -magnitude
        width, top = digit_split(magnitude, digits)
        split = split_digits(values, width, digits)
        assert split.shape == (digits, 500)
        recombined = sum(
            split[d].astype(object) << (width * d) for d in range(digits)
        )
        assert np.array_equal(recombined.astype(np.int64), values)
        assert int(np.abs(split).max()) <= top

    @pytest.mark.parametrize(
        "case", ["cham-conv", "cham-key", "40bit-dense-11bit"]
    )
    def test_worst_case_digits_are_sound(self, case):
        """Digits at +-the digit maximum against exact integer products:
        realized <= bound < 1/2 at the certified digit count, and one digit
        would not certify."""
        rng = np.random.default_rng(20)
        if case == "40bit-dense-11bit":
            from repro.ntt.rns import RnsBasis

            (prime,), n = RnsBasis.generate(1024, [40]).primes, 1024
            w = rng.integers(-1024, 1024, size=n)
        else:
            (prime,), n = CHAM.basis.primes, CHAM.n
            if case == "cham-key":
                w = rng.integers(-1, 2, size=n)
            else:
                w = np.zeros(n, dtype=np.int64)
                w[rng.choice(n, size=36, replace=False)] = rng.integers(
                    -8, 8, size=36
                )
        kernel = get_exact_negacyclic(n)
        spectrum, (digits,), (bound,) = kernel.certify([prime], w)
        assert digits == 2 < prime.bit_length()
        norm, peak = weight_norm(w), float(np.max(np.abs(spectrum)))
        assert bound == kernel.bound(prime, norm, peak, digits) < CERTIFIED_BELOW
        assert kernel.bound(prime, norm, peak) >= CERTIFIED_BELOW
        top = digit_split(prime // 2, digits)[1]
        a = rng.choice([-top, top], size=(3, n))
        product = kernel.fft.inverse_batch(
            kernel.fft.forward_batch(a.astype(np.float64)) * spectrum
        )
        exact = np.stack([_negacyclic_exact(row, w) for row in a])
        realized = float(np.max(np.abs(product - exact)))
        assert 0 < realized <= bound

    def test_uncertifiable_weight_raises_before_any_transform(
        self, monkeypatch
    ):
        """A one-tap 2**41 weight: even one-bit digits do not certify."""
        rng = np.random.default_rng(21)
        polys = [uniform_poly(CHAM.basis, rng)]
        w = np.zeros(CHAM.n, dtype=np.int64)
        w[0] = 1 << 41
        backend = NttPolyMulBackend()
        _no_transform(monkeypatch)
        with pytest.raises(ValueError, match="no digit split certifies"):
            backend.multiply_many(polys, [w])
        assert len(backend.plan_cache) == 0

    def test_non_small_key_raises_before_any_transform(self, monkeypatch):
        """Limbs that are not one small integer polynomial."""
        s = uniform_poly(CHEETAH.basis, np.random.default_rng(22))
        _no_transform(monkeypatch)
        with pytest.raises(ValueError, match="small integer polynomial"):
            SecretKey(s)


class TestEngineExactArm:
    """``BatchedHConvEngine(mode="ntt")``: the certified FFT, digit-split
    when one digit does not certify."""

    @pytest.mark.parametrize(
        "name", ["layer2.1.conv1", "layer3.0.downsample"]
    )
    def test_resnet18_band_is_certified_and_bit_identical(self, name):
        """A 3x3 and a 1x1/stride-2 ResNet-18 layer at n = 4096 (two
        output channels): realized <= bound < 1/2 and bit-identical."""
        n = 4096
        shape = replace(RESNET18[name], out_channels=2)
        rng = np.random.default_rng(12)
        xs = rng.integers(
            -8, 8, size=(2, shape.in_channels, shape.height, shape.width)
        )
        w = rng.integers(
            -8, 8,
            size=(2, shape.in_channels, shape.kernel_h, shape.kernel_w),
        )
        engine = BatchedHConvEngine(mode="ntt", max_workers=2)
        out, attrs = _traced_conv(engine, xs, w, shape, n)
        assert attrs["digits"] == 1
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        assert np.array_equal(
            out, conv2d_int_batch(xs, w, shape.stride, shape.padding)
        )
        assert np.array_equal(
            out, np.stack([hconv_ntt(x, w, shape, n) for x in xs])
        )
        # The exact mode runs the float64 FFT's plan and spectra and keeps
        # the "ntt" mode's work counters.
        keys = engine.plan_cache.keys()
        assert {key[0] for key in keys} == {"fft-plan", "fft-wspec"}
        stats = engine.last_stats
        assert stats.products > 0
        assert stats.weight_transforms == stats.weight_mults_dense == 0

    def test_weight_norms_are_the_encoded_polynomials(self):
        """Strided, padded, with a zero-padded virtual channel: the norms
        the certificate takes equal those of the encoded polynomials."""
        n, s = 128, 2
        shape = ConvShape(
            in_channels=5, height=9, width=9, out_channels=4,
            kernel_h=3, kernel_w=3, stride=s, padding=1,
        )
        w = np.random.default_rng(15).integers(-8, 8, size=(4, 5, 3, 3))
        bands = [
            (a, b, phase.width, row, band)
            for phase, a, b in decompose_strided(shape)
            for row, band in iter_row_bands(phase, n)
        ]
        polys = [
            poly
            for a, b, _, _, band in bands
            for poly in Conv2dEncoder(band, n).encode_weights(
                w[:, :, a::s, b::s]
            ).values()
        ]
        assert Conv2dEncoder(bands[0][4], n).num_tiles == 2
        norm2, norm1 = _encoded_weight_norms(w, s, bands, n)
        assert norm1 == max(int(np.abs(p).sum()) for p in polys)
        squares = max(int(np.dot(p, p)) for p in polys)
        assert norm2 ** 2 >= squares
        assert norm2 == pytest.approx(squares ** 0.5, rel=1e-12)

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("taps", [36, 512])
    def test_float64_spectrum_bound_is_sound(self, bits, taps):
        """Worst-case centered residues at the prime the engine picks:
        the float64 product is within the bound of the exact one."""
        n = 4096
        kernel = get_exact_negacyclic(n)
        rng = np.random.default_rng(13 + bits + taps)
        half = 1 << (bits - 1)
        w = np.zeros(n, dtype=np.int64)
        w[rng.choice(n, size=taps, replace=False)] = rng.integers(
            -half, half, size=taps
        )
        l1 = int(np.abs(w).sum())
        prime = ntt_modulus(n, l1 * half)
        bound = kernel.float64_bound(weight_norm(w), l1, prime // 2)
        a = rng.integers(-(prime // 2), prime // 2 + 1, size=(3, n))
        product = kernel.fft.inverse_batch(
            kernel.fft.forward_batch(a) * kernel.fft.forward_batch(w)
        )
        exact = np.stack([_negacyclic_exact(row, w) for row in a])
        realized = float(np.max(np.abs(product - exact)))
        assert 0 < realized <= bound
        if bits == 4 and taps == 36:
            assert bound < CERTIFIED_BELOW  # a 3x3, 4-channel 4-bit weight

    def test_float64_bound_exceeds_the_long_double_one(self):
        kernel = get_exact_negacyclic(CHEETAH.n)
        w = _fc_weight(np.random.default_rng(14), CHEETAH.n)
        norm, l1 = weight_norm(w), int(np.abs(w).sum())
        prime = CHEETAH.basis.primes[0]
        peak = float(np.max(np.abs(kernel.spectrum(w))))
        assert kernel.bound(prime, norm, peak) < kernel.float64_bound(
            norm, l1, prime // 2
        )

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("tiles", [1, 7, 32])
    def test_tile_sum_bound_is_sound(self, bits, tiles):
        """Activations at +-max|x| in every coefficient against 3x3,
        4-channel weights on ``tiles`` tiles: the spectral-domain sum of
        the float64 products, after one inverse, is within the bound of
        the exact integer sum."""
        n = 4096
        kernel = get_exact_negacyclic(n)
        rng = np.random.default_rng(16 + bits + tiles)
        half = 1 << (bits - 1)
        w = np.zeros((tiles, n), dtype=np.int64)
        for row in w:
            row[rng.choice(n, size=36, replace=False)] = rng.integers(
                -half, half, size=36
            )
        a = rng.choice([-half, half], size=(tiles, n))
        norm = max(weight_norm(row) for row in w)
        l1 = int(np.abs(w).sum(axis=1).max())
        bound = kernel.float64_bound(norm, l1, half, tiles)
        spectra = kernel.fft.forward_batch(w) * kernel.fft.forward_batch(a)
        product = kernel.fft.inverse_batch(spectra.sum(axis=0))
        exact = sum(_negacyclic_exact(a[t], w[t]) for t in range(tiles))
        realized = float(np.max(np.abs(product - exact)))
        assert 0 < realized <= bound < CERTIFIED_BELOW

    def test_tile_sum_bound_covers_every_tile(self):
        """A sum over T tiles is bounded by more than T single products:
        the T - 1 complex additions add their own term."""
        kernel = get_exact_negacyclic(CHEETAH.n)
        w = _conv_weight(np.random.default_rng(17), CHEETAH.n)
        norm, l1 = weight_norm(w), int(np.abs(w).sum())
        single = kernel.float64_bound(norm, l1, 128)
        assert kernel.float64_bound(norm, l1, 128, tiles=32) > 32 * single

    @pytest.mark.parametrize("bits", [4, 8])
    def test_multi_tile_band_is_certified_at_8_bits(self, bits):
        """``layer2.1.conv1`` at n = 4096 has 32 tiles per output channel.
        With the inputs' known magnitude in the certificate, 8-bit inputs
        and weights certify too (bounded by q/2 they ran the NTT)."""
        n = 4096
        shape = replace(RESNET18["layer2.1.conv1"], out_channels=2)
        rng = np.random.default_rng(18)
        half = 1 << (bits - 1)
        xs = rng.integers(
            -half, half, size=(1, shape.in_channels, shape.height, shape.width)
        )
        w = rng.integers(
            -half, half,
            size=(2, shape.in_channels, shape.kernel_h, shape.kernel_w),
        )
        (phase, _, _), = decompose_strided(shape)
        (_, band), = iter_row_bands(phase, n)
        assert Conv2dEncoder(band, n).num_tiles == 32
        engine = BatchedHConvEngine(mode="ntt", max_workers=2)
        out, attrs = _traced_conv(engine, xs, w, shape, n)
        assert attrs["digits"] == 1
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        assert np.array_equal(
            out, conv2d_int_batch(xs, w, shape.stride, shape.padding)
        )
        assert np.array_equal(out, hconv_ntt(xs[0], w, shape, n)[None])

    @pytest.mark.parametrize("arm", ["certified", "digit-split"])
    def test_one_inverse_per_output_channel(self, monkeypatch, arm):
        """The exact mode runs D * B * M inverse rows on a one-band layer:
        ``transforms_per_hconv()["inverse"]`` per item and digit."""
        if arm == "certified":
            n = 4096
            shape = replace(RESNET18["layer3.0.downsample"], out_channels=3)
            rng = np.random.default_rng(19)
            xs = rng.integers(
                -8, 8, size=(2, shape.in_channels, shape.height, shape.width)
            )
            w = rng.integers(-8, 8, size=(3, shape.in_channels, 1, 1))
        else:
            xs, w, shape, n = rejected_conv_inputs()
        rows = []
        inverse = NegacyclicFft.inverse_batch

        def counting(plan, spectrum):
            rows.append(int(np.prod(np.shape(spectrum)[:-1])))
            return inverse(plan, spectrum)

        monkeypatch.setattr(NegacyclicFft, "inverse_batch", counting)
        out, attrs = _traced_conv(
            BatchedHConvEngine(mode="ntt"), xs, w, shape, n
        )
        assert attrs["digits"] == (1 if arm == "certified" else 2)
        (phase, _, _), = decompose_strided(shape)
        (_, band), = iter_row_bands(phase, n)
        enc = Conv2dEncoder(band, n)
        assert enc.num_tiles > 1
        assert sum(rows) == attrs["digits"] * len(xs) * (
            enc.transforms_per_hconv()["inverse"]
        )
        assert np.array_equal(
            out, conv2d_int_batch(xs, w, shape.stride, shape.padding)
        )

    def test_ntt_prime_is_sized_per_output_channel(self):
        """Eight output channels of 18-bit weights: the whole kernel's
        ``sum|w| * max|x|`` needs a prime above ``ntt_modulus``'s 38-bit
        range, each channel's fits, so the ``hconv_ntt`` oracle stays
        exact.  The engine's digit split does not need a prime at all."""
        xs, _, shape, n = rejected_conv_inputs()
        shape = replace(shape, out_channels=8)
        rng = np.random.default_rng(5)
        w = rng.choice([-(1 << 17), 1 << 17], size=(8, 4, 1, 1))
        x_max = int(np.abs(xs).max())
        with pytest.raises(ValueError, match="NTT range"):
            ntt_modulus(n, int(np.abs(w).sum()) * x_max)
        assert channel_value_bound(w, x_max) == 4 * (1 << 17) * x_max
        out, attrs = _traced_conv(BatchedHConvEngine(mode="ntt"), xs, w, shape, n)
        assert attrs["digits"] == 2
        assert attrs["rounding_worst"] <= attrs["rounding_bound"] < 0.5
        expected = conv2d_int_batch(xs, w, shape.stride, shape.padding)
        assert np.array_equal(out, expected)
        assert np.array_equal(hconv_ntt(xs[0], w, shape, n), expected[0])

    def test_inputs_past_the_single_prime_ntt_range(self):
        """22-bit inputs against 18-bit weights: one output channel's
        ``sum|w| * max|x|`` exceeds the 38-bit range a single NTT prime
        covers; the engine's digit split stays exact."""
        xs, w, shape, n = rejected_conv_inputs()
        xs = np.random.default_rng(6).integers(
            -(1 << 21), 1 << 21, size=xs.shape
        )
        with pytest.raises(ValueError, match="NTT range"):
            ntt_modulus(n, channel_value_bound(w, int(np.abs(xs).max())))
        out, attrs = _traced_conv(BatchedHConvEngine(mode="ntt"), xs, w, shape, n)
        assert attrs["digits"] == 2
        assert attrs["rounding_worst"] <= attrs["rounding_bound"] < 0.5
        assert np.array_equal(
            out, conv2d_int_batch(xs, w, shape.stride, shape.padding)
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_rejected_call_runs_two_digits(self, workers):
        """18-bit multi-tile inputs that one digit does not certify: two
        digits sum the tile products in the spectral domain and stay
        bit-identical."""
        xs, w, shape, n = rejected_conv_inputs()
        engine = BatchedHConvEngine(mode="ntt", max_workers=workers)
        out, attrs = _traced_conv(engine, xs, w, shape, n)
        assert attrs["digits"] == 2
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        assert np.array_equal(
            out, conv2d_int_batch(xs, w, shape.stride, shape.padding)
        )
        assert np.array_equal(
            out, np.stack([hconv_ntt(x, w, shape, n) for x in xs])
        )
        keys = engine.plan_cache.keys()
        assert {key[0] for key in keys} == {"fft-plan", "fft-wspec"}
        # The same call with 4-bit inputs and weights runs one digit.
        _, small = _traced_conv(engine, xs % 16 - 8, w % 16 - 8, shape, n)
        assert small["digits"] == 1

    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("overflow", OverflowError, "exceed int64"),
            ("uncertified", ValueError, "no digit split certifies"),
        ],
    )
    def test_call_raises_before_any_transform(
        self, monkeypatch, case, error, match
    ):
        """Outputs that may exceed int64, and weights even one-bit digits
        do not certify, raise before any transform runs."""
        xs = np.ones((1, 2, 6, 6), dtype=np.int64)
        w = np.zeros((3, 2, 3, 3), dtype=np.int64)
        if case == "overflow":
            xs <<= 40
            w[:, :, 1, 1] = 1 << 30
        else:
            w[:, :, 1, 1] = 1 << 52
        _no_transform(monkeypatch)
        engine = BatchedHConvEngine(mode="ntt")
        with pytest.raises(error, match=match):
            engine.conv2d_batch(xs, w, SMALL_CONV, 64)
        assert len(engine.plan_cache) == 0
