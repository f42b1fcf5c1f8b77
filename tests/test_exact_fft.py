"""Exact ring products on the folded FFT: the certificate and its fallback.

The exact backend and the BFV key products run each (weight, prime) pair
on the float64 folded FFT only when an a-priori round-off bound is below
1/2; every other pair runs the per-prime NTT.  These tests pin down that
the realized rounding stays under the bound, that rejected products fall
back in order, and that every output is bit-identical to the NTT oracle
(``RingPoly`` products, which run ``RnsBasis.mul``).
"""

import numpy as np
import pytest

from repro.fftcore.exact import (
    CERTIFIED_BELOW,
    get_exact_negacyclic,
    weight_norm,
)
from repro.fftcore.reference import fft_dit_batch
from repro.he.backend import NttPolyMulBackend
from repro.he.bfv import BfvContext
from repro.he.params import cham_preset, cheetah_preset
from repro.he.poly import RingPoly, uniform_poly
from repro.obs import trace as obs_trace

CHEETAH = cheetah_preset()
CHAM = cham_preset()


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
        assert attrs["ntt_fallback"] == 0
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"]
        assert attrs["rounding_bound"] < CERTIFIED_BELOW
        # One 8*n-byte spectrum per distinct weight, no NTT spectra.
        assert backend.plan_cache.cached_bytes == 3 * 8 * basis.n
        assert all(key[0] == "exact-wspec" for key in backend.plan_cache.keys())

    def test_keygen_ternary_key(self):
        ctx = BfvContext(CHEETAH)
        rng = np.random.default_rng(7)
        sk, pk = ctx.keygen(rng)
        assert all(b < CERTIFIED_BELOW for b in sk.bounds)
        assert sk.spectrum[0] is sk.spectrum[1]  # one spectrum, all limbs
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


class TestFallback:
    def test_cham_prime_runs_the_ntt(self):
        rng = np.random.default_rng(8)
        basis = CHAM.basis
        polys = [uniform_poly(basis, rng) for _ in range(4)]
        weights = [_conv_weight(rng, basis.n) for _ in range(4)]
        backend = NttPolyMulBackend()
        outs, attrs = _traced_multiply(backend, polys, weights)
        assert _identical(outs, _oracle(polys, weights))
        assert attrs["ntt_fallback"] == 4
        assert attrs["rounding_worst"] == attrs["rounding_bound"] == 0.0
        # Rejected before any FFT spectrum was built.
        assert all(key[0] == "rns-wspec" for key in backend.plan_cache.keys())

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
        # Three dense rows on the NTT at each of the two primes.
        assert attrs["ntt_fallback"] == 3 * 2
        assert 0 < attrs["rounding_worst"] <= attrs["rounding_bound"] < 0.5
        # The dense weights were rejected on their spectrum's peak.
        kernel = get_exact_negacyclic(basis.n)
        peak = float(np.max(np.abs(kernel.spectrum(dense))))
        norm = weight_norm(dense)
        prime = basis.primes[0]
        assert kernel.bound(prime, norm) < CERTIFIED_BELOW
        assert kernel.bound(prime, norm, peak) >= CERTIFIED_BELOW
        again = backend.multiply_many(polys, weights)  # warm caches
        assert _identical(again, outs)

    def test_fallback_is_load_bearing(self):
        """Dense 11-bit weights at a 40-bit prime: the raw FFT product is
        wrong; the certificate rejects it and the backend still matches
        the oracle."""
        from repro.he.backend import exact_fft_products
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
        )
        oracle = _oracle(polys, weights)
        assert not all(
            np.array_equal(row, ref.residues[0]) for row, ref in zip(raw, oracle)
        )
        outs = NttPolyMulBackend().multiply_many(polys, weights)
        assert _identical(outs, oracle)

    def test_cham_decrypt_batch_matches_oracle(self):
        ctx = BfvContext(CHAM)
        rng = np.random.default_rng(10)
        sk, pk = ctx.keygen(rng)
        assert all(b >= CERTIFIED_BELOW for b in sk.bounds)
        m = rng.integers(0, ctx.params.t, size=(3, ctx.params.n))
        cts = [ctx.encrypt_symmetric(sk, row, rng) for row in m]
        cts += [ctx.encrypt(pk, row, rng) for row in m]
        (messages, budgets), attrs = _traced_decrypt(ctx, sk, cts)
        assert np.array_equal(messages, np.concatenate([m, m]))
        oracle = _decrypt_oracle(ctx, sk, cts)
        assert np.array_equal(messages, oracle[0])
        assert [b.hex() for b in budgets] == [b.hex() for b in oracle[1]]
        assert attrs["rounding_worst"] == attrs["rounding_bound"] == 0.0
