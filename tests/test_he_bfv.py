"""Tests for the BFV scheme: correctness, homomorphism, noise, backends."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import (
    BfvContext,
    BfvParameters,
    NttPolyMulBackend,
    cham_preset,
    cheetah_preset,
    flash_backend,
    fp_fft_backend,
    preset,
    toy_preset,
)
from repro.he.bfv import Ciphertext, SecretKey
from repro.he.poly import RingPoly
from repro.ntt import negacyclic_convolution_naive


@pytest.fixture(scope="module")
def ctx():
    return BfvContext(toy_preset())


@pytest.fixture(scope="module")
def keys(ctx):
    return ctx.keygen(np.random.default_rng(42))


def _random_message(ctx, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, ctx.params.t, size=ctx.params.n, dtype=np.int64)


class TestParameters:
    def test_cheetah_preset(self):
        p = cheetah_preset()
        assert p.n == 4096
        assert p.t == 1 << 21
        assert p.q.bit_length() in (59, 60)
        assert p.delta == p.q // p.t

    def test_cham_preset_single_39bit_prime(self):
        p = cham_preset()
        assert len(p.basis.primes) == 1
        assert p.basis.primes[0].bit_length() == 39

    def test_noise_ceiling(self):
        p = toy_preset()
        assert p.noise_ceiling == p.q // (2 * p.t)

    def test_preset_lookup(self):
        assert preset("toy").n == 64
        with pytest.raises(KeyError):
            preset("nonexistent")

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            BfvParameters(n=64, plain_modulus=1 << 35, q_bits=(30,))

    def test_describe(self):
        assert "n=64" in toy_preset().describe()


class TestEncryptDecrypt:
    def test_roundtrip_public_key(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 0)
        ct = ctx.encrypt(pk, m, np.random.default_rng(1))
        assert np.array_equal(ctx.decrypt(sk, ct), m)

    def test_roundtrip_symmetric(self, ctx, keys):
        sk, _ = keys
        m = _random_message(ctx, 2)
        ct = ctx.encrypt_symmetric(sk, m, np.random.default_rng(3))
        assert np.array_equal(ctx.decrypt(sk, ct), m)

    def test_decrypt_signed_centers(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m = np.array([0, 1, t - 1, t // 2] + [0] * (ctx.params.n - 4))
        ct = ctx.encrypt(pk, m, np.random.default_rng(4))
        signed = ctx.decrypt_signed(sk, ct)
        assert signed[1] == 1
        assert signed[2] == -1
        assert signed[3] == -(t // 2)

    def test_fresh_noise_budget_positive(self, ctx, keys):
        sk, pk = keys
        ct = ctx.encrypt(pk, _random_message(ctx, 5), np.random.default_rng(6))
        budget = ctx.noise_budget(sk, ct)
        assert budget > 10

    def test_symmetric_noise_smaller_than_public(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 7)
        rng = np.random.default_rng(8)
        ct_pk = ctx.encrypt(pk, m, rng)
        ct_sym = ctx.encrypt_symmetric(sk, m, rng)
        assert ctx.noise_infinity(sk, ct_sym) <= ctx.noise_infinity(sk, ct_pk)

    def test_wrong_length_rejected(self, ctx, keys):
        _, pk = keys
        with pytest.raises(ValueError):
            ctx.encrypt(pk, np.zeros(5), np.random.default_rng(0))

    def test_message_reduced_mod_t(self, ctx, keys):
        sk, pk = keys
        m = np.full(ctx.params.n, ctx.params.t + 3, dtype=np.int64)
        ct = ctx.encrypt(pk, m, np.random.default_rng(9))
        assert np.all(ctx.decrypt(sk, ct) == 3)


class TestHomomorphism:
    def test_add(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 10), _random_message(ctx, 11)
        rng = np.random.default_rng(12)
        ct = ctx.add(ctx.encrypt(pk, m1, rng), ctx.encrypt(pk, m2, rng))
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 + m2) % t)

    def test_sub(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 13), _random_message(ctx, 14)
        rng = np.random.default_rng(15)
        ct = ctx.sub(ctx.encrypt(pk, m1, rng), ctx.encrypt(pk, m2, rng))
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 - m2) % t)

    def test_negate(self, ctx, keys):
        sk, pk = keys
        m = _random_message(ctx, 16)
        ct = ctx.negate(ctx.encrypt(pk, m, np.random.default_rng(17)))
        assert np.array_equal(ctx.decrypt(sk, ct), (-m) % ctx.params.t)

    def test_add_plain(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 18), _random_message(ctx, 19)
        ct = ctx.add_plain(ctx.encrypt(pk, m1, np.random.default_rng(20)), m2)
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 + m2) % t)

    def test_sub_plain(self, ctx, keys):
        sk, pk = keys
        t = ctx.params.t
        m1, m2 = _random_message(ctx, 21), _random_message(ctx, 22)
        ct = ctx.sub_plain(ctx.encrypt(pk, m1, np.random.default_rng(23)), m2)
        assert np.array_equal(ctx.decrypt(sk, ct), (m1 - m2) % t)

    def test_add_plain_adds_almost_no_noise(self, ctx, keys):
        # Message wrap mod t perturbs the phase by at most q mod t per
        # wrapped slot (Delta*t = q - (q mod t)); otherwise noise-free.
        sk, pk = keys
        m = _random_message(ctx, 24)
        ct = ctx.encrypt(pk, m, np.random.default_rng(25))
        before = ctx.noise_infinity(sk, ct)
        after = ctx.noise_infinity(sk, ctx.add_plain(ct, m))
        assert after <= before + ctx.params.q % ctx.params.t

    def test_zero_ciphertext(self, ctx, keys):
        sk, _ = keys
        assert np.all(ctx.decrypt(sk, ctx.zero_ciphertext()) == 0)


class TestMultiplyPlain:
    def _check_multiply(self, ctx, keys, backend, atol=0):
        sk, pk = keys
        t, n = ctx.params.t, ctx.params.n
        rng = np.random.default_rng(26)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
        expected = negacyclic_convolution_naive(m, w, modulus=t)
        if atol == 0:
            assert np.array_equal(out.astype(np.uint64), expected)
        else:
            diff = np.abs(out.astype(np.int64) - expected.astype(np.int64))
            diff = np.minimum(diff, t - diff)  # wrap-aware distance
            assert diff.max() <= atol

    def test_ntt_backend_exact(self, ctx, keys):
        self._check_multiply(ctx, keys, NttPolyMulBackend())

    def test_fp_fft_backend_exact(self, ctx, keys):
        self._check_multiply(ctx, keys, fp_fft_backend())

    def test_flash_backend_close(self, ctx, keys):
        backend = flash_backend(ctx.params.n, stage_widths=24, twiddle_k=6)
        self._check_multiply(ctx, keys, backend, atol=2)

    def test_flash_backend_default_errors_confined_to_lsbs(self, ctx, keys):
        # k=5 twiddles (the paper's post-training setting) leave errors in
        # the low bits of the message -- tolerated at layer/network level,
        # not bit-exact.  Allow ~4 LSBs of the 10-bit toy plaintext.
        backend = flash_backend(ctx.params.n)
        self._check_multiply(ctx, keys, backend, atol=ctx.params.t // 64)

    def test_flash_backend_error_shrinks_with_k(self, ctx, keys):
        sk, pk = keys
        n, t = ctx.params.n, ctx.params.t
        rng = np.random.default_rng(33)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        expected = negacyclic_convolution_naive(m, w, modulus=t).astype(np.int64)
        worst = []
        for k in (2, 5, 12):
            backend = flash_backend(n, stage_widths=30, twiddle_k=k)
            out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
            diff = np.abs(out - expected)
            worst.append(int(np.minimum(diff, t - diff).max()))
        assert worst[2] <= worst[1] <= worst[0]
        assert worst[2] <= 1

    def test_noise_grows_with_weight_norm(self, ctx, keys):
        sk, pk = keys
        n = ctx.params.n
        m = _random_message(ctx, 27)
        ct = ctx.encrypt(pk, m, np.random.default_rng(28))
        small = np.zeros(n, dtype=np.int64)
        small[0] = 1
        big = np.zeros(n, dtype=np.int64)
        big[:16] = 7
        noise_small = ctx.noise_infinity(sk, ctx.multiply_plain(ct, small))
        noise_big = ctx.noise_infinity(sk, ctx.multiply_plain(ct, big))
        assert noise_big > noise_small

    def test_weight_length_validated(self, ctx, keys):
        _, pk = keys
        ct = ctx.encrypt(pk, _random_message(ctx, 29), np.random.default_rng(30))
        with pytest.raises(ValueError):
            ctx.multiply_plain(ct, np.ones(5))

    def test_fft_backend_spectrum_cache(self, ctx, keys):
        backend = fp_fft_backend()
        _, pk = keys
        n = ctx.params.n
        w = np.zeros(n)
        w[0] = 1
        ct = ctx.encrypt(pk, _random_message(ctx, 31), np.random.default_rng(32))
        cache = backend.plan_cache
        ctx.multiply_plain(ct, w, backend)
        # c0 and c1 share the weight: its spectrum is looked up (and
        # built) once, next to the pipeline.
        assert [key[0] for key in cache.keys()] == ["fft-plan", "fft-wspec"]
        assert cache.misses == 2
        ctx.multiply_plain(ct, w, backend)
        assert cache.misses == 2 and len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_property_roundtrip(self, seed):
        local_ctx = BfvContext(toy_preset())
        rng = np.random.default_rng(seed)
        sk, pk = local_ctx.keygen(rng)
        m = rng.integers(0, local_ctx.params.t, size=local_ctx.params.n)
        ct = local_ctx.encrypt(pk, m, rng)
        assert np.array_equal(local_ctx.decrypt(sk, ct), m % local_ctx.params.t)


def _ntt_store_backend(capacity_bytes=None):
    """The NTT backend with Figure 1's pre-stored weight spectra: a
    byte-budgeted store that raises MemoryError when full."""
    from repro.runtime import PlanCache

    return NttPolyMulBackend(
        plan_cache=PlanCache(capacity_bytes=capacity_bytes, on_full="error")
    )


class TestNttSpectrumStore:
    def test_exact_and_caches(self, ctx, keys):
        sk, pk = keys
        backend = _ntt_store_backend()
        primes = len(ctx.params.basis.primes)
        n, t = ctx.params.n, ctx.params.t
        rng = np.random.default_rng(40)
        m = rng.integers(0, 1 << 8, size=n, dtype=np.int64)
        w = np.zeros(n, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)
        ct = ctx.encrypt(pk, m, rng)
        out = ctx.decrypt(sk, ctx.multiply_plain(ct, w, backend))
        expected = negacyclic_convolution_naive(m, w, modulus=t)
        assert np.array_equal(out.astype(np.uint64), expected)
        # One FFT spectrum per weight serves every prime, and c0/c1 share
        # it: one miss, then one hit per later multiply_plain.
        cache = backend.plan_cache
        assert primes == 2
        assert (cache.misses, cache.hits) == (1, 0)
        ctx.multiply_plain(ct, w, backend)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_memory_accounting(self, ctx, keys):
        _, pk = keys
        backend = _ntt_store_backend()
        n = ctx.params.n
        rng = np.random.default_rng(41)
        ct = ctx.encrypt(pk, _random_message(ctx, 42), rng)
        w = np.zeros(n, dtype=np.int64)
        w[0] = 1
        ctx.multiply_plain(ct, w, backend)
        # One cached complex128 spectrum of n/2 points for all RNS primes.
        assert len(ctx.params.basis.primes) == 2
        assert backend.plan_cache.cached_bytes == 8 * n

    def test_default_backend_resolved_once_per_context(self, keys):
        sk, pk = keys
        local_ctx = BfvContext(toy_preset())
        rng = np.random.default_rng(45)
        m = _random_message(local_ctx, 46)
        ct = local_ctx.encrypt(pk, m, rng)
        w = np.zeros(local_ctx.params.n, dtype=np.int64)
        w[:3] = [2, -1, 3]
        first = local_ctx.multiply_plain(ct, w)
        cache = local_ctx.backend.plan_cache
        misses, hits = cache.misses, cache.hits
        second = local_ctx.multiply_plain(ct, w)  # the cached spectrum
        assert cache.misses == misses and cache.hits > hits
        assert np.array_equal(
            local_ctx.decrypt(sk, first), local_ctx.decrypt(sk, second)
        )

    def test_capacity_enforced(self, ctx, keys):
        _, pk = keys
        backend = _ntt_store_backend(capacity_bytes=100)
        rng = np.random.default_rng(43)
        ct = ctx.encrypt(pk, _random_message(ctx, 44), rng)
        w = np.zeros(ctx.params.n, dtype=np.int64)
        w[0] = 1
        with pytest.raises(MemoryError):
            ctx.multiply_plain(ct, w, backend)


# ---------------------------------------------------------------------------
# Differential tests against the big-int oracle
# ---------------------------------------------------------------------------


def _oracle_round_div(a, b):
    """Round-to-nearest ``a / b``, ties away from zero (Python ints)."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def _oracle_decode(phase, q, t):
    """Message and noise infinity norm of centered phases, on Python ints."""
    delta = q // t
    message = [_oracle_round_div(x * t, q) % t for x in phase]
    worst = 0
    for x, m in zip(phase, message):
        residual = (x - delta * m) % q
        if residual > q // 2:
            residual -= q
        worst = max(worst, abs(residual))
    return message, worst


def _phase_ciphertext(basis, phase):
    """A ciphertext ``(x, 0)``: its decryption phase is ``x`` for any key."""
    residues = [np.array([x % p for x in phase], dtype=np.uint64)
                for p in basis.primes]
    return Ciphertext(RingPoly(basis, residues), RingPoly.zero(basis))


_Q_BITS = [(30,), (39,), (30, 30), (30, 30, 30)]
_PLAIN = [1 << 10, 1 << 18, 1 << 21, 65537]


@pytest.fixture(
    scope="module",
    params=[(bits, t) for bits in _Q_BITS for t in _PLAIN],
    ids=lambda p: f"q{sum(p[0])}-t{p[1]}",
)
def diff_ctx(request):
    bits, t = request.param
    return BfvContext(BfvParameters(n=64, plain_modulus=t, q_bits=bits))


class TestDecodeDifferential:
    @staticmethod
    def _phases(ctx, seed):
        """Centered phases: uniform garbage, the neighbours of rounding
        half-points ``(2k+1)q/2t`` of both signs, and the edges.

        q is a product of odd primes, so ``2tx = (2k+1)q`` has no integer
        solution and an exact tie never occurs.  The closest approach is
        ``(2k+1)q = 2tx -+ 1``: the odd ``2k+1`` is then ``-+q^-1 mod 2t``.
        """
        q, t = ctx.params.q, ctx.params.t
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 62, size=(30, 2)).tolist()
        phase = [((hi << 62) | lo) % q - q // 2 for hi, lo in words]
        inv = pow(q, -1, 2 * t)
        odds = [inv, 2 * t - inv, 1, 2 * t - 1] + [
            2 * k + 1 for k in rng.integers(0, t // 2, size=2).tolist()
        ]
        for odd in odds:
            half = odd * q // (2 * t)
            for x in (half, half + 1):
                x = (x + q // 2) % q - q // 2  # centered representative
                phase += [x, -x]
        phase += [0, 1, -1, q // 2, -(q // 2)]
        return (phase + [0] * 64)[:64]

    def test_decrypt_and_noise_match_oracle(self, diff_ctx):
        ctx = diff_ctx
        sk = SecretKey(RingPoly.zero(ctx.basis))
        for seed in (50, 51):
            phase = self._phases(ctx, seed)
            ct = _phase_ciphertext(ctx.basis, phase)
            message, noise = _oracle_decode(phase, ctx.params.q, ctx.params.t)
            assert ctx.decrypt(sk, ct).tolist() == message
            assert ctx.noise_infinity(sk, ct) == noise

    def test_decrypt_with_budget_is_both_calls(self, diff_ctx):
        """A batch of one through ``decrypt_batch`` (message and budget
        from one phase) equals separate ``decrypt`` + ``noise_budget``."""
        ctx = diff_ctx
        rng = np.random.default_rng(52)
        sk, _ = ctx.keygen(rng)
        m = rng.integers(0, ctx.params.t, size=ctx.params.n)
        for ct in (
            ctx.encrypt_symmetric(sk, m, rng),
            _phase_ciphertext(ctx.basis, self._phases(ctx, 53)),
        ):
            messages, budgets = ctx.decrypt_batch(sk, [ct])
            assert np.array_equal(messages[0], ctx.decrypt(sk, ct))
            assert messages.dtype == np.int64
            assert budgets == [ctx.noise_budget(sk, ct)]

    def test_encode_matches_oracle(self, diff_ctx):
        ctx = diff_ctx
        q, t, n = ctx.params.q, ctx.params.t, ctx.params.n
        delta = ctx.params.delta
        rng = np.random.default_rng(54)
        signed = rng.integers(-(1 << 40), 1 << 40, size=n)
        cases = [
            signed,
            signed.astype(np.uint64),  # wraps: exercises the uint64 branch
            np.array([int(v) << 70 for v in signed], dtype=object),
        ]
        for m in cases:
            got = ctx._encode(m)
            for p, res in zip(ctx.basis.primes, got.residues):
                expected = [delta * (int(v) % t) % q % p for v in m.tolist()]
                assert res.dtype == np.uint64
                assert res.tolist() == expected


class TestFftLiftReduce:
    """The FFT backends' CRT lift and rounding reduction vs the oracle."""

    @pytest.fixture(scope="class", params=[(30, 30), (30, 30, 30)],
                    ids=["q60", "q90"])
    def basis(self, request):
        return BfvParameters(n=64, plain_modulus=1 << 10,
                             q_bits=request.param).basis

    def test_lift_rounds_like_float_of_int(self, basis):
        from repro.he.backend import centered_lift

        q = basis.modulus
        rng = np.random.default_rng(60)
        words = rng.integers(0, 1 << 62, size=(64, 2)).tolist()
        phase = [((hi << 62) | lo) % q - q // 2 for hi, lo in words]
        phase[:4] = [-1, -(1 << 53) - 1, (1 << 53) + 1, -(q // 2)]
        poly = _phase_ciphertext(basis, phase).c0
        lift = centered_lift(poly)
        assert lift.dtype == np.float64
        assert lift.tolist() == [float(v) for v in phase]

    def test_reduce_rounds_half_even_then_mod_q(self, basis):
        from repro.he.backend import round_to_ring

        q = basis.modulus
        rng = np.random.default_rng(61)
        product = rng.normal(0.0, 2.0 ** 50, size=64)
        product[:10] = [2.5, -2.5, 3.5, -3.5, -0.4, -0.0,
                        2.0 ** 53 + 2, -(2.0 ** 60), 2.0 ** 70, -(2.0 ** 80)]
        poly = round_to_ring(basis, product)
        ints = [int(round(float(v))) % q for v in product]
        for p, res in zip(basis.primes, poly.residues):
            assert res.dtype == np.uint64
            assert res.tolist() == [v % p for v in ints]

    def test_reduce_rejects_non_finite(self, basis):
        from repro.he.backend import round_to_ring

        product = np.zeros(64)
        product[3] = np.inf
        with pytest.raises(OverflowError):
            round_to_ring(basis, product)


# ---------------------------------------------------------------------------
# Batched decryption and the cached key spectrum
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["cheetah", "q72-object"])
def wide_ctx(request):
    """The paper-scale preset and a q >= 2**61 context (object decode)."""
    if request.param == "cheetah":
        return BfvContext(cheetah_preset())
    ctx = BfvContext(BfvParameters(n=256, plain_modulus=1 << 17,
                                   q_bits=(36, 36)))
    assert ctx.params.q >= 1 << 61 and not ctx._int64_decode
    return ctx


def _mixed_ciphertexts(ctx, sk, pk, k, seed):
    """``k`` ciphertexts: symmetric and public-key encryptions plus the
    hand-built edge phases of :class:`TestDecodeDifferential`."""
    rng = np.random.default_rng(seed)
    n, t = ctx.params.n, ctx.params.t
    edges = TestDecodeDifferential._phases(ctx, seed)
    cts = []
    for i in range(k):
        m = rng.integers(0, t, size=n)
        if i % 3 == 0:
            cts.append(ctx.encrypt_symmetric(sk, m, rng))
        elif i % 3 == 1:
            cts.append(_phase_ciphertext(ctx.basis, edges + [0] * (n - 64)))
        else:
            cts.append(ctx.encrypt(pk, m, rng))
    return cts


def _assert_batch_is_single_calls(ctx, k, seed):
    sk, pk = ctx.keygen(np.random.default_rng(seed))
    cts = _mixed_ciphertexts(ctx, sk, pk, k, seed + 1)
    messages, budgets = ctx.decrypt_batch(sk, cts)
    assert messages.shape == (k, ctx.params.n)
    assert messages.dtype == np.int64
    assert len(budgets) == k
    for row, budget, ct in zip(messages, budgets, cts):
        assert np.array_equal(row, ctx.decrypt(sk, ct))
        assert budget.hex() == ctx.noise_budget(sk, ct).hex()


class TestDecryptBatch:
    @pytest.mark.parametrize("k", [1, 5])
    def test_rows_are_single_calls(self, diff_ctx, k):
        _assert_batch_is_single_calls(diff_ctx, k, 70)

    @pytest.mark.parametrize("k", [1, 5])
    def test_rows_are_single_calls_wide(self, wide_ctx, k):
        _assert_batch_is_single_calls(wide_ctx, k, 71)

    def test_empty_batch(self, ctx, keys):
        messages, budgets = ctx.decrypt_batch(keys[0], [])
        assert messages.shape == (0, ctx.params.n)
        assert budgets == []

    @pytest.mark.parametrize("which", ["diff", "cheetah"])
    def test_key_products_match_ringpoly_oracle(self, diff_ctx, which):
        from repro.he.poly import gaussian_poly, ternary_poly, uniform_poly

        ctx = diff_ctx if which == "diff" else BfvContext(cheetah_preset())
        basis, std = ctx.basis, ctx.params.error_std
        sk, pk = ctx.keygen(np.random.default_rng(72))
        oracle = np.random.default_rng(72)
        s = ternary_poly(basis, oracle)
        a = uniform_poly(basis, oracle)
        e = gaussian_poly(basis, oracle, std)
        assert sk.s == s and pk.p1 == a
        assert pk.p0 == -(a * s + e)

        m = np.random.default_rng(73).integers(0, ctx.params.t, ctx.params.n)
        ct = ctx.encrypt_symmetric(sk, m, np.random.default_rng(74))
        oracle = np.random.default_rng(74)
        a = uniform_poly(basis, oracle)
        e = gaussian_poly(basis, oracle, std)
        assert ct.c1 == a
        assert ct.c0 == -(a * sk.s) + e + ctx._encode(m)

    @pytest.mark.parametrize("kind", ["zero", "ternary"])
    def test_directly_built_key_decrypts(self, ctx, kind):
        from repro.he.poly import ternary_poly

        rng = np.random.default_rng(75)
        if kind == "zero":
            s = RingPoly.zero(ctx.basis)
        else:
            s = ternary_poly(ctx.basis, rng)
        sk = SecretKey(s)
        m = _random_message(ctx, 76)
        cts = [ctx.encrypt_symmetric(sk, m, rng) for _ in range(3)]
        messages, budgets = ctx.decrypt_batch(sk, cts)
        for row in messages:
            assert np.array_equal(row, m)
        assert min(budgets) > 0
        assert sk == SecretKey(s.copy())  # the spectrum is not compared

    def test_key_is_frozen(self, keys):
        sk = keys[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            sk.s = RingPoly.zero(sk.s.basis)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sk.spectrum = ()
        with pytest.raises(ValueError):
            sk.spectrum[0] = 1  # read-only spectrum
        assert "spectrum" not in repr(sk)
