"""Tests for the negacyclic NTT and the RNS basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt import (
    NegacyclicNtt,
    RnsBasis,
    find_ntt_primes,
    get_ntt,
    negacyclic_convolution_naive,
)


@pytest.fixture(scope="module")
def ntt64():
    (q,) = find_ntt_primes(30, 64)
    return NegacyclicNtt(64, q)


class TestNegacyclicNtt:
    def test_roundtrip_identity(self, ntt64):
        rng = np.random.default_rng(1)
        a = rng.integers(0, ntt64.q, size=64, dtype=np.uint64)
        assert np.array_equal(ntt64.inverse(ntt64.forward(a)), a)

    def test_forward_of_delta_is_psi_powers(self, ntt64):
        # NTT(X^0) evaluates the constant 1 at every root: all ones after
        # the psi pre-twist of a delta at position 0.
        delta = np.zeros(64, dtype=np.uint64)
        delta[0] = 1
        assert np.array_equal(
            ntt64.forward(delta), np.ones(64, dtype=np.uint64)
        )

    def test_multiply_matches_naive(self, ntt64):
        rng = np.random.default_rng(2)
        a = rng.integers(0, ntt64.q, size=64, dtype=np.uint64)
        b = rng.integers(0, ntt64.q, size=64, dtype=np.uint64)
        expected = negacyclic_convolution_naive(a, b, modulus=ntt64.q)
        assert np.array_equal(ntt64.multiply(a, b), expected)

    def test_negacyclic_wrap_sign(self, ntt64):
        # X^(n-1) * X = X^n = -1 in Z[X]/(X^n + 1).
        n, q = ntt64.n, ntt64.q
        a = np.zeros(n, dtype=np.uint64)
        b = np.zeros(n, dtype=np.uint64)
        a[n - 1] = 1
        b[1] = 1
        out = ntt64.multiply(a, b)
        expected = np.zeros(n, dtype=np.uint64)
        expected[0] = q - 1
        assert np.array_equal(out, expected)

    def test_linearity(self, ntt64):
        rng = np.random.default_rng(3)
        q = ntt64.q
        a = rng.integers(0, q, size=64, dtype=np.uint64)
        b = rng.integers(0, q, size=64, dtype=np.uint64)
        lhs = ntt64.forward((a + b) % q)
        rhs = (ntt64.forward(a).astype(object) + ntt64.forward(b).astype(object)) % q
        assert np.array_equal(lhs.astype(object), rhs)

    def test_39bit_modulus(self):
        (q,) = find_ntt_primes(39, 256)
        ntt = NegacyclicNtt(256, q)
        rng = np.random.default_rng(4)
        a = rng.integers(0, q, size=256, dtype=np.uint64)
        b = rng.integers(0, q, size=256, dtype=np.uint64)
        expected = negacyclic_convolution_naive(a, b, modulus=q)
        assert np.array_equal(ntt.multiply(a, b), expected)

    def test_large_n4096_roundtrip(self):
        (q,) = find_ntt_primes(30, 4096)
        ntt = get_ntt(4096, q)
        rng = np.random.default_rng(5)
        a = rng.integers(0, q, size=4096, dtype=np.uint64)
        assert np.array_equal(ntt.inverse(ntt.forward(a)), a)

    def test_butterfly_count(self, ntt64):
        assert ntt64.butterfly_count() == 32 * 6

    def test_cache_returns_same_instance(self):
        (q,) = find_ntt_primes(30, 64)
        assert get_ntt(64, q) is get_ntt(64, q)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            NegacyclicNtt(63, 97)
        with pytest.raises(ValueError):
            NegacyclicNtt(64, 97)  # 97 != 1 mod 128

    def test_rejects_wrong_shape(self, ntt64):
        with pytest.raises(ValueError):
            ntt64.forward(np.zeros(32, dtype=np.uint64))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_multiply_matches_naive_n16(self, data):
        (q,) = find_ntt_primes(20, 16)
        ntt = get_ntt(16, q)
        a = np.array(
            data.draw(
                st.lists(
                    st.integers(0, q - 1), min_size=16, max_size=16
                )
            ),
            dtype=np.uint64,
        )
        b = np.array(
            data.draw(
                st.lists(
                    st.integers(0, q - 1), min_size=16, max_size=16
                )
            ),
            dtype=np.uint64,
        )
        expected = negacyclic_convolution_naive(a, b, modulus=q)
        assert np.array_equal(ntt.multiply(a, b), expected)


class TestNaiveConvolution:
    def test_signed_inputs(self):
        a = np.array([1, -2, 3, -4])
        b = np.array([-1, 2, -3, 4])
        out = negacyclic_convolution_naive(a, b)
        # Verify against polynomial algebra: reduce full product mod X^4+1.
        full = np.convolve(a, b)
        expected = full[:4].astype(object)
        expected[: len(full) - 4] -= full[4:]
        assert np.array_equal(out, expected)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            negacyclic_convolution_naive([1, 2], [1, 2, 3])


class TestRnsBasis:
    @pytest.fixture(scope="class")
    def basis(self):
        return RnsBasis.generate(64, [30, 30])

    def test_modulus_is_product(self, basis):
        assert basis.modulus == basis.primes[0] * basis.primes[1]
        assert basis.modulus.bit_length() in (59, 60)

    def test_crt_roundtrip(self, basis):
        rng = np.random.default_rng(6)
        vals = [int(rng.integers(0, 1 << 58)) for _ in range(64)]
        residues = basis.to_rns(np.array(vals, dtype=object))
        back = basis.from_rns(residues)
        assert [int(v) for v in back] == vals

    def test_centered_reconstruction(self, basis):
        vals = np.array([-5, -1, 0, 1, 5] + [0] * 59, dtype=np.int64)
        residues = basis.to_rns(vals)
        cent = basis.centered(residues)
        assert [int(v) for v in cent[:5]] == [-5, -1, 0, 1, 5]

    def test_mul_matches_bigint_naive(self, basis):
        rng = np.random.default_rng(7)
        a = rng.integers(-(1 << 20), 1 << 20, size=64)
        b = rng.integers(-100, 100, size=64)
        prod = basis.mul(basis.to_rns(a), basis.to_rns(b))
        got = basis.centered(prod)
        expected = negacyclic_convolution_naive(a, b)
        assert [int(v) for v in got] == [int(v) for v in expected]

    def test_add_sub_neg(self, basis):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 1 << 30, size=64)
        b = rng.integers(0, 1 << 30, size=64)
        ra, rb = basis.to_rns(a), basis.to_rns(b)
        s = basis.centered(basis.add(ra, rb))
        assert [int(v) for v in s] == [int(x) + int(y) for x, y in zip(a, b)]
        d = basis.centered(basis.sub(ra, rb))
        assert [int(v) for v in d] == [int(x) - int(y) for x, y in zip(a, b)]
        ng = basis.centered(basis.neg(ra))
        assert [int(v) for v in ng] == [-int(x) for x in a]

    def test_mul_scalar(self, basis):
        a = np.arange(64)
        out = basis.centered(basis.mul_scalar(basis.to_rns(a), 7))
        assert [int(v) for v in out] == [7 * i for i in range(64)]

    def test_zero(self, basis):
        z = basis.zero()
        assert all(int(v) == 0 for v in basis.from_rns(z))

    def test_rejects_non_ntt_prime(self):
        with pytest.raises(ValueError):
            RnsBasis([97], 64)

    def test_rejects_duplicate_primes(self):
        (p,) = find_ntt_primes(30, 64)
        with pytest.raises(ValueError):
            RnsBasis([p, p], 64)


def _bigint_crt(basis, residues):
    """Test oracle: the textbook CRT sum on Python ints, in ``[0, q)``."""
    q = basis.modulus
    values = [0] * len(residues[0])
    for res, p in zip(residues, basis.primes):
        q_hat = q // p
        q_hat_inv = pow(q_hat % p, -1, p)
        for i, r in enumerate(np.asarray(res).tolist()):
            values[i] += (int(r) * q_hat_inv % p) * q_hat
    return [v % q for v in values]


class TestRnsCrtDifferential:
    """Vectorized Garner CRT against the big-int oracle, q of 30-90 bits."""

    @pytest.fixture(
        scope="class",
        params=[(30,), (39,), (30, 30), (20, 20, 20), (30, 30, 30)],
        ids=["q30", "q39", "q60", "q60x3", "q90"],
    )
    def basis(self, request):
        return RnsBasis.generate(64, list(request.param))

    @staticmethod
    def _values(basis, seed):
        """Uniform values in [0, q) plus the interval edges."""
        q = basis.modulus
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 1 << 62, size=(64, 2)).tolist()
        vals = [((hi << 62) | lo) % q for hi, lo in words]
        vals[:5] = [0, 1, q // 2, q // 2 + 1, q - 1]
        return vals

    def test_from_rns_and_centered_match_oracle(self, basis):
        q = basis.modulus
        vals = self._values(basis, 20)
        residues = [np.array([v % p for v in vals], dtype=np.uint64)
                    for p in basis.primes]
        assert _bigint_crt(basis, residues) == vals
        back = basis.from_rns(residues)
        assert back.dtype == object
        assert [int(v) for v in back] == vals
        cent = basis.centered(residues)
        assert cent.dtype == object
        assert [int(v) for v in cent] == [v - q if v > q // 2 else v for v in vals]

    def test_int64_form_below_2_62(self, basis):
        vals = self._values(basis, 21)
        residues = basis.to_rns(np.array(vals, dtype=object))
        fast = basis._crt(residues, centered=True)
        expected = [int(v) for v in basis.centered(residues)]
        if basis.modulus < 1 << 62:
            assert fast.dtype == np.int64
        else:
            assert fast.dtype == object
        assert [int(v) for v in fast] == expected

    def test_to_rns_object_and_signed(self, basis):
        rng = np.random.default_rng(22)
        big = [int(v) * (1 << 40) - (1 << 70) for v in rng.integers(0, 1 << 40, 64)]
        for p, res in zip(basis.primes, basis.to_rns(np.array(big, dtype=object))):
            assert res.dtype == np.uint64
            assert res.tolist() == [v % p for v in big]
        small = rng.integers(-(1 << 62), 1 << 62, size=64)
        for p, res in zip(basis.primes, basis.to_rns(small)):
            assert res.tolist() == [int(v) % p for v in small]

    def test_unreduced_residues_accepted(self, basis):
        # The oracle reduces each residue first; so must the Garner digits.
        rng = np.random.default_rng(23)
        residues = [rng.integers(0, 1 << 62, size=64, dtype=np.uint64)
                    for _ in basis.primes]
        assert [int(v) for v in basis.from_rns(residues)] == _bigint_crt(
            basis, residues
        )
