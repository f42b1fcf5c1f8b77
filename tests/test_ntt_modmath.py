"""Unit and property tests for repro.ntt.modmath."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt import modmath


PRIME_39 = modmath.find_ntt_primes(39, 4096)[0]
PRIME_30 = modmath.find_ntt_primes(30, 4096)[0]
# The largest supported modulus class: a full 40-bit NTT prime.  This is
# the boundary the MOD001 lint rule protects -- the 20-bit split of mulmod
# needs q * 2**20 < 2**63, which holds up to exactly MAX_MODULUS_BITS.
PRIME_40 = modmath.find_ntt_primes(modmath.MAX_MODULUS_BITS, 4096)[0]

# Operands clustered at the dangerous end of the range: near q-1 the raw
# product approaches q**2 ~ 2**80, far beyond uint64.
_near_top = st.integers(min_value=PRIME_40 - 4096, max_value=PRIME_40 - 1)
_full_range = st.integers(min_value=0, max_value=PRIME_40 - 1)
_boundary = st.one_of(_near_top, _full_range)


class TestMulmod:
    def test_matches_python_ints_small(self):
        q = 97
        a = np.arange(97, dtype=np.uint64)
        b = np.arange(97, dtype=np.uint64)[::-1].copy()
        expected = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert modmath.mulmod(a, b, q).tolist() == expected

    def test_matches_python_ints_39bit(self):
        rng = np.random.default_rng(0)
        q = PRIME_39
        a = rng.integers(0, q, size=1000, dtype=np.uint64)
        b = rng.integers(0, q, size=1000, dtype=np.uint64)
        expected = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert modmath.mulmod(a, b, q).tolist() == expected

    def test_near_modulus_operands(self):
        q = PRIME_39
        a = np.array([q - 1, q - 1, 1, 0], dtype=np.uint64)
        b = np.array([q - 1, 1, q - 1, q - 1], dtype=np.uint64)
        expected = [(int(x) * int(y)) % q for x, y in zip(a, b)]
        assert modmath.mulmod(a, b, q).tolist() == expected

    def test_broadcasting_scalar(self):
        q = PRIME_30
        a = np.array([1, 2, 3], dtype=np.uint64)
        out = modmath.mulmod(a, 5, q)
        assert out.tolist() == [5, 10, 15]

    def test_rejects_oversized_modulus(self):
        with pytest.raises(modmath.ModulusError):
            modmath.mulmod(np.array([1], dtype=np.uint64), 1, 1 << 41)

    @given(
        a=st.integers(min_value=0, max_value=PRIME_39 - 1),
        b=st.integers(min_value=0, max_value=PRIME_39 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_random_39bit(self, a, b):
        out = modmath.mulmod(np.array([a], dtype=np.uint64), b, PRIME_39)
        assert int(out[0]) == (a * b) % PRIME_39


class TestAddSubNeg:
    @given(
        a=st.integers(min_value=0, max_value=PRIME_39 - 1),
        b=st.integers(min_value=0, max_value=PRIME_39 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_sub_roundtrip(self, a, b):
        q = PRIME_39
        av = np.array([a], dtype=np.uint64)
        s = modmath.addmod(av, b, q)
        assert int(modmath.submod(s, b, q)[0]) == a

    def test_neg(self):
        q = 97
        a = np.array([0, 1, 96], dtype=np.uint64)
        assert modmath.negmod(a, q).tolist() == [0, 96, 1]

    def test_sub_wraps(self):
        q = 97
        out = modmath.submod(np.array([1], dtype=np.uint64), 5, q)
        assert int(out[0]) == 93


class TestBoundaryModuli:
    """Property tests at the 40-bit modulus boundary.

    These encode the invariants the ``repro lint`` MOD rules protect: the
    vectorized kernels must agree with exact Python-int arithmetic for the
    *largest* supported modulus and operands pushed against ``q - 1``,
    where a raw ``a * b % q`` on uint64 wraps and silently corrupts.
    """

    def test_prime_is_at_the_bit_limit(self):
        assert PRIME_40.bit_length() == modmath.MAX_MODULUS_BITS
        # The split-safety preconditions documented in modmath.
        assert PRIME_40 << modmath.SPLIT_BITS < 1 << 63
        assert PRIME_40**2 >> modmath.SPLIT_BITS < 1 << 63

    @given(a=_boundary, b=_boundary)
    @settings(max_examples=300, deadline=None)
    def test_mulmod_exact_at_40_bits(self, a, b):
        out = modmath.mulmod(np.array([a], dtype=np.uint64), b, PRIME_40)
        assert int(out[0]) == a * b % PRIME_40

    @given(a=_near_top, b=_near_top)
    @settings(max_examples=200, deadline=None)
    def test_addmod_no_wrap_near_top(self, a, b):
        out = modmath.addmod(np.array([a], dtype=np.uint64), b, PRIME_40)
        assert int(out[0]) == (a + b) % PRIME_40

    @given(a=_boundary, b=_boundary)
    @settings(max_examples=200, deadline=None)
    def test_submod_stays_unsigned(self, a, b):
        out = modmath.submod(np.array([a], dtype=np.uint64), b, PRIME_40)
        assert int(out[0]) == (a - b) % PRIME_40

    @given(base=_boundary, e1=st.integers(0, 1 << 20), e2=st.integers(0, 1 << 20))
    @settings(max_examples=100, deadline=None)
    def test_powmod_exponent_law(self, base, e1, e2):
        q = PRIME_40
        lhs = modmath.powmod(base, e1 + e2, q)
        rhs = modmath.mulmod(
            np.array([modmath.powmod(base, e1, q)], dtype=np.uint64),
            modmath.powmod(base, e2, q),
            q,
        )
        assert int(rhs[0]) == lhs

    @given(a=_boundary, b=_boundary, c=_boundary)
    @settings(max_examples=100, deadline=None)
    def test_mulmod_distributes_over_addmod(self, a, b, c):
        """c*(a+b) == c*a + c*b (mod q): the butterfly identity chain."""
        q = PRIME_40
        cv = np.array([c], dtype=np.uint64)
        lhs = modmath.mulmod(cv, modmath.addmod(
            np.array([a], dtype=np.uint64), b, q), q)
        rhs = modmath.addmod(
            modmath.mulmod(cv, a, q), modmath.mulmod(cv, b, q), q
        )
        assert int(lhs[0]) == int(rhs[0])

    def test_wraparound_counterexample_documented(self):
        """The raw pattern MOD001 bans really does corrupt at 40 bits."""
        q = PRIME_40
        a = np.array([q - 1], dtype=np.uint64)
        with np.errstate(over="ignore"):
            raw = (a * np.uint64(q - 1)) % np.uint64(q)
        good = modmath.mulmod(a, q - 1, q)
        assert int(raw[0]) != int(good[0])
        assert int(good[0]) == (q - 1) * (q - 1) % q


class TestCentered:
    def test_roundtrip(self):
        q = 97
        a = np.arange(q, dtype=np.uint64)
        c = modmath.centered(a, q)
        assert c.max() <= q // 2
        assert c.min() >= -(q // 2)
        back = modmath.from_centered(c, q)
        assert back.tolist() == a.tolist()

    def test_half_maps_positive(self):
        # q odd: floor(q/2) stays positive, floor(q/2)+1 goes negative.
        q = 97
        c = modmath.centered(np.array([48, 49], dtype=np.uint64), q)
        assert c.tolist() == [48, -48]


class TestPrimes:
    def test_is_prime_small(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(30):
            assert modmath.is_prime(n) == (n in primes)

    def test_is_prime_carmichael(self):
        # 561 = 3*11*17 is a Carmichael number (fools Fermat tests).
        assert not modmath.is_prime(561)
        assert not modmath.is_prime(41041)

    def test_find_ntt_primes_congruence(self):
        for bits in (20, 30, 39):
            for n in (64, 4096):
                (p,) = modmath.find_ntt_primes(bits, n)
                assert p.bit_length() == bits
                assert p % (2 * n) == 1
                assert modmath.is_prime(p)

    def test_find_multiple_distinct(self):
        primes = modmath.find_ntt_primes(30, 4096, count=3)
        assert len(set(primes)) == 3

    def test_primitive_root(self):
        for q in (97, 257, 7681):
            g = modmath.primitive_root(q)
            seen = set()
            x = 1
            for _ in range(q - 1):
                x = x * g % q
                seen.add(x)
            assert len(seen) == q - 1

    def test_root_of_unity_order(self):
        q = 7681  # 7681 = 1 + 2^9 * 15, supports order-512 roots
        w = modmath.root_of_unity(512, q)
        assert pow(w, 512, q) == 1
        assert pow(w, 256, q) == q - 1

    def test_root_of_unity_rejects_bad_order(self):
        with pytest.raises(ValueError):
            modmath.root_of_unity(1 << 20, 97)


class TestBitReverse:
    def test_n8(self):
        assert modmath.bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_paper_example_index6(self):
        # Figure 3: m[6] = (110)b moves to position (011)b = 3.
        rev = modmath.bit_reverse_indices(8)
        assert rev[3] == 6

    def test_involution(self):
        for n in (2, 16, 128):
            rev = modmath.bit_reverse_indices(n)
            assert rev[rev].tolist() == list(range(n))

    def test_bit_reverse_array(self):
        a = np.arange(16)
        assert np.array_equal(modmath.bit_reverse(modmath.bit_reverse(a)), a)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            modmath.bit_reverse_indices(12)

    def test_table_is_shared_and_read_only(self):
        rev = modmath.bit_reverse_indices(64)
        assert modmath.bit_reverse_indices(64) is rev
        with pytest.raises(ValueError):
            rev[0] = 1


class TestInvPow:
    @given(a=st.integers(min_value=1, max_value=PRIME_30 - 1))
    @settings(max_examples=100, deadline=None)
    def test_invmod_property(self, a):
        inv = modmath.invmod(a, PRIME_30)
        assert a * inv % PRIME_30 == 1

    def test_invmod_noninvertible(self):
        with pytest.raises(ZeroDivisionError):
            modmath.invmod(0, 97)

    def test_powmod(self):
        assert modmath.powmod(3, 10, 1000003) == 3**10 % 1000003
