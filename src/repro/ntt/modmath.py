"""Vectorized modular arithmetic for NTT-friendly prime moduli.

All routines operate on ``numpy.uint64`` arrays and support moduli up to
``2**MAX_MODULUS_BITS`` (40 bits).  Products that would overflow 64 bits are
computed with a 20-bit split of one operand so every intermediate fits in a
``uint64``; this covers the 32-bit (F1), 35/39-bit (CHAM) and our own RNS
moduli without arbitrary-precision arithmetic in the hot path.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Largest supported modulus width, in bits.  The 20-bit split used by
#: :func:`mulmod` needs ``q * 2**SPLIT_BITS < 2**63`` and
#: ``q**2 / 2**SPLIT_BITS < 2**63``.
MAX_MODULUS_BITS = 40

#: Width of the low half in the operand split used by :func:`mulmod`.
SPLIT_BITS = 20

_SPLIT_MASK = np.uint64((1 << SPLIT_BITS) - 1)
_U64 = np.uint64


class ModulusError(ValueError):
    """Raised when a modulus is unsupported or inconsistent."""


def _check_modulus(q: int) -> None:
    if not isinstance(q, (int, np.integer)):
        raise ModulusError(f"modulus must be an integer, got {type(q)!r}")
    if q < 2:
        raise ModulusError(f"modulus must be >= 2, got {q}")
    if q.bit_length() > MAX_MODULUS_BITS:
        raise ModulusError(
            f"modulus {q} has {q.bit_length()} bits; "
            f"at most {MAX_MODULUS_BITS} supported (use an RNS basis)"
        )


def mulmod(a, b, q: int):
    """Element-wise ``(a * b) % q`` for ``uint64`` arrays with ``q < 2**40``.

    ``b`` is split as ``b = b_hi * 2**20 + b_lo``; then
    ``a*b mod q = ((a*b_hi mod q) << 20 + a*b_lo) mod q`` with every
    intermediate below ``2**63``.

    Args:
        a: array-like of residues in ``[0, q)``.
        b: array-like of residues in ``[0, q)`` (broadcastable with ``a``).
        q: modulus, at most :data:`MAX_MODULUS_BITS` bits.

    Returns:
        ``uint64`` array of ``(a * b) % q``.
    """
    _check_modulus(q)
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    b_hi = b >> _U64(SPLIT_BITS)
    b_lo = b & _SPLIT_MASK
    # repro-lint: disable=MOD001  this IS the split kernel: b_hi < 2**20 and
    # q < 2**40 keep a * b_hi below 2**60, inside uint64
    hi = (a * b_hi) % qa
    return ((hi << _U64(SPLIT_BITS)) + a * b_lo) % qa


def addmod(a, b, q: int):
    """Element-wise ``(a + b) % q`` without overflow for ``q < 2**40``."""
    _check_modulus(q)
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    return np.where(s >= qa, s - qa, s)


def submod(a, b, q: int):
    """Element-wise ``(a - b) % q`` staying inside unsigned arithmetic."""
    _check_modulus(q)
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return np.where(a >= b, a - b, a + qa - b)


def negmod(a, q: int):
    """Element-wise ``(-a) % q``."""
    _check_modulus(q)
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == 0, a, qa - a)


def powmod(base: int, exponent: int, q: int) -> int:
    """Scalar modular exponentiation ``base**exponent % q``."""
    _check_modulus(q)
    return pow(int(base) % q, int(exponent), q)


def invmod(a: int, q: int) -> int:
    """Scalar modular inverse of ``a`` modulo prime ``q``.

    Raises:
        ZeroDivisionError: if ``a`` is not invertible mod ``q``.
    """
    _check_modulus(q)
    a = int(a) % q
    if math.gcd(a, q) != 1:
        raise ZeroDivisionError(f"{a} is not invertible modulo {q}")
    return pow(a, -1, q)


def centered(a, q: int):
    """Map residues in ``[0, q)`` to the centered interval ``[-q/2, q/2)``.

    Returns an ``int64`` array (safe for ``q < 2**40``).
    """
    _check_modulus(q)
    a = np.asarray(a, dtype=np.uint64)
    half = _U64(q // 2)
    out = a.astype(np.int64)
    return np.where(a > half, out - np.int64(q), out)


def from_centered(a, q: int):
    """Inverse of :func:`centered`: map signed integers to ``[0, q)``."""
    _check_modulus(q)
    a = np.asarray(a, dtype=np.int64)
    return (a % np.int64(q)).astype(np.uint64)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    n = int(n)
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # These witnesses are a proven-deterministic set for n < 3.3 * 10**24.
    for a in small_primes:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n  # repro-lint: disable=MOD001  Python ints, exact
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_primes(bits: int, n: int, count: int = 1) -> list:
    """Find ``count`` primes ``q`` with ``q = 1 (mod 2n)`` of ``bits`` bits.

    Such primes admit a primitive ``2n``-th root of unity, enabling a
    negacyclic NTT of length ``n``.  Search proceeds downwards from the
    largest candidate below ``2**bits``.

    Args:
        bits: bit-length of the primes.
        n: NTT length (power of two).
        count: number of distinct primes to return.

    Raises:
        ValueError: if not enough primes exist in the requested range.
    """
    if bits > MAX_MODULUS_BITS:
        raise ModulusError(
            f"{bits}-bit primes exceed the {MAX_MODULUS_BITS}-bit limit"
        )
    if n < 2 or n & (n - 1):
        raise ValueError(f"NTT length must be a power of two >= 2, got {n}")
    step = 2 * n
    # Largest multiple of 2n strictly below 2**bits, plus 1.
    candidate = ((1 << bits) - 1) // step * step + 1
    lower = 1 << (bits - 1)
    primes = []
    while candidate > lower and len(primes) < count:
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= step
    if len(primes) < count:
        raise ValueError(
            f"only found {len(primes)} of {count} {bits}-bit NTT primes"
        )
    return primes


def primitive_root(q: int) -> int:
    """Smallest primitive root modulo prime ``q``."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    order = q - 1
    factors = _prime_factors(order)
    for g in range(2, q):
        if all(pow(g, order // p, q) != 1 for p in factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")  # pragma: no cover


def root_of_unity(order: int, q: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``q``.

    Raises:
        ValueError: if ``order`` does not divide ``q - 1``.
    """
    if (q - 1) % order != 0:
        raise ValueError(f"{order} does not divide q-1 for q={q}")
    g = primitive_root(q)
    root = pow(g, (q - 1) // order, q)
    # pow of a primitive root is primitive of the reduced order by
    # construction; assert the defining property for safety.
    if order % 2 == 0 and pow(root, order // 2, q) == 1:
        raise ArithmeticError("root is not primitive")  # pragma: no cover
    return root


def _prime_factors(n: int) -> list:
    """Distinct prime factors of ``n`` by trial division (n < 2**40 here)."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


@functools.lru_cache(maxsize=None)
def bit_reverse_indices(n: int) -> np.ndarray:
    """Permutation ``p`` with ``p[i]`` = bit-reversal of ``i`` in ``log2(n)`` bits.

    This is the input reordering of the decimation-in-time FFT/NTT
    (Figure 3 of the paper: index ``(110)b -> (011)b``).  Built once per
    ``n`` and shared by every caller, so the array is read-only.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.uint64)
    rev = np.zeros(n, dtype=np.uint64)
    for _ in range(bits):
        rev = (rev << _U64(1)) | (idx & _U64(1))
        idx >>= _U64(1)
    rev = rev.astype(np.int64)
    rev.setflags(write=False)
    return rev


def bit_reverse(a: np.ndarray) -> np.ndarray:
    """Return ``a`` permuted into bit-reversed order (length power of two)."""
    a = np.asarray(a)
    return a[bit_reverse_indices(a.shape[-1])]
