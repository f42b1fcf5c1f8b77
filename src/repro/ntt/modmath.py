"""Vectorized modular arithmetic for NTT-friendly prime moduli.

Residues are ``numpy.uint64`` arrays in ``[0, q)`` at every API, for
moduli up to ``2**MAX_MODULUS_BITS`` (40 bits): the 32-bit (F1),
35/39-bit (CHAM) and our own RNS moduli, without arbitrary-precision
arithmetic in the hot path.

Every exact reduction runs through :func:`floor_mod`, ``x - (x // q) *
q``, on int64 views of the operands (or on uint64 residues).  numpy
divides an integer array by a scalar with libdivide, a multiply and a
shift per element: about a quarter of the hardware division per element
behind ``x % q``, so the whole reduction costs about half of ``%``.
The kernels keep every intermediate below ``2**62``: a product of two
residues is one multiply when ``q < 2**31``, and otherwise takes a
20-bit split of one operand, whose partial products stay below ``2**60``
and their sum below ``2**61`` for ``q <= 2**40``.  ``addmod``/``submod`` are one
add or subtract plus an unsigned fix-up (``min(s, s - q)``: a difference
that wraps below zero is the larger).
"""

from __future__ import annotations

import functools
import math
from typing import List

import numpy as np

#: Largest supported modulus width, in bits.  The 20-bit split used by
#: :func:`mulmod` needs ``q * 2**SPLIT_BITS < 2**63`` and
#: ``q**2 / 2**SPLIT_BITS < 2**63``; at 40 bits both are below ``2**60``.
MAX_MODULUS_BITS = 40

#: Width of the low half in the operand split used by :func:`mulmod`.
SPLIT_BITS = 20

#: Widest modulus whose residue products take one multiply: two residues
#: below ``2**31`` multiply to below ``2**62``.
SINGLE_PRODUCT_BITS = 31

#: Elements per block of :func:`row_blocks` (128 KiB of int64).
BLOCK_ELEMENTS = 1 << 14

_SPLIT_MASK = (1 << SPLIT_BITS) - 1
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


def floor_mod(x, q: int, out=None):
    """``x mod q`` in ``[0, q)``, as ``x - (x // q) * q``.

    Exact for every int64 or uint64 array ``x`` and ``0 < q < 2**63``, and
    for Python-int (object) arrays.  Floor division rounds toward minus
    infinity, so the remainder lies in ``[0, q)``; where ``(x // q) * q``
    wraps (``|x|`` near ``2**63``), the subtraction wraps back, and the
    remainder, taken mod ``2**64`` and below ``q``, is still the right one.
    The kernels of this module call it on values below ``2**62``.

    Args:
        x: integer array (or scalar).
        q: positive modulus.
        out: optional array for the result, not overlapping ``x``; the
            quotient is formed in it, so the call allocates nothing.

    Returns:
        ``out``, or else one fresh array of ``x``'s dtype.
    """
    quotient = np.floor_divide(x, q, out=out)
    quotient *= q
    if not isinstance(quotient, np.ndarray):
        return x - quotient
    return np.subtract(x, quotient, out=quotient)


def row_blocks(rows: int, width: int) -> List[slice]:
    """Slices of about :data:`BLOCK_ELEMENTS` elements over the rows of a
    ``(rows, width)`` stack, at least one row each.

    The stacked exact kernels (rounding FFT products into the ring, CRT
    and decoding of a decryption) run a dozen or more passes over their
    operands; block by block, every temporary stays in cache and in the
    allocator's free lists, where a whole ``(k, 4096)`` stack would leave
    both and take about twice as long.
    """
    step = max(1, BLOCK_ELEMENTS // max(1, width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _as_int64(a):
    """Residues below ``2**63`` as int64 (no copy for int64 or uint64)."""
    a = np.asarray(a)
    if a.dtype != np.int64:
        a = a.astype(np.uint64, copy=False).view(np.int64)
    return a


def mulmod(a, b, q: int):
    """Element-wise ``(a * b) % q`` for ``uint64`` arrays with ``q < 2**40``.

    For ``q < 2**31`` the product of two residues is below ``2**62`` and
    reduces at once.  Otherwise ``b`` is split as ``b = b_hi * 2**20 +
    b_lo``; then ``a*b mod q = ((a*b_hi mod q) << 20 + a*b_lo) mod q``,
    with ``a*b_hi``, the shifted residue and ``a*b_lo`` each below
    ``2**60`` and their sum below ``2**61``.

    Args:
        a: array-like of residues in ``[0, q)``.
        b: array-like of residues in ``[0, q)`` (broadcastable with ``a``).
        q: modulus, at most :data:`MAX_MODULUS_BITS` bits.

    Returns:
        ``uint64`` array of ``(a * b) % q``.
    """
    _check_modulus(q)
    q = int(q)
    a = _as_int64(a)
    b = _as_int64(b)
    if q.bit_length() <= SINGLE_PRODUCT_BITS:
        return floor_mod(a * b, q).view(np.uint64)
    hi = floor_mod(a * (b >> SPLIT_BITS), q)
    hi <<= SPLIT_BITS
    hi += a * (b & _SPLIT_MASK)
    return floor_mod(hi, q).view(np.uint64)


def addmod(a, b, q: int):
    """Element-wise ``(a + b) % q`` without overflow for ``q < 2**40``.

    ``s - q`` wraps above ``s`` exactly when ``s < q``, so the reduced sum
    is ``min(s, s - q)``.
    """
    _check_modulus(q)
    s = np.add(np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64))
    return np.minimum(s, np.subtract(s, _U64(q)))


def submod(a, b, q: int):
    """Element-wise ``(a - b) % q`` staying inside unsigned arithmetic.

    ``d = a - b`` wraps above ``d + q`` exactly when ``a < b``, so the
    reduced difference is ``min(d, d + q)``.
    """
    _check_modulus(q)
    d = np.subtract(
        np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    )
    return np.minimum(d, np.add(d, _U64(q)))


def negmod(a, q: int):
    """Element-wise ``(-a) % q``: :func:`submod` from zero."""
    return submod(_U64(0), a, q)


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
    return floor_mod(np.asarray(a, dtype=np.int64), int(q)).view(np.uint64)


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
