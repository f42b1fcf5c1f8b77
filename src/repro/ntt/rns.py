"""Residue number system (RNS) basis over NTT-friendly primes.

The mulmod kernel in :mod:`repro.ntt.modmath` supports moduli up to 40 bits;
ciphertext moduli larger than that (e.g. the ~60-bit q used by our default
BFV parameters) are represented as a product of coprime NTT primes.  All
ring operations act component-wise per prime; only decryption needs the CRT
reconstruction to full integers.

Residues are uint64 arrays in ``[0, q_i)``.  The Garner recombination and
the int64 CRT reduce with :func:`repro.ntt.modmath.floor_mod` (``x - (x
// q) * q``, which numpy runs as a libdivide multiply-shift per element),
on uint64 residues or on int64 views of values below ``2**62``; the
mixed-radix Horner sums of the int64 CRT stay below ``q < 2**62``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.ntt import modmath
from repro.ntt.ntt import get_ntt

#: Moduli below this take the int64 CRT path (every partial sum of the
#: mixed-radix recombination, and ``x - q`` when centering, fits int64).
_INT64_CRT_LIMIT = 1 << 62


class RnsBasis:
    """A CRT basis ``q = q_0 * q_1 * ... * q_{L-1}`` of NTT primes.

    Args:
        primes: pairwise-coprime primes, each ``= 1 (mod 2n)``.
        n: ring dimension the basis will be used with (for validation).
    """

    def __init__(self, primes: Sequence[int], n: int):
        primes = [int(p) for p in primes]
        if not primes:
            raise ValueError("RNS basis needs at least one prime")
        for p in primes:
            if not modmath.is_prime(p):
                raise ValueError(f"{p} is not prime")
            if (p - 1) % (2 * n) != 0:
                raise ValueError(f"{p} is not NTT-friendly for n={n}")
        for i, p in enumerate(primes):
            for other in primes[i + 1:]:
                if math.gcd(p, other) != 1:
                    raise ValueError("basis primes must be pairwise coprime")
        self.primes = tuple(primes)
        self.n = n
        self.modulus = math.prod(primes)
        # Garner constants: (q_0 * ... * q_{i-1})^-1 mod q_i.
        self._garner_inv = [
            pow(math.prod(primes[:i]) % p, -1, p) for i, p in enumerate(primes)
        ]
        self._ntts = [get_ntt(n, p) for p in primes]

    def __len__(self) -> int:
        return len(self.primes)

    def __repr__(self) -> str:
        bits = [p.bit_length() for p in self.primes]
        return f"RnsBasis(primes={list(self.primes)}, bits={bits}, n={self.n})"

    @classmethod
    def generate(cls, n: int, prime_bits: Iterable[int]) -> "RnsBasis":
        """Generate a basis with one fresh prime per requested bit-width."""
        primes = []
        counts: dict = {}
        for bits in prime_bits:
            counts[bits] = counts.get(bits, 0) + 1
        for bits, count in counts.items():
            primes.extend(modmath.find_ntt_primes(bits, n, count))
        return cls(primes, n)

    # ------------------------------------------------------------------
    # Representation conversions
    # ------------------------------------------------------------------

    def to_rns(self, coeffs) -> list:
        """Reduce an integer coefficient vector into per-prime residues.

        Accepts signed integers or object-dtype big integers; returns a list
        of uint64 arrays, one per basis prime.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.dtype == object:
            # Python-int remainders, applied element-wise by numpy: exact.
            return [(coeffs % p).astype(np.uint64) for p in self.primes]
        signed = coeffs.astype(np.int64)
        return [
            modmath.floor_mod(signed, p).view(np.uint64)
            for p in self.primes
        ]

    def from_rns(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-reconstruct residues into integers in ``[0, q)``.

        Returns an object-dtype array (values can exceed 64 bits).
        """
        return self._crt(residues, centered=False).astype(object)

    def centered(self, residues: Sequence[np.ndarray]) -> np.ndarray:
        """CRT-reconstruct into the centered interval ``[-q/2, q/2)``.

        Returns an object-dtype array (values can exceed 64 bits).
        """
        return self._crt(residues, centered=True).astype(object)

    def _garner_digits(self, residues: Sequence[np.ndarray]) -> list:
        """Mixed-radix digits ``v_i`` in ``[0, q_i)`` of the CRT value
        ``x = v_0 + v_1*q_0 + v_2*q_0*q_1 + ...`` (uint64 arrays).

        ``v_i = (r_i - (v_0 + v_1*q_0 + ...)) * (q_0*...*q_{i-1})^-1 mod q_i``,
        with the partial sum evaluated by Horner's rule modulo ``q_i``.
        Residues may be any uint64 values; each is reduced first.
        """
        if len(residues) != len(self.primes):
            raise ValueError("residue count does not match basis size")
        digits = []
        for i, (res, p) in enumerate(zip(residues, self.primes)):
            v = modmath.floor_mod(np.asarray(res, dtype=np.uint64), p)
            if i:
                acc = modmath.floor_mod(digits[i - 1], p)
                for j in range(i - 2, -1, -1):
                    acc = modmath.addmod(
                        modmath.mulmod(acc, self.primes[j] % p, p),
                        modmath.floor_mod(digits[j], p),
                        p,
                    )
                v = modmath.mulmod(
                    modmath.submod(v, acc, p), self._garner_inv[i], p
                )
            digits.append(v)
        return digits

    def _crt(self, residues: Sequence[np.ndarray], centered: bool) -> np.ndarray:
        """CRT reconstruction, int64 when ``q < 2**62`` and object otherwise.

        The int64 form is what the hot paths (decryption, the FFT lift)
        consume; :meth:`from_rns`/:meth:`centered` box it into Python ints.
        Centering maps values above ``q // 2`` to ``value - q``.
        """
        digits = self._garner_digits(residues)
        q = self.modulus
        if q < _INT64_CRT_LIMIT:
            # Every Horner partial sum is below q: exact in int64.  The
            # digits are fresh arrays, so the sum may start in place.
            x = digits[-1].view(np.int64)
            for d, p in zip(digits[-2::-1], self.primes[-2::-1]):
                x *= p
                x += d.view(np.int64)
        else:
            x = digits[-1].astype(object)
            for d, p in zip(digits[-2::-1], self.primes[-2::-1]):
                x = x * p + d.astype(object)
        if centered:
            x = np.where(x > q // 2, x - q, x)
        return x

    # ------------------------------------------------------------------
    # Ring arithmetic (component-wise over the basis)
    # ------------------------------------------------------------------

    def add(self, a, b) -> list:
        return [modmath.addmod(x, y, p) for x, y, p in zip(a, b, self.primes)]

    def sub(self, a, b) -> list:
        return [modmath.submod(x, y, p) for x, y, p in zip(a, b, self.primes)]

    def neg(self, a) -> list:
        return [modmath.negmod(x, p) for x, p in zip(a, self.primes)]

    def mul(self, a, b) -> list:
        """Negacyclic polynomial product per prime, via NTT."""
        return [
            ntt.multiply(x, y)
            for ntt, x, y in zip(self._ntts, a, b)
        ]

    def mul_scalar(self, a, scalar: int) -> list:
        return [
            modmath.mulmod(x, scalar % p, p) for x, p in zip(a, self.primes)
        ]

    def zero(self) -> list:
        return [np.zeros(self.n, dtype=np.uint64) for _ in self.primes]
