"""Negacyclic number theoretic transform (NTT) over prime moduli.

This is the exact-arithmetic baseline that FLASH replaces with approximate
FFT.  The dataflow matches Figure 3 of the paper: bit-reversal followed by
``log2(N)`` stages of Cooley-Tukey butterflies; the negacyclic (X^N + 1)
wrap is obtained by pre-twisting with powers of a primitive ``2N``-th root
of unity ``psi`` (and post-twisting on the inverse).

All stage arithmetic is vectorized with :mod:`repro.ntt.modmath`, so the
transform is exact for moduli up to 40 bits.
"""

from __future__ import annotations

import numpy as np

from repro.ntt import modmath
from repro.ntt.modmath import (
    addmod,
    bit_reverse_indices,
    invmod,
    mulmod,
    powmod,
    root_of_unity,
    submod,
)


class NegacyclicNtt:
    """Forward/inverse negacyclic NTT of length ``n`` modulo prime ``q``.

    The transform diagonalizes multiplication in ``Z_q[X]/(X^n + 1)``:
    ``intt(ntt(a) * ntt(b)) == a *_negacyclic b``.

    Args:
        n: transform length, a power of two.
        q: prime modulus with ``q = 1 (mod 2n)``.
    """

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} does not satisfy q = 1 (mod 2n)")
        if not modmath.is_prime(q):
            raise ValueError(f"q={q} is not prime")
        self.n = n
        self.q = q
        self.stages = n.bit_length() - 1

        psi = root_of_unity(2 * n, q)
        omega = powmod(psi, 2, q)
        self._psi_pows = self._power_table(psi, n)
        self._psi_inv_pows = self._power_table(invmod(psi, q), n)
        self._omega_pows = self._power_table(omega, n)
        self._omega_inv_pows = self._power_table(invmod(omega, q), n)
        self._n_inv = invmod(n, q)
        self._rev = bit_reverse_indices(n)

    def _power_table(self, base: int, count: int) -> np.ndarray:
        powers = np.empty(count, dtype=np.uint64)
        acc = 1
        for i in range(count):
            powers[i] = acc
            # repro-lint: disable=MOD001  scalar Python-int accumulation is
            # arbitrary-precision, hence exact for any modulus width
            acc = acc * base % self.q
        return powers

    def _cyclic(self, a: np.ndarray, omega_pows: np.ndarray) -> np.ndarray:
        """Iterative DIT cyclic NTT given a table of root powers.

        Accepts any ``(..., n)``-shaped array and transforms the last axis;
        batched rows see exactly the same element-wise modular operations as
        single vectors (row-major blocks of ``m <= n`` never straddle rows),
        so batched results are bit-identical to per-row calls.
        """
        n, q = self.n, self.q
        lead = np.asarray(a).shape[:-1]
        x = np.asarray(a, dtype=np.uint64)[..., self._rev].reshape(-1)
        for s in range(1, self.stages + 1):
            m = 1 << s
            half = m >> 1
            # Twiddles omega**(j * n/m), j = 0..m/2-1.
            w = omega_pows[:: n // m][:half]
            x = x.reshape(-1, m)
            lo = x[:, :half]
            hi = mulmod(x[:, half:], w, q)
            x = np.concatenate(
                [addmod(lo, hi, q), submod(lo, hi, q)], axis=1
            ).reshape(-1)
        return x.reshape(lead + (n,))

    def _check_last_axis(self, a: np.ndarray, what: str) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        if a.ndim < 1 or a.shape[-1] != self.n:
            raise ValueError(
                f"{what} must have last axis {self.n}, got shape {a.shape}"
            )
        return a

    def forward(self, a) -> np.ndarray:
        """Negacyclic NTT of coefficient vector ``a`` (residues mod q)."""
        return self.forward_batch(self._one_row(a))[0]

    def inverse(self, a_hat) -> np.ndarray:
        """Inverse negacyclic NTT returning coefficients mod q."""
        return self.inverse_batch(self._one_row(a_hat))[0]

    def _one_row(self, a) -> np.ndarray:
        """A per-call vector as a batch of one (shape-checked)."""
        a = np.asarray(a, dtype=np.uint64)
        if a.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {a.shape}")
        return a[None, :]

    def forward_batch(self, a) -> np.ndarray:
        """Negacyclic NTT over the last axis of a ``(..., n)`` batch.

        One vectorized pass over the whole batch; each row's result is
        bit-identical to :meth:`forward` on that row.
        """
        a = self._check_last_axis(a, "batch")
        return self._cyclic(mulmod(a, self._psi_pows, self.q), self._omega_pows)

    def inverse_batch(self, a_hat) -> np.ndarray:
        """Inverse negacyclic NTT over the last axis of a ``(..., n)`` batch."""
        a_hat = self._check_last_axis(a_hat, "batch")
        x = self._cyclic(a_hat, self._omega_inv_pows)
        x = mulmod(x, self._n_inv, self.q)
        return mulmod(x, self._psi_inv_pows, self.q)

    def multiply(self, a, b) -> np.ndarray:
        """Negacyclic product ``a * b mod (X^n + 1, q)`` via NTT."""
        return self.inverse(mulmod(self.forward(a), self.forward(b), self.q))

    @property
    def plan_bytes(self) -> int:
        """Memory held by this plan's precomputed tables."""
        return sum(
            t.nbytes
            for t in (
                self._psi_pows,
                self._psi_inv_pows,
                self._omega_pows,
                self._omega_inv_pows,
                self._rev,
            )
        )

    def butterfly_count(self) -> int:
        """Butterflies in one dense transform: ``n/2 * log2(n)``.

        This is the multiplication count the paper uses for the classical
        dataflow (Example 4.1 counts trivial twiddles as multiplications).
        """
        return (self.n // 2) * self.stages


_NTT_CACHE: dict = {}


def get_ntt(n: int, q: int) -> NegacyclicNtt:
    """Return a cached :class:`NegacyclicNtt` for ``(n, q)``.

    Twiddle-table construction is O(n) with Python-int multiplies, so heavy
    callers (BFV, benchmarks) share instances through this cache.
    """
    key = (n, q)
    if key not in _NTT_CACHE:
        _NTT_CACHE[key] = NegacyclicNtt(n, q)
    return _NTT_CACHE[key]


def negacyclic_convolution_naive(a, b, modulus: int = 0) -> np.ndarray:
    """Schoolbook negacyclic convolution, exact via Python integers.

    Reference implementation for tests and small problem sizes.  Operates on
    arbitrary-magnitude integer vectors; if ``modulus`` is nonzero the result
    is reduced into ``[0, modulus)``.

    Args:
        a: integer vector of length n.
        b: integer vector of length n.
        modulus: optional modulus for the reduction of the result.

    Returns:
        object-dtype array of length n (uint64 if ``modulus`` fits).
    """
    a = [int(v) for v in np.asarray(a).tolist()]
    b = [int(v) for v in np.asarray(b).tolist()]
    n = len(a)
    if len(b) != n:
        raise ValueError("operands must have equal length")
    out = [0] * n
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    if modulus:
        return np.array([v % modulus for v in out], dtype=np.uint64)
    return np.array(out, dtype=object)
