"""Negacyclic convolution of integer polynomials via complex FFT.

This is the transform FLASH executes instead of the NTT (Figure 4(b) of the
paper, after Klemsa's error-free negacyclic integer convolution).  Two
equivalent pipelines are provided:

* **twisted** - an N-point complex FFT of the sequence pre-twisted by powers
  of ``zeta = exp(i*pi/N)``.  Conceptually simplest; used as the floating
  point reference.
* **folded**  - the hardware dataflow: fold the real length-N input into a
  complex length-N/2 vector ``c[j] = (a[j] + i*a[j+N/2]) * zeta^j`` and run
  an N/2-point FFT.  This is why the paper compares an N/2-point FFT to an
  N-point NTT ("the number of multiplications in an N/2-point FFT is less
  than half of that in an N-point NTT").

Both evaluate the polynomial at primitive 2N-th roots of unity, where
``X^N + 1`` vanishes, so pointwise products correspond to negacyclic
polynomial products.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.fftcore.reference import fft_dit, fft_dit_batch


def _check_pow2(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")


def as_row(a, length: int, dtype) -> np.ndarray:
    """One length-``length`` vector as a ``(1, length)`` batch of ``dtype``.

    Raises :class:`ValueError` for any other shape, so a per-call method
    never treats a stack as one row.
    """
    a = np.asarray(a, dtype=dtype)
    if a.shape != (length,):
        raise ValueError(f"expected shape ({length},), got {a.shape}")
    return a[None, :]


# ---------------------------------------------------------------------------
# Twisted N-point pipeline (reference)
# ---------------------------------------------------------------------------

def twisted_forward(a) -> np.ndarray:
    """Evaluate real vector ``a`` at all ``2N``-th odd roots via N-point FFT.

    Returns the length-N complex spectrum ``p(zeta^(2k+1))`` with
    ``zeta = exp(-i*pi/N)``, ``k = 0..N-1``.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    _check_pow2(n)
    twist = np.exp(-1j * np.pi * np.arange(n) / n)
    return fft_dit(a * twist, sign=-1)


def twisted_inverse(spectrum) -> np.ndarray:
    """Invert :func:`twisted_forward`, returning real coefficients."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = spectrum.shape[0]
    _check_pow2(n)
    untwist = np.exp(1j * np.pi * np.arange(n) / n)
    return np.real(fft_dit(spectrum, sign=+1) / n * untwist)


def negacyclic_multiply_twisted(a, b) -> np.ndarray:
    """Negacyclic product of real vectors via the twisted N-point FFT.

    Returns float64 coefficients (not rounded); callers working over the
    integers round and reduce.
    """
    return twisted_inverse(twisted_forward(a) * twisted_forward(b))


# ---------------------------------------------------------------------------
# Folded N/2-point pipeline (the FLASH hardware dataflow)
# ---------------------------------------------------------------------------

class NegacyclicFft:
    """Folded negacyclic FFT of length ``n`` using an ``n/2``-point core.

    Evaluates a real polynomial of degree < n at the n/2 roots
    ``zeta^(4k+1)`` with ``zeta = exp(i*pi/n)``; by conjugate symmetry these
    determine the values at all 2n-th primitive roots, which is enough for
    negacyclic convolution of real inputs.

    Args:
        n: polynomial length (power of two, >= 4).
    """

    def __init__(self, n: int):
        _check_pow2(n)
        if n < 4:
            raise ValueError("folded pipeline needs n >= 4")
        self.n = n
        self.half = n // 2
        j = np.arange(self.half)
        self._fold_twist = np.exp(1j * np.pi * j / n)
        self._unfold_twist = np.exp(-1j * np.pi * j / n)
        self._fold_twist.setflags(write=False)
        self._unfold_twist.setflags(write=False)

    # Each per-call method is a batch of one: a shape check, then its
    # ``*_batch`` twin.  Folding, twisting and the butterfly stages are
    # element-wise, so a batch row is what a lone call would compute.

    def fold(self, a) -> np.ndarray:
        """Pack real length-n ``a`` into the twisted complex length-n/2 vector."""
        return self.fold_batch(as_row(a, self.n, np.float64))[0]

    def forward(self, a) -> np.ndarray:
        """Spectrum ``p(zeta^(4k+1))``, ``k = 0..n/2-1`` (complex length n/2).

        Computed as an unnormalized inverse-sign DFT of the folded vector:
        ``F_k = sum_j c_j * exp(+2*pi*i*j*k/(n/2))``.
        """
        return self.forward_batch(as_row(a, self.n, np.float64))[0]

    def inverse(self, spectrum) -> np.ndarray:
        """Recover real length-n coefficients from a forward spectrum."""
        return self.inverse_batch(as_row(spectrum, self.half, np.complex128))[0]

    def multiply(self, a, b) -> np.ndarray:
        """Negacyclic product of two real vectors (float64, not rounded)."""
        return self.inverse(self.forward(a) * self.forward(b))

    def fold_batch(self, a) -> np.ndarray:
        """Fold ``(..., n)`` real batches into ``(..., n/2)`` twisted complex."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim < 1 or a.shape[-1] != self.n:
            raise ValueError(
                f"batch must have last axis {self.n}, got shape {a.shape}"
            )
        return (
            a[..., : self.half] + 1j * a[..., self.half:]
        ) * self._fold_twist

    def forward_batch(self, a) -> np.ndarray:
        """Batched forward spectra, one vectorized pass over the batch."""
        return fft_dit_batch(self.fold_batch(a), sign=+1)

    def inverse_batch(self, spectrum) -> np.ndarray:
        """Recover ``(..., n)`` real coefficient batches from spectra."""
        spectrum = np.asarray(spectrum, dtype=np.complex128)
        if spectrum.ndim < 1 or spectrum.shape[-1] != self.half:
            raise ValueError(
                f"batch must have last axis {self.half}, got {spectrum.shape}"
            )
        return self.unfold_batch(fft_dit_batch(spectrum, sign=-1))

    def unfold_batch(self, core: np.ndarray) -> np.ndarray:
        """Untwist ``(..., n/2)`` complex128 inverse-core outputs (not yet
        divided by n/2) into ``(..., n)`` real coefficients.

        ``core`` is divided and twisted in place: callers pass a fresh
        array, and a 1 MiB batch then costs no new temporaries.
        """
        c = np.divide(core, self.half, out=core)
        np.multiply(c, self._unfold_twist, out=c)
        out = np.empty(c.shape[:-1] + (self.n,), dtype=np.float64)
        out[..., : self.half] = c.real
        out[..., self.half:] = c.imag
        return out

    @property
    def plan_bytes(self) -> int:
        """Memory held by this plan's twist tables."""
        return self._fold_twist.nbytes + self._unfold_twist.nbytes


@functools.lru_cache(maxsize=None)
def get_negacyclic_fft(n: int) -> NegacyclicFft:
    """The :class:`NegacyclicFft` of length ``n``, built once and shared
    (its tables are read-only)."""
    return NegacyclicFft(n)


def negacyclic_multiply_folded(a, b) -> np.ndarray:
    """Convenience wrapper around :class:`NegacyclicFft` for one product."""
    a = np.asarray(a, dtype=np.float64)
    return get_negacyclic_fft(a.shape[0]).multiply(a, b)


def round_to_integers(coeffs, modulus: int = 0) -> np.ndarray:
    """Round float convolution output to integers, optionally mod ``modulus``.

    Values can exceed the float64 integer-exact range (2**53) by design --
    the whole point of FLASH is that the resulting low-order errors are
    absorbed by the HE noise budget -- so conversion goes through Python
    ints to avoid silent wrap-around.

    Returns an object-dtype array when ``modulus`` is 0 or > 2**63, else
    uint64.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    ints = [int(round(float(v))) for v in coeffs]
    if not modulus:
        return np.array(ints, dtype=object)
    reduced = [v % modulus for v in ints]
    if modulus <= 1 << 63:
        return np.array(reduced, dtype=np.uint64)
    return np.array(reduced, dtype=object)
