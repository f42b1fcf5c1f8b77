"""Quantized twiddle factors as sums of signed powers of two (Section IV-C1).

A twiddle factor's real and imaginary parts lie in ``[-1, 1]`` and are
approximated by ``k`` signed power-of-two terms (canonical-signed-digit
style), so multiplication by a twiddle becomes ``k`` shifts and adds:
``w = 21/32 -> a*w = a>>1 + a>>3 + a>>5`` (the paper's example).

The quantization level ``k`` (number of nonzero digits) and the positional
spread of the i-th digit across the whole ROM (which sets the hardware MUX
width, capped at 8-to-1 in the paper) are both modeled here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


def csd_decompose_batch(
    values, k: int, max_shift: int = 16
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedy signed power-of-two decomposition of every element of ``values``.

    Each of ``k`` array steps subtracts, from every residual still being
    decomposed, the nearest signed power of two ``sign * 2**-shift`` with
    ``0 <= shift <= max_shift``.

    Args:
        values: array of numbers to approximate, each ``|value| <= 2``.
        k: maximum number of nonzero terms per element.
        max_shift: largest right-shift representable (fraction precision).

    Returns:
        ``(signs, shifts, counts)``: ``signs`` (int8) and ``shifts``
        (int16) have shape ``(k,) + values.shape`` and hold each element's
        i-th term; ``counts`` holds each element's number of terms, and the
        terms at or past it are 0.  Reconstruction of one element is
        ``sum(signs[i] * 2**-shifts[i] for i < count)``.
    """
    residual = np.array(values, dtype=np.float64)
    outside = ~(np.abs(residual) <= 2)
    if outside.any():
        raise ValueError(f"|value| must be <= 2, got {residual[outside][0]}")
    if k < 0:
        raise ValueError("k must be non-negative")
    signs = np.zeros((k,) + residual.shape, dtype=np.int8)
    shifts = np.zeros((k,) + residual.shape, dtype=np.int16)
    counts = np.zeros(residual.shape, dtype=np.int16)
    active = residual != 0.0
    for i in range(k):
        if not active.any():
            break
        sign = np.where(residual > 0, 1, -1)
        mag = np.abs(residual)
        # Nearest power of two to mag: compare against the geometric
        # midpoint between adjacent powers.
        with np.errstate(divide="ignore"):
            shift = np.clip(np.rint(-np.log2(mag)), 0, max_shift)
        shift = shift.astype(np.int64)
        shift += (np.ldexp(1.0, -shift) > mag * np.sqrt(2)) & (
            shift < max_shift
        )
        rest = residual - sign * np.ldexp(1.0, -shift)
        # An element stops once its term no longer improves the
        # approximation.
        active &= np.abs(rest) < mag
        signs[i] = np.where(active, sign, 0)
        shifts[i] = np.where(active, shift, 0)
        counts += active
        residual = np.where(active, rest, residual)
    return signs, shifts, counts


def csd_decompose(
    value: float, k: int, max_shift: int = 16
) -> List[Tuple[int, int]]:
    """Greedy signed power-of-two decomposition of ``value`` in ``[-2, 2]``.

    A batch of one of :func:`csd_decompose_batch`.

    Args:
        value: number to approximate, ``|value| <= 2``.
        k: maximum number of nonzero terms.
        max_shift: largest right-shift representable (fraction precision).

    Returns:
        list of ``(sign, shift)`` pairs; reconstruction is
        ``sum(sign * 2**-shift)``.
    """
    signs, shifts, counts = csd_decompose_batch([value], k, max_shift)
    count = int(counts[0])
    return list(zip(signs[:count, 0].tolist(), shifts[:count, 0].tolist()))


def csd_value(terms: Sequence[Tuple[int, int]]) -> float:
    """Reconstruct the value of a signed power-of-two decomposition."""
    return float(sum(sign * 2.0**-shift for sign, shift in terms))


@dataclass(frozen=True)
class QuantizedTwiddle:
    """One ROM entry: a complex twiddle with CSD real/imag parts."""

    exponent: int
    exact: complex
    real_terms: Tuple[Tuple[int, int], ...]
    imag_terms: Tuple[Tuple[int, int], ...]

    @property
    def value(self) -> complex:
        return complex(csd_value(self.real_terms), csd_value(self.imag_terms))

    @property
    def error(self) -> float:
        return abs(self.value - self.exact)

    @property
    def term_count(self) -> int:
        """Total nonzero digits (shift-add operations per real multiply)."""
        return len(self.real_terms) + len(self.imag_terms)


@dataclass
class RomStats:
    """Aggregate statistics of a :class:`TwiddleRom` (drives the cost model)."""

    k: int
    max_shift: int
    mean_terms_per_part: float
    max_error: float
    rms_error: float
    mux_sizes: List[int] = field(default_factory=list)

    @property
    def max_mux_size(self) -> int:
        return max(self.mux_sizes) if self.mux_sizes else 0


class TwiddleRom:
    """Exponent-addressed ROM of quantized twiddles ``W_n^e``, e = 0..n-1.

    The *merging* dataflow of Section IV-B sums twiddle exponents across
    collapsed stages and uses the sum as the ROM address, so the ROM covers
    every exponent rather than only per-stage values ("twiddle factor
    exponents serve as addresses to fetch values from the ROM").

    All n entries are decomposed in one :func:`csd_decompose_batch` pass
    and every table is read-only; :func:`get_twiddle_rom` shares one ROM
    per ``(n, k, max_shift, sign)``, as the hardware shares one ROM across
    its PEs.

    Args:
        n: FFT core size (the ROM covers the n-th roots of unity).
        k: quantization level - max signed power-of-two terms per part.
        max_shift: largest right shift (fraction bit budget).
        sign: -1 stores ``exp(-2*pi*i*e/n)`` (forward), +1 the conjugate.
    """

    def __init__(self, n: int, k: int, max_shift: int = 16, sign: int = -1):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.n = n
        self.k = k
        self.max_shift = max_shift
        self.sign = sign
        exact = np.exp(sign * 2j * np.pi * np.arange(n) / n)
        # Terms of the real (part 0) and imaginary (part 1) halves,
        # shaped (k, 2, n); counts (2, n).
        signs, shifts, counts = csd_decompose_batch(
            np.stack([exact.real, exact.imag]), k, max_shift
        )
        # Summed term by term in csd_value's order, so every value is the
        # bytes csd_value gives for that entry's terms.
        parts = np.zeros((2, n))
        for i in range(k):
            parts += signs[i] * np.ldexp(1.0, -shifts[i])
        values = np.empty(n, dtype=np.complex128)
        values.real, values.imag = parts
        self._exact = exact
        self._signs = signs
        self._shifts = shifts
        self._counts = counts
        self._values = values
        for table in (exact, signs, shifts, counts, values):
            table.setflags(write=False)

    def __len__(self) -> int:
        return self.n

    @property
    def values(self) -> np.ndarray:
        """Read-only table of quantized twiddle values, indexed by exponent."""
        return self._values

    def entry(self, exponent: int) -> QuantizedTwiddle:
        """ROM entry for ``W_n^exponent`` (exponent taken mod n)."""
        e = int(exponent) % self.n
        real_terms, imag_terms = (
            tuple(
                zip(
                    self._signs[:count, part, e].tolist(),
                    self._shifts[:count, part, e].tolist(),
                )
            )
            for part, count in enumerate(self._counts[:, e].tolist())
        )
        return QuantizedTwiddle(
            exponent=e,
            exact=complex(self._exact[e]),
            real_terms=real_terms,
            imag_terms=imag_terms,
        )

    def lookup(self, exponents) -> np.ndarray:
        """Vectorized quantized twiddle values for an array of exponents."""
        idx = np.asarray(exponents, dtype=np.int64) % self.n
        return self._values[idx]

    def stage_values(self, stage: int) -> np.ndarray:
        """Quantized twiddles of DIT stage ``stage`` (block size ``2**stage``)."""
        m = 1 << stage
        if m > self.n:
            raise ValueError(f"stage {stage} out of range for n={self.n}")
        j = np.arange(m // 2)
        return self.lookup(j * (self.n // m))

    def stats(self) -> RomStats:
        """Quantization quality and MUX-width statistics for the cost model.

        The i-th MUX selects the shift amount of the i-th nonzero digit; its
        width is the number of distinct shifts that digit position takes
        across the ROM.
        """
        errors = np.abs(self._values - self._exact)
        mux_sizes = []
        for i in range(self.k):
            used = self._counts > i
            if not used.any():
                break
            mux_sizes.append(len(np.unique(self._shifts[i][used])))
        return RomStats(
            k=self.k,
            max_shift=self.max_shift,
            mean_terms_per_part=int(self._counts.sum()) / (2 * self.n),
            max_error=float(errors.max()),
            rms_error=float(np.sqrt(np.mean(errors**2))),
            mux_sizes=mux_sizes,
        )


@functools.lru_cache(maxsize=None)
def get_twiddle_rom(n: int, k: int, max_shift: int, sign: int) -> TwiddleRom:
    """The :class:`TwiddleRom` of ``(n, k, max_shift, sign)``, built once and
    shared (its tables are read-only)."""
    return TwiddleRom(n, k, max_shift, sign)


def shift_add_count(entry: QuantizedTwiddle) -> int:
    """Shift-add operations for one complex multiply by ``entry``.

    ``(a+bi)(c+di)``: each of the four real products ``ac, bd, ad, bc``
    costs ``len(terms)`` shifted additions of the input operand.
    """
    return 2 * (len(entry.real_terms) + len(entry.imag_terms))
