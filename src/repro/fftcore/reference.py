"""Reference decimation-in-time (DIT) Cooley-Tukey FFT.

The implementation mirrors the hardware dataflow of Figure 3 in the paper:
an explicit bit-reversal permutation followed by ``log2(n)`` butterfly
stages.  The same stage structure is reused by the fixed-point simulator
(:mod:`repro.fftcore.fixed_point`) and the sparse dataflow engine
(:mod:`repro.sparse.dataflow`), so twiddle indexing is factored out here.
"""

from __future__ import annotations

import numpy as np

from repro.ntt.modmath import bit_reverse_indices


#: pi to long-double precision (``np.pi`` is only the float64 value).
PI_LONGDOUBLE = 4 * np.arctan(np.longdouble(1))


def stage_twiddles(
    n: int, stage: int, sign: int = -1, dtype=np.complex128
) -> np.ndarray:
    """Twiddle factors of one DIT stage.

    At stage ``s`` (1-based) the network is partitioned into blocks of
    ``m = 2**s`` nodes; butterfly ``j`` inside a block uses
    ``W = exp(sign * 2*pi*i * j / m)`` for ``j = 0..m/2-1``.

    Args:
        n: transform length (power of two).
        stage: 1-based stage index, ``1 <= stage <= log2(n)``.
        sign: -1 for the forward transform, +1 for the inverse.
        dtype: ``complex128``, or ``clongdouble`` to compute the angles
            and roots in long double.

    Returns:
        ``dtype`` array of length ``2**(stage-1)``.
    """
    if stage < 1 or (1 << stage) > n:
        raise ValueError(f"stage {stage} out of range for n={n}")
    m = 1 << stage
    j = np.arange(m // 2)
    pi = PI_LONGDOUBLE if np.dtype(dtype) == np.clongdouble else np.pi
    return np.exp(sign * 2j * pi * j / m)


def twiddle_exponent(n: int, stage: int, j: int) -> int:
    """Exponent ``e`` such that the stage twiddle equals ``W_n^(sign*e)``.

    Butterfly ``j`` of stage ``s`` uses ``W_m^j`` with ``m = 2**s``, i.e.
    ``W_n^(j * n / m)``.  The *merging* optimization of Section IV-B sums
    these exponents across stages to collapse butterfly chains into a single
    multiplication; :class:`repro.fftcore.twiddle_quant.TwiddleRom` uses the
    summed exponent as its ROM address.
    """
    m = 1 << stage
    # repro-lint: disable=MOD001  scalar Python-int index math, exact
    return (j * (n // m)) % n


def fft_dit(x, sign: int = -1) -> np.ndarray:
    """Iterative radix-2 DIT FFT (complex128, no normalization).

    ``sign=-1`` matches :func:`numpy.fft.fft`; ``sign=+1`` gives the
    unnormalized inverse (divide by ``n`` afterwards to invert).

    Args:
        x: input vector, length a power of two.
        sign: twiddle sign convention.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    out = x[bit_reverse_indices(n)].copy()
    stages = n.bit_length() - 1
    for s in range(1, stages + 1):
        m = 1 << s
        half = m >> 1
        w = stage_twiddles(n, s, sign)
        out = out.reshape(-1, m)
        lo = out[:, :half].copy()
        hi = out[:, half:] * w
        out[:, :half] = lo + hi
        out[:, half:] = lo - hi
        out = out.reshape(-1)
    return out


def fft_dit_batch(x, sign: int = -1) -> np.ndarray:
    """Batched :func:`fft_dit` over the last axis of a ``(..., n)`` array.

    Row-major flattening keeps every length-``m`` butterfly block inside one
    row, so the whole batch runs through the same ``log2(n)`` vectorized
    stage passes and each row's output is bit-identical to a per-row
    :func:`fft_dit` call (the butterfly arithmetic is element-wise).

    Runs in the input's precision: ``longdouble``/``clongdouble`` input is
    transformed in ``clongdouble`` with long-double twiddles, anything else
    in ``complex128``.
    """
    x = np.asarray(x)
    dtype = (
        np.clongdouble
        if x.dtype in (np.longdouble, np.clongdouble)
        else np.complex128
    )
    x = x.astype(dtype, copy=False)
    n = x.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    lead = x.shape[:-1]
    out = x[..., bit_reverse_indices(n)].reshape(-1)
    stages = n.bit_length() - 1
    for s in range(1, stages + 1):
        m = 1 << s
        half = m >> 1
        w = stage_twiddles(n, s, sign, dtype)
        out = out.reshape(-1, m)
        hi = out[:, half:] * w
        np.subtract(out[:, :half], hi, out=out[:, half:])
        out[:, :half] += hi
        out = out.reshape(-1)
    return out.reshape(lead + (n,))


def ifft_dit(x) -> np.ndarray:
    """Inverse of :func:`fft_dit` (normalized by ``1/n``)."""
    x = np.asarray(x, dtype=np.complex128)
    return fft_dit(x, sign=+1) / x.shape[0]


def fft_multiplication_count(n: int) -> int:
    """Complex multiplications in a classical dense n-point FFT.

    The paper counts ``n/2 * log2(n)`` (Example 4.1 includes trivial
    twiddles, matching how butterfly units are occupied in hardware).
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"length must be a power of two >= 2, got {n}")
    return (n // 2) * (n.bit_length() - 1)
