"""Reference decimation-in-time (DIT) Cooley-Tukey FFT.

The implementation mirrors the hardware dataflow of Figure 3 in the paper:
an explicit bit-reversal permutation followed by ``log2(n)`` butterfly
stages.  The same stage structure is reused by the fixed-point simulator
(:mod:`repro.fftcore.fixed_point`) and the sparse dataflow engine
(:mod:`repro.sparse.dataflow`), so twiddle indexing is factored out here.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.ntt.modmath import bit_reverse_indices


#: pi to long-double precision (``np.pi`` is only the float64 value).
PI_LONGDOUBLE = 4 * np.arctan(np.longdouble(1))


@functools.lru_cache(maxsize=None)
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
        ``dtype`` array of length ``2**(stage-1)``, built once per
        argument tuple and shared by every caller, so read-only.
    """
    if stage < 1 or (1 << stage) > n:
        raise ValueError(f"stage {stage} out of range for n={n}")
    m = 1 << stage
    j = np.arange(m // 2)
    pi = PI_LONGDOUBLE if np.dtype(dtype) == np.clongdouble else np.pi
    w = np.exp(sign * 2j * pi * j / m)
    w.setflags(write=False)
    return w


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
    unnormalized inverse (divide by ``n`` afterwards to invert).  A batch
    of one :func:`fft_dit_batch` call.

    Args:
        x: input vector, length a power of two.
        sign: twiddle sign convention.
    """
    return fft_dit_batch(np.asarray(x, dtype=np.complex128), sign)


def fft_dit_batch(x, sign: int = -1) -> np.ndarray:
    """Batched :func:`fft_dit` over the last axis of a ``(..., n)`` array.

    The ``B`` rows are gathered once, bit-reversed, into an ``(n, B)``
    array, and stage ``s`` (block ``m = 2**s``) runs on its
    ``(n/m, 2, m/2, B)`` view: each butterfly's ufuncs span the whole
    batch, however short the stage's blocks.  Every element still gets the
    same IEEE operations in the same order -- ``hi = b * w``, then
    ``a - hi`` and ``a + hi`` -- so each row's output is bit-identical to a
    per-row transform.

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
    rows = x.reshape(-1, n)
    out = rows.T[bit_reverse_indices(n)]
    hi = np.empty((n // 2, rows.shape[0]), dtype)
    for s in range(1, n.bit_length()):
        butterfly_stage(out, hi, s, stage_twiddles(n, s, sign, dtype))
    return np.ascontiguousarray(out.T).reshape(x.shape)


def butterfly_stage(
    out: np.ndarray, hi: np.ndarray, stage: int, w, twiddle_first: bool = False
) -> None:
    """Stage ``stage`` of the DIT network, in place on an ``(n, B)``
    array, through the ``(n/2, B)`` scratch ``hi``.

    ``hi = b * w``, or ``w * b`` with ``twiddle_first``: numpy's
    vectorized complex multiply is not bitwise commutative.
    """
    n, b = out.shape
    half = 1 << (stage - 1)
    pairs = out.reshape(n // (2 * half), 2, half, b)
    t = hi.reshape(n // (2 * half), half, b)
    if twiddle_first:
        np.multiply(w[:, None], pairs[:, 1], out=t)
    else:
        np.multiply(pairs[:, 1], w[:, None], out=t)
    np.subtract(pairs[:, 0], t, out=pairs[:, 1])
    pairs[:, 0] += t


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
