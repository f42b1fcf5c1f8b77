"""Sparsity-pattern analysis of coefficient-encoded weight polynomials.

Section IV-B: after bit-reversal, the valid coefficients of an encoded
weight polynomial are either *contiguous* (a prefix block -- optimal for
skipping) or *scattered* (near-uniform strides -- optimal for merging).
These helpers extract, fold and classify the patterns the dataflow engine
is configured with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.encoding.conv_encoding import Conv2dEncoder
from repro.ntt.modmath import bit_reverse_indices


def fold_valid_indices(valid: Sequence[int], n: int) -> np.ndarray:
    """Map length-n polynomial indices onto the folded n/2-point FFT core.

    The folded pipeline packs coefficient ``j`` and ``j + n/2`` into one
    complex sample, so a weight slot at either position makes folded index
    ``j mod n/2`` valid.
    """
    valid = np.asarray(valid, dtype=np.int64).reshape(-1)
    return np.unique(valid % n % (n // 2))


def bit_reversed_positions(valid: Sequence[int], n: int) -> np.ndarray:
    """Network positions of the valid inputs after the bit-reversal permute."""
    rev = bit_reverse_indices(n)
    # rev[pos] = source index; invert: position of source i is rev's inverse,
    # and bit-reversal is an involution, so position = rev index of i.
    inv = np.empty(n, dtype=np.int64)
    inv[rev] = np.arange(n)
    return np.array(sorted(int(inv[int(v) % n]) for v in valid), dtype=np.int64)


@dataclass(frozen=True)
class PatternStats:
    """Summary of one structural sparsity pattern."""

    n: int
    valid_count: int
    sparsity: float
    kind: str  # 'empty' | 'contiguous' | 'scattered' | 'mixed' | 'dense'
    prefix_block: int  # smallest power-of-two block covering the
    # bit-reversed positions (skipping granularity)
    min_gap: int  # smallest gap between bit-reversed positions


def classify_pattern(valid: Sequence[int], n: int) -> PatternStats:
    """Classify a valid-index pattern for the skipping/merging dataflow.

    * ``contiguous``: bit-reversed positions form a small prefix block --
      pure skipping applies (Figure 8(a)).
    * ``scattered``: positions are spread with a uniform large stride --
      merging applies (Figure 8(b)).
    * ``mixed``: anything in between (both optimizations combine).
    """
    valid_set = sorted({int(v) % n for v in valid})
    count = len(valid_set)
    sparsity = 1.0 - count / n
    if count == 0:
        return PatternStats(n, 0, 1.0, "empty", 1, n)
    pos = bit_reversed_positions(valid_set, n)
    top = int(pos.max())
    block = 1
    while block <= top:
        block <<= 1
    gaps = np.diff(pos) if len(pos) > 1 else np.array([n])
    min_gap = int(gaps.min()) if gaps.size else n
    if count == n:
        kind = "dense"
    elif block <= max(2, 2 * count):
        # All activity confined to a prefix block about the size of the
        # valid count: contiguous.
        kind = "contiguous"
    elif min_gap >= 2 and gaps.size and int(gaps.max()) == min_gap:
        kind = "scattered"
    elif min_gap >= 2:
        kind = "scattered" if min_gap >= n // (4 * count) else "mixed"
    else:
        kind = "mixed"
    return PatternStats(n, count, sparsity, kind, block, min_gap)


def conv_weight_pattern(encoder: Conv2dEncoder, tile: int = 0) -> np.ndarray:
    """Folded valid pattern of one encoded conv weight polynomial.

    This is the pattern FLASH's sparse FFT core for the layer is configured
    with; it depends only on the layer shape.
    """
    return fold_valid_indices(encoder.weight_valid_indices(tile), encoder.n)


def uniform_stride_pattern(n: int, valid_count: int) -> np.ndarray:
    """Synthetic pattern: ``valid_count`` indices at uniform stride.

    Models layers where one valid value exists every ``n/valid_count``
    positions (e.g. layer 28 of ResNet-50: one valid per 32 positions).
    """
    if valid_count < 1 or valid_count > n:
        raise ValueError("valid_count out of range")
    stride = n // valid_count
    return np.arange(valid_count, dtype=np.int64) * stride


def contiguous_block_pattern(n: int, valid_count: int) -> np.ndarray:
    """Synthetic pattern: a single contiguous block at offset 0."""
    if valid_count < 1 or valid_count > n:
        raise ValueError("valid_count out of range")
    return np.arange(valid_count, dtype=np.int64)


def conv_like_pattern(
    n: int, channels: int, plane: int, kernel: int, row_stride: int
) -> np.ndarray:
    """Synthetic Cheetah-style pattern: ``kernel`` contiguous taps per row.

    ``kernel`` rows of ``kernel`` contiguous slots, rows ``row_stride``
    apart, repeated per channel at ``plane`` offsets (Figure 7's structure).
    """
    idx = []
    for c in range(channels):
        base = c * plane
        for u in range(kernel):
            for v in range(kernel):
                idx.append(base + u * row_stride + v)
    out = sorted({i for i in idx if i < n})
    return np.array(out, dtype=np.int64)
