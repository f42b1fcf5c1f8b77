"""Multiplication-count models for homomorphic convolution (Figure 11(a)).

Compares, per polynomial multiplication (PolyMul) of one conv layer:

* the classical dense FFT dataflow,
* FLASH's sparse skipping/merging dataflow,
* direct computation in the coefficient domain (no transforms at all).

Counts are normalized "per PolyMul per layer" like the paper: the input
(activation) transform is shared across all output channels, and inverse
transforms happen once per output channel after spectrum-domain
accumulation across input tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from repro.encoding.conv_encoding import Conv2dEncoder, ConvShape
from repro.sparse.patterns import conv_weight_pattern, fold_valid_indices
from repro.sparse.walk import tag_walk


def dense_fft_mults(n_core: int) -> int:
    """Dense dataflow multiplications of an n_core-point FFT."""
    if n_core < 2 or n_core & (n_core - 1):
        raise ValueError(f"n_core must be a power of two >= 2, got {n_core}")
    return (n_core // 2) * (n_core.bit_length() - 1)


@lru_cache(maxsize=512)
def _sparse_count_cached(n_core: int, pattern: Tuple[int, ...]) -> int:
    return tag_walk(n_core, pattern).model_mults


def sparse_fft_mults(valid_folded: Sequence[int], n_core: int) -> int:
    """Sparse dataflow multiplications for one folded weight pattern (the
    tag walk's paper-rule count, :attr:`repro.sparse.walk.TagWalk.model_mults`)."""
    pattern = tuple(sorted({int(v) % n_core for v in valid_folded}))
    return _sparse_count_cached(n_core, pattern)


def direct_coeff_mults(valid_count: int, n: int) -> int:
    """Coefficient-domain PolyMul: each valid weight scales all n inputs."""
    return valid_count * n


@dataclass(frozen=True)
class PolyMulCounts:
    """Multiplications per PolyMul for all three methods."""

    n: int
    sparsity: float
    dense_fft: float
    sparse_fft: float
    direct: float

    @property
    def sparse_reduction(self) -> float:
        """Fraction of dense-FFT multiplications removed by sparsity."""
        if self.dense_fft == 0:
            return 0.0
        return 1.0 - self.sparse_fft / self.dense_fft


def conv_polymul_counts(shape: ConvShape, n: int) -> PolyMulCounts:
    """Fig 11(a) datapoint for a real conv layer shape.

    Per PolyMul of the layer (``tiles x out_channels`` products total):

    * weight transform: sparse (or dense) count on the n/2-point core;
    * activation transform: dense, amortized over ``out_channels``;
    * point-wise product: n/2 complex multiplications;
    * inverse transform: dense, amortized over ``tiles`` (spectra are
      accumulated across tiles before the single inverse per channel).
    """
    if shape.stride != 1:
        raise ValueError("decompose strided shapes before counting")
    enc = Conv2dEncoder(shape, n)
    n_core = n // 2
    m = shape.out_channels
    tiles = enc.num_tiles

    pattern = conv_weight_pattern(enc, tile=0)
    w_sparse = sparse_fft_mults(pattern, n_core)
    w_dense = dense_fft_mults(n_core)
    act = dense_fft_mults(n_core) / m  # shared across output channels
    pointwise = n_core
    inverse = dense_fft_mults(n_core) / tiles  # accumulated across tiles

    valid_count = len(enc.weight_valid_indices(0))
    return PolyMulCounts(
        n=n,
        sparsity=enc.weight_sparsity(0),
        dense_fft=w_dense + act + pointwise + inverse,
        sparse_fft=w_sparse + act + pointwise + inverse,
        direct=direct_coeff_mults(valid_count, n),
    )


def synthetic_polymul_counts(
    n: int,
    valid_pattern: Sequence[int],
    out_channels: int = 64,
    tiles: int = 1,
) -> PolyMulCounts:
    """Fig 11(a) datapoint for a synthetic valid pattern at any sparsity."""
    n_core = n // 2
    folded = fold_valid_indices(valid_pattern, n)
    w_sparse = sparse_fft_mults(folded, n_core)
    w_dense = dense_fft_mults(n_core)
    act = dense_fft_mults(n_core) / out_channels
    pointwise = n_core
    inverse = dense_fft_mults(n_core) / tiles
    valid_count = len({int(v) % n for v in valid_pattern})
    return PolyMulCounts(
        n=n,
        sparsity=1.0 - valid_count / n,
        dense_fft=w_dense + act + pointwise + inverse,
        sparse_fft=w_sparse + act + pointwise + inverse,
        direct=direct_coeff_mults(valid_count, n),
    )


def weight_transform_reduction(shape: ConvShape, n: int) -> float:
    """Fraction of weight-transform multiplications skipped for a layer.

    The abstract's ">86% unnecessary computations skipped" aggregates this
    over ResNet layers.
    """
    enc = Conv2dEncoder(shape, n)
    pattern = conv_weight_pattern(enc, tile=0)
    n_core = n // 2
    return 1.0 - sparse_fft_mults(pattern, n_core) / dense_fft_mults(n_core)


def crossover_sparsity(
    n: int, sparsities: Sequence[float], out_channels: int = 64
) -> np.ndarray:
    """Sweep sparsity levels with uniform-stride patterns (Fig 11(a) x-axis).

    Returns a structured array of (sparsity, dense, sparse, direct) rows.
    """
    from repro.sparse.patterns import uniform_stride_pattern

    rows = []
    for s in sparsities:
        count = max(1, int(round((1.0 - s) * n)))
        pattern = uniform_stride_pattern(n, count)
        c = synthetic_polymul_counts(n, pattern, out_channels=out_channels)
        rows.append((c.sparsity, c.dense_fft, c.sparse_fft, c.direct))
    return np.array(
        rows,
        dtype=[
            ("sparsity", float),
            ("dense_fft", float),
            ("sparse_fft", float),
            ("direct", float),
        ],
    )
