"""Evaluate encoded convolutions in the clear (no encryption).

Bridges the encoders to polynomial arithmetic so tests, benchmarks and the
sparsity analyses can check end-to-end correctness of the coefficient
encoding and measure transform workloads without paying for BFV.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    decompose_strided,
    iter_row_bands,
    pad_input,
)
from repro.ntt import negacyclic_convolution_naive

PolyMul = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _default_polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = negacyclic_convolution_naive(a, b)
    return np.array([int(v) for v in out], dtype=np.int64)


TiledPolyMul = Callable[
    [Conv2dEncoder, int, np.ndarray, np.ndarray], np.ndarray
]


def conv2d_via_polynomials(
    x: np.ndarray,
    w: np.ndarray,
    shape: ConvShape,
    n: int,
    polymul: Optional[PolyMul] = None,
    tiled_polymul: Optional[TiledPolyMul] = None,
) -> np.ndarray:
    """Compute ``conv2d(x, w)`` through the coefficient encoding.

    Handles stride via phase decomposition.  The polynomial multiplier is
    pluggable so the same path exercises exact NTT products, float FFT
    products or the approximate FLASH pipeline.

    Args:
        x: ``C x H x W`` integer input.
        w: ``M x C x kh x kw`` integer kernel.
        shape: convolution shape (stride/padding included).
        n: polynomial degree.
        polymul: negacyclic product of two length-n integer vectors;
            defaults to the exact schoolbook reference.
        tiled_polymul: alternative multiplier receiving the band encoder
            and tile index as well, for engines that need structural
            metadata (the sparse weight patterns); overrides ``polymul``.

    Returns:
        ``M x out_h x out_w`` int64 output.
    """
    polymul = polymul or _default_polymul
    x = np.asarray(x)
    w = np.asarray(w)
    xp = pad_input(x, shape.padding)
    # Padding is applied exactly once, here; the per-phase encoders see a
    # padding-free shape over the padded tensor.
    total = np.zeros(
        (shape.out_channels, shape.out_height, shape.out_width), dtype=np.int64
    )
    for phase, a, b in decompose_strided(shape):
        x_phase = xp[:, a :: shape.stride, b :: shape.stride]
        w_phase = w[:, :, a :: shape.stride, b :: shape.stride]
        # Guard against ragged sub-sampling (phase shapes are exact).
        x_phase = x_phase[:, : phase.height, : phase.width]
        for row_start, band in iter_row_bands(phase, n):
            x_band = x_phase[:, row_start : row_start + band.height, :]
            encoder = Conv2dEncoder(band, n)
            in_polys = encoder.encode_input(x_band)
            w_polys = encoder.encode_weights(w_phase)
            products: Dict[Tuple[int, int], np.ndarray] = {}
            for (tile, m), w_poly in w_polys.items():
                if tiled_polymul is not None:
                    products[(tile, m)] = tiled_polymul(
                        encoder, tile, in_polys[tile], w_poly
                    )
                else:
                    products[(tile, m)] = polymul(in_polys[tile], w_poly)
            y = encoder.decode_output(products)
            r0 = row_start
            r1 = min(r0 + y.shape[1], shape.out_height)
            total[:, r0:r1, : shape.out_width] += y[
                :, : r1 - r0, : shape.out_width
            ]
    return total


def conv2d_direct(
    x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Reference dense convolution (cross-correlation, integer arithmetic)."""
    x = np.asarray(x)
    w = np.asarray(w)
    c, h, width = x.shape
    m, c2, kh, kw = w.shape
    if c != c2:
        raise ValueError(f"channel mismatch: {c} vs {c2}")
    xp = pad_input(x, padding)
    hp, wp = xp.shape[1], xp.shape[2]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros((m, oh, ow), dtype=np.int64)
    for om in range(m):
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, i * stride : i * stride + kh, j * stride : j * stride + kw]
                out[om, i, j] = int(np.sum(patch.astype(np.int64) * w[om]))
    return out
