"""Cheetah-style coefficient encoding for homomorphic convolution.

Tensors are mapped directly onto polynomial coefficients (Figure 2 of the
paper) so that one negacyclic polynomial product computes a whole
convolution without homomorphic rotations:

* input  ``x[c, i, j]``  -> coefficient ``c*Hp*Wp + i*Wp + j``
* weight ``w[m, c, u, v]`` -> coefficient
  ``(cw-1-c)*Hp*Wp + (kh-1-u)*Wp + (kw-1-v)``
* output ``y[m, i', j']`` = product coefficient
  ``(cw-1)*Hp*Wp + (i'+kh-1)*Wp + (j'+kw-1)``

where ``Hp x Wp`` is the zero-padded spatial size and ``cw`` the number of
channels per ciphertext tile.  Because at most ``kh*kw`` of every
``Hp*Wp`` weight coefficients are non-zero, encoded weight polynomials are
extremely sparse (Section III-B) -- the property FLASH's sparse dataflow
exploits.

Strides are handled by the standard phase decomposition into ``s*s``
stride-1 convolutions (:func:`decompose_strided`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class ConvShape:
    """Shape of one convolution layer.

    Args:
        in_channels: input channel count ``C``.
        height: input height ``H`` (pre-padding).
        width: input width ``W`` (pre-padding).
        out_channels: output channel count ``M``.
        kernel_h: kernel height ``kh``.
        kernel_w: kernel width ``kw``.
        stride: spatial stride (same in both dims).
        padding: symmetric zero padding (same in both dims).
    """

    in_channels: int
    height: int
    width: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if min(
            self.in_channels,
            self.height,
            self.width,
            self.out_channels,
            self.kernel_h,
            self.kernel_w,
            self.stride,
        ) < 1:
            raise ValueError(f"invalid shape {self}")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.kernel_h > self.padded_height or self.kernel_w > self.padded_width:
            raise ValueError("kernel larger than padded input")

    @classmethod
    def square(
        cls, in_channels, size, out_channels, kernel, stride=1, padding=0
    ) -> "ConvShape":
        return cls(
            in_channels, size, size, out_channels, kernel, kernel, stride, padding
        )

    @property
    def padded_height(self) -> int:
        return self.height + 2 * self.padding

    @property
    def padded_width(self) -> int:
        return self.width + 2 * self.padding

    @property
    def out_height(self) -> int:
        return (self.padded_height - self.kernel_h) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.padded_width - self.kernel_w) // self.stride + 1

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the plaintext convolution."""
        return (
            self.out_channels
            * self.out_height
            * self.out_width
            * self.in_channels
            * self.kernel_h
            * self.kernel_w
        )


def pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad a ``C x H x W`` tensor spatially (both shares pad with 0)."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding)))


def iter_row_bands(
    shape: ConvShape, n: int
) -> List[Tuple[int, ConvShape]]:
    """Split a stride-1, pre-padded shape into row bands fitting degree n.

    When one padded channel plane exceeds the ring degree, the input is
    processed in horizontal bands that overlap by ``kernel_h - 1`` rows so
    every output row is produced exactly once.  Returns ``(row_start,
    band_shape)`` pairs; band ``i`` consumes input rows ``[row_start,
    row_start + band.height)`` and produces output rows starting at
    ``row_start``.
    """
    if shape.stride != 1 or shape.padding != 0:
        raise ValueError("row banding expects stride-1, pre-padded shapes")
    if shape.width > n:
        raise ValueError(f"one row ({shape.width}) exceeds the ring degree {n}")
    plane = shape.height * shape.width
    if plane <= n:
        return [(0, shape)]
    rows = n // shape.width
    if rows < shape.kernel_h:
        raise ValueError("ring too small for the kernel height")
    step = rows - (shape.kernel_h - 1)
    out_rows = shape.height - shape.kernel_h + 1
    bands: List[Tuple[int, ConvShape]] = []
    start = 0
    while start < out_rows:
        height = min(rows, shape.height - start)
        bands.append(
            (
                start,
                ConvShape(
                    in_channels=shape.in_channels,
                    height=height,
                    width=shape.width,
                    out_channels=shape.out_channels,
                    kernel_h=shape.kernel_h,
                    kernel_w=shape.kernel_w,
                    stride=1,
                    padding=0,
                ),
            )
        )
        start += step
    return bands


def decompose_strided(shape: ConvShape) -> List[Tuple[ConvShape, int, int]]:
    """Split a (strided) convolution into ``stride**2`` stride-1 phases.

    Returns ``(phase_shape, a, b)`` triples; phase ``(a, b)`` consumes the
    sub-sampled input ``x_pad[:, a::s, b::s]`` and kernel ``w[:, :, a::s,
    b::s]``.  At every stride the phase shapes are padding-free shapes over
    the *padded* input (pad before sub-sampling; at stride 1 the one phase
    is the padded layer itself) and produce at least ``out_height x
    out_width`` outputs each; summing all phases gives the strided result.
    """
    s = shape.stride
    phases = []
    for a in range(s):
        for b in range(s):
            hp = -(-(shape.padded_height - a) // s)  # ceil division
            wp = -(-(shape.padded_width - b) // s)
            kh = -(-(shape.kernel_h - a) // s)
            kw = -(-(shape.kernel_w - b) // s)
            if kh == 0 or kw == 0:
                continue
            phase = ConvShape(
                in_channels=shape.in_channels,
                height=hp,
                width=wp,
                out_channels=shape.out_channels,
                kernel_h=kh,
                kernel_w=kw,
                stride=1,
                padding=0,
            )
            phases.append((phase, a, b))
    return phases


class Conv2dEncoder:
    """Encode/decode one *stride-1* convolution over degree-n polynomials.

    Channels are tiled so each ciphertext holds ``channels_per_tile`` full
    ``Hp x Wp`` channel planes; partial products from different tiles are
    accumulated (homomorphically in the protocol, plainly here).

    Args:
        shape: the convolution shape (must have ``stride == 1``; use
            :func:`decompose_strided` first otherwise).
        n: polynomial degree (HE ring dimension).
    """

    def __init__(self, shape: ConvShape, n: int):
        if shape.stride != 1:
            raise ValueError(
                "Conv2dEncoder is stride-1; decompose strided convolutions"
            )
        self.shape = shape
        self.n = n
        self.plane = shape.padded_height * shape.padded_width
        if self.plane > n:
            raise ValueError(
                f"one padded channel plane needs {self.plane} > n={n} "
                "coefficients; spatial tiling not supported"
            )
        self.channels_per_tile = max(1, min(n // self.plane, shape.in_channels))
        self.num_tiles = -(-shape.in_channels // self.channels_per_tile)

    # ------------------------------------------------------------------
    # Tiling helpers
    #
    # Channels are zero-padded so every tile holds exactly
    # ``channels_per_tile`` planes.  Uniform tiles make the weight
    # sparsity pattern and the output extraction indices identical across
    # tiles, which lets the protocol accumulate partial products in the
    # spectrum/ciphertext domain before the single inverse transform per
    # output channel.
    # ------------------------------------------------------------------

    def tile_channels(self, tile: int) -> range:
        """Global channel indices covered by ``tile`` (may extend past C
        into zero-padded virtual channels)."""
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} out of range")
        start = tile * self.channels_per_tile
        return range(start, start + self.channels_per_tile)

    def _tile_width(self, tile: int) -> int:
        return self.channels_per_tile

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode_input(self, x: np.ndarray) -> List[np.ndarray]:
        """Encode a ``C x H x W`` integer tensor into per-tile polynomials."""
        s = self.shape
        x = np.asarray(x)
        if x.shape != (s.in_channels, s.height, s.width):
            raise ValueError(
                f"expected {(s.in_channels, s.height, s.width)}, got {x.shape}"
            )
        xp = pad_input(x, s.padding)
        cw, tiles = self.channels_per_tile, self.num_tiles
        virtual = tiles * cw - s.in_channels  # zero-padded channels
        planes = np.pad(xp.reshape(s.in_channels, -1), ((0, virtual), (0, 0)))
        polys = np.zeros((tiles, self.n), dtype=np.int64)
        polys[:, : cw * self.plane] = planes.reshape(tiles, -1)
        return list(polys)

    def weight_slots(self) -> np.ndarray:
        """Coefficient index of each weight tap, in the tap order of
        :meth:`weight_taps`: ``(local channel, u, v)`` row-major, so
        ``(cw-1-local)*plane + (kh-1-u)*Wp + (kw-1-v)`` (strictly
        decreasing)."""
        s = self.shape
        local = np.arange(self.channels_per_tile)[:, None, None]
        u = np.arange(s.kernel_h)[None, :, None]
        v = np.arange(s.kernel_w)[None, None, :]
        slots = (
            (self.channels_per_tile - 1 - local) * self.plane
            + (s.kernel_h - 1 - u) * s.padded_width
            + (s.kernel_w - 1 - v)
        )
        return slots.reshape(-1).astype(np.int64)

    def weight_taps(self, w: np.ndarray) -> np.ndarray:
        """The ``(tiles, M, cw*kh*kw)`` tap values of an ``M x C x kh x kw``
        kernel: row ``(tile, m)`` is the weight polynomial of ``(tile, m)``
        at :meth:`weight_slots` (zero for virtual channels)."""
        s = self.shape
        w = np.asarray(w)
        if w.shape != (s.out_channels, s.in_channels, s.kernel_h, s.kernel_w):
            raise ValueError(
                f"expected {(s.out_channels, s.in_channels, s.kernel_h, s.kernel_w)},"
                f" got {w.shape}"
            )
        cw, tiles = self.channels_per_tile, self.num_tiles
        virtual = tiles * cw - s.in_channels
        w = np.pad(w, ((0, 0), (0, virtual), (0, 0), (0, 0)))
        taps = w.reshape(s.out_channels, tiles, -1)
        return taps.transpose(1, 0, 2).astype(np.int64)

    def encode_weights(self, w: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
        """Encode an ``M x C x kh x kw`` kernel into weight polynomials.

        Returns a dict keyed by ``(tile, out_channel)``; the polynomial for
        a tile holding ``cw`` channels has exactly ``cw * kh * kw`` valid
        (possibly zero-valued) coefficient slots.
        """
        taps = self.weight_taps(w)
        polys = np.zeros(taps.shape[:2] + (self.n,), dtype=np.int64)
        polys[..., self.weight_slots()] = taps
        return {
            (tile, m): polys[tile, m]
            for tile in range(self.num_tiles)
            for m in range(self.shape.out_channels)
        }

    def weight_valid_indices(self, tile: int) -> np.ndarray:
        """Coefficient slots a weight polynomial of ``tile`` may occupy.

        These depend only on the layer shape, not the weight values --
        exactly the structural sparsity the skipping/merging dataflow is
        configured with (one dataflow per layer, Section IV-B).
        """
        self.tile_channels(tile)  # range check
        return np.sort(self.weight_slots())

    def weight_sparsity(self, tile: int = 0) -> float:
        """Fraction of zero slots in a weight polynomial of ``tile``."""
        return 1.0 - len(self.weight_valid_indices(tile)) / self.n

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def output_index(self, tile: int, i: int, j: int) -> int:
        """Product-polynomial coefficient holding output pixel ``(i, j)``."""
        s = self.shape
        cw = self._tile_width(tile)
        return (
            (cw - 1) * self.plane
            + (i + s.kernel_h - 1) * s.padded_width
            + (j + s.kernel_w - 1)
        )

    def output_indices(self, tile: int) -> np.ndarray:
        """All output coefficient indices of ``tile`` (out_h*out_w vector)."""
        s = self.shape
        rows = np.arange(s.out_height, dtype=np.int64)[:, None]
        cols = np.arange(s.out_width, dtype=np.int64)[None, :]
        first = self.output_index(tile, 0, 0)
        return (first + rows * s.padded_width + cols).reshape(-1)

    def decode_output(
        self, products: Dict[Tuple[int, int], np.ndarray], signed: bool = True
    ) -> np.ndarray:
        """Extract ``M x out_h x out_w`` outputs from product polynomials.

        Args:
            products: product polynomial per ``(tile, out_channel)``.
            signed: unused placeholder for API symmetry (values are taken
                as-is; callers working mod t center beforehand).
        """
        s = self.shape
        y = None
        for tile in range(self.num_tiles):
            idx = self.output_indices(tile)
            for m in range(s.out_channels):
                prod = np.asarray(products[(tile, m)])
                part = prod[idx].reshape(s.out_height, s.out_width)
                if y is None:
                    y = np.zeros(
                        (s.out_channels, s.out_height, s.out_width),
                        dtype=part.dtype,
                    )
                y[m] = y[m] + part
        return y

    def extract_output(self, product_poly: np.ndarray) -> np.ndarray:
        """Extract one output channel's ``out_h x out_w`` plane.

        For a product polynomial already accumulated over channel tiles
        (uniform tiles make extraction indices tile-independent).
        """
        s = self.shape
        prod = np.asarray(product_poly)
        return prod[self.output_indices(0)].reshape(s.out_height, s.out_width)

    def transforms_per_hconv(self) -> Dict[str, int]:
        """Transform counts for one image through this layer (Figure 1 math).

        The input transform is shared across output channels; each
        (tile, out_channel) weight polynomial needs its own forward
        transform; partial products accumulate across channel tiles in the
        spectrum/ciphertext domain, so only one inverse per output channel
        remains.
        """
        s = self.shape
        return {
            "input_forward": self.num_tiles,
            "weight_forward": self.num_tiles * s.out_channels,
            "inverse": s.out_channels,
        }


def iter_weight_polynomials(
    encoder: Conv2dEncoder, w: np.ndarray
) -> Iterator[Tuple[Tuple[int, int], np.ndarray]]:
    """Yield ``((tile, m), weight_poly)`` pairs without storing all of them."""
    for key, poly in encoder.encode_weights(w).items():
        yield key, poly
