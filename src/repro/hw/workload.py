"""Per-layer HConv transform workloads (the common input to every
latency/energy model).

A convolution layer maps to polynomial work through: stride-phase
decomposition -> spatial tiling (when a padded channel plane exceeds the
ring degree) -> channel tiling (the encoder) -> per-(tile, out-channel)
weight transforms and products.  This module counts those pieces and
attaches the sparse-dataflow multiplication count of each phase's weight
pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.encoding.conv_encoding import Conv2dEncoder, ConvShape, decompose_strided
from repro.encoding.linear_encoding import LinearEncoder, LinearShape
from repro.sparse.opcount import dense_fft_mults, sparse_fft_mults
from repro.sparse.patterns import conv_weight_pattern


@dataclass
class LayerWorkload:
    """Transform counts for one layer (one inference, one input image)."""

    name: str = ""
    weight_transforms: int = 0
    input_transforms: int = 0
    inverse_transforms: int = 0
    pointwise_products: int = 0  # each costs n/2 complex multiplies
    weight_mults_dense: int = 0  # per weight transform (dense n/2 core)
    weight_mults_sparse: float = 0.0  # average per weight transform

    def merge(self, other: "LayerWorkload") -> None:
        """Accumulate another workload (weighted average of sparse counts)."""
        total_w = self.weight_transforms + other.weight_transforms
        if total_w:
            self.weight_mults_sparse = (
                self.weight_mults_sparse * self.weight_transforms
                + other.weight_mults_sparse * other.weight_transforms
            ) / total_w
        self.weight_transforms = total_w
        self.input_transforms += other.input_transforms
        self.inverse_transforms += other.inverse_transforms
        self.pointwise_products += other.pointwise_products
        self.weight_mults_dense = max(
            self.weight_mults_dense, other.weight_mults_dense
        )

    @property
    def total_transforms(self) -> int:
        return (
            self.weight_transforms
            + self.input_transforms
            + self.inverse_transforms
        )

    @property
    def weight_sparsity_saving(self) -> float:
        """Fraction of dense weight-transform multiplies the dataflow skips."""
        if self.weight_mults_dense == 0:
            return 0.0
        return 1.0 - self.weight_mults_sparse / self.weight_mults_dense


def spatial_tiles(shape: ConvShape, n: int) -> Tuple[ConvShape, int]:
    """Split a stride-1 shape whose channel plane exceeds ``n`` into row bands.

    Returns a representative band shape and the band count; bands overlap by
    ``kernel_h - 1`` rows so every output row is produced exactly once.
    """
    if shape.stride != 1 or shape.padding != 0:
        raise ValueError("spatial tiling expects stride-1, pre-padded shapes")
    plane = shape.height * shape.width
    if plane <= n:
        return shape, 1
    if shape.width > n:
        raise ValueError(f"one row ({shape.width}) exceeds the ring degree {n}")
    rows = n // shape.width
    if rows < shape.kernel_h:
        raise ValueError("ring too small for the kernel height")
    effective = rows - (shape.kernel_h - 1)
    out_rows = shape.height - shape.kernel_h + 1
    count = -(-out_rows // effective)
    band = ConvShape(
        in_channels=shape.in_channels,
        height=rows,
        width=shape.width,
        out_channels=shape.out_channels,
        kernel_h=shape.kernel_h,
        kernel_w=shape.kernel_w,
        stride=1,
        padding=0,
    )
    return band, count


def conv_layer_workload(
    shape: ConvShape, n: int, name: str = "", output_packing: bool = True
) -> LayerWorkload:
    """Workload of one convolution layer through the full tiling chain.

    Args:
        shape: layer geometry.
        n: ring degree.
        name: label carried into reports.
        output_packing: pack up to ``channels_per_tile`` output channels
            per returned ciphertext / inverse transform (Cheetah-style);
            disable to model one inverse per output channel.
    """
    total = LayerWorkload(name=name, weight_mults_dense=dense_fft_mults(n // 2))
    for phase, _, _ in decompose_strided(shape):
        band, band_count = spatial_tiles(phase, n)
        enc = Conv2dEncoder(band, n)
        counts = enc.transforms_per_hconv()
        pattern = conv_weight_pattern(enc, tile=0)
        sparse = sparse_fft_mults(pattern, n // 2)
        # Output packing (Cheetah): each output channel occupies only one
        # out_h x out_w plane of the product polynomial, so up to
        # channels_per_tile output channels share one returned ciphertext
        # -- and one inverse transform.
        packing = max(1, enc.channels_per_tile) if output_packing else 1
        inverses = -(-counts["inverse"] // packing)
        part = LayerWorkload(
            name=name,
            weight_transforms=counts["weight_forward"],
            # Weight transforms are shared across spatial bands (same
            # kernel), so they are NOT multiplied by band_count; inputs,
            # products and inverses are per-band.
            input_transforms=counts["input_forward"] * band_count,
            inverse_transforms=inverses * band_count,
            pointwise_products=counts["weight_forward"] * band_count,
            weight_mults_dense=dense_fft_mults(n // 2),
            weight_mults_sparse=float(sparse),
        )
        total.merge(part)
    return total


def linear_layer_workload(shape: LinearShape, n: int, name: str = "") -> LayerWorkload:
    """Workload of one FC layer (dense weight polys: no sparsity saving)."""
    enc = LinearEncoder(shape, n)
    counts = enc.transforms_per_matvec()
    dense = dense_fft_mults(n // 2)
    return LayerWorkload(
        name=name,
        weight_transforms=counts["weight_forward"],
        input_transforms=counts["input_forward"],
        inverse_transforms=counts["inverse"],
        pointwise_products=counts["weight_forward"],
        weight_mults_dense=dense,
        weight_mults_sparse=float(dense),
    )


def network_workload(network: str, n: int = 4096) -> List[LayerWorkload]:
    """Per-layer workloads for a whole ResNet (conv layers + final FC)."""
    from repro.nn.resnet import conv_layers, resnet18_fc, resnet50_fc

    out = [
        conv_layer_workload(layer.shape, n, name=layer.name)
        for layer in conv_layers(network)
    ]
    fc = resnet18_fc() if network == "resnet18" else resnet50_fc()
    out.append(linear_layer_workload(fc, n, name="fc"))
    return out


def aggregate(workloads: List[LayerWorkload]) -> LayerWorkload:
    """Sum a list of layer workloads into one network-level workload."""
    total = LayerWorkload(name="total")
    for w in workloads:
        total.merge(w)
    return total
