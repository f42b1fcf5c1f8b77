"""Sparse butterfly dataflow: one tag walk, its engines and op-count models."""

from repro.sparse.dataflow import SparseFft, SparseFftResult
from repro.sparse.opcount import (
    PolyMulCounts,
    conv_polymul_counts,
    crossover_sparsity,
    dense_fft_mults,
    direct_coeff_mults,
    sparse_fft_mults,
    synthetic_polymul_counts,
    weight_transform_reduction,
)
from repro.sparse.plan import (
    SparsePlan,
    SparseWeightPipeline,
    compile_sparse_plan,
)
from repro.sparse.sparse_fxp import (
    SparseApproxNegacyclic,
    SparseFixedPointFft,
    SparseFxpResult,
)
from repro.sparse.patterns import (
    PatternStats,
    bit_reversed_positions,
    classify_pattern,
    contiguous_block_pattern,
    conv_like_pattern,
    conv_weight_pattern,
    fold_valid_indices,
    uniform_stride_pattern,
)
from repro.sparse.walk import (
    GENERAL,
    ZERO,
    TagWalk,
    butterfly_tags,
    scaled,
    tag_walk,
)

__all__ = [
    "GENERAL",
    "PatternStats",
    "PolyMulCounts",
    "SparseFft",
    "SparseFftResult",
    "SparseApproxNegacyclic",
    "SparseFixedPointFft",
    "SparseFxpResult",
    "SparsePlan",
    "SparseWeightPipeline",
    "TagWalk",
    "ZERO",
    "bit_reversed_positions",
    "butterfly_tags",
    "classify_pattern",
    "compile_sparse_plan",
    "contiguous_block_pattern",
    "conv_like_pattern",
    "conv_polymul_counts",
    "conv_weight_pattern",
    "crossover_sparsity",
    "dense_fft_mults",
    "direct_coeff_mults",
    "fold_valid_indices",
    "scaled",
    "sparse_fft_mults",
    "synthetic_polymul_counts",
    "tag_walk",
    "uniform_stride_pattern",
    "weight_transform_reduction",
]
