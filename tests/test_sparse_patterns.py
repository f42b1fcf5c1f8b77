"""Tests for sparsity-pattern extraction, folding and classification."""

import numpy as np
import pytest

from repro.encoding import Conv2dEncoder, ConvShape
from repro.sparse import (
    bit_reversed_positions,
    classify_pattern,
    contiguous_block_pattern,
    conv_like_pattern,
    conv_weight_pattern,
    fold_valid_indices,
    uniform_stride_pattern,
)


class TestFolding:
    def test_fold_maps_mod_half(self):
        out = fold_valid_indices([0, 5, 32, 37], 64)
        assert out.tolist() == [0, 5]

    def test_fold_dedupes(self):
        out = fold_valid_indices([1, 33], 64)
        assert out.tolist() == [1]

    def test_fold_preserves_distinct_low_half(self):
        out = fold_valid_indices([0, 1, 2], 64)
        assert out.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("n", [4, 64, 4096])
    def test_fold_matches_set_comprehension(self, n):
        """The vectorized fold equals the per-index set comprehension it
        replaced, on random index sets (negative and >= n ones included)."""
        rng = np.random.default_rng(n)
        for size in (0, 1, 5, n // 3, 2 * n):
            valid = rng.integers(-2 * n, 3 * n, size=size)
            old = np.array(
                sorted({int(v) % n % (n // 2) for v in valid}), dtype=np.int64
            )
            out = fold_valid_indices(valid, n)
            assert out.dtype == np.int64
            assert np.array_equal(out, old)
            assert np.array_equal(fold_valid_indices(valid.tolist(), n), old)


class TestBitReversedPositions:
    def test_power_of_two_strides_become_contiguous(self):
        # Valid data at multiples of n/2^x lands contiguously after
        # bit-reverse (the paper's skipping precondition for H*W = 2^k).
        n = 64
        pos = bit_reversed_positions([0, 16, 32, 48], n)
        assert pos.tolist() == [0, 1, 2, 3]

    def test_contiguous_inputs_scatter(self):
        n = 64
        pos = bit_reversed_positions([0, 1, 2, 3], n)
        assert pos.tolist() == [0, 16, 32, 48]

    def test_involution_with_fft_ordering(self):
        n = 16
        for i in range(n):
            (pos,) = bit_reversed_positions([i], n)
            (back,) = bit_reversed_positions([pos], n)
            assert back == i


class TestClassification:
    def test_power_of_two_plane_is_contiguous(self):
        # H = W = 16 (power of two): multiples of H*W bit-reverse to a
        # contiguous prefix -> "skipping" (Section IV-B first case).
        n = 1024
        pattern = np.arange(4) * 256
        stats = classify_pattern(pattern, n)
        assert stats.kind == "contiguous"
        assert stats.valid_count == 4

    def test_power_of_two_stride_is_contiguous(self):
        # Uniform power-of-two strides in natural order bit-reverse to a
        # contiguous prefix: the skipping case.
        n = 1024
        stats = classify_pattern(uniform_stride_pattern(n, 8), n)
        assert stats.kind == "contiguous"

    def test_contiguous_taps_are_scattered(self):
        # Contiguous natural-order taps (a kernel row) bit-reverse to
        # maximally spread positions: the merging case.
        n = 1024
        stats = classify_pattern([0, 1, 2], n)
        assert stats.kind == "scattered"

    def test_offset_stride_is_mixed(self):
        n = 1024
        stats = classify_pattern(uniform_stride_pattern(n, 8) + 1, n)
        assert stats.kind == "mixed"

    def test_empty(self):
        stats = classify_pattern([], 64)
        assert stats.kind == "empty"
        assert stats.sparsity == 1.0

    def test_dense(self):
        stats = classify_pattern(range(64), 64)
        assert stats.kind == "dense"
        assert stats.sparsity == 0.0

    def test_sparsity_value(self):
        stats = classify_pattern([0, 1], 64)
        assert stats.sparsity == pytest.approx(1 - 2 / 64)


class TestSyntheticPatterns:
    def test_uniform_stride(self):
        assert uniform_stride_pattern(16, 4).tolist() == [0, 4, 8, 12]

    def test_contiguous_block(self):
        assert contiguous_block_pattern(16, 3).tolist() == [0, 1, 2]

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            uniform_stride_pattern(16, 0)
        with pytest.raises(ValueError):
            contiguous_block_pattern(16, 17)

    def test_conv_like_matches_encoder(self):
        # The synthetic generator must reproduce the real encoder pattern
        # for a single-channel tile.
        shape = ConvShape.square(1, 8, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        real = enc.weight_valid_indices(0)
        synth = conv_like_pattern(64, channels=1, plane=64, kernel=3, row_stride=8)
        assert synth.tolist() == real.tolist()


class TestConvWeightPattern:
    def test_resnet_layer_pattern_is_sparse(self):
        shape = ConvShape.square(64, 56, 64, 3, padding=1)
        enc = Conv2dEncoder(shape, 4096)
        pattern = conv_weight_pattern(enc)
        assert 0 < len(pattern) <= 9
        assert len(pattern) / 2048 < 0.01

    def test_pattern_is_folded(self):
        shape = ConvShape.square(2, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        pattern = conv_weight_pattern(enc)
        assert pattern.max() < 32
