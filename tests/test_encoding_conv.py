"""Tests for the Cheetah convolution coefficient encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import (
    Conv2dEncoder,
    ConvShape,
    conv2d_direct,
    conv2d_via_polynomials,
    decompose_strided,
    pad_input,
)


def _rand_case(rng, shape: ConvShape, w_range=8, x_range=16):
    x = rng.integers(-x_range, x_range, size=(shape.in_channels, shape.height, shape.width))
    w = rng.integers(
        -w_range,
        w_range,
        size=(shape.out_channels, shape.in_channels, shape.kernel_h, shape.kernel_w),
    )
    return x, w


class TestConvShape:
    def test_output_dims(self):
        s = ConvShape.square(3, 8, 4, 3, stride=2, padding=1)
        assert (s.out_height, s.out_width) == (4, 4)

    def test_macs(self):
        s = ConvShape.square(2, 4, 3, 3)
        assert s.macs == 3 * 2 * 2 * 2 * 3 * 3

    def test_rejects_kernel_too_large(self):
        with pytest.raises(ValueError):
            ConvShape.square(1, 2, 1, 5)

    def test_rejects_negative_padding(self):
        with pytest.raises(ValueError):
            ConvShape(1, 4, 4, 1, 3, 3, padding=-1)


class TestEncodingRoundtrip:
    @pytest.mark.parametrize(
        "c,size,m,k,n",
        [
            (1, 4, 1, 3, 64),
            (2, 4, 3, 3, 64),   # multi-channel, single tile
            (4, 4, 2, 2, 32),   # two tiles of 2 channels
            (3, 5, 2, 3, 64),   # non-power-of-two spatial size
            (5, 4, 1, 1, 16),   # 1x1 kernels, 5 tiles
        ],
    )
    def test_matches_direct_conv(self, c, size, m, k, n):
        rng = np.random.default_rng(c * 1000 + size * 100 + m * 10 + k)
        shape = ConvShape.square(c, size, m, k)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, n)
        expected = conv2d_direct(x, w)
        assert np.array_equal(got, expected)

    def test_with_padding(self):
        rng = np.random.default_rng(7)
        shape = ConvShape.square(2, 4, 2, 3, padding=1)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, padding=1)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("stride", [2, 3])
    def test_with_stride(self, stride):
        rng = np.random.default_rng(stride)
        shape = ConvShape.square(2, 7, 2, 3, stride=stride, padding=1)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, stride=stride, padding=1)
        assert np.array_equal(got, expected)

    def test_stride2_resnet_downsample_1x1(self):
        rng = np.random.default_rng(11)
        shape = ConvShape.square(4, 8, 8, 1, stride=2)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64)
        expected = conv2d_direct(x, w, stride=2)
        assert np.array_equal(got, expected)

    def test_fft_polymul_backend(self):
        from repro.fftcore import negacyclic_multiply_folded, round_to_integers

        def fft_mul(a, b):
            out = round_to_integers(negacyclic_multiply_folded(a, b))
            return np.array([int(v) for v in out], dtype=np.int64)

        rng = np.random.default_rng(13)
        shape = ConvShape.square(2, 4, 2, 3)
        x, w = _rand_case(rng, shape)
        got = conv2d_via_polynomials(x, w, shape, 64, polymul=fft_mul)
        assert np.array_equal(got, conv2d_direct(x, w))

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_property_random_shapes(self, data):
        c = data.draw(st.integers(1, 3))
        size = data.draw(st.integers(3, 6))
        m = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, min(3, size)))
        stride = data.draw(st.integers(1, 2))
        padding = data.draw(st.integers(0, 1))
        shape = ConvShape.square(c, size, m, k, stride=stride, padding=padding)
        rng = np.random.default_rng(data.draw(st.integers(0, 1 << 16)))
        x, w = _rand_case(rng, shape, w_range=4, x_range=8)
        got = conv2d_via_polynomials(x, w, shape, 128)
        expected = conv2d_direct(x, w, stride=stride, padding=padding)
        assert np.array_equal(got, expected)


class TestEncoderInternals:
    def test_tiling_counts(self):
        shape = ConvShape.square(8, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        assert enc.channels_per_tile == 4
        assert enc.num_tiles == 2
        assert list(enc.tile_channels(1)) == [4, 5, 6, 7]

    def test_ragged_last_tile_zero_padded(self):
        # Tiles are uniform: the last tile extends into zero-padded
        # virtual channels so extraction indices match across tiles.
        shape = ConvShape.square(5, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        assert enc.num_tiles == 2
        assert list(enc.tile_channels(1)) == [4, 5, 6, 7]
        polys = enc.encode_input(np.ones((5, 4, 4), dtype=np.int64))
        # Virtual channels of the last tile stay zero.
        assert polys[1][16:].sum() == 0

    def test_rejects_plane_too_large(self):
        with pytest.raises(ValueError):
            Conv2dEncoder(ConvShape.square(1, 16, 1, 3), 64)

    def test_rejects_strided(self):
        with pytest.raises(ValueError):
            Conv2dEncoder(ConvShape.square(1, 4, 1, 3, stride=2), 64)

    def test_weight_valid_indices_count(self):
        shape = ConvShape.square(2, 4, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        idx = enc.weight_valid_indices(0)
        assert len(idx) == 2 * 3 * 3
        assert len(set(idx.tolist())) == len(idx)

    def test_weight_valid_indices_cover_encoded_nonzeros(self):
        rng = np.random.default_rng(17)
        shape = ConvShape.square(2, 4, 2, 3)
        enc = Conv2dEncoder(shape, 64)
        w = rng.integers(1, 8, size=(2, 2, 3, 3))  # strictly nonzero
        polys = enc.encode_weights(w)
        valid = set(enc.weight_valid_indices(0).tolist())
        for poly in polys.values():
            assert set(np.nonzero(poly)[0].tolist()) <= valid

    def test_weight_sparsity_high_for_large_planes(self):
        # ResNet-ish: one 58x58 channel per 4096-degree polynomial, 3x3 kernel.
        shape = ConvShape.square(64, 56, 64, 3, padding=1)
        enc = Conv2dEncoder(shape, 4096)
        assert enc.channels_per_tile == 1
        assert enc.weight_sparsity() > 0.99

    def test_valid_index_structure_k_contiguous_per_row(self):
        # Section IV-B: k contiguous valid values within intervals of Wp.
        shape = ConvShape.square(1, 8, 1, 3)
        enc = Conv2dEncoder(shape, 64)
        idx = enc.weight_valid_indices(0)
        rows = {int(i) // 8 for i in idx}
        assert rows == {0, 1, 2}
        for r in rows:
            cols = sorted(int(i) % 8 for i in idx if int(i) // 8 == r)
            assert cols == [0, 1, 2]

    def test_input_encoding_layout(self):
        shape = ConvShape.square(2, 2, 1, 1)
        enc = Conv2dEncoder(shape, 16)
        x = np.arange(8).reshape(2, 2, 2)
        (poly,) = enc.encode_input(x)
        assert poly[:8].tolist() == list(range(8))

    def test_transforms_per_hconv(self):
        shape = ConvShape.square(8, 4, 8, 3)
        enc = Conv2dEncoder(shape, 64)  # 2 tiles of 4 channels
        counts = enc.transforms_per_hconv()
        # Inverse transforms happen once per output channel: partial
        # products accumulate across channel tiles before the inverse.
        assert counts == {
            "input_forward": 2,
            "weight_forward": 16,
            "inverse": 8,
        }

    def test_encode_input_validates_shape(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.encode_input(np.zeros((2, 4, 4)))

    def test_encode_weights_validates_shape(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.encode_weights(np.zeros((1, 1, 2, 2)))

    def test_tile_out_of_range(self):
        enc = Conv2dEncoder(ConvShape.square(1, 4, 1, 3), 64)
        with pytest.raises(ValueError):
            enc.tile_channels(5)


class TestDecomposeStrided:
    def test_stride1_identity(self):
        s = ConvShape.square(1, 4, 1, 3)
        assert decompose_strided(s) == [(s, 0, 0)]

    def test_stride1_padded_phase_is_padding_free(self):
        # The one phase covers the padded input, with no padding of its own.
        s = ConvShape.square(2, 4, 3, 3, padding=1)
        [(phase, a, b)] = decompose_strided(s)
        assert (a, b) == (0, 0)
        assert phase == ConvShape.square(2, 6, 3, 3)
        assert (phase.out_height, phase.out_width) == (4, 4)

    def test_stride2_has_four_phases(self):
        s = ConvShape.square(1, 8, 1, 3, stride=2)
        phases = decompose_strided(s)
        assert len(phases) == 4
        for phase, _, _ in phases:
            assert phase.stride == 1
            assert phase.out_height >= s.out_height

    def test_phase_kernel_partition(self):
        # Phase kernels must partition the original kernel taps.
        s = ConvShape.square(1, 8, 1, 3, stride=2)
        total_taps = sum(
            p.kernel_h * p.kernel_w for p, _, _ in decompose_strided(s)
        )
        assert total_taps == 9


class TestPadInput:
    def test_zero_padding_noop(self):
        x = np.ones((1, 2, 2))
        assert pad_input(x, 0) is x

    def test_padding_shape_and_content(self):
        x = np.ones((1, 2, 2), dtype=np.int64)
        out = pad_input(x, 1)
        assert out.shape == (1, 4, 4)
        assert out.sum() == 4
        assert out[0, 0, 0] == 0
