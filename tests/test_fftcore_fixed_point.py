"""Tests for the fixed-point approximate FFT and the FLASH PE pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fftcore import (
    ApproxFftConfig,
    ApproxNegacyclic,
    FixedPointFft,
    FxpFormat,
    round_to_integers,
    transform_error,
    weight_spectrum_error,
)
from repro.ntt import negacyclic_convolution_naive


class TestFxpFormat:
    def test_ulp(self):
        assert FxpFormat(8).ulp == 2.0**-7

    def test_quantize_rounds_to_grid(self):
        fmt = FxpFormat(4)  # grid step 1/8
        out = fmt.quantize(np.array([0.3, -0.3, 0.13]))
        np.testing.assert_allclose(out, [0.25, -0.25, 0.125])

    def test_quantize_ties_to_even(self):
        # Hardware round-half-even: 0.0625 is halfway between 0 and 1/8.
        fmt = FxpFormat(4)
        np.testing.assert_allclose(
            fmt.quantize(np.array([0.0625, 0.1875])), [0.0, 0.25]
        )

    def test_saturation(self):
        fmt = FxpFormat(4)
        out = fmt.quantize(np.array([5.0, -5.0]))
        np.testing.assert_allclose(out, [fmt.max_value, -1.0])

    def test_quantize_complex(self):
        fmt = FxpFormat(3)
        out = fmt.quantize_complex(np.array([0.3 + 0.8j]))
        assert out[0] == pytest.approx(0.25 + 0.75j)

    def test_high_precision_is_near_lossless(self):
        fmt = FxpFormat(40)
        x = np.array([0.123456789, -0.987654321])
        np.testing.assert_allclose(fmt.quantize(x), x, atol=2**-39)

    def test_rejects_tiny_format(self):
        with pytest.raises(ValueError):
            FxpFormat(1)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Complex array with exactly these parts (``re + 1j * im`` would turn
    a ``-0.0`` real part into ``+0.0``)."""
    x = np.empty(len(re), dtype=np.complex128)
    x.real, x.imag = re, im
    return x


@st.composite
def _quantize_parts(draw, frac_bits: int):
    """One real or imaginary part: saturation, ties, zeros or any float."""
    ulp = 2.0**-frac_bits
    tie = draw(st.integers(-(2**frac_bits) - 2, 2**frac_bits + 1))
    return draw(
        st.sampled_from(
            [0.0, -0.0, 1.0, -1.0, 1.0 - ulp / 2, -1.0 - ulp / 2,
             ulp / 2, -ulp / 2, (tie + 0.5) * ulp]
        )
        | st.floats(-2.0, 2.0, allow_nan=False)
        | st.floats(-ulp, ulp, allow_nan=False)
    )


class TestQuantizeComplexBitIdentity:
    """``quantize_complex`` runs on the interleaved float64 view; its bytes
    must equal the two-part formula it replaced, signed zeros included."""

    @given(data=st.data(), total_bits=st.integers(2, 52))
    @settings(max_examples=300, deadline=None)
    def test_matches_two_part_formula(self, data, total_bits):
        fmt = FxpFormat(total_bits)
        part = _quantize_parts(fmt.frac_bits)
        pairs = data.draw(st.lists(st.tuples(part, part), min_size=1, max_size=12))
        x = _complex(*np.array(pairs, dtype=np.float64).T)
        old = fmt.quantize(x.real) + 1j * fmt.quantize(x.imag)
        assert fmt.quantize_complex(x).tobytes() == old.tobytes()

    @pytest.mark.parametrize("total_bits", [2, 5, 27, 52])
    def test_signed_zero_grid(self, total_bits):
        fmt = FxpFormat(total_bits)
        grid = np.array([0.0, -0.0, -fmt.ulp / 4, fmt.ulp / 4, -0.75, 0.75])
        re, im = np.meshgrid(grid, grid)
        x = _complex(re.ravel(), im.ravel())
        old = fmt.quantize(x.real) + 1j * fmt.quantize(x.imag)
        out = fmt.quantize_complex(x.reshape(6, 6))
        assert out.shape == (6, 6)
        assert out.reshape(-1).tobytes() == old.tobytes()
        # NaN and saturating parts: the two-part formula turns a NaN part
        # into two, so these match the clamp as it was, one np.clip call.
        edges = np.array(
            [np.nan, -np.nan, np.inf, -np.inf, 2.0, -2.0, 0.0, -0.0, 1.0]
        )
        re, im = np.meshgrid(edges, edges)
        x = _complex(re.ravel(), im.ravel())
        parts = x.view(np.float64) * 2.0**fmt.frac_bits
        np.rint(parts, out=parts)
        np.clip(parts, -(2.0**fmt.frac_bits), 2.0**fmt.frac_bits - 1, out=parts)
        parts *= fmt.ulp
        clipped = parts.view(np.complex128) * complex(1.0, -0.0)
        clipped += complex(-0.0, 0.0)
        assert fmt.quantize_complex(x).tobytes() == clipped.tobytes()


class TestApproxFftConfig:
    def test_broadcast_scalar_width(self):
        cfg = ApproxFftConfig(n=16, stage_widths=20)
        assert cfg.stage_widths == [20, 20, 20, 20]
        assert cfg.stages == 4

    def test_per_stage_widths(self):
        cfg = ApproxFftConfig(n=8, stage_widths=[10, 12, 14])
        assert cfg.stage_widths == [10, 12, 14]

    def test_wrong_width_count(self):
        with pytest.raises(ValueError):
            ApproxFftConfig(n=8, stage_widths=[10, 12])

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            ApproxFftConfig(n=12)

    def test_describe(self):
        assert "k=5" in ApproxFftConfig(n=8, twiddle_k=5).describe()


class TestFixedPointFft:
    def test_high_precision_matches_reference(self):
        cfg = ApproxFftConfig(n=64, stage_widths=48)
        fxp = FixedPointFft(cfg)
        rng = np.random.default_rng(0)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.1
        np.testing.assert_allclose(fxp(x), fxp.reference(x), atol=1e-9)

    def test_output_scale(self):
        cfg = ApproxFftConfig(n=16, stage_widths=30)
        assert FixedPointFft(cfg).output_scale == 2.0**-4

    def test_reference_equals_scaled_fft(self):
        cfg = ApproxFftConfig(n=32, stage_widths=30)
        fxp = FixedPointFft(cfg, sign=-1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32) * 0.2
        np.testing.assert_allclose(
            fxp.reference(x), np.fft.fft(x) / 32, atol=1e-12
        )

    def test_error_monotone_in_width(self):
        rng = np.random.default_rng(2)
        x = (rng.standard_normal(128) + 1j * rng.standard_normal(128)) * 0.05
        errs = []
        for dw in (10, 14, 18, 24, 30):
            cfg = ApproxFftConfig(n=128, stage_widths=dw)
            errs.append(transform_error(FixedPointFft(cfg), x)["rms"])
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < errs[0] / 100

    def test_quantized_twiddles_add_bounded_error(self):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 0.05
        exact = FixedPointFft(ApproxFftConfig(n=64, stage_widths=30))
        approx = FixedPointFft(
            ApproxFftConfig(n=64, stage_widths=30, twiddle_k=5)
        )
        err = transform_error(approx, x)["rel_rms"]
        err_exact = transform_error(exact, x)["rel_rms"]
        assert err_exact < 1e-6
        assert err < 0.05  # k=5 twiddles keep relative error small

    def test_values_stay_in_range(self):
        # Adversarial all-max input: halving must prevent overflow.
        cfg = ApproxFftConfig(n=64, stage_widths=12)
        fxp = FixedPointFft(cfg)
        x = np.full(64, 0.999) + 1j * np.full(64, 0.999)
        out = fxp(x)
        assert np.all(np.abs(out.real) <= 1.0)
        assert np.all(np.abs(out.imag) <= 1.0)

    def test_input_width_quantization(self):
        cfg = ApproxFftConfig(n=16, stage_widths=30, input_width=4)
        fxp = FixedPointFft(cfg)
        x = np.full(16, 0.26)
        # input quantized to 0.25 on the 2^-3 grid before transform
        out = fxp(x) / fxp.output_scale
        assert out[0].real == pytest.approx(16 * 0.25, abs=1e-6)

    def test_shape_validation(self):
        fxp = FixedPointFft(ApproxFftConfig(n=16, stage_widths=20))
        with pytest.raises(ValueError):
            fxp(np.zeros(8))

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            FixedPointFft(ApproxFftConfig(n=16, stage_widths=20), sign=2)


class TestApproxNegacyclic:
    def test_fp_weight_path_is_exact(self):
        pipe = ApproxNegacyclic(n=64, weight_config=None)
        rng = np.random.default_rng(4)
        w = rng.integers(-8, 8, size=64)
        a = rng.integers(-1000, 1000, size=64)
        got = pipe.multiply(w, a)
        expected = negacyclic_convolution_naive(w, a)
        assert [int(v) for v in got] == [int(v) for v in expected]

    def test_high_precision_fxp_weight_path_is_exact(self):
        cfg = ApproxFftConfig(n=32, stage_widths=45)
        pipe = ApproxNegacyclic(n=64, weight_config=cfg)
        rng = np.random.default_rng(5)
        w = rng.integers(-8, 8, size=64)
        a = rng.integers(-1000, 1000, size=64)
        got = pipe.multiply(w, a)
        expected = negacyclic_convolution_naive(w, a)
        assert [int(v) for v in got] == [int(v) for v in expected]

    def test_low_precision_error_is_small_relative(self):
        cfg = ApproxFftConfig(n=32, stage_widths=16, twiddle_k=5)
        pipe = ApproxNegacyclic(n=64, weight_config=cfg)
        rng = np.random.default_rng(6)
        w = np.zeros(64, dtype=np.int64)
        w[:9] = rng.integers(-8, 8, size=9)  # sparse like encoded kernels
        a = rng.integers(-(2**20), 2**20, size=64)
        got = np.array(
            [int(v) for v in pipe.multiply(w, a)], dtype=np.float64
        )
        expected = np.array(
            [int(v) for v in negacyclic_convolution_naive(w, a)],
            dtype=np.float64,
        )
        scale = np.abs(expected).max()
        rel = np.abs(got - expected).max() / scale
        assert rel < 0.05

    def test_weight_spectrum_error_decreases_with_width(self):
        rng = np.random.default_rng(7)
        w = rng.integers(-8, 8, size=64)
        errs = []
        for dw in (10, 16, 24, 32):
            cfg = ApproxFftConfig(n=32, stage_widths=dw)
            pipe = ApproxNegacyclic(n=64, weight_config=cfg)
            errs.append(weight_spectrum_error(pipe, w)["rms"])
        assert errs == sorted(errs, reverse=True)

    def test_modulus_reduction(self):
        pipe = ApproxNegacyclic(n=16)
        w = np.zeros(16, dtype=np.int64)
        w[0] = -1
        a = np.ones(16, dtype=np.int64)
        out = pipe.multiply(w, a, modulus=97)
        assert out.tolist() == [96] * 16

    def test_mismatched_core_size_rejected(self):
        with pytest.raises(ValueError):
            ApproxNegacyclic(n=64, weight_config=ApproxFftConfig(n=64))

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_property_high_precision_exact_n16(self, data):
        ints = st.integers(-7, 7)
        w = np.array(data.draw(st.lists(ints, min_size=16, max_size=16)))
        a = np.array(
            data.draw(
                st.lists(st.integers(-500, 500), min_size=16, max_size=16)
            )
        )
        cfg = ApproxFftConfig(n=8, stage_widths=45)
        pipe = ApproxNegacyclic(n=16, weight_config=cfg)
        got = pipe.multiply(w, a)
        expected = negacyclic_convolution_naive(w, a)
        assert [int(v) for v in got] == [int(v) for v in expected]
