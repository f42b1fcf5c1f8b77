"""Analytical error-variance model of the approximate FFT (Figure 10's
"analytical simulations").

Two noise sources per stage ``i`` of the scaled-butterfly pipeline:

* data quantization to ``dw_i`` bits: uniform noise of variance
  ``ulp_i^2 / 12`` per real component, with ``ulp_i = 2^-(dw_i - 1)``;
* twiddle quantization at level ``k``: a relative multiplicative error
  ``eps_k`` on the (unit-magnitude) twiddle, injecting variance
  ``eps_k^2 * P_{i-1}`` where ``P_{i-1}`` is the per-component signal
  power entering the stage.

With the per-stage halving, both signal power and propagated noise
variance halve per stage, so noise injected at stage ``i`` reaches the
output attenuated by ``2^-(S-i)``; un-scaling multiplies amplitudes by
``2^S``.  Tests validate the model against Monte-Carlo simulation of the
bit-true pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.fftcore.twiddle_quant import get_twiddle_rom


#: Structured-cancellation factor of deterministic CSD twiddle errors,
#: calibrated once against the bit-true simulator (tests keep model and
#: measurement within a small factor across the k / dw grid).
TWIDDLE_CORRELATION = 0.35


@lru_cache(maxsize=128)
def twiddle_relative_error(n: int, k: int, max_shift: int = 16) -> float:
    """RMS relative error of a level-k twiddle ROM (cached)."""
    if k <= 0:
        return 0.0
    return get_twiddle_rom(n, k, max_shift, -1).stats().rms_error


@lru_cache(maxsize=128)
def stage_twiddle_errors(n: int, k: int, max_shift: int = 16):
    """Per-stage RMS twiddle error (early stages use trivial twiddles)."""
    stages = n.bit_length() - 1
    if k <= 0:
        return tuple(0.0 for _ in range(stages))
    rom = get_twiddle_rom(n, k, max_shift, -1)
    out = []
    for s in range(1, stages + 1):
        approx = rom.stage_values(s)
        from repro.fftcore.reference import stage_twiddles

        exact = stage_twiddles(n, s, rom.sign)
        err = np.abs(approx - exact)
        out.append(float(np.sqrt(np.mean(err**2))))
    return tuple(out)


def spectrum_error_variance(
    config: ApproxFftConfig,
    signal_power: float = 1.0,
    input_power: Optional[float] = None,
) -> float:
    """Predicted per-component error variance of the *unscaled* spectrum.

    Args:
        config: the fixed-point FFT configuration.
        signal_power: per-component variance of the (normalized) input
            samples -- sets the twiddle-noise contribution.
        input_power: deprecated alias of ``signal_power``.

    Returns:
        variance of (approx - exact spectrum) per complex component, in
        unscaled spectrum units.
    """
    if input_power is not None:
        signal_power = input_power
    stages = config.stages
    eps_per_stage = stage_twiddle_errors(
        config.n, config.twiddle_k, config.twiddle_max_shift
    )
    total = 0.0
    power = signal_power
    if config.input_width is not None:
        ulp0 = 2.0 ** -(config.input_width - 1)
        total += (ulp0**2 / 12.0) * 2.0**-stages
    for i, dw in enumerate(config.stage_widths, start=1):
        injected = 0.0
        # Twiddle error perturbs the odd butterfly operand (w*y term):
        # |eps|^2 * P error power, attenuated by the 1/2 amplitude scaling
        # (1/4 in power).  CSD twiddle errors are deterministic and
        # partially cancel along butterfly paths; TWIDDLE_CORRELATION
        # calibrates that structured cancellation against the bit-true
        # Monte-Carlo pipeline (see tests).
        injected += (
            (eps_per_stage[i - 1] ** 2) * power * 0.25 * TWIDDLE_CORRELATION
        )
        ulp = 2.0 ** -(dw - 1)
        injected += ulp**2 / 12.0
        total += injected * 2.0 ** -(stages - i)
        power *= 0.5
    return total * 4.0**stages  # unscale amplitudes by 2^stages


def hconv_error_variance(
    config: ApproxFftConfig,
    weight_power: float,
    activation_power: float,
    poly_n: int,
) -> float:
    """Predicted error variance of HConv output coefficients.

    The weight-spectrum error ``E_k`` multiplies the activation spectrum
    ``A_k``; the inverse transform averages ``n/2`` spectrum products, so
    per-coefficient output variance is ``var(E) * E[|A|^2] / (n/2)`` with
    ``E[|A|^2] ~ n/2 * activation_power * ...`` -- the ``n/2`` factors
    cancel, leaving ``var(E) * activation_power`` up to folding constants.

    Args:
        config: weight-path FFT configuration (core size ``poly_n // 2``).
        weight_power: per-coefficient variance of the *normalized* folded
            weight input (after the [-1,1) scaling).
        activation_power: per-coefficient variance of the activation
            polynomial (message-domain units).
        poly_n: ring degree (for the folded-transform constant).
    """
    var_spec = spectrum_error_variance(config, signal_power=weight_power)
    # Folded pipeline: each output coefficient mixes real/imag parts of
    # n/2 products; empirical constant 1.0 absorbs the bookkeeping.
    return var_spec * activation_power * (poly_n / (poly_n / 2.0)) / 2.0


def monte_carlo_hconv_error(
    config: ApproxFftConfig,
    weight_poly: np.ndarray,
    poly_n: int,
    trials: int = 8,
    activation_range: int = 5,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Measured HConv output error variance (pre-rounding, message units).

    Runs the bit-true approximate pipeline against the exact negacyclic
    product; the *unrounded* error is reported because rounding snaps
    sub-0.5 errors to zero (kernel-level robustness), which would hide the
    quantity the DSE optimizes.
    """
    from repro.fftcore.approx_pipeline import ApproxNegacyclic
    from repro.ntt import negacyclic_convolution_naive

    rng = rng or np.random.default_rng(2)
    pipe = ApproxNegacyclic(poly_n, config)
    weight_poly = np.asarray(weight_poly, dtype=np.int64)
    w_spec = pipe.weight_forward(weight_poly)
    errors = []
    for _ in range(trials):
        # repro-lint: disable=DTYPE001  sampled activations are bounded by
        # activation_range (a few bits), far below float64's 2**53 mantissa
        a = rng.integers(
            -activation_range, activation_range, size=poly_n
        ).astype(np.float64)
        approx = pipe.multiply_spectra(w_spec, pipe.activation_forward(a))
        exact = negacyclic_convolution_naive(weight_poly, a.astype(np.int64))
        errors.append(
            approx - np.array([int(v) for v in exact], dtype=np.float64)
        )
    return float(np.var(np.concatenate(errors)))


def monte_carlo_spectrum_error(
    config: ApproxFftConfig,
    trials: int = 16,
    signal_std: float = 0.25,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Measured spectrum error variance (validation for the model)."""
    from repro.fftcore.fixed_point import FixedPointFft

    rng = rng or np.random.default_rng(0)
    fxp = FixedPointFft(config, sign=+1)
    acc = 0.0
    count = 0
    for _ in range(trials):
        x = signal_std * (
            rng.standard_normal(config.n) + 1j * rng.standard_normal(config.n)
        )
        x = np.clip(x.real, -0.99, 0.99) + 1j * np.clip(x.imag, -0.99, 0.99)
        approx = fxp(x) / fxp.output_scale
        exact = fxp.reference(x) / fxp.output_scale
        err = approx - exact
        acc += float(np.sum(err.real**2 + err.imag**2)) / 2.0
        count += config.n
    return acc / count
