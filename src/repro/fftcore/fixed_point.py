"""Fixed-point approximate FFT simulator (Section IV-C).

Bit-true model of the FLASH approximate butterfly units: data flowing
through the FFT is fixed-point with a *per-stage* bit-width ``dw_i`` (the
design-space variable of the DSE), and twiddle factors are quantized to
``k`` signed power-of-two terms (:mod:`repro.fftcore.twiddle_quant`).

Scaling follows the standard hardware convention of halving butterfly
outputs every stage, so values stay in ``[-1, 1)`` and the quantization
grid is simply ``2**-(dw-1)``; the known total scale ``2**-stages`` is
compensated when spectra are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.fftcore.reference import butterfly_stage, stage_twiddles
from repro.fftcore.twiddle_quant import TwiddleRom, get_twiddle_rom
from repro.ntt.modmath import bit_reverse_indices


@dataclass(frozen=True)
class FxpFormat:
    """Signed fixed-point format: 1 sign bit, rest fraction (range [-1, 1))."""

    total_bits: int

    def __post_init__(self):
        if self.total_bits < 2:
            raise ValueError("fixed-point format needs at least 2 bits")

    @property
    def frac_bits(self) -> int:
        return self.total_bits - 1

    @property
    def ulp(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def max_value(self) -> float:
        return 1.0 - self.ulp

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round-to-nearest onto the grid, saturating at the format range."""
        scaled = np.rint(np.asarray(x, dtype=np.float64) / self.ulp)
        limit = 2.0**self.frac_bits
        scaled = np.clip(scaled, -limit, limit - 1)
        return scaled * self.ulp

    def quantize_complex(self, x: np.ndarray) -> np.ndarray:
        """:meth:`quantize` of both parts, in one pass over the
        interleaved float64 view.

        Bit-identical to ``quantize(x.real) + 1j * quantize(x.imag)``,
        signed zeros included: that sum keeps a ``-0.0`` real part only
        where the imaginary part is negative or ``-0.0``, and never yields
        a ``-0.0`` imaginary part.  Multiplying by ``1 - 0j`` and adding
        ``-0 + 0j`` gives the same zeros and leaves every other value
        unchanged (both steps are exact).
        """
        x = np.asarray(x, dtype=np.complex128)
        # Scaling by a power of two is exact, so this equals x / ulp.
        limit = 2.0**self.frac_bits
        parts = np.ascontiguousarray(x).view(np.float64) * limit
        return self.round_scaled(parts.view(np.complex128)).reshape(x.shape)

    def round_scaled(self, scaled: np.ndarray) -> np.ndarray:
        """The rest of :meth:`quantize_complex`, in place on a contiguous
        complex128 array already divided by :attr:`ulp`."""
        limit = 2.0**self.frac_bits
        parts = scaled.view(np.float64)
        np.rint(parts, out=parts)
        np.maximum(parts, -limit, out=parts)
        np.minimum(parts, limit - 1, out=parts)
        parts *= self.ulp
        np.multiply(scaled, complex(1.0, -0.0), out=scaled)
        np.add(scaled, complex(-0.0, 0.0), out=scaled)
        return scaled


@dataclass
class ApproxFftConfig:
    """Configuration of one approximate FFT core.

    Args:
        n: core transform length (power of two).  For the folded negacyclic
            pipeline this is N/2 where N is the polynomial degree.
        stage_widths: data bit-width after each of the ``log2(n)`` stages.
            A single int is broadcast to all stages.
        twiddle_k: quantization level of the twiddle factors (signed
            power-of-two terms per real/imaginary part); 0 disables twiddle
            quantization (exact FP twiddles).
        twiddle_max_shift: fraction-bit budget of the twiddle ROM.
        input_width: bit-width of the (normalized) input samples.
    """

    n: int
    stage_widths: Sequence[int] = 27
    twiddle_k: int = 0
    twiddle_max_shift: int = 16
    input_width: Optional[int] = None
    _stages: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        self._stages = self.n.bit_length() - 1
        if isinstance(self.stage_widths, (int, np.integer)):
            self.stage_widths = [int(self.stage_widths)] * self._stages
        else:
            self.stage_widths = [int(w) for w in self.stage_widths]
        if len(self.stage_widths) != self._stages:
            raise ValueError(
                f"need {self._stages} stage widths, got {len(self.stage_widths)}"
            )
        if any(w < 2 for w in self.stage_widths):
            raise ValueError("stage widths must be >= 2 bits")

    @property
    def stages(self) -> int:
        return self._stages

    def describe(self) -> str:
        tw = f"k={self.twiddle_k}" if self.twiddle_k else "exact twiddles"
        return f"ApproxFft(n={self.n}, dw={list(self.stage_widths)}, {tw})"


class FixedPointFft:
    """Bit-true DIT FFT with per-stage quantization and scaled butterflies.

    The transform computes ``FFT(x) * 2**-stages`` (sign per ``sign``
    argument); :attr:`output_scale` records the factor to divide out.

    Args:
        config: the :class:`ApproxFftConfig`.
        sign: twiddle sign, -1 (forward, numpy convention) or +1.
    """

    def __init__(self, config: ApproxFftConfig, sign: int = -1):
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.config = config
        self.sign = sign
        n = config.n
        self._rev = bit_reverse_indices(n)
        self._rom = (
            get_twiddle_rom(
                n, config.twiddle_k, config.twiddle_max_shift, sign
            )
            if config.twiddle_k
            else None
        )
        self._stage_tw = []
        for s in range(1, config.stages + 1):
            if self._rom is not None:
                self._stage_tw.append(self._rom.stage_values(s))
            else:
                self._stage_tw.append(stage_twiddles(n, s, sign))
        self._formats = [FxpFormat(w) for w in config.stage_widths]
        self._input_format = (
            FxpFormat(config.input_width)
            if config.input_width is not None
            else None
        )

    @property
    def output_scale(self) -> float:
        """Factor by which outputs are scaled relative to the exact DFT."""
        return 2.0 ** -self.config.stages

    @property
    def rom(self) -> Optional[TwiddleRom]:
        return self._rom

    def __call__(self, x) -> np.ndarray:
        """Run the fixed-point transform on complex input in ``[-1, 1)``."""
        n = self.config.n
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (n,):
            raise ValueError(f"expected shape ({n},), got {x.shape}")
        return self.batch(x[None])[0]

    def batch(self, x) -> np.ndarray:
        """Batched bit-true transform over the last axis of ``(..., n)``.

        Runs the stages batch-innermost, as
        :func:`repro.fftcore.reference.fft_dit_batch` does; quantization
        and the scaled butterflies are element-wise, so each row's output
        is bit-identical to a per-row :meth:`__call__`.
        """
        cfg = self.config
        x = np.asarray(x, dtype=np.complex128)
        if x.ndim < 1 or x.shape[-1] != cfg.n:
            raise ValueError(
                f"batch must have last axis {cfg.n}, got shape {x.shape}"
            )
        if self._input_format is not None:
            x = self._input_format.quantize_complex(x)
        rows = x.reshape(-1, cfg.n)
        out = rows.T[self._rev]
        hi = np.empty((cfg.n // 2, rows.shape[0]), np.complex128)
        for s, (w, fmt) in enumerate(zip(self._stage_tw, self._formats), 1):
            butterfly_stage(out, hi, s, w)
            # Halving keeps magnitudes in [-1, 1) regardless of stage
            # count.  ``out * 0.5`` is a complex multiply by ``0.5 + 0j``;
            # on grid values (every stage after the first, and the first
            # when inputs are quantized) ``out * (0.5 / ulp)`` rounds no
            # differently and sets the same signed zeros, so the halving
            # folds into the scale.  Raw inputs may be subnormal, where
            # halving rounds.
            if s > 1 or self._input_format is not None:
                np.multiply(out, 2.0 ** (fmt.frac_bits - 1), out=out)
            else:
                np.multiply(out, 0.5, out=out)
                parts = out.view(np.float64)
                parts *= 2.0**fmt.frac_bits
            fmt.round_scaled(out)
        return np.ascontiguousarray(out.T).reshape(x.shape)

    @property
    def plan_bytes(self) -> int:
        """Memory held by the precomputed stage twiddle tables."""
        return self._rev.nbytes + sum(t.nbytes for t in self._stage_tw)

    def reference(self, x) -> np.ndarray:
        """Exact (float64) transform with the same scaling, for error studies."""
        from repro.fftcore.reference import fft_dit

        x = np.asarray(x, dtype=np.complex128)
        return fft_dit(x, self.sign) * self.output_scale


def transform_error(fxp: FixedPointFft, x) -> dict:
    """Error statistics of one fixed-point transform vs the exact result.

    Errors are reported relative to the *unscaled* spectrum (i.e. divided by
    :attr:`FixedPointFft.output_scale`), which is the domain pointwise
    products live in.

    Returns:
        dict with ``max_abs``, ``rms`` and ``rel_rms`` (RMS error over RMS
        signal) keys.
    """
    approx = fxp(x) / fxp.output_scale
    exact = fxp.reference(x) / fxp.output_scale
    err = approx - exact
    signal_rms = float(np.sqrt(np.mean(np.abs(exact) ** 2)))
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    return {
        "max_abs": float(np.max(np.abs(err))),
        "rms": rms,
        "rel_rms": rms / signal_rms if signal_rms else 0.0,
    }
