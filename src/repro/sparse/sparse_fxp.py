"""The combined FLASH weight-transform engine: sparse *and* fixed-point.

:mod:`repro.sparse.dataflow` proves the skipping/merging dataflow exact;
:mod:`repro.fftcore.fixed_point` models the approximate arithmetic.  Real
FLASH hardware does both at once, and the combination is *not* the
composition of the two models: a merged butterfly chain multiplies by one
ROM entry addressed by the *sum* of twiddle exponents ("twiddle factor
exponents serve as addresses to fetch values from the ROM", Section IV-B),
so a chain suffers a single twiddle quantization instead of one per stage
-- merging is slightly *more* accurate than the dense approximate FFT, not
less.  :class:`SparseFixedPointFft` evaluates the one tag walk of
:mod:`repro.sparse.walk` on that datapath, one row at a time in scalar
arithmetic:

* ``SCALED`` chains ``(source, exponent mod n, sign)`` cost nothing until
  they materialize through one quantized ROM entry, rounded once;
* executed butterflies use quantized stage twiddles, halve their outputs
  and round to the stage's data width -- bit-compatible with
  :class:`repro.fftcore.fixed_point.FixedPointFft` on dense inputs;
* the multiplication count is the walk's realized count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.fftcore.approx_pipeline import (
    ApproxNegacyclic,
    ApproxSpectrum,
    normalized_transform,
)
from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.fftcore.twiddle_quant import get_twiddle_rom
from repro.ntt.modmath import bit_reverse_indices
from repro.sparse.walk import Reduction, evaluate, support, tag_walk


__all__ = [
    "SparseFixedPointFft",
    "SparseFxpResult",
    "SparseApproxNegacyclic",
]


@dataclass
class SparseFxpResult(Reduction):
    """Output of one combined sparse fixed-point transform."""

    values: np.ndarray  # scaled spectrum (same convention as FixedPointFft)
    mults: int
    dense_mults: int


class SparseFixedPointFft:
    """Sparse skipping/merging FFT on the approximate fixed-point datapath.

    Args:
        config: per-stage widths and twiddle quantization level.
        sign: twiddle sign convention (+1 for the folded negacyclic
            forward transform).
    """

    def __init__(self, config: ApproxFftConfig, sign: int = -1):
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.config = config
        self.sign = sign
        n = config.n
        self.stages = config.stages
        self._rev = bit_reverse_indices(n)
        self._rom = (
            get_twiddle_rom(
                n, config.twiddle_k, config.twiddle_max_shift, sign
            )
            if config.twiddle_k
            else None
        )
        self._formats = [FxpFormat(w) for w in config.stage_widths]

    @property
    def output_scale(self) -> float:
        return 2.0 ** -self.stages

    @property
    def dense_mults(self) -> int:
        return (self.config.n // 2) * self.stages

    def _twiddle(self, exponent: int) -> complex:
        """Quantized (or exact) twiddle ``W_n^(sign * exponent)``."""
        n = self.config.n
        if self._rom is not None:
            return complex(self._rom.values[exponent % n])
        return complex(np.exp(self.sign * 2j * np.pi * (exponent % n) / n))

    def run(
        self, x, valid: Optional[Sequence[int]] = None
    ) -> SparseFxpResult:
        """Transform complex input in ``[-1, 1)`` exploiting sparsity.

        Args:
            x: complex vector of length n.
            valid: structural non-zero pattern (inferred if omitted).
        """
        cfg = self.config
        n = cfg.n
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (n,):
            raise ValueError(f"expected shape ({n},), got {x.shape}")
        if cfg.input_width is not None:
            x = FxpFormat(cfg.input_width).quantize_complex(x)
        walk = tag_walk(n, support(x, valid, n))
        rounders = [
            lambda z, f=fmt: complex(f.quantize_complex(np.array([z]))[0])
            for fmt in self._formats
        ]
        return SparseFxpResult(
            values=evaluate(walk, x, self._twiddle, rounders, 0.5),
            mults=walk.mults,
            dense_mults=self.dense_mults,
        )


class SparseApproxNegacyclic(ApproxNegacyclic):
    """FLASH's complete weight path: folded negacyclic + sparse FXP FFT.

    An :class:`repro.fftcore.approx_pipeline.ApproxNegacyclic` whose weight
    transform runs on the combined sparse fixed-point engine, configured
    once per layer with the structural sparsity pattern.  Activation,
    inverse, ``multiply`` and the per-call methods are inherited (float64
    activation and inverse, as in the architecture);
    :meth:`weight_forward_batch` walks each row through
    :meth:`SparseFixedPointFft.run`, the per-call oracle the compiled
    sparse plans are checked against, and never the dense core.

    Args:
        n: polynomial length (ring degree).
        weight_config: fixed-point configuration of the n/2-point core.
        valid_pattern: structural non-zero pattern of weight polynomials in
            natural coefficient order (e.g. from
            :func:`repro.encoding.conv_encoding.Conv2dEncoder.weight_valid_indices`);
            inferred per call when omitted.
    """

    def __init__(
        self,
        n: int,
        weight_config: ApproxFftConfig,
        valid_pattern: Optional[Sequence[int]] = None,
    ):
        from repro.sparse.patterns import fold_valid_indices

        if weight_config.n != n // 2:
            raise ValueError(
                f"weight core must be {n // 2}-point, got {weight_config.n}"
            )
        super().__init__(n)
        self.weight_config = weight_config
        self.engine = SparseFixedPointFft(weight_config, sign=+1)
        self._pattern = (
            None
            if valid_pattern is None
            else fold_valid_indices(valid_pattern, n)
        )
        self.last_mults = 0

    def weight_forward_batch(self, weights) -> ApproxSpectrum:
        """Sparse approximate spectra of a ``(B, n)`` weight stack, one
        :meth:`SparseFixedPointFft.run` per row; ``last_mults`` is the last
        row's multiplication count."""
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        runs: List[SparseFxpResult] = []

        def walk(rows: np.ndarray) -> np.ndarray:
            runs.extend(self.engine.run(row, valid=self._pattern) for row in rows)
            return np.array([r.values for r in runs]).reshape(rows.shape)

        values, scale = normalized_transform(
            walk, self.base.fold_batch(weights), self.engine.output_scale
        )
        if runs:
            self.last_mults = runs[-1].mults
        return ApproxSpectrum(values=values, scale=scale)
