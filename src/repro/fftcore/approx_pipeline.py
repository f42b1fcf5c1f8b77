"""End-to-end approximate negacyclic multiplication (the FLASH PE pipeline).

Mirrors the architecture split of Figure 6:

* the **weight transform** runs on approximate fixed-point butterfly units
  (per-stage bit-widths + quantized twiddles -> :class:`FixedPointFft`);
* the **activation/ciphertext transform**, **point-wise multiplication**
  and **inverse transform** run on floating-point units (modeled as
  float64, which over-provisions the paper's FP32-class units and is
  therefore conservative about where errors come from: the weight path).

Both paths share the folded N/2-point negacyclic dataflow of
:class:`repro.fftcore.negacyclic.NegacyclicFft`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig, FixedPointFft, FxpFormat
from repro.fftcore.negacyclic import (
    as_row,
    get_negacyclic_fft,
    round_to_integers,
)


def normalized_transform(transform, z: np.ndarray, output_scale: float):
    """Run a fixed-point ``transform`` on a ``(B, half)`` batch normalized
    per row; returns the unscaled result and the ``(B,)`` scales.

    The hardware normalization is a shift: each row is divided by the
    smallest power of two at or above ``max(|re|, |im|, 1)`` grown by a
    ``2**-20`` guard, so every part fits the fixed-point range ``[-1, 1)``.
    ``output_scale`` is the transform's own gain (``2**-stages``).
    """
    part_max = np.maximum(
        np.maximum(
            np.max(np.abs(z.real), axis=-1), np.max(np.abs(z.imag), axis=-1)
        ),
        1.0,
    )
    scale = 2.0 ** np.ceil(np.log2(part_max * (1.0 + 2.0 ** -20)))
    values = transform(z / scale[:, None]) / output_scale * scale[:, None]
    return values, scale


@dataclass
class ApproxSpectrum:
    """A weight spectrum with its normalization bookkeeping."""

    values: np.ndarray  # complex, unscaled spectrum estimate
    scale: float  # normalization applied to the integer input


class ApproxNegacyclic:
    """Approximate negacyclic polynomial multiplier of length ``n``.

    Args:
        n: polynomial length (power of two >= 4); the FFT core size is n/2.
        weight_config: fixed-point configuration of the weight-transform
            butterflies.  Its ``n`` must equal ``n // 2``.  ``None`` runs
            the weight path in float64 as well (the paper's "FFT (FP)"
            ablation arm).
    """

    def __init__(
        self,
        n: int,
        weight_config: Optional[ApproxFftConfig] = None,
        activation_config: Optional[ApproxFftConfig] = None,
        inverse_config: Optional[ApproxFftConfig] = None,
    ):
        self.n = n
        self.base = get_negacyclic_fft(n)
        for name, cfg in (
            ("weight", weight_config),
            ("activation", activation_config),
            ("inverse", inverse_config),
        ):
            if cfg is not None and cfg.n != n // 2:
                raise ValueError(
                    f"{name} core must be {n // 2}-point, got {cfg.n}"
                )
        self.weight_config = weight_config
        self.activation_config = activation_config
        self.inverse_config = inverse_config
        self._weight_fft = (
            FixedPointFft(weight_config, sign=+1)
            if weight_config is not None
            else None
        )
        # The FLASH architecture keeps these two in floating point; the
        # fixed-point options exist for the ablation that justifies it
        # (ciphertext-path errors scale with the ciphertext magnitude).
        self._activation_fft = (
            FixedPointFft(activation_config, sign=+1)
            if activation_config is not None
            else None
        )
        self._inverse_fft = (
            FixedPointFft(inverse_config, sign=-1)
            if inverse_config is not None
            else None
        )

    # Each per-call method is a batch of one: a shape check, then its
    # ``*_batch`` twin.  Scales are per row and every transform stage is
    # element-wise, so a batch row is what a lone call would compute.

    def weight_forward(self, weight) -> ApproxSpectrum:
        """Transform an integer weight polynomial on the approximate path.

        The folded vector is normalized by a power of two so its real and
        imaginary parts fit the fixed-point range ``[-1, 1)``; the folding
        twist rotation can push parts up to ``sqrt(2) *`` the coefficient
        magnitude, hence the guard factor.
        """
        spec = self.weight_forward_batch(as_row(weight, self.n, np.float64))
        return ApproxSpectrum(values=spec.values[0], scale=float(spec.scale[0]))

    def activation_forward(self, activation) -> np.ndarray:
        """Forward transform of an activation/ciphertext polynomial.

        Runs on FP units (exact float64) unless an ``activation_config``
        was supplied (ablation mode).
        """
        return self.activation_forward_batch(
            as_row(activation, self.n, np.float64)
        )[0]

    def multiply_spectra(self, weight_spec: ApproxSpectrum, act_spec) -> np.ndarray:
        """Point-wise multiply and inverse-transform; returns float coeffs.

        The inverse runs on FP units unless an ``inverse_config`` was
        supplied (ablation mode; see ``tests/test_path_asymmetry.py`` for
        the measured per-path sensitivities).
        """
        shape = np.broadcast_shapes(
            np.shape(weight_spec.values), np.shape(act_spec)
        )
        if shape != (self.n // 2,):
            raise ValueError(f"expected shape ({self.n // 2},), got {shape}")
        return self.multiply_spectra_batch(weight_spec.values, act_spec)[0]

    def weight_forward_batch(self, weights) -> ApproxSpectrum:
        """Batched :meth:`weight_forward` of a ``(B, n)`` weight stack.

        Returns an :class:`ApproxSpectrum` whose ``values`` are ``(B, n/2)``
        and whose ``scale`` is the ``(B,)`` per-row normalization vector.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        fft = self._weight_fft
        if fft is None:
            return ApproxSpectrum(
                values=self.base.forward_batch(weights),
                scale=np.ones(len(weights)),
            )
        values, scale = normalized_transform(
            fft.batch, self.base.fold_batch(weights), fft.output_scale
        )
        return ApproxSpectrum(values=values, scale=scale)

    def activation_forward_batch(self, activations) -> np.ndarray:
        """Batched :meth:`activation_forward` of a ``(B, n)`` stack."""
        activations = np.atleast_2d(np.asarray(activations, dtype=np.float64))
        fft = self._activation_fft
        if fft is None:
            return self.base.forward_batch(activations)
        return normalized_transform(
            fft.batch, self.base.fold_batch(activations), fft.output_scale
        )[0]

    def multiply_spectra_batch(self, weight_values, act_spec) -> np.ndarray:
        """Batched point-wise multiply + inverse; returns ``(B, n)`` floats.

        Args:
            weight_values: unscaled weight spectra, ``(B, n/2)`` or
                ``(n/2,)`` (one weight shared across the batch).
            act_spec: activation spectra, ``(B, n/2)``.
        """
        product = np.asarray(weight_values) * np.asarray(act_spec)
        product = np.atleast_2d(product)
        fft = self._inverse_fft
        if fft is None:
            return self.base.inverse_batch(product)
        core, _ = normalized_transform(fft.batch, product, fft.output_scale)
        return self.base.unfold_batch(core)

    @property
    def plan_bytes(self) -> int:
        """Memory held by this pipeline's precomputed tables."""
        total = self.base.plan_bytes
        for fft in (self._weight_fft, self._activation_fft, self._inverse_fft):
            if fft is not None:
                total += fft.plan_bytes
        return total

    def multiply(self, weight, activation, modulus: int = 0) -> np.ndarray:
        """Full pipeline: approximate weight FFT x exact activation FFT.

        Args:
            weight: integer weight polynomial (length n).
            activation: integer activation/ciphertext polynomial (length n),
                given as signed (centered) values.
            modulus: optional modulus for the rounded integer result.

        Returns:
            rounded integer coefficients (see
            :func:`repro.fftcore.negacyclic.round_to_integers`).
        """
        w_spec = self.weight_forward(weight)
        a_spec = self.activation_forward(activation)
        product = self.multiply_spectra(w_spec, a_spec)
        return round_to_integers(product, modulus)


def weight_spectrum_error(
    pipeline: ApproxNegacyclic, weight
) -> dict:
    """Spectrum-domain error of the approximate weight transform.

    Returns max/rms absolute error against the float64 folded transform,
    plus the error relative to the RMS spectrum magnitude.
    """
    approx = pipeline.weight_forward(weight).values
    exact = pipeline.base.forward(np.asarray(weight, dtype=np.float64))
    err = approx - exact
    signal = float(np.sqrt(np.mean(np.abs(exact) ** 2)))
    rms = float(np.sqrt(np.mean(np.abs(err) ** 2)))
    return {
        "max_abs": float(np.max(np.abs(err))),
        "rms": rms,
        "rel_rms": rms / signal if signal else 0.0,
    }


def quantize_weights_for_hardware(weight, bits: int) -> np.ndarray:
    """Clip/round integer weights into a ``bits``-bit signed range.

    Utility for experiments feeding W4A4-style quantized kernels into the
    pipeline; values are assumed already near range (re-quantization model).
    """
    weight = np.asarray(weight)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return np.clip(np.rint(weight), lo, hi).astype(np.int64)


__all__ = [
    "ApproxNegacyclic",
    "ApproxSpectrum",
    "ApproxFftConfig",
    "FixedPointFft",
    "FxpFormat",
    "quantize_weights_for_hardware",
    "weight_spectrum_error",
]
