"""Private-inference error simulation: FLASH's approximate FFT inside a CNN.

Running full BFV for every convolution of every test image is wasteful;
the *error profile* of the protocol can be reproduced much more cheaply.
In the protocol, the approximate FFT processes ciphertext polynomials
whose coefficients are uniform over the ~60-bit modulus, and the induced
message error is ``relative_fft_error x t`` (t = plaintext modulus).
Running the same FFT pipeline over *secret shares* (uniform mod t) yields
the same relative error against magnitude-t data, hence the same
message-domain error distribution -- without any big-integer work.
This models the message-domain error only: the shares' errors cancel down
to ``a * (w~ - w)``, while on the encrypted path the same weight error
also multiplies the ``q``-multiples of the phase.  It has not been checked
against BFV decryptions, and no test compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.encoding.conv_encoding import ConvShape
from repro.encoding.plain_eval import conv2d_via_polynomials
from repro.fftcore.approx_pipeline import ApproxNegacyclic, ApproxSpectrum
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.nn.model import QuantizedCnn


class SharedPolyMulSimulator:
    """Negacyclic PolyMul with the error profile of the hybrid protocol.

    Args:
        n: polynomial degree.
        share_bits: sharing-ring width ``l`` (plaintext modulus ``t = 2^l``).
        weight_config: approximate-FFT configuration of the weight path;
            ``None`` gives the float64 "FFT (FP)" arm.
        rng: randomness for the share split.
    """

    def __init__(
        self,
        n: int,
        share_bits: int,
        weight_config: Optional[ApproxFftConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.n = n
        self.modulus = 1 << share_bits
        self.pipeline = ApproxNegacyclic(n, weight_config)
        self.rng = rng or np.random.default_rng(0)
        self._spectra: Dict[bytes, ApproxSpectrum] = {}

    def _weight_spectrum(self, w: np.ndarray) -> ApproxSpectrum:
        key = w.tobytes()
        if key not in self._spectra:
            self._spectra[key] = self.pipeline.weight_forward(w)
        return self._spectra[key]

    def polymul(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Product of activation poly ``a`` and weight poly ``w`` mod ``t``.

        ``a`` is secret-shared, each share is transformed/multiplied on the
        (approximate) FFT pipeline, and the shares are recombined -- two
        transforms of magnitude-t/2 data, matching the two ciphertext
        components of the protocol.
        """
        t = self.modulus
        a = np.asarray(a, dtype=np.int64) % t
        w = np.ascontiguousarray(w, dtype=np.int64)
        share_c = self.rng.integers(0, t, size=self.n, dtype=np.int64)
        share_s = (a - share_c) % t
        half = t >> 1
        centered_c = np.where(share_c >= half, share_c - t, share_c)
        centered_s = np.where(share_s >= half, share_s - t, share_s)

        w_spec = self._weight_spectrum(w)
        out = np.zeros(self.n, dtype=np.int64)
        for share in (centered_c, centered_s):
            # repro-lint: disable=DTYPE001  centered shares are bounded by
            # t/2 = 2**(share_bits-1) <= 2**40 for Cheetah-class sharing
            # rings, below float64's 2**53 mantissa
            spec = self.pipeline.activation_forward(share.astype(np.float64))
            product = self.pipeline.multiply_spectra(w_spec, spec)
            out = (out + np.rint(product).astype(np.int64)) % t
        return np.where(out >= half, out - t, out)


def make_private_conv_fn(sim: SharedPolyMulSimulator):
    """Conv kernel for :meth:`QuantizedCnn.forward_with_kernels`."""

    def conv_fn(x, w, stride, padding):
        c, h, width = x.shape
        m = w.shape[0]
        shape = ConvShape(
            in_channels=c,
            height=h,
            width=width,
            out_channels=m,
            kernel_h=w.shape[2],
            kernel_w=w.shape[3],
            stride=stride,
            padding=padding,
        )
        return conv2d_via_polynomials(x, w, shape, sim.n, polymul=sim.polymul)

    return conv_fn


def make_private_linear_fn(sim: SharedPolyMulSimulator):
    """Linear kernel routed through the same polynomial pipeline."""
    from repro.encoding.linear_encoding import matvec_via_polynomials

    def linear_fn(x, w):
        return matvec_via_polynomials(x, w, sim.n, polymul=sim.polymul)

    return linear_fn


@dataclass
class PrivateInferenceReport:
    """Accuracy comparison: exact integer vs approximate private inference."""

    exact_accuracy: float
    private_accuracy: float
    agreement: float
    mean_logit_error: float
    samples: int

    @property
    def accuracy_drop(self) -> float:
        return self.exact_accuracy - self.private_accuracy


def evaluate_private_inference(
    net: QuantizedCnn,
    images: np.ndarray,
    labels: np.ndarray,
    sim: SharedPolyMulSimulator,
    max_samples: Optional[int] = None,
) -> PrivateInferenceReport:
    """Run the network exactly and through the approximate pipeline.

    This is the network-level robustness experiment of Section III-A /
    Table IV: does approximate HConv change classifications?
    """
    if max_samples is not None:
        images = images[:max_samples]
        labels = labels[:max_samples]
    conv_fn = make_private_conv_fn(sim)
    linear_fn = make_private_linear_fn(sim)
    exact_logits = net.forward_int(images)
    agree = 0
    correct_private = 0
    logit_err = 0.0
    for i in range(len(images)):
        priv = net.forward_with_kernels(
            images[i], conv_fn=conv_fn, linear_fn=linear_fn
        )
        if priv.argmax() == exact_logits[i].argmax():
            agree += 1
        if priv.argmax() == labels[i]:
            correct_private += 1
        denom = max(1.0, float(np.abs(exact_logits[i]).max()))
        logit_err += float(np.abs(priv - exact_logits[i]).mean()) / denom
    count = len(images)
    return PrivateInferenceReport(
        exact_accuracy=float(
            (exact_logits.argmax(axis=1) == labels).mean()
        ),
        private_accuracy=correct_private / count,
        agreement=agree / count,
        mean_logit_error=logit_err / count,
        samples=count,
    )


def hconv_output_error_variance(
    sim: SharedPolyMulSimulator,
    weight_poly: np.ndarray,
    trials: int = 8,
    activation_range: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Error variance of HConv outputs (the DSE accuracy objective).

    Monte-Carlo: random activation polynomials multiplied on the simulated
    approximate pipeline vs the exact product; returns the variance of the
    coefficient error (the y-axis of Figures 11(b) and (c)).
    """
    from repro.ntt import negacyclic_convolution_naive

    rng = rng or np.random.default_rng(7)
    t = sim.modulus
    lim = activation_range or 8
    errors = []
    w = np.ascontiguousarray(weight_poly, dtype=np.int64)
    for _ in range(trials):
        a = rng.integers(-lim, lim, size=sim.n, dtype=np.int64)
        approx = sim.polymul(a % t, w)
        exact = negacyclic_convolution_naive(a, w)
        exact = np.array([int(v) for v in exact], dtype=np.int64) % t
        half = t >> 1
        exact = np.where(exact >= half, exact - t, exact)
        diff = (approx - exact) % t
        # repro-lint: disable=DTYPE001  centered differences are bounded by
        # t/2 = 2**(share_bits-1) <= 2**40, below float64's 2**53 mantissa
        diff = np.where(diff >= half, diff - t, diff).astype(np.float64)
        errors.append(diff)
    return float(np.var(np.concatenate(errors)))
