"""Whole-network private inference through the real BFV protocol.

Drives a :class:`repro.nn.model.QuantizedCnn` layer by layer: every conv
and linear layer runs through the one-round hybrid HE/2PC protocol
(encrypt share -> homomorphic multiply -> re-share), while ReLU, pooling
and re-quantization execute on secret shares' reconstruction -- standing
in for the 2PC sub-protocols (garbled circuits / OT) that the hybrid
scheme uses for non-linear layers and that are orthogonal to FLASH.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.encoding.conv_encoding import ConvShape
from repro.encoding.linear_encoding import LinearShape
from repro.he.backend import NttPolyMulBackend, PolyMulBackend
from repro.he.params import BfvParameters
from repro.nn.model import QuantizedCnn
from repro.protocol.hybrid import (
    HybridConvProtocol,
    HybridLinearProtocol,
    ProtocolStats,
    make_session,
)


@dataclass
class PrivateInferenceTrace:
    """Outcome of one private network evaluation."""

    logits: np.ndarray
    expected_logits: np.ndarray
    layer_stats: List[ProtocolStats] = field(default_factory=list)

    @property
    def prediction(self) -> int:
        return int(self.logits.argmax())

    @property
    def matches_plain(self) -> bool:
        return bool(np.array_equal(self.logits, self.expected_logits))

    @property
    def total_bytes(self) -> int:
        return sum(s.total_bytes for s in self.layer_stats)

    @property
    def total_ciphertexts(self) -> int:
        return sum(
            s.ciphertexts_sent + s.ciphertexts_returned
            for s in self.layer_stats
        )

    @property
    def min_noise_budget(self) -> float:
        return min(
            (s.min_noise_budget for s in self.layer_stats),
            default=float("inf"),
        )

    @property
    def total_retries(self) -> int:
        """Transport retries across all layers (resilient sessions only)."""
        return sum(s.retries for s in self.layer_stats)

    @property
    def degraded_layers(self) -> int:
        """Layers that fell back from the approximate to the exact path."""
        return sum(1 for s in self.layer_stats if s.degraded)


class PrivateCnnEvaluator:
    """Run a quantized CNN privately, one HE round per compute layer.

    Args:
        net: the quantized network.
        params: BFV parameters; the plaintext ring must hold every layer's
            worst-case sum-product (checked at construction).
        backend: polynomial-multiplication backend shared by every layer
            (one exact NTT backend by default; pass a FLASH backend for
            the approximate datapath).
        transport: optional :class:`repro.faults.ResilientSession`; every
            layer's ciphertext traffic then crosses its checksummed
            channel with bounded retry (counts appear in the trace's
            per-layer stats).
        guard: optional :class:`repro.faults.BudgetGuard`; approximate
            layers whose noise budget is predicted or observed exhausted
            degrade per the guard's policy (``"fallback"`` reruns the
            layer on the exact NTT backend).
    """

    def __init__(
        self,
        net: QuantizedCnn,
        params: BfvParameters,
        backend: Optional[PolyMulBackend] = None,
        transport=None,
        guard=None,
    ):
        from repro.nn.quant import sum_product_bits

        self.net = net
        self.params = params
        self.backend = backend or NttPolyMulBackend()
        self.transport = transport
        self.guard = guard
        worst = sum_product_bits(
            net.a_bits, net.w_bits, net.max_sum_product_terms()
        )
        if params.t.bit_length() - 1 < worst:
            raise ValueError(
                f"plaintext ring (2^{params.t.bit_length() - 1}) cannot hold "
                f"{worst}-bit sum-products; use select_parameters()"
            )

    def infer(
        self, image: np.ndarray, rng: np.random.Generator
    ) -> PrivateInferenceTrace:
        """Privately classify one float image (a batch of one through
        :meth:`infer_batch`).

        Every compute layer executes through the hybrid protocol on the
        *current* integer activation; the returned trace carries the
        protocol statistics and the exact-pipeline logits for comparison.
        """
        return self.infer_batch(np.asarray(image)[None], rng)[0]

    def infer_batch(
        self, images: np.ndarray, rng: np.random.Generator
    ) -> List[PrivateInferenceTrace]:
        """Privately classify a batch of float images in one pass.

        The network runs on :meth:`repro.nn.model.QuantizedCnn.walk`
        (residual networks too), each compute layer through its
        protocol's ``run_batch``.  A convolution runs the whole batch in
        one round
        (:meth:`repro.protocol.hybrid.HybridConvProtocol.run_batch`), so
        weight encodings are shared across the batch and -- with a batched
        backend such as :class:`repro.he.backend.FftPolyMulBackend` -- all
        transform work executes in vectorized batch passes; an FC layer
        runs one round per item, in order.  Non-linear layers and residual
        joins apply to the whole activation stack at once, on the
        reconstructed shares (the hybrid scheme runs them as 2PC
        sub-protocols: identical values, orthogonal machinery).  The
        expected logits are one ``forward_int`` call.  An empty batch
        returns ``[]`` without key generation or rng draws.
        """
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None]
        if not len(images):
            return []
        session = make_session(self.params, rng)
        expected = self.net.forward_int(images)
        layer_stats: List[List[ProtocolStats]] = [[] for _ in images]

        def sum_products(spec, x: np.ndarray) -> np.ndarray:
            protocol = self._layer_protocol(
                spec, x, f"layer{len(layer_stats[0])}:{spec.kind}"
            )
            results = protocol.run_batch(
                x, spec.weight_q, rng, session=session
            )
            for stats, result in zip(layer_stats, results):
                stats.append(result.stats)
            return np.stack([r.reconstructed for r in results])

        logits = self.net.walk(images, sum_products)
        return [
            PrivateInferenceTrace(
                logits=logits[item],
                expected_logits=expected[item],
                layer_stats=layer_stats[item],
            )
            for item in range(len(images))
        ]

    def _layer_protocol(self, spec, x: np.ndarray, layer_name: str):
        """The hybrid protocol of one compute layer on activations ``x``."""
        if spec.kind == "conv":
            m, c, kh, kw = spec.weight_q.shape
            shape = ConvShape(
                in_channels=c, height=x.shape[2], width=x.shape[3],
                out_channels=m, kernel_h=kh, kernel_w=kw,
                stride=spec.stride, padding=spec.padding,
            )
            cls = HybridConvProtocol
        else:
            shape = LinearShape(
                in_features=spec.weight_q.shape[1],
                out_features=spec.weight_q.shape[0],
            )
            cls = HybridLinearProtocol
        return cls(
            self.params, shape, self.backend,
            transport=self.transport, guard=self.guard,
            layer_name=layer_name,
        )

    def accuracy(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        rng: np.random.Generator,
        max_samples: int = 8,
    ) -> float:
        """Private top-1 accuracy over (a subset of) a dataset."""
        count = min(max_samples, len(images))
        if count <= 0:
            raise ValueError(
                f"accuracy needs at least one sample: max_samples="
                f"{max_samples}, len(images)={len(images)}"
            )
        correct = 0
        for i in range(count):
            trace = self.infer(images[i], rng)
            if trace.prediction == labels[i]:
                correct += 1
        return correct / count
