"""Quantized CNN models: float factories and post-training quantization.

``QuantizedCnn`` executes entirely in integer arithmetic -- exactly the
computation a hybrid HE/2PC protocol evaluates -- with a pluggable
convolution/matvec kernel so the same network can run on the exact path or
through FLASH's approximate polynomial pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nn.layers import (
    AvgPool2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.quant import (
    QuantParams,
    calibrate,
    choose_requant_shift,
    requantize_shift,
)

# conv kernel: (x_int CHW, w_int MCkk, stride, padding) -> int M x oh x ow
ConvFn = Callable[[np.ndarray, np.ndarray, int, int], np.ndarray]
# linear kernel: (x_int, w_int) -> int vector
LinearFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
# sum-products hook: (layer spec, int activation batch) -> unbiased int sps
SumProductsFn = Callable[["QuantLayerSpec", np.ndarray], np.ndarray]


def make_mini_cnn(
    channels: int = 1,
    size: int = 12,
    num_classes: int = 10,
    width: int = 8,
    seed: int = 0,
) -> Sequential:
    """A small two-conv CNN sized for the synthetic dataset."""
    rng = np.random.default_rng(seed)
    flat = 2 * width * (size // 4) * (size // 4)
    return Sequential(
        Conv2d(channels, width, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Conv2d(width, 2 * width, 3, padding=1, rng=rng),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(flat, num_classes, rng=rng),
    )


def make_mini_resnet(
    channels: int = 1,
    size: int = 12,
    num_classes: int = 10,
    width: int = 8,
    seed: int = 0,
) -> Sequential:
    """A small residual CNN (one basic block) for the synthetic dataset.

    Mirrors the paper's ResNet workloads at toy scale: a stem conv, one
    residual block (conv-relu-conv plus identity skip), and a classifier.
    """
    from repro.nn.layers import Residual

    rng = np.random.default_rng(seed)
    flat = width * (size // 4) * (size // 4)
    return Sequential(
        Conv2d(channels, width, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2),
        Residual(
            Conv2d(width, width, 3, padding=1, rng=rng),
            ReLU(),
            Conv2d(width, width, 3, padding=1, rng=rng),
        ),
        ReLU(),
        AvgPool2d(2),
        Flatten(),
        Linear(flat, num_classes, rng=rng),
    )


def conv2d_int_batch(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int
) -> np.ndarray:
    """Exact integer batched convolution via im2col (int64 matmul)."""
    from repro.nn.layers import _im2col

    x = np.asarray(x, dtype=np.int64)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
    m, _, kh, kw = w.shape
    cols, oh, ow = _im2col(x, kh, kw, stride)
    out = cols @ w.reshape(m, -1).T.astype(np.int64)
    return out.transpose(0, 2, 1).reshape(x.shape[0], m, oh, ow)


def _exact_conv_fn(x, w, stride, padding):
    return conv2d_int_batch(x[None], w, stride, padding)[0]


def _exact_linear_fn(x, w):
    return w.astype(np.int64) @ x.astype(np.int64)


@dataclass
class QuantLayerSpec:
    """One quantized compute layer (conv or linear).

    ``bias_int`` (set during calibration) is the bias at sum-product scale,
    added before re-quantization so the integer pipeline tracks the float
    model.
    """

    kind: str  # 'conv' | 'linear'
    weight_q: np.ndarray
    bias_q: Optional[np.ndarray]
    stride: int = 1
    padding: int = 0
    requant_shift: int = 0
    act_bits: int = 4
    bias_int: Optional[np.ndarray] = None


class QuantizedCnn:
    """Integer-only CNN produced by post-training quantization.

    The op list interleaves quantized compute layers with exact integer
    ReLU / pooling / flatten steps (the parts a hybrid protocol runs in
    2PC).  Re-quantization after every conv discards LSBs -- the
    layer-level robustness mechanism of Section III-A.
    """

    def __init__(
        self,
        ops: List[Tuple],
        input_params: QuantParams,
        w_bits: int,
        a_bits: int,
    ):
        self.ops = ops
        self.input_params = input_params
        self.w_bits = w_bits
        self.a_bits = a_bits

    # ------------------------------------------------------------------

    @classmethod
    def from_float(
        cls,
        model: Sequential,
        calibration_images: np.ndarray,
        w_bits: int = 4,
        a_bits: int = 4,
        requant_percentile: float = 99.0,
    ) -> "QuantizedCnn":
        """Quantize a trained float model (max-abs PTQ, power-of-two requant).

        Args:
            model: trained :class:`Sequential` of supported layers.
            calibration_images: float batch used to pick requant shifts.
            w_bits / a_bits: weight / activation bit-widths (W4A4 default).
            requant_percentile: outlier-clipping percentile for the
                re-quantization shifts (100 = lossless worst case; ~99
                recovers most low-bit accuracy).
        """
        input_params = calibrate(calibration_images, a_bits)
        ops: List[Tuple] = []
        cls._translate_layers(model.layers, ops, w_bits, a_bits)
        net = cls(ops, input_params, w_bits, a_bits)
        net._calibrate_shifts(calibration_images, requant_percentile)
        return net

    @classmethod
    def _translate_layers(cls, layers, ops: List[Tuple], w_bits: int, a_bits: int):
        from repro.nn.layers import Residual

        for layer in layers:
            if isinstance(layer, Conv2d):
                wq = calibrate(layer.weight, w_bits)
                spec = QuantLayerSpec(
                    kind="conv",
                    weight_q=wq.quantize(layer.weight),
                    bias_q=None if layer.bias is None else layer.bias.copy(),
                    stride=layer.stride,
                    padding=layer.padding,
                    act_bits=a_bits,
                )
                spec._w_scale = wq.scale  # type: ignore[attr-defined]
                ops.append(("conv", spec))
            elif isinstance(layer, Linear):
                wq = calibrate(layer.weight, w_bits)
                spec = QuantLayerSpec(
                    kind="linear",
                    weight_q=wq.quantize(layer.weight),
                    bias_q=None if layer.bias is None else layer.bias.copy(),
                    act_bits=a_bits,
                )
                spec._w_scale = wq.scale  # type: ignore[attr-defined]
                ops.append(("linear", spec))
            elif isinstance(layer, Residual):
                # Marker pair around the branch; the join's skip-path
                # rescaling multiplier is fitted during calibration.
                ops.append(("res_push",))
                cls._translate_layers(layer.inner, ops, w_bits, a_bits)
                ops.append(("res_add", {"multiplier": 1.0}))
            elif isinstance(layer, ReLU):
                ops.append(("relu",))
            elif isinstance(layer, MaxPool2d):
                ops.append(("maxpool", layer.size))
            elif isinstance(layer, AvgPool2d):
                ops.append(("avgpool", layer.size))
            elif isinstance(layer, Flatten):
                ops.append(("flatten",))
            else:
                raise TypeError(f"unsupported layer {type(layer).__name__}")

    def _calibrate_shifts(
        self, images: np.ndarray, percentile: float = 99.0
    ) -> None:
        """One calibration pass: pick requant shifts and SP-scale biases.

        The activation scale evolves as ``s_out = s_in * s_w * 2**shift``;
        biases are injected at sum-product scale ``s_in * s_w``.
        """
        x = self.input_params.quantize(images)
        s_act = self.input_params.scale
        skip_stack: List[Tuple[np.ndarray, float]] = []
        for op in self.ops:
            if op[0] in ("conv", "linear"):
                spec = op[1]
                sp_scale = s_act * spec._w_scale  # type: ignore[attr-defined]
                if spec.bias_q is not None:
                    spec.bias_int = np.rint(spec.bias_q / sp_scale).astype(
                        np.int64
                    )
                sp = self._add_bias(self.exact_sum_products(spec, x), spec)
                spec.requant_shift = choose_requant_shift(
                    sp, spec.act_bits, percentile
                )
                x = requantize_shift(sp, spec.requant_shift, spec.act_bits)
                s_act = sp_scale * (1 << spec.requant_shift)
            elif op[0] == "res_push":
                skip_stack.append((x.copy(), s_act))
            elif op[0] == "res_add":
                skip, s_skip = skip_stack.pop()
                op[1]["multiplier"] = s_skip / s_act
                x = self._res_add(x, skip, op[1])
            else:
                x = self._apply_aux_batch(op, x)

    # ------------------------------------------------------------------

    @staticmethod
    def _add_bias(sp: np.ndarray, spec: QuantLayerSpec) -> np.ndarray:
        if spec.bias_int is None:
            return sp
        if spec.kind == "conv":
            return sp + spec.bias_int.reshape(
                (1,) * (sp.ndim - 3) + (-1, 1, 1)
            )
        return sp + spec.bias_int

    @staticmethod
    def exact_sum_products(spec: QuantLayerSpec, x: np.ndarray) -> np.ndarray:
        """The exact :data:`SumProductsFn`: int64 im2col conv / matmul."""
        if spec.kind == "conv":
            return conv2d_int_batch(
                x, spec.weight_q, spec.stride, spec.padding
            )
        return x.astype(np.int64) @ spec.weight_q.T.astype(np.int64)

    def _res_add(self, branch: np.ndarray, skip: np.ndarray, info) -> np.ndarray:
        """Integer residual join: rescale the skip path, add, saturate.

        The skip activation lives at a different power-of-two-times-float
        scale than the branch output; a fixed-point multiplier (TFLite
        style) aligns them before the add.
        """
        # repro-lint: disable=DTYPE001  skip activations are a_bits-quantized
        # accumulator ints (< 2**32), far below float64's 2**53 mantissa
        aligned = np.rint(skip.astype(np.float64) * info["multiplier"]).astype(
            np.int64
        )
        total = branch.astype(np.int64) + aligned
        hi = (1 << (self.a_bits - 1)) - 1
        return np.clip(total, -(hi + 1), hi)

    def _apply_aux_batch(self, op: Tuple, x: np.ndarray) -> np.ndarray:
        name = op[0]
        if name == "relu":
            return np.maximum(x, 0)
        if name == "maxpool":
            s = op[1]
            b, c, h, w = x.shape
            return x.reshape(b, c, h // s, s, w // s, s).max(axis=(3, 5))
        if name == "avgpool":
            s = op[1]
            b, c, h, w = x.shape
            summed = x.reshape(b, c, h // s, s, w // s, s).sum(axis=(3, 5))
            return summed // (s * s)  # integer average (floor)
        if name == "flatten":
            return x.reshape(x.shape[0], -1)
        raise ValueError(f"unknown op {name}")  # pragma: no cover

    def walk(
        self, images: np.ndarray, sum_products: SumProductsFn
    ) -> np.ndarray:
        """Integer inference on a float image batch -> int logits.

        The one op loop every inference path runs: ``sum_products``
        computes each compute layer's sum-products for the whole batch;
        everything else stays exact here (it runs under 2PC in the
        protocol).
        """
        x = self.input_params.quantize(images)
        skip_stack: List[np.ndarray] = []
        for op in self.ops:
            if op[0] in ("conv", "linear"):
                spec = op[1]
                sp = self._add_bias(sum_products(spec, x), spec)
                x = requantize_shift(sp, spec.requant_shift, spec.act_bits)
            elif op[0] == "res_push":
                skip_stack.append(x.copy())
            elif op[0] == "res_add":
                x = self._res_add(x, skip_stack.pop(), op[1])
            else:
                x = self._apply_aux_batch(op, x)
        return x

    def forward_int(self, images: np.ndarray) -> np.ndarray:
        """Exact integer inference on a float image batch -> int logits."""
        return self.walk(images, self.exact_sum_products)

    def forward_with_kernels(
        self,
        image: np.ndarray,
        conv_fn: ConvFn = _exact_conv_fn,
        linear_fn: LinearFn = _exact_linear_fn,
        collect_sp: bool = False,
    ):
        """Single-image inference with pluggable conv/linear kernels.

        This is the hook the private-inference simulator uses: the exact
        kernels are swapped for polynomial-encoded (and possibly
        approximate) ones while ReLU / pooling / re-quantization stay
        exact (they run under 2PC in the protocol).  A batch of one
        through :meth:`walk`.

        Args:
            image: one float image ``C x H x W``.
            conv_fn / linear_fn: integer kernels.
            collect_sp: also return the raw sum-products per compute layer
                (for error-variance studies).

        Returns:
            int logits, or ``(logits, [sp arrays])`` if ``collect_sp``.
        """
        sps = []

        def sum_products(spec: QuantLayerSpec, x: np.ndarray) -> np.ndarray:
            if spec.kind == "conv":
                sp = conv_fn(x[0], spec.weight_q, spec.stride, spec.padding)
            else:
                sp = linear_fn(x[0], spec.weight_q)
            if collect_sp:
                sps.append(self._add_bias(sp, spec))
            return sp[None]

        logits = self.walk(image[None], sum_products)[0]
        return (logits, sps) if collect_sp else logits

    def accuracy_int(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy of exact integer inference."""
        logits = self.forward_int(images)
        return float((logits.argmax(axis=1) == labels).mean())

    def conv_specs(self) -> List[QuantLayerSpec]:
        return [op[1] for op in self.ops if op[0] == "conv"]

    def max_sum_product_terms(self) -> int:
        """Largest accumulation length across compute layers (sets t)."""
        worst = 1
        for op in self.ops:
            if op[0] == "conv":
                s = op[1]
                worst = max(
                    worst,
                    s.weight_q.shape[1] * s.weight_q.shape[2] * s.weight_q.shape[3],
                )
            elif op[0] == "linear":
                worst = max(worst, op[1].weight_q.shape[1])
        return worst
