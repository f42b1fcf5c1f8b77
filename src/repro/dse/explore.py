"""Layer-level DSE driver: the complete Figure 10 workflow.

For one convolution layer: build its weight-sparsity pattern, define the
two objectives -- weight-FFT power from the butterfly LUT and HConv output
error variance from the analytical model -- and search the per-stage
bit-width / twiddle-k space with Bayesian optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dse.bayesopt import DseRun, bayesian_optimize, random_search
from repro.dse.error_model import hconv_error_variance
from repro.dse.space import DesignPoint, DesignSpace
from repro.encoding.conv_encoding import Conv2dEncoder, ConvShape
from repro.hw.butterfly import ButterflyLut
from repro.sparse.opcount import sparse_fft_mults
from repro.sparse.patterns import conv_weight_pattern


@dataclass
class LayerDseProblem:
    """Objectives for one layer's approximate-FFT configuration.

    Args:
        shape: the (stride-1) convolution layer shape.
        n: ring degree.
        weight_bits: weight quantization (sets the folded input power).
        activation_power: per-coefficient activation variance (message
            units) used by the error objective.
        lut: butterfly cost LUT (shared across layers).
    """

    shape: ConvShape
    n: int = 4096
    weight_bits: int = 4
    activation_power: float = 8.0
    lut: Optional[ButterflyLut] = None

    def __post_init__(self):
        self.lut = self.lut or ButterflyLut()
        encoder = Conv2dEncoder(self.shape, self.n)
        self._pattern = conv_weight_pattern(encoder)
        self._sparse_mults = sparse_fft_mults(self._pattern, self.n // 2)
        valid = len(encoder.weight_valid_indices(0))
        # The pipeline normalizes the folded weight input by the next
        # power of two above sqrt(2)*max|w| ~= 2^weight_bits; spectrum
        # errors computed in normalized units scale back by that factor.
        self._weight_scale = 2.0**self.weight_bits
        # Folded input power after normalization to [-1, 1): the valid
        # coefficients carry ~uniform w values (power w_max^2/3, i.e.
        # 1/12 of the normalization scale squared), everything else zero.
        self._weight_power = (valid / self.n) * (1.0 / 12.0)

    @property
    def space(self) -> DesignSpace:
        stages = (self.n // 2).bit_length() - 1
        return DesignSpace(stages=stages)

    def power_mw(self, point: DesignPoint) -> float:
        """Average weight-FFT power of the sparse dataflow (one PE)."""
        config = point.to_config(self.n // 2)
        dense = (config.n // 2) * config.stages
        utilization = self._sparse_mults / dense
        return self.lut.fft_power_mw(config) * utilization

    def error_variance(self, point: DesignPoint) -> float:
        """Analytical HConv output error variance for this layer
        (message-domain units)."""
        config = point.to_config(self.n // 2)
        normalized = hconv_error_variance(
            config,
            weight_power=self._weight_power,
            activation_power=self.activation_power,
            poly_n=self.n,
        )
        return normalized * self._weight_scale**2

    def objective(self, point: DesignPoint) -> Tuple[float, float]:
        return self.power_mw(point), self.error_variance(point)


@dataclass
class LayerDseResult:
    """Search output for one layer."""

    problem: LayerDseProblem
    run: DseRun

    def front(self):
        return self.run.front()

    def best_under_error(self, error_threshold: float) -> Optional[DesignPoint]:
        """Lowest-power point meeting ``error < T_err`` (the paper's
        constrained formulation)."""
        best = None
        best_power = np.inf
        for point, (power, err) in zip(self.run.points, self.run.objectives):
            if err < error_threshold and power < best_power:
                best, best_power = point, power
        return best


def stride1_phase(shape: ConvShape) -> ConvShape:
    """Dominant stride-1 phase of a (possibly strided) layer shape.

    The DSE characterizes one polynomial-multiplication pattern per layer;
    for strided layers that is the first phase of the standard stride
    decomposition (the others share its structure).
    """
    from repro.encoding.conv_encoding import decompose_strided

    phase, _, _ = decompose_strided(shape)[0]
    return phase


def explore_layer(
    shape: ConvShape,
    n: int = 4096,
    budget: int = 60,
    method: str = "bayes",
    seed: int = 0,
    lut: Optional[ButterflyLut] = None,
    activation_power: float = 8.0,
) -> LayerDseResult:
    """Run the DSE for one layer (Figures 11(b) and (c)).

    Args:
        shape: stride-1 convolution shape (decompose strided layers first,
            or pass the dominant phase).
        n: ring degree.
        budget: objective evaluations.
        method: ``"bayes"`` or ``"random"``.
        seed: search randomness.
        lut: shared butterfly LUT.
        activation_power: activation variance for the error objective.
    """
    problem = LayerDseProblem(
        shape=shape, n=n, lut=lut, activation_power=activation_power
    )
    rng = np.random.default_rng(seed)
    if method == "bayes":
        run = bayesian_optimize(problem.space, problem.objective, budget, rng=rng)
    elif method == "random":
        run = random_search(problem.space, problem.objective, budget, rng=rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    return LayerDseResult(problem=problem, run=run)
