"""Bit-width dataflow analysis of approximate-FFT stage configurations.

Symbolically propagates a worst-case value-magnitude bound through the
butterfly pipeline of :class:`repro.fftcore.fixed_point.FixedPointFft`
and reports every stage whose worst-case intermediate exceeds what its
declared register width can absorb (rule **BW001**).

Datapath contract (mirrors ``FixedPointFft.__call__``):

* Stage registers store complex parts as signed fixed-point in
  ``[-1, 1)`` with ``dw_s`` total bits.
* Inputs have complex magnitude at most 1 -- the pipeline guarantees this
  with its power-of-two normalization (``approx_pipeline.weight_forward``).
* One butterfly computes ``(lo +- w * hi) / 2``:

  - the **twiddle multiply** scales the magnitude bound by
    ``W_s = max |w_quantized|`` over the stage's ROM entries.  Exact
    twiddles have ``W_s = 1``; CSD quantization overshoots the unit
    circle by up to ``~2**(1-k)``, and that overshoot *compounds* across
    stages -- this is the ``k``-term bound of the analysis;
  - the **butterfly add** doubles the worst case (+1 bit), and the
    architectural halving takes that bit back, so the net stage gain is
    ``(1 + W_s) / 2``;
  - the **per-stage truncation** to ``dw_s`` bits rounds each part by up
    to half a ULP, adding ``sqrt(2) * 2**-dw_s`` to the magnitude bound.
    Narrow registers therefore *grow* the bound every stage -- an
    under-budgeted width is an overflow problem, not only a noise one.

A stage is safe while the stored bound exceeds the representable range by
at most :data:`GUARD_TOLERANCE_BITS`: the saturating quantizer clips
rare worst-case alignments within the rounding-noise regime the DSE
error model absorbs (paper Section IV-C2); beyond the tolerance,
saturation becomes systematic and corrupts spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.fftcore.twiddle_quant import get_twiddle_rom
from repro.lint.findings import Finding, Severity

#: Allowed worst-case overshoot, in bits, beyond the register range.
#: Within this margin the saturating rounder clips only adversarial
#: worst-case alignments; beyond it, clipping is systematic.
GUARD_TOLERANCE_BITS = 0.25


@dataclass(frozen=True)
class StageReport:
    """Worst-case magnitude bounds through one butterfly stage.

    All bounds are complex magnitudes relative to the register range
    ``[-1, 1)`` (so 1.0 means "exactly fills the format").
    """

    stage: int
    width: int
    twiddle_gain: float  #: max |quantized twiddle| this stage (W_s)
    input_bound: float  #: magnitude entering the stage
    add_bound: float  #: worst case after lo + w*hi (the +1-bit point)
    stored_bound: float  #: after halving and round-to-nearest
    overshoot_bits: float  #: log2 excess of stored_bound over 1.0 (>= 0)
    ok: bool

    def describe(self) -> str:
        status = "ok" if self.ok else "OVERFLOW"
        return (
            f"stage {self.stage:2d} dw={self.width:2d} "
            f"gain={self.twiddle_gain:.6f} bound={self.stored_bound:.6f} "
            f"overshoot={self.overshoot_bits:+.4f}b [{status}]"
        )


@dataclass
class BitwidthReport:
    """Full-pipeline verdict for one :class:`ApproxFftConfig`."""

    label: str
    config: ApproxFftConfig
    guard_tolerance_bits: float
    stages: List[StageReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stages)

    @property
    def worst_overshoot_bits(self) -> float:
        return max((s.overshoot_bits for s in self.stages), default=0.0)

    @property
    def margin_bits(self) -> float:
        """Guard headroom remaining at the worst stage (negative = overflow)."""
        return self.guard_tolerance_bits - self.worst_overshoot_bits

    def findings(self) -> List[Finding]:
        """BW001 findings for the overflowing stages (empty when safe)."""
        out = []
        for s in self.stages:
            if s.ok:
                continue
            out.append(
                Finding(
                    rule_id="BW001",
                    severity=Severity.ERROR,
                    path=self.label,
                    line=s.stage,
                    col=1,
                    message=(
                        f"stage {s.stage} (dw={s.width}) worst-case bound "
                        f"{s.stored_bound:.4f} exceeds the register range "
                        f"by {s.overshoot_bits:.3f} bits "
                        f"(tolerance {self.guard_tolerance_bits}); widen the "
                        f"stage or raise twiddle_k"
                    ),
                )
            )
        return out

    def describe(self) -> str:
        head = (
            f"bitwidth {self.label}: {self.config.describe()} -> "
            f"{'ok' if self.ok else 'OVERFLOW'} "
            f"(worst overshoot {self.worst_overshoot_bits:.4f}b, "
            f"margin {self.margin_bits:+.4f}b)"
        )
        return "\n".join([head] + ["  " + s.describe() for s in self.stages])

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "guard_tolerance_bits": self.guard_tolerance_bits,
            "worst_overshoot_bits": self.worst_overshoot_bits,
            "margin_bits": self.margin_bits,
            "stages": [
                {
                    "stage": s.stage,
                    "width": s.width,
                    "twiddle_gain": s.twiddle_gain,
                    "stored_bound": s.stored_bound,
                    "overshoot_bits": s.overshoot_bits,
                    "ok": s.ok,
                }
                for s in self.stages
            ],
        }


def _stage_gains(config: ApproxFftConfig, sign: int) -> List[float]:
    """Max quantized-twiddle magnitude per stage (1.0 for exact twiddles)."""
    if not config.twiddle_k:
        return [1.0] * config.stages
    rom = get_twiddle_rom(
        config.n, config.twiddle_k, config.twiddle_max_shift, sign
    )
    return [
        float(np.max(np.abs(rom.stage_values(s))))
        for s in range(1, config.stages + 1)
    ]


def analyze_fft_config(
    config: ApproxFftConfig,
    label: str = "<config>",
    sign: int = +1,
    guard_tolerance_bits: float = GUARD_TOLERANCE_BITS,
) -> BitwidthReport:
    """Propagate worst-case magnitude bounds through every stage.

    Args:
        config: the stage-width / twiddle-level configuration to verify.
        label: name used in findings and reports.
        sign: twiddle sign of the transform (+1 is the weight path).
        guard_tolerance_bits: allowed overshoot before a stage is flagged.
    """
    report = BitwidthReport(
        label=label, config=config, guard_tolerance_bits=guard_tolerance_bits
    )
    gains = _stage_gains(config, sign)
    bound = 1.0
    if config.input_width is not None:
        # Input quantization rounds each part by up to half a ULP.
        bound += math.sqrt(2.0) * 2.0 ** -config.input_width
    for stage in range(1, config.stages + 1):
        width = config.stage_widths[stage - 1]
        gain = gains[stage - 1]
        add_bound = bound * (1.0 + gain)
        stored = add_bound / 2.0 + math.sqrt(2.0) * 2.0**-width
        overshoot = max(0.0, math.log2(stored))
        report.stages.append(
            StageReport(
                stage=stage,
                width=width,
                twiddle_gain=gain,
                input_bound=bound,
                add_bound=add_bound,
                stored_bound=stored,
                overshoot_bits=overshoot,
                ok=overshoot <= guard_tolerance_bits,
            )
        )
        bound = stored
    return report


def analyze_design_space(
    space,
    n: int,
    twiddle_max_shift: int = 16,
    sign: int = +1,
    guard_tolerance_bits: float = GUARD_TOLERANCE_BITS,
) -> Dict[str, BitwidthReport]:
    """Verify the corners of a :class:`repro.dse.space.DesignSpace`.

    The four (width, k) corners bound the whole space for this monotone
    analysis: magnitude growth shrinks as either the register width or the
    twiddle level increases, so the min-width/min-k corner is the worst
    point of the space and the max/max corner the best.
    """
    if (1 << space.stages) != n:
        raise ValueError(
            f"space has {space.stages} stages but n={n} needs "
            f"{n.bit_length() - 1}"
        )
    reports = {}
    for w_name, width in (("min_w", space.width_range[0]),
                          ("max_w", space.width_range[1])):
        for k_name, k in (("min_k", space.k_range[0]),
                          ("max_k", space.k_range[1])):
            label = f"dse-corner:{w_name}={width},{k_name}={k}"
            config = ApproxFftConfig(
                n=n,
                stage_widths=width,
                twiddle_k=k,
                twiddle_max_shift=twiddle_max_shift,
            )
            reports[label] = analyze_fft_config(
                config, label=label, sign=sign,
                guard_tolerance_bits=guard_tolerance_bits,
            )
    return reports


def analyze_default_configs(
    include_space: bool = True,
) -> Dict[str, BitwidthReport]:
    """Verify the default FLASH weight-path config (and DSE-space corners).

    This is what ``python -m repro lint`` runs: the deployed
    ``FlashConfig`` datapath must be overflow-free; the DSE corners are
    reported informationally (the search space deliberately includes
    under-budgeted points the explorer must price, not configurations we
    ship).
    """
    from repro.core.config import FlashConfig
    from repro.dse.space import DesignSpace

    default = FlashConfig()
    reports = {
        "flash-default": analyze_fft_config(
            default.weight_fft_config(), label="flash-default"
        )
    }
    if include_space:
        core_n = default.n // 2
        space = DesignSpace(stages=core_n.bit_length() - 1)
        reports.update(
            analyze_design_space(
                space, core_n, twiddle_max_shift=default.twiddle_max_shift
            )
        )
    return reports
