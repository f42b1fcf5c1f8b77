"""The combined FLASH weight-transform engine: sparse *and* fixed-point.

:mod:`repro.sparse.dataflow` proves the skipping/merging dataflow exact;
:mod:`repro.fftcore.fixed_point` models the approximate arithmetic.  Real
FLASH hardware does both at once, and the combination is *not* the
composition of the two models: a merged butterfly chain multiplies by one
ROM entry addressed by the *sum* of twiddle exponents ("twiddle factor
exponents serve as addresses to fetch values from the ROM", Section IV-B),
so a chain suffers a single twiddle quantization instead of one per stage
-- merging is slightly *more* accurate than the dense approximate FFT, not
less.  This module models that faithfully:

* ``ZERO`` / ``SCALED`` / ``GENERAL`` node tags as in the exact engine;
* ``SCALED`` chains track ``(source, exponent mod n, sign)`` symbolically
  and cost nothing until they materialize through one quantized ROM entry;
* executed butterflies use quantized stage twiddles, halve their outputs
  and round to the stage's data width -- bit-compatible with
  :class:`repro.fftcore.fixed_point.FixedPointFft` on dense inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.approx_pipeline import (
    ApproxNegacyclic,
    ApproxSpectrum,
    normalized_transform,
)
from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.fftcore.reference import stage_twiddles
from repro.fftcore.twiddle_quant import get_twiddle_rom
from repro.ntt.modmath import bit_reverse_indices


__all__ = [
    "SparseFixedPointFft",
    "SparseFxpResult",
    "SparseApproxNegacyclic",
]


class _Kind(enum.IntEnum):
    ZERO = 0
    SCALED = 1
    GENERAL = 2


@dataclass
class _Node:
    kind: _Kind
    src: int = -1
    exponent: int = 0  # twiddle exponent of the deferred chain (mod n)
    sign: int = 1
    value: complex = 0j  # for GENERAL, in the current scaled domain


@dataclass
class SparseFxpResult:
    """Output of one combined sparse fixed-point transform."""

    values: np.ndarray  # scaled spectrum (same convention as FixedPointFft)
    mults: int
    dense_mults: int

    @property
    def reduction(self) -> float:
        if self.dense_mults == 0:
            return 0.0
        return 1.0 - self.mults / self.dense_mults


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
        if valid is None:
            valid_set = set(np.nonzero(x)[0].tolist())
        else:
            valid_set = {int(v) % n for v in valid}
            stray = set(np.nonzero(x)[0].tolist()) - valid_set
            if stray:
                raise ValueError(
                    "input has non-zeros outside the valid set: "
                    f"{sorted(stray)[:5]}"
                )

        nodes: List[_Node] = []
        for pos in range(n):
            src = int(self._rev[pos])
            if src in valid_set:
                nodes.append(_Node(_Kind.SCALED, src=src, exponent=0, sign=1))
            else:
                nodes.append(_Node(_Kind.ZERO))

        mults = 0
        # Materialized (src, exponent) chain products at full post-shift
        # scale, shared across the network like the exact engine's memo.
        memo: Dict[Tuple[int, int], complex] = {}

        for s in range(1, self.stages + 1):
            m = 1 << s
            half = m >> 1
            fmt = self._formats[s - 1]
            step = n // m
            for block in range(0, n, m):
                for j in range(half):
                    u = block + j
                    v = u + half
                    mults += self._butterfly(
                        nodes, u, v, j * step, s, fmt, x, memo
                    )

        values, mat_mults = self._finalize(nodes, x, memo)
        mults += mat_mults
        return SparseFxpResult(
            values=values, mults=mults, dense_mults=self.dense_mults
        )

    # ------------------------------------------------------------------

    def _materialize(
        self,
        node: _Node,
        stage: int,
        fmt: FxpFormat,
        x: np.ndarray,
        memo: Dict[Tuple[int, int], complex],
    ) -> Tuple[complex, int]:
        """Value of a deferred chain at stage ``stage``'s scale + its cost.

        The chain passed ``stage`` halvings as pure copies (exact shifts),
        then multiplies one quantized ROM entry and rounds once to the
        stage's width.
        """
        exp = node.exponent % self.config.n
        key = (node.src, exp)
        cost = 0
        if key in memo:
            raw = memo[key]
        else:
            raw = self._twiddle(node.exponent) * x[node.src]
            memo[key] = raw
            # Exponent 0 (the raw value) is free; everything else costs one
            # multiplication, exactly like the exact engine's convention.
            if exp != 0:
                cost = 1
        value = node.sign * raw * 2.0**-stage
        if exp == 0:
            # Pure copy chain: halvings are exact shifts of the register
            # value, no multiplier and no rounding happened.
            return complex(value), cost
        return complex(fmt.quantize_complex(np.array([value]))[0]), cost

    def _butterfly(
        self, nodes, u, v, exponent, stage, fmt, x, memo
    ) -> int:
        nu, nv = nodes[u], nodes[v]

        if nv.kind == _Kind.ZERO:
            if nu.kind == _Kind.ZERO:
                return 0
            if nu.kind == _Kind.SCALED:
                # Copies halve exactly; the deferred tag is unchanged
                # (scale is tracked by the stage at materialization).
                nodes[v] = _Node(
                    _Kind.SCALED, src=nu.src, exponent=nu.exponent, sign=nu.sign
                )
                return 0
            half_val = complex(
                fmt.quantize_complex(np.array([nu.value * 0.5]))[0]
            )
            nodes[u] = _Node(_Kind.GENERAL, value=half_val)
            nodes[v] = _Node(_Kind.GENERAL, value=half_val)
            return 0

        if nu.kind == _Kind.ZERO:
            if nv.kind == _Kind.SCALED:
                # Merging: accumulate the exponent, defer the multiply.
                e = nv.exponent + exponent
                nodes[u] = _Node(
                    _Kind.SCALED, src=nv.src, exponent=e, sign=nv.sign
                )
                nodes[v] = _Node(
                    _Kind.SCALED, src=nv.src, exponent=e, sign=-nv.sign
                )
                return 0
            t = self._twiddle(exponent) * nv.value * 0.5
            t = complex(fmt.quantize_complex(np.array([t]))[0])
            nodes[u] = _Node(_Kind.GENERAL, value=t)
            nodes[v] = _Node(_Kind.GENERAL, value=-t)
            return 1

        mults = 0
        if nu.kind == _Kind.SCALED:
            # Materialize at the *previous* stage's scale (input domain of
            # this butterfly), then run the normal butterfly.
            u_val, cost = self._materialize(
                nu, stage - 1, self._formats[stage - 1], x, memo
            )
            mults += cost
        else:
            u_val = nu.value

        if nv.kind == _Kind.SCALED:
            # The butterfly multiplier computes ROM[e_v + e] * x directly.
            chain = _Node(
                _Kind.SCALED,
                src=nv.src,
                exponent=nv.exponent + exponent,
                sign=nv.sign,
            )
            t, _ = self._materialize(
                chain, stage - 1, self._formats[stage - 1], x, memo
            )
        else:
            t = self._twiddle(exponent) * nv.value
        mults += 1

        out_u = complex(fmt.quantize_complex(np.array([(u_val + t) * 0.5]))[0])
        out_v = complex(fmt.quantize_complex(np.array([(u_val - t) * 0.5]))[0])
        nodes[u] = _Node(_Kind.GENERAL, value=out_u)
        nodes[v] = _Node(_Kind.GENERAL, value=out_v)
        return mults

    def _finalize(self, nodes, x, memo) -> Tuple[np.ndarray, int]:
        n = self.config.n
        values = np.empty(n, dtype=np.complex128)
        fmt = self._formats[-1]
        mults = 0
        groups: Dict[Tuple[int, int], complex] = {}
        for pos, node in enumerate(nodes):
            if node.kind == _Kind.ZERO:
                values[pos] = 0j
            elif node.kind == _Kind.GENERAL:
                values[pos] = node.value
            else:
                key = (node.src, node.exponent % n)
                if key not in groups and key not in memo:
                    groups[key] = 0j
                    mults += 1
                value, _ = self._materialize(node, self.stages, fmt, x, {})
                values[pos] = value
        return values, mults


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
