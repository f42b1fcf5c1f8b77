"""Frozen-copy guard of the one sparse tag walk.

:mod:`repro.sparse.walk` replaced three walks of the butterfly network,
each with its own butterfly rules, memo and multiplication counter: the
exact ``SparseFft`` engine, ``SparseFixedPointFft.run`` and
``SparsePlan._compile``.  Frozen copies of all three live here as the
oracle, and the code built on the one walk must reproduce them:

* fixed-point values byte for byte (``tobytes()``, signed zeros and
  subnormals included) and their ``mults``;
* the exact engine's ``mults``, ``mults_nontrivial`` and ``stage_mults``,
  and its values to the ``fft_dit`` tolerance (the walk computes each
  chain's ``W^e`` directly instead of a product of stage twiddles);
* compiled plans byte for byte (``to_bytes()``), and eight of them
  against SHA-256 digests recorded from the frozen compile.

Grids: every pattern at n <= 8, seeded random patterns at n = 16..256,
the Fig 8 examples, uniform-stride patterns and the folded ResNet-18
stride-1 patterns at ring degree 4096 (9, 36, 72 and 450 valid slots);
both twiddle signs throughout.
"""

from __future__ import annotations

import enum
import functools
import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    decompose_strided,
    iter_row_bands,
)
from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.fftcore.reference import stage_twiddles
from repro.nn.resnet import resnet18_conv_layers
from repro.ntt.modmath import bit_reverse_indices
from repro.sparse import SparseFft, SparseFftResult
from repro.sparse.patterns import (
    conv_like_pattern,
    conv_weight_pattern,
    uniform_stride_pattern,
)
from repro.sparse.plan import (
    SparsePlan,
    _chain_arrays,
    _Finalize,
    _idx,
    _StageOps,
)
from repro.sparse.sparse_fxp import SparseFixedPointFft, SparseFxpResult
from repro.sparse.walk import ZERO, butterfly_tags, scaled


# ---------------------------------------------------------------------------
# The exact engine's walker, frozen
# ---------------------------------------------------------------------------

_UNIT_EPS = 1e-12


class _Kind(enum.IntEnum):
    ZERO = 0
    SCALED = 1
    GENERAL = 2


@dataclass
class _Node:
    kind: _Kind
    src: int = -1
    coeff: complex = 0j
    value: complex = 0j



def _is_unit(c: complex) -> bool:
    """True for the free multipliers {1, -1, i, -i} (negate / swap only)."""
    return (
        abs(abs(c.real) - 1.0) < _UNIT_EPS and abs(c.imag) < _UNIT_EPS
    ) or (
        abs(abs(c.imag) - 1.0) < _UNIT_EPS and abs(c.real) < _UNIT_EPS
    )


def _is_pm_one(c: complex) -> bool:
    return abs(abs(c.real) - 1.0) < _UNIT_EPS and abs(c.imag) < _UNIT_EPS


def _sign_key(src: int, coeff: complex) -> Tuple[int, int, int]:
    """Key identifying ``coeff`` up to negation (on a 1e-12 grid)."""
    re = int(round(coeff.real * 1e12))
    im = int(round(coeff.imag * 1e12))
    if re < 0 or (re == 0 and im < 0):
        re, im = -re, -im
    return (src, re, im)


class FrozenSparseFft:
    """Sparse FFT engine of length ``n``.

    Args:
        n: transform length (power of two).
        sign: twiddle sign convention (-1 forward / numpy, +1 conjugate;
            the folded negacyclic forward transform uses +1).
    """

    def __init__(self, n: int, sign: int = -1):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.n = n
        self.sign = sign
        self.stages = n.bit_length() - 1
        self._rev = bit_reverse_indices(n)
        self._tw = [
            stage_twiddles(n, s, sign) for s in range(1, self.stages + 1)
        ]

    @property
    def dense_mults(self) -> int:
        """Multiplications of the classical dense dataflow: n/2 * log2(n)."""
        return (self.n // 2) * self.stages

    # ------------------------------------------------------------------

    def run(self, x, valid: Optional[Sequence[int]] = None) -> SparseFftResult:
        """Transform ``x`` (natural coefficient order) exploiting sparsity.

        Args:
            x: complex input vector of length n.
            valid: indices (natural order) that may be non-zero; inferred
                from the non-zeros of ``x`` if omitted.  Passing the
                layer's structural pattern models hardware, where the
                dataflow is configured once per layer.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        if valid is None:
            valid_set = set(np.nonzero(x)[0].tolist())
        else:
            valid_set = {int(v) % self.n for v in valid}
            stray = set(np.nonzero(x)[0].tolist()) - valid_set
            if stray:
                raise ValueError(
                    "input has non-zeros outside the valid set: "
                    f"{sorted(stray)[:5]}"
                )

        nodes = self._initial_nodes(valid_set)
        paper_total = 0
        honest_total = 0
        stage_mults: List[int] = []
        # Materialized (src, +-coeff) products, shared across the network.
        mat_memo: Set[Tuple[int, int, int]] = set()

        def materialize(src: int, coeff: complex) -> Tuple[complex, int, int]:
            """Value of ``coeff * x[src]`` and its (paper, honest) cost."""
            value = coeff * x[src]
            if _is_pm_one(coeff):
                return value, 0, 0
            key = _sign_key(src, coeff)
            if key in mat_memo:
                return value, 0, 0
            mat_memo.add(key)
            return value, 1, (0 if _is_unit(coeff) else 1)

        for s in range(self.stages):
            m = 2 << s
            half = m >> 1
            tw = self._tw[s]
            stage_paper = 0
            for block in range(0, self.n, m):
                for j in range(half):
                    u = block + j
                    v = u + half
                    p, h = self._butterfly(
                        nodes, u, v, complex(tw[j]), x, materialize
                    )
                    stage_paper += p
                    honest_total += h
            paper_total += stage_paper
            stage_mults.append(stage_paper)

        values, mat_paper, mat_honest = self._finalize(nodes, x, mat_memo)
        paper_total += mat_paper
        honest_total += mat_honest
        stage_mults.append(mat_paper)

        return SparseFftResult(
            values=values,
            mults=paper_total,
            mults_nontrivial=honest_total,
            dense_mults=self.dense_mults,
            stage_mults=stage_mults,
        )

    def count(self, valid: Sequence[int]) -> SparseFftResult:
        """Count multiplications for a structural pattern.

        Runs the engine on a synthetic input with generic non-zero values
        at the valid indices, so accidental value cancellations cannot
        inflate the savings.
        """
        rng = np.random.default_rng(0xF1A5)
        x = np.zeros(self.n, dtype=np.complex128)
        idx = np.array(sorted({int(v) % self.n for v in valid}), dtype=np.int64)
        if idx.size:
            x[idx] = rng.standard_normal(idx.size) + 1.5
        return self.run(x, valid=idx)

    # ------------------------------------------------------------------

    def _initial_nodes(self, valid_set) -> List[_Node]:
        nodes = []
        for pos in range(self.n):
            src = int(self._rev[pos])
            if src in valid_set:
                nodes.append(_Node(_Kind.SCALED, src=src, coeff=1.0 + 0j))
            else:
                nodes.append(_Node(_Kind.ZERO))
        return nodes

    @staticmethod
    def _butterfly(nodes, u, v, w, x, materialize) -> Tuple[int, int]:
        """Apply one butterfly in place; return its (paper, honest) cost."""
        nu, nv = nodes[u], nodes[v]

        if nv.kind == _Kind.ZERO:
            if nu.kind == _Kind.ZERO:
                return 0, 0
            # Skipping: u' = u + w*0 = u, v' = u - w*0 = u (duplication).
            nodes[v] = _Node(nu.kind, src=nu.src, coeff=nu.coeff, value=nu.value)
            return 0, 0

        if nu.kind == _Kind.ZERO:
            if nv.kind == _Kind.SCALED:
                # Merging: fold the twiddle into the chain coefficient.
                c = w * nv.coeff
                nodes[u] = _Node(_Kind.SCALED, src=nv.src, coeff=c)
                nodes[v] = _Node(_Kind.SCALED, src=nv.src, coeff=-c)
                return 0, 0
            t = w * nv.value
            nodes[u] = _Node(_Kind.GENERAL, value=t)
            nodes[v] = _Node(_Kind.GENERAL, value=-t)
            return 1, (0 if _is_unit(w) else 1)

        # Both operands carry data: the butterfly executes.
        paper = 0
        honest = 0
        if nu.kind == _Kind.SCALED:
            u_val, p, h = materialize(nu.src, nu.coeff)
            paper += p
            honest += h
        else:
            u_val = nu.value

        if nv.kind == _Kind.SCALED:
            # The BU multiplier computes (w * coeff_v) * x[src_v] directly.
            c = w * nv.coeff
            t = c * x[nv.src]
        else:
            c = w
            t = w * nv.value
        paper += 1
        if not _is_unit(c):
            honest += 1

        nodes[u] = _Node(_Kind.GENERAL, value=u_val + t)
        nodes[v] = _Node(_Kind.GENERAL, value=u_val - t)
        return paper, honest

    def _finalize(self, nodes, x, mat_memo) -> Tuple[np.ndarray, int, int]:
        """Materialize remaining SCALED outputs, grouped by (src, +-coeff)."""
        values = np.empty(self.n, dtype=np.complex128)
        paper = 0
        honest = 0
        final_groups: Set[Tuple[int, int, int]] = set()
        for pos, node in enumerate(nodes):
            if node.kind == _Kind.ZERO:
                values[pos] = 0j
            elif node.kind == _Kind.GENERAL:
                values[pos] = node.value
            else:
                values[pos] = node.coeff * x[node.src]
                key = _sign_key(node.src, node.coeff)
                if key in mat_memo or key in final_groups:
                    continue
                final_groups.add(key)
                # Paper convention counts one multiplication per group,
                # unit coefficients included (Example 4.2 counts W^0).
                paper += 1
                if not _is_unit(node.coeff):
                    honest += 1
        return values, paper, honest


# ---------------------------------------------------------------------------
# SparseFixedPointFft.run and its butterfly rules, frozen
# ---------------------------------------------------------------------------

@dataclass
class _FxpNode:
    kind: _Kind
    src: int = -1
    exponent: int = 0  # twiddle exponent of the deferred chain (mod n)
    sign: int = 1
    value: complex = 0j  # for GENERAL, in the current scaled domain



class FrozenSparseFixedPointFft(SparseFixedPointFft):
    """``SparseFixedPointFft`` with its per-call walk, frozen."""

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
                nodes.append(_FxpNode(_Kind.SCALED, src=src, exponent=0, sign=1))
            else:
                nodes.append(_FxpNode(_Kind.ZERO))

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
        node: _FxpNode,
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
                nodes[v] = _FxpNode(
                    _Kind.SCALED, src=nu.src, exponent=nu.exponent, sign=nu.sign
                )
                return 0
            half_val = complex(
                fmt.quantize_complex(np.array([nu.value * 0.5]))[0]
            )
            nodes[u] = _FxpNode(_Kind.GENERAL, value=half_val)
            nodes[v] = _FxpNode(_Kind.GENERAL, value=half_val)
            return 0

        if nu.kind == _Kind.ZERO:
            if nv.kind == _Kind.SCALED:
                # Merging: accumulate the exponent, defer the multiply.
                e = nv.exponent + exponent
                nodes[u] = _FxpNode(
                    _Kind.SCALED, src=nv.src, exponent=e, sign=nv.sign
                )
                nodes[v] = _FxpNode(
                    _Kind.SCALED, src=nv.src, exponent=e, sign=-nv.sign
                )
                return 0
            t = self._twiddle(exponent) * nv.value * 0.5
            t = complex(fmt.quantize_complex(np.array([t]))[0])
            nodes[u] = _FxpNode(_Kind.GENERAL, value=t)
            nodes[v] = _FxpNode(_Kind.GENERAL, value=-t)
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
            chain = _FxpNode(
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
        nodes[u] = _FxpNode(_Kind.GENERAL, value=out_u)
        nodes[v] = _FxpNode(_Kind.GENERAL, value=out_v)
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


# ---------------------------------------------------------------------------
# SparsePlan._compile, frozen
# ---------------------------------------------------------------------------

class _StageBuilder:
    """List accumulator frozen into a :class:`_StageOps`."""

    def __init__(self):
        self.half_u: List[int] = []
        self.half_v: List[int] = []
        self.zv_u: List[int] = []
        self.zv_v: List[int] = []
        self.zv_tw: List[complex] = []
        self.chains: List[Tuple[int, float, bool]] = []
        # (u operand, t operand, twiddle or None, out u, out v); an
        # operand is a network position or ("chain", use index).
        self.full: List[tuple] = []

    def chain(self, slot: int, sign: int, rounded: bool) -> tuple:
        self.chains.append((slot, float(sign), bool(rounded)))
        return ("chain", len(self.chains) - 1)

    def freeze(self, n: int, dense_tw: Optional[List[complex]]) -> _StageOps:
        chains, rows = _chain_arrays(n, self.chains)

        def row(operand) -> int:
            return rows[operand[1]] if isinstance(operand, tuple) else operand

        full = [] if dense_tw is not None else sorted(
            self.full, key=lambda f: f[2] is None
        )
        return _StageOps(
            **chains,
            half_u=_idx(self.half_u),
            half_v=_idx(self.half_v),
            zv_u=_idx(self.zv_u),
            zv_v=_idx(self.zv_v),
            zv_tw=np.asarray(self.zv_tw, dtype=np.complex128),
            f_u=_idx([row(f[0]) for f in full]),
            f_t=_idx([row(f[1]) for f in full]),
            f_tw=np.asarray(
                [f[2] for f in full if f[2] is not None], dtype=np.complex128
            ),
            f_ou=_idx([f[3] for f in full]),
            f_ov=_idx([f[4] for f in full]),
            dense_tw=np.asarray(dense_tw or [], dtype=np.complex128),
        )



class FrozenPlan(SparsePlan):
    """``SparsePlan`` with its own tag propagation, frozen."""

    def _compile(self, engine: SparseFixedPointFft) -> None:
        n = self.n
        valid_set = set(self.valid.tolist())

        tags: List[tuple] = []
        for pos in range(n):
            src = int(engine._rev[pos])
            if src in valid_set:
                tags.append(scaled(src, 0, 1))
            else:
                tags.append(ZERO)

        # Unique (src, exp mod n) chain products, shared like the per-call
        # memo; slot k holds raws[k] = twiddle[k] * x[src[k]].
        slots: Dict[Tuple[int, int], int] = {}
        raw_src: List[int] = []
        raw_tw: List[complex] = []

        def slot_of(src: int, expn: int) -> int:
            key = (src, expn)
            if key not in slots:
                slots[key] = len(raw_src)
                raw_src.append(src)
                raw_tw.append(engine._twiddle(expn))
            return slots[key]

        memo: set = set()
        mults = 0
        stage_ops: List[_StageOps] = []

        for s in range(1, self.stages + 1):
            m = 1 << s
            half = m >> 1
            step = n // m
            dense = all(tag[0] == "general" for tag in tags)
            st = _StageBuilder()
            for block in range(0, n, m):
                for j in range(half):
                    u = block + j
                    v = u + half
                    exponent = j * step
                    tu, tv = tags[u], tags[v]
                    tags[u], tags[v] = butterfly_tags(tu, tv, exponent)
                    ku, kv = tu[0], tv[0]

                    if kv == "zero":
                        if ku == "general":
                            st.half_u.append(u)
                            st.half_v.append(v)
                        continue
                    if ku == "zero":
                        if kv == "general":
                            st.zv_u.append(u)
                            st.zv_v.append(v)
                            st.zv_tw.append(engine._twiddle(exponent))
                            mults += 1
                        continue

                    # Both operands carry data: the butterfly executes.
                    if ku == "scaled":
                        _, src, e, sgn = tu
                        expn = e % n
                        if (src, expn) not in memo:
                            memo.add((src, expn))
                            if expn != 0:
                                mults += 1
                        u_op = st.chain(slot_of(src, expn), sgn, expn != 0)
                    else:
                        u_op = u

                    if kv == "scaled":
                        # The BU multiplier computes ROM[e_v + e] * x
                        # directly; the memo entry is shared but its cost
                        # rides on the unconditional butterfly multiply.
                        _, src, e, sgn = tv
                        expn = (e + exponent) % n
                        memo.add((src, expn))
                        t_op = st.chain(slot_of(src, expn), sgn, expn != 0)
                        tw = None
                    else:
                        t_op, tw = v, engine._twiddle(exponent)
                    mults += 1
                    st.full.append((u_op, t_op, tw, u, v))
            stage_ops.append(st.freeze(
                n,
                [engine._twiddle(j * step) for j in range(half)]
                if dense else None,
            ))

        uses: List[Tuple[int, float, bool]] = []
        sc_pos: List[int] = []
        groups: set = set()
        for pos, tag in enumerate(tags):
            if tag[0] == "scaled":
                _, src, e, sgn = tag
                expn = e % n
                if (src, expn) not in groups and (src, expn) not in memo:
                    groups.add((src, expn))
                    mults += 1
                sc_pos.append(pos)
                uses.append((slot_of(src, expn), float(sgn), expn != 0))
        chains, rows = _chain_arrays(n, uses)
        pos = np.empty(len(sc_pos), dtype=np.int64)
        pos[np.asarray(rows, dtype=np.int64) - n] = sc_pos

        self._stage_ops = stage_ops
        self._raw_src = np.asarray(raw_src, dtype=np.int64)
        self._raw_tw = np.asarray(raw_tw, dtype=np.complex128)
        self._fin = _Finalize(**chains, pos=pos)
        self._chain_rows = max(
            st.q_slot.size + st.c_slot.size for st in stage_ops
        )
        self._scratch_rows = max(
            [pos.size]
            + [n // 2 if st.dense_tw.size else 0 for st in stage_ops]
            + [st.half_u.size for st in stage_ops]
            + [st.zv_u.size for st in stage_ops]
            + [3 * st.f_ou.size for st in stage_ops]
        )
        self.mults = mults


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

SIGNS = [1, -1]
#: Ring degree of the ResNet-18 patterns; the weight core is N/2-point.
N = 4096
#: The paper's weight datapath and a wide one: (stage width, twiddle_k,
#: twiddle_max_shift, input_width); k = 0 is the exact-twiddle ROM.
DATAPATHS = [(27, 5, 16, None), (52, 24, 40, None), (20, 0, 16, 16)]


def config(n: int, datapath=DATAPATHS[0]) -> ApproxFftConfig:
    width, k, max_shift, input_width = datapath
    return ApproxFftConfig(
        n=n, stage_widths=width, twiddle_k=k, twiddle_max_shift=max_shift,
        input_width=input_width,
    )


def every_pattern(n: int) -> List[Tuple[int, ...]]:
    return [
        tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    ]


def random_patterns(n: int) -> List[Tuple[int, ...]]:
    rng = np.random.default_rng(n)
    return [
        tuple(sorted(rng.choice(n, count, replace=False).tolist()))
        for count in (1, 2, 3, n // 8, n // 4, n // 2, n - 1)
    ]


FIG8 = {
    "example-4.1": (16, (0, 8, 4, 12)),
    "example-4.2": (16, (6,)),
    "1x1-14x14": (2048, conv_like_pattern(2048, 10, 196, 1, 14)),
    "3x3-30x30": (2048, conv_like_pattern(2048, 2, 900, 3, 30)),
    "3x3-16x16": (2048, conv_like_pattern(2048, 8, 256, 3, 16)),
}

UNIFORM = [(n, count) for n in (256, 2048) for count in (1, 3, 16, 100, n // 2)]

#: Stride-1 ResNet-18 layers with 9, 36, 72 and 450 valid weight slots.
RESNET = ["layer1.0.conv1", "layer2.0.conv2", "layer3.0.conv2", "layer4.0.conv2"]


@functools.lru_cache(maxsize=None)
def layer_pattern(name: str) -> Tuple[int, ...]:
    """Folded weight pattern of a ResNet-18 layer's first band at N."""
    shape = {layer.name: layer.shape for layer in resnet18_conv_layers()}[name]
    phase, _, _ = decompose_strided(shape)[0]
    _, band = iter_row_bands(phase, N)[0]
    return tuple(conv_weight_pattern(Conv2dEncoder(band, N)).tolist())


def awkward_row(rng, n: int, valid) -> np.ndarray:
    """A row in ``[-0.5, 0.5)`` on ``valid`` with exact and signed zeros,
    tiny parts and subnormals mixed in; signed zeros elsewhere."""
    parts = rng.uniform(-0.5, 0.5, size=(n, 2))
    pick = rng.random(parts.shape)
    parts[pick < 0.1] = 0.0
    parts[(pick >= 0.1) & (pick < 0.2)] = -0.0
    tiny = (pick >= 0.2) & (pick < 0.25)
    parts[tiny] *= 2.0**-40
    sub = (pick >= 0.25) & (pick < 0.28)
    parts[sub] = rng.choice([5e-324, -5e-324, 2.5e-310, -1.1e-308], sub.sum())
    invalid = np.ones(n, dtype=bool)
    invalid[list(valid)] = False
    parts[invalid] = rng.choice([0.0, -0.0], (invalid.sum(), 2))
    return parts[:, 0] + 1j * parts[:, 1]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

#: ``tests/test_sparse_dataflow.py``'s tolerance against ``fft_dit``.
EXACT_ATOL = 1e-9


def check_counts(n: int, pattern, sign: int) -> None:
    new = SparseFft(n, sign).count(pattern)
    old = FrozenSparseFft(n, sign).count(pattern)
    assert new.values is None
    assert new.mults == old.mults
    assert new.mults_nontrivial == old.mults_nontrivial
    assert new.stage_mults == old.stage_mults
    assert new.dense_mults == old.dense_mults


def check_plan(cfg: ApproxFftConfig, pattern, sign: int) -> SparsePlan:
    plan = SparsePlan(cfg, pattern, sign=sign)
    frozen = FrozenPlan(cfg, pattern, sign=sign)
    assert plan.mults == frozen.mults
    assert plan.to_bytes() == frozen.to_bytes()
    assert plan.model_mults == FrozenSparseFft(cfg.n, +1).count(pattern).mults
    return plan


def check_fxp(cfg: ApproxFftConfig, pattern, sign: int, x) -> None:
    new = SparseFixedPointFft(cfg, sign=sign).run(x, valid=pattern)
    old = FrozenSparseFixedPointFft(cfg, sign=sign).run(x, valid=pattern)
    assert new.values.tobytes() == old.values.tobytes()
    assert new.mults == old.mults


def check_exact(n: int, pattern, sign: int, x, valid=True) -> None:
    valid = pattern if valid else None
    new = SparseFft(n, sign).run(x, valid=valid)
    old = FrozenSparseFft(n, sign).run(x, valid=valid)
    assert (new.mults, new.mults_nontrivial, new.stage_mults) == (
        old.mults, old.mults_nontrivial, old.stage_mults,
    )
    np.testing.assert_allclose(new.values, old.values, rtol=0, atol=EXACT_ATOL)


def check_all(n: int, pattern, sign: int, rng, datapaths=DATAPATHS[:1]):
    check_counts(n, pattern, sign)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    off = np.ones(n, dtype=bool)
    off[list(pattern)] = False
    x[off] = 0
    check_exact(n, pattern, sign, x)
    check_exact(n, pattern, sign, x, valid=False)
    for datapath in datapaths:
        cfg = config(n, datapath)
        check_plan(cfg, pattern, sign)
        check_fxp(cfg, pattern, sign, awkward_row(rng, n, pattern))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_every_small_pattern(n, sign):
    rng = np.random.default_rng(n)
    for pattern in every_pattern(n):
        check_all(n, pattern, sign, rng)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
def test_random_patterns(n, sign):
    rng = np.random.default_rng(n + sign)
    for pattern in random_patterns(n):
        check_all(n, pattern, sign, rng, DATAPATHS)


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("name", list(FIG8))
def test_fig8_examples(name, sign):
    n, pattern = FIG8[name]
    check_all(n, tuple(sorted(int(i) for i in pattern)), sign,
              np.random.default_rng(len(name)))


def test_fig8_worked_examples_keep_their_counts():
    assert SparseFft(16).count(FIG8["example-4.1"][1]).mults == 4
    assert SparseFft(16).count(FIG8["example-4.2"][1]).mults == 4


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("n,count", UNIFORM)
def test_uniform_stride_patterns(n, count, sign):
    pattern = tuple(uniform_stride_pattern(n, count).tolist())
    check_all(n, pattern, sign, np.random.default_rng(count))


@pytest.mark.parametrize("sign", SIGNS)
@pytest.mark.parametrize("layer", RESNET)
def test_resnet18_stride1_patterns(layer, sign):
    check_all(N // 2, layer_pattern(layer), sign,
              np.random.default_rng(len(layer)))


def test_resnet18_patterns_have_the_expected_slots():
    assert [len(layer_pattern(name)) for name in RESNET] == [9, 36, 72, 450]


#: SHA-256 of ``SparsePlan.to_bytes()`` as the frozen compile produced
#: it, per (datapath, layer, sign) at the 2048-point core.
PLAN_DIGESTS = {
    ((27, 5, 16, None), "layer2.1.conv1", 1):
        "9e1ae227a50b4d1ccb4701222d70135baf6cfaf132e2d4a8c514d953e69e2738",
    ((27, 5, 16, None), "layer2.1.conv1", -1):
        "b1e3723278f940ce7e38dfbc02a91592ada092e2f2867d9a539efbae770becde",
    ((27, 5, 16, None), "layer4.0.conv2", 1):
        "8495216b5b1a9565620032a799f5eb269e792632833c79133dbfa1efe5c3149f",
    ((27, 5, 16, None), "layer4.0.conv2", -1):
        "7714f27e75a879b8c1c9c0403b8fe8e9d3ce4769d1e60552b997dbadc086598e",
    ((52, 24, 40, None), "layer2.1.conv1", 1):
        "d249cbd23529c6e1fc329eb2e44a5408d24dc7daeab5610d8dc1debed38f67b8",
    ((52, 24, 40, None), "layer2.1.conv1", -1):
        "09b15bdb3ae837f353ad5015ea827ceb3569dcc5cf830d97a8b74b4621003090",
    ((52, 24, 40, None), "layer4.0.conv2", 1):
        "6566781991d4df7e51200357128d3cb5b9efd38dc0ca1bdb0eaf28f4375a6877",
    ((52, 24, 40, None), "layer4.0.conv2", -1):
        "fe341d7fc4e90d1cb51a979e46adbf1f21f38a857ed6140dee99bab5e9d3c14c",
}


@pytest.mark.parametrize("datapath,layer,sign", list(PLAN_DIGESTS))
def test_plan_bytes_match_pinned_digests(datapath, layer, sign):
    plan = SparsePlan(config(N // 2, datapath), layer_pattern(layer), sign=sign)
    digest = hashlib.sha256(plan.to_bytes()).hexdigest()
    assert digest == PLAN_DIGESTS[(datapath, layer, sign)]
