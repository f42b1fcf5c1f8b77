"""Compiled batched execution plans for the sparse fixed-point FFT.

:class:`repro.sparse.sparse_fxp.SparseFixedPointFft` walks the butterfly
network once per transform, re-deriving the ZERO / SCALED / GENERAL tag of
every node from the structural sparsity pattern.  The tags are *value
independent*: they depend only on the valid set, so the entire walk -- which
butterflies execute, which chains merge, where materializations happen and
what they cost -- can be compiled **once per pattern** into flat index
arrays and replayed over whole ``(B, n)`` stacks with vectorized gathers
and scatters.

Bit-identity argument (the contract the sparse conformance tier enforces):

* butterfly pairs within a stage are disjoint positions, so executing the
  stage's op groups in any order on gathered inputs equals the per-call
  sequential walk;
* every arithmetic step (twiddle product, halving, sign flip, power-of-two
  scaling, :meth:`repro.fftcore.fixed_point.FxpFormat.quantize_complex`)
  is element-wise and replayed in the per-call operand order, so IEEE-754
  determinism gives byte-equal results row by row;
* materialized chain products ``rom[exp] * x[src]`` are pure functions of
  ``(src, exp mod n)``, so the per-call memo collapses to a precomputed
  slot table evaluated in one batched multiply.

The multiplication count is a compile-time constant of the plan and equals
``SparseFixedPointFft.run(...).mults`` for every input with the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.sparse.sparse_fxp import SparseFixedPointFft


__all__ = [
    "ZERO",
    "GENERAL",
    "scaled",
    "butterfly_tags",
    "SparsePlan",
    "SparseWeightPipeline",
    "compile_sparse_plan",
]


# ---------------------------------------------------------------------------
# Pure tag algebra (the compile-time dataflow, factored for property tests)
# ---------------------------------------------------------------------------

ZERO = ("zero",)
GENERAL = ("general",)


def scaled(src: int, exponent: int, sign: int) -> tuple:
    """SCALED tag: the node equals ``sign * W^exponent * x[src]`` (deferred)."""
    return ("scaled", int(src), int(exponent), int(sign))


def butterfly_tags(tag_u, tag_v, exponent: int) -> Tuple[tuple, tuple]:
    """Tag transition of one butterfly ``(u, v) -> (u + W^e v, u - W^e v)``.

    Mirrors :meth:`SparseFixedPointFft._butterfly` exactly (exponents are
    kept unreduced, as in the engine; consumers reduce mod n):

    * ZERO absorbs: a ZERO second operand degenerates the butterfly to a
      copy (skipping), two ZEROs stay ZERO;
    * SCALED chains compose: merging adds the butterfly exponent to the
      chain exponent and flips the sign on the difference output;
    * GENERAL is terminal: once a node carries a computed value, every
      butterfly it feeds produces GENERAL outputs.
    """
    ku, kv = tag_u[0], tag_v[0]
    if kv == "zero":
        if ku == "zero":
            return ZERO, ZERO
        if ku == "scaled":
            return tag_u, tag_u
        return GENERAL, GENERAL
    if ku == "zero":
        if kv == "scaled":
            _, src, e, sgn = tag_v
            return (
                scaled(src, e + exponent, sgn),
                scaled(src, e + exponent, -sgn),
            )
        return GENERAL, GENERAL
    return GENERAL, GENERAL


# ---------------------------------------------------------------------------
# Compiled plan structures
# ---------------------------------------------------------------------------


@dataclass
class _StageOps:
    """Vectorized op groups of one butterfly stage (disjoint positions)."""

    # ZERO-v / GENERAL-u halving copies: both outputs get q(vals[u] * 0.5).
    half_u: np.ndarray
    half_v: np.ndarray
    # ZERO-u / GENERAL-v twiddle flips: t = q((tw * vals[v]) * 0.5).
    zv_u: np.ndarray
    zv_v: np.ndarray
    zv_tw: np.ndarray
    # Chain materializations used by this stage's full butterflies, one
    # column per use: (sign * raws[slot]) * 2**-(s-1), quantized where q.
    mat_slot: np.ndarray
    mat_sign: np.ndarray
    mat_q: np.ndarray
    # Full butterflies (both operands carry data), in compile order.  The
    # u operand and the twiddle product t are assembled from either the
    # work array (GENERAL) or the stage materialization columns (SCALED).
    fu_g_pos: np.ndarray
    fu_g_cols: np.ndarray
    fu_m_pos: np.ndarray
    fu_m_cols: np.ndarray
    ft_g_pos: np.ndarray
    ft_g_cols: np.ndarray
    ft_g_tw: np.ndarray
    ft_m_pos: np.ndarray
    ft_m_cols: np.ndarray
    f_ou: np.ndarray
    f_ov: np.ndarray


@dataclass
class _Finalize:
    """Output assembly: ZERO positions stay 0, GENERAL pass through,
    SCALED chains materialize at the final scale."""

    gen_pos: np.ndarray
    sc_pos: np.ndarray
    sc_slot: np.ndarray
    sc_sign: np.ndarray
    sc_q: np.ndarray


class _StageBuilder:
    """List accumulator frozen into a :class:`_StageOps`."""

    def __init__(self):
        self.half_u: List[int] = []
        self.half_v: List[int] = []
        self.zv_u: List[int] = []
        self.zv_v: List[int] = []
        self.zv_tw: List[complex] = []
        self.mat_slot: List[int] = []
        self.mat_sign: List[float] = []
        self.mat_q: List[bool] = []
        self.fu_g_pos: List[int] = []
        self.fu_g_cols: List[int] = []
        self.fu_m_pos: List[int] = []
        self.fu_m_cols: List[int] = []
        self.ft_g_pos: List[int] = []
        self.ft_g_cols: List[int] = []
        self.ft_g_tw: List[complex] = []
        self.ft_m_pos: List[int] = []
        self.ft_m_cols: List[int] = []
        self.f_ou: List[int] = []
        self.f_ov: List[int] = []

    def mat_use(self, slot: int, sign: int, quantize: bool) -> int:
        self.mat_slot.append(slot)
        self.mat_sign.append(float(sign))
        self.mat_q.append(bool(quantize))
        return len(self.mat_slot) - 1

    def freeze(self) -> _StageOps:
        def idx(a):
            return np.asarray(a, dtype=np.int64)

        return _StageOps(
            half_u=idx(self.half_u),
            half_v=idx(self.half_v),
            zv_u=idx(self.zv_u),
            zv_v=idx(self.zv_v),
            zv_tw=np.asarray(self.zv_tw, dtype=np.complex128),
            mat_slot=idx(self.mat_slot),
            mat_sign=np.asarray(self.mat_sign, dtype=np.float64),
            mat_q=np.asarray(self.mat_q, dtype=bool),
            fu_g_pos=idx(self.fu_g_pos),
            fu_g_cols=idx(self.fu_g_cols),
            fu_m_pos=idx(self.fu_m_pos),
            fu_m_cols=idx(self.fu_m_cols),
            ft_g_pos=idx(self.ft_g_pos),
            ft_g_cols=idx(self.ft_g_cols),
            ft_g_tw=np.asarray(self.ft_g_tw, dtype=np.complex128),
            ft_m_pos=idx(self.ft_m_pos),
            ft_m_cols=idx(self.ft_m_cols),
            f_ou=idx(self.f_ou),
            f_ov=idx(self.f_ov),
        )


class SparsePlan:
    """One pattern's compiled sparse fixed-point transform.

    Args:
        config: fixed-point configuration of the core (:class:`ApproxFftConfig`).
        pattern: structural valid indices of the *core* input (already
            folded for the negacyclic pipeline), reduced mod n.
        sign: twiddle sign convention (+1 for the folded negacyclic
            forward transform, matching :class:`SparseFixedPointFft`).
    """

    def __init__(
        self, config: ApproxFftConfig, pattern: Sequence[int], sign: int = 1
    ):
        engine = SparseFixedPointFft(config, sign=sign)
        self.config = config
        self.sign = sign
        self.n = config.n
        self.stages = engine.stages
        self._formats = engine._formats
        self.valid = np.array(
            sorted({int(v) % self.n for v in pattern}), dtype=np.int64
        )
        self._compile(engine)

    # -- compilation -----------------------------------------------------

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
        # memo; slot k holds raws[:, k] = twiddle[k] * x[:, src[k]].
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
            st = _StageBuilder()
            k = 0  # full-butterfly column within this stage
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
                        st.fu_m_pos.append(k)
                        st.fu_m_cols.append(
                            st.mat_use(slot_of(src, expn), sgn, expn != 0)
                        )
                    else:
                        st.fu_g_pos.append(k)
                        st.fu_g_cols.append(u)

                    if kv == "scaled":
                        # The BU multiplier computes ROM[e_v + e] * x
                        # directly; the memo entry is shared but its cost
                        # rides on the unconditional butterfly multiply.
                        _, src, e, sgn = tv
                        expn = (e + exponent) % n
                        memo.add((src, expn))
                        st.ft_m_pos.append(k)
                        st.ft_m_cols.append(
                            st.mat_use(slot_of(src, expn), sgn, expn != 0)
                        )
                    else:
                        st.ft_g_pos.append(k)
                        st.ft_g_cols.append(v)
                        st.ft_g_tw.append(engine._twiddle(exponent))
                    mults += 1
                    st.f_ou.append(u)
                    st.f_ov.append(v)
                    k += 1
            stage_ops.append(st.freeze())

        gen_pos: List[int] = []
        sc_pos: List[int] = []
        sc_slot: List[int] = []
        sc_sign: List[float] = []
        sc_q: List[bool] = []
        groups: set = set()
        for pos, tag in enumerate(tags):
            if tag[0] == "general":
                gen_pos.append(pos)
            elif tag[0] == "scaled":
                _, src, e, sgn = tag
                expn = e % n
                if (src, expn) not in groups and (src, expn) not in memo:
                    groups.add((src, expn))
                    mults += 1
                sc_pos.append(pos)
                sc_slot.append(slot_of(src, expn))
                sc_sign.append(float(sgn))
                sc_q.append(expn != 0)

        self._stage_ops = stage_ops
        self._raw_src = np.asarray(raw_src, dtype=np.int64)
        self._raw_tw = np.asarray(raw_tw, dtype=np.complex128)
        self._fin = _Finalize(
            gen_pos=np.asarray(gen_pos, dtype=np.int64),
            sc_pos=np.asarray(sc_pos, dtype=np.int64),
            sc_slot=np.asarray(sc_slot, dtype=np.int64),
            sc_sign=np.asarray(sc_sign, dtype=np.float64),
            sc_q=np.asarray(sc_q, dtype=bool),
        )
        self._invalid_mask = np.ones(n, dtype=bool)
        if self.valid.size:
            self._invalid_mask[self.valid] = False
        self.mults = mults

    # -- bookkeeping -----------------------------------------------------

    @property
    def output_scale(self) -> float:
        return 2.0 ** -self.stages

    @property
    def dense_mults(self) -> int:
        return (self.n // 2) * self.stages

    @property
    def reduction(self) -> float:
        if self.dense_mults == 0:
            return 0.0
        return 1.0 - self.mults / self.dense_mults

    def _iter_arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        yield "valid", self.valid
        yield "raw_src", self._raw_src
        yield "raw_tw", self._raw_tw
        for s, st in enumerate(self._stage_ops):
            for f in fields(st):
                yield f"s{s}.{f.name}", getattr(st, f.name)
        for f in fields(self._fin):
            yield f"fin.{f.name}", getattr(self._fin, f.name)

    def _header(self) -> bytes:
        cfg = self.config
        return repr(
            (
                "sparse-plan",
                self.n,
                self.sign,
                tuple(cfg.stage_widths),
                cfg.twiddle_k,
                cfg.twiddle_max_shift,
                cfg.input_width,
                self.mults,
            )
        ).encode()

    @property
    def plan_bytes(self) -> int:
        """Byte footprint for :class:`repro.runtime.PlanCache` accounting."""
        return sum(a.nbytes for _, a in self._iter_arrays())

    def digest_payload(self):
        """Content walked by :func:`repro.runtime.plan_cache.value_digest`."""
        payload: List[object] = [self._header()]
        for name, a in self._iter_arrays():
            payload.append(name)
            payload.append(a)
        return payload

    def to_bytes(self) -> bytes:
        """Deterministic serialization: same pattern -> byte-identical plan."""
        parts = [self._header()]
        for name, a in self._iter_arrays():
            arr = np.ascontiguousarray(a)
            parts.append(
                repr((name, arr.dtype.str, arr.shape)).encode()
            )
            parts.append(arr.tobytes())
        return b"|".join(parts)

    # -- execution -------------------------------------------------------

    def execute(self, x) -> np.ndarray:
        """Replay the compiled dataflow over a ``(B, n)`` stack (or one row).

        Bit-identical per row to ``SparseFixedPointFft(config, sign).run(row,
        valid=pattern).values``.
        """
        x = np.asarray(x, dtype=np.complex128)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(
                f"expected shape (B, {self.n}), got {x.shape}"
            )
        if self.config.input_width is not None:
            x = FxpFormat(self.config.input_width).quantize_complex(x)
        stray = x[:, self._invalid_mask]
        if stray.size and np.any(stray):
            bad = np.nonzero(self._invalid_mask)[0][
                np.nonzero(np.any(stray != 0, axis=0))[0]
            ]
            raise ValueError(
                "input has non-zeros outside the valid set: "
                f"{bad[:5].tolist()}"
            )

        b = x.shape[0]
        raws = self._raw_tw[None, :] * x[:, self._raw_src]
        vals = np.zeros((b, self.n), dtype=np.complex128)

        for s, st in enumerate(self._stage_ops, start=1):
            fmt = self._formats[s - 1]
            mats: Optional[np.ndarray] = None
            if st.mat_slot.size:
                mats = (st.mat_sign[None, :] * raws[:, st.mat_slot]) * (
                    2.0 ** -(s - 1)
                )
                if st.mat_q.any():
                    mats[:, st.mat_q] = fmt.quantize_complex(
                        mats[:, st.mat_q]
                    )
            if st.half_u.size:
                hv = fmt.quantize_complex(vals[:, st.half_u] * 0.5)
                vals[:, st.half_u] = hv
                vals[:, st.half_v] = hv
            if st.zv_u.size:
                t = fmt.quantize_complex(
                    (st.zv_tw[None, :] * vals[:, st.zv_v]) * 0.5
                )
                vals[:, st.zv_u] = t
                vals[:, st.zv_v] = -t
            k = st.f_ou.size
            if k:
                u_vals = np.empty((b, k), dtype=np.complex128)
                if st.fu_g_pos.size:
                    u_vals[:, st.fu_g_pos] = vals[:, st.fu_g_cols]
                if st.fu_m_pos.size:
                    u_vals[:, st.fu_m_pos] = mats[:, st.fu_m_cols]
                t = np.empty((b, k), dtype=np.complex128)
                if st.ft_g_pos.size:
                    t[:, st.ft_g_pos] = (
                        st.ft_g_tw[None, :] * vals[:, st.ft_g_cols]
                    )
                if st.ft_m_pos.size:
                    t[:, st.ft_m_pos] = mats[:, st.ft_m_cols]
                vals[:, st.f_ou] = fmt.quantize_complex((u_vals + t) * 0.5)
                vals[:, st.f_ov] = fmt.quantize_complex((u_vals - t) * 0.5)

        out = np.zeros((b, self.n), dtype=np.complex128)
        fin = self._fin
        if fin.gen_pos.size:
            out[:, fin.gen_pos] = vals[:, fin.gen_pos]
        if fin.sc_pos.size:
            scv = (fin.sc_sign[None, :] * raws[:, fin.sc_slot]) * (
                2.0 ** -self.stages
            )
            if fin.sc_q.any():
                scv[:, fin.sc_q] = self._formats[-1].quantize_complex(
                    scv[:, fin.sc_q]
                )
            out[:, fin.sc_pos] = scv
        return out[0] if single else out

    def __repr__(self) -> str:
        return (
            f"SparsePlan(n={self.n}, valid={self.valid.size}, "
            f"mults={self.mults}/{self.dense_mults})"
        )


def compile_sparse_plan(
    config: ApproxFftConfig, pattern: Sequence[int], sign: int = 1
) -> SparsePlan:
    """Compile the tag propagation for ``pattern`` once (see :class:`SparsePlan`)."""
    return SparsePlan(config, pattern, sign=sign)


class SparseWeightPipeline:
    """Batched drop-in for :class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic`.

    Folds a ``(B, n)`` stack of integer weight polynomials, normalizes each
    row by the per-call power-of-two scale, and runs one compiled
    :class:`SparsePlan` over the whole stack.  Every step is element-wise
    (or per-row scalar-equal), so row ``i`` of the result is bit-identical
    to ``SparseApproxNegacyclic(n, config, pattern).weight_forward(w[i])``.

    Args:
        n: polynomial length (ring degree); the core is ``n // 2``-point.
        weight_config: fixed-point configuration of the core.
        valid_pattern: structural non-zero pattern, natural coefficient
            order (already-folded core indices are accepted too: folding
            is idempotent).  With ``plan``, the folded pattern itself.
        plan: pre-compiled plan for the folded pattern (e.g. from a
            :class:`repro.runtime.PlanCache`); compiled here when omitted.
    """

    def __init__(
        self,
        n: int,
        weight_config: ApproxFftConfig,
        valid_pattern: Sequence[int],
        plan: Optional[SparsePlan] = None,
    ):
        from repro.fftcore.negacyclic import get_negacyclic_fft
        from repro.sparse.patterns import fold_valid_indices

        if weight_config.n != n // 2:
            raise ValueError(
                f"weight core must be {n // 2}-point, got {weight_config.n}"
            )
        self.n = n
        self.base = get_negacyclic_fft(n)
        if plan is None:
            self.pattern = fold_valid_indices(valid_pattern, n)
            plan = SparsePlan(weight_config, self.pattern, sign=+1)
        elif not np.array_equal(plan.valid, valid_pattern):
            raise ValueError("plan was compiled for a different pattern")
        else:
            self.pattern = plan.valid
        self.plan = plan

    @property
    def mults(self) -> int:
        """Weight-transform multiplications per transform (compile-time)."""
        return self.plan.mults

    @property
    def dense_mults(self) -> int:
        return self.plan.dense_mults

    @property
    def plan_bytes(self) -> int:
        return self.base.plan_bytes + self.plan.plan_bytes

    def weight_forward_batch(self, weights):
        """Sparse approximate spectra of a ``(B, n)`` integer weight stack.

        Returns an ``ApproxSpectrum`` whose ``values`` are ``(B, n/2)`` and
        whose ``scale`` is the ``(B,)`` per-row normalization vector.
        """
        from repro.fftcore.approx_pipeline import (
            ApproxSpectrum,
            _next_pow2_rows,
            _row_part_max,
        )

        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        folded = self.base.fold_batch(weights)
        scale = _next_pow2_rows(_row_part_max(folded) * (1.0 + 2.0 ** -20))
        out = self.plan.execute(folded / scale[:, None])
        unscaled = out / self.plan.output_scale * scale[:, None]
        return ApproxSpectrum(values=unscaled, scale=scale)

    def weight_forward(self, weight):
        """Single-weight convenience wrapper (a batch of one)."""
        from repro.fftcore.approx_pipeline import ApproxSpectrum

        spec = self.weight_forward_batch(np.asarray(weight)[None, :])
        return ApproxSpectrum(
            values=spec.values[0], scale=float(spec.scale[0])
        )
