"""Compiled batched execution plans for the sparse fixed-point FFT.

The tag walk of :mod:`repro.sparse.walk` is *value independent*: it
depends only on the valid set, so which butterflies execute, which chains
merge, where materializations happen and what they cost is known **once
per pattern**.  :class:`SparsePlan` freezes the walk's op groups into flat
index arrays and replays them over whole ``(B, n)`` stacks with vectorized
gathers and scatters.  The replay runs batch-innermost, on the transposed
``(n, B)`` array, so each gather and scatter moves whole batch rows.

Agreement with the per-row evaluation of the same walk in
:meth:`repro.sparse.sparse_fxp.SparseFixedPointFft.run` (the contract the
sparse conformance tier enforces):

* butterfly pairs within a stage are disjoint positions, so executing the
  stage's op groups in any order on gathered inputs equals the per-row
  evaluation;
* every arithmetic step (twiddle product, halving, sign flip, power-of-two
  scaling, :meth:`repro.fftcore.fixed_point.FxpFormat.quantize_complex`)
  is element-wise and replayed in the per-row operand order;
* materialized chain products ``rom[exp] * x[src]`` are pure functions of
  ``(src, exp mod n)``, so they collapse to a precomputed slot table
  evaluated in one batched multiply;
* a stage whose n/2 butterflies are all GENERAL x GENERAL is a plain
  fixed-point butterfly stage and runs on the dense kernel.  Its inputs
  are quantization outputs, on the grid, so the halving folds into the
  rounding scale exactly as in
  :meth:`repro.fftcore.fixed_point.FixedPointFft.batch`.

Each row is therefore **bit-identical** to
``SparseFixedPointFft.run(row, valid=pattern)`` whenever every twiddle
product is exact in float64: quantized twiddles (``twiddle_k > 0``), an
input on the fixed-point grid (``input_width`` set), and
``twiddle_max_shift`` + the widest data or input width + 1 <= 53 bits
(e.g. 27-bit stages, 20-bit inputs, 16-bit twiddles).  Where a product
rounds, numpy's vectorized complex multiply (SIMD, fused multiply-add on
AVX-512 hosts) may round its last bit unlike Python's scalar multiply in
the per-row evaluation, and the difference shows when it crosses a
rounding boundary of the stage quantization, about once in
``2**(53 - width)`` rounded products.  At the paper's 27-bit datapath with
unquantized inputs that is rare (no differing row in the tests); at 52-bit
stages it is common: 37 of 100 full-pattern rows differ at n = 64, by at
most one last-stage LSB per part on the test grid.

Both multiplication counts are compile-time constants of the plan, read
off the walk: ``mults`` (realized rule, equal to
``SparseFixedPointFft.run(...).mults``) and ``model_mults`` (paper rule,
equal to :func:`repro.sparse.opcount.sparse_fft_mults`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.approx_pipeline import ApproxSpectrum, normalized_transform
from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.fftcore.reference import butterfly_stage
from repro.sparse.sparse_fxp import SparseFixedPointFft
from repro.sparse.walk import Reduction, StageOps, tag_walk


__all__ = [
    "SparsePlan",
    "SparseWeightPipeline",
    "compile_sparse_plan",
]


# ---------------------------------------------------------------------------
# Compiled plan structures
# ---------------------------------------------------------------------------

#: Byte alignment of each array inside a plan's one buffer.
_ALIGN = 16


@dataclass
class _Chains:
    """Chain materializations ``(sign * raws[slot]) * scale``, written to
    the work rows after the ``n`` network positions: first the rounded
    ones (exponent != 0), then the pure copies (exponent 0)."""

    q_slot: np.ndarray
    q_sign: np.ndarray
    c_slot: np.ndarray
    c_sign: np.ndarray


@dataclass
class _StageOps(_Chains):
    """Vectorized op groups of one butterfly stage (disjoint positions)."""

    # ZERO-v / GENERAL-u halving copies: both outputs get q(vals[u] * 0.5).
    half_u: np.ndarray
    half_v: np.ndarray
    # ZERO-u / GENERAL-v twiddle flips: t = q((tw * vals[v]) * 0.5).
    zv_u: np.ndarray
    zv_v: np.ndarray
    zv_tw: np.ndarray
    # Full butterflies (both operands carry data): the work rows of the u
    # operand and of the twiddle product t -- a network position
    # (GENERAL) or one of this stage's chain rows (SCALED, the product
    # already taken) -- and the output positions.  The first len(f_tw)
    # have a GENERAL v, multiplied here by its twiddle.
    f_u: np.ndarray
    f_t: np.ndarray
    f_tw: np.ndarray
    f_ou: np.ndarray
    f_ov: np.ndarray
    # A stage of n/2 GENERAL x GENERAL butterflies carries only its stage
    # twiddles and runs on the dense kernel.
    dense_tw: np.ndarray


@dataclass
class _Finalize(_Chains):
    """Output assembly: SCALED chains materialize at the final scale into
    positions ``pos``; GENERAL positions already hold their values and
    ZERO positions stay 0."""

    pos: np.ndarray


def _idx(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


def _chain_arrays(n: int, uses: List[Tuple[int, float, bool]]):
    """The :class:`_Chains` arrays of ``(slot, sign, rounded)`` uses, and
    the work row each use lands in."""
    order = sorted(range(len(uses)), key=lambda i: not uses[i][2])
    rows = [0] * len(uses)
    for rank, i in enumerate(order):
        rows[i] = n + rank
    q = [uses[i] for i in order if uses[i][2]]
    c = [uses[i] for i in order if not uses[i][2]]
    arrays = dict(
        q_slot=_idx([u[0] for u in q]),
        q_sign=np.asarray([u[1] for u in q], dtype=np.float64),
        c_slot=_idx([u[0] for u in c]),
        c_sign=np.asarray([u[1] for u in c], dtype=np.float64),
    )
    return arrays, rows


def _freeze_stage(
    n: int, s: int, ops: StageOps, twiddle, slot_of
) -> _StageOps:
    """Stage ``s``'s ops of the walk as a :class:`_StageOps`; chain
    operands take a slot and land in the work rows after the network."""
    uses: List[Tuple[int, float, bool]] = []

    def use(operand):
        if not isinstance(operand, tuple):
            return operand
        src, e, sgn = operand
        uses.append((slot_of(src, e), float(sgn), e != 0))
        return ("chain", len(uses) - 1)

    full = [
        (use(a), use(t), None if isinstance(t, tuple) else twiddle(e), u, v)
        for a, t, e, u, v in ([] if ops.dense else ops.full)
    ]
    full.sort(key=lambda f: f[2] is None)
    chains, rows = _chain_arrays(n, uses)

    def row(operand) -> int:
        return rows[operand[1]] if isinstance(operand, tuple) else operand

    step = n >> s
    return _StageOps(
        **chains,
        half_u=_idx([u for u, _ in ops.halves]),
        half_v=_idx([v for _, v in ops.halves]),
        zv_u=_idx([u for u, _, _ in ops.flips]),
        zv_v=_idx([v for _, v, _ in ops.flips]),
        zv_tw=np.asarray(
            [twiddle(e) for _, _, e in ops.flips], dtype=np.complex128
        ),
        f_u=_idx([row(f[0]) for f in full]),
        f_t=_idx([row(f[1]) for f in full]),
        f_tw=np.asarray(
            [f[2] for f in full if f[2] is not None], dtype=np.complex128
        ),
        f_ou=_idx([f[3] for f in full]),
        f_ov=_idx([f[4] for f in full]),
        dense_tw=np.asarray(
            [twiddle(j * step) for j in range(1 << (s - 1))] if ops.dense
            else [],
            dtype=np.complex128,
        ),
    )


def _quantize(fmt: FxpFormat, z: np.ndarray) -> None:
    """``fmt.quantize_complex(z)``, in place on contiguous rows."""
    parts = z.view(np.float64)
    parts *= 2.0**fmt.frac_bits
    fmt.round_scaled(z)


def _halve_quantize(fmt: FxpFormat, z: np.ndarray) -> None:
    """``fmt.quantize_complex(z * 0.5)``, in place on contiguous rows."""
    np.multiply(z, 0.5, out=z)
    _quantize(fmt, z)


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``src[idx]`` into the leading rows of ``out`` (no temporary)."""
    return np.take(src, idx, axis=0, out=out[: idx.size], mode="clip")


def _materialize(
    ch: _Chains, raws: np.ndarray, out: np.ndarray, scale: float,
    fmt: FxpFormat,
) -> None:
    """Chain values at ``scale`` into the leading rows of ``out``."""
    nq, nc = ch.q_slot.size, ch.c_slot.size
    if nq:
        q = _gather(raws, ch.q_slot, out)
        np.multiply(ch.q_sign[:, None], q, out=q)
        np.multiply(q, scale, out=q)
        _quantize(fmt, q)
    if nc:
        c = _gather(raws, ch.c_slot, out[nq:])
        np.multiply(ch.c_sign[:, None], c, out=c)
        np.multiply(c, scale, out=c)


class SparsePlan(Reduction):
    """One pattern's compiled sparse fixed-point transform.

    Every compiled array is a view into one contiguous buffer, which is
    what :attr:`plan_bytes` counts and :meth:`digest_payload` exposes.

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
        self._pack()

    # -- compilation -----------------------------------------------------

    def _compile(self, engine: SparseFixedPointFft) -> None:
        n = self.n
        walk = tag_walk(n, self.valid)
        # One slot per distinct (src, exp mod n) chain product, in order of
        # first use; slot k holds raws[k] = twiddle[k] * x[src[k]].
        slots: Dict[Tuple[int, int], int] = {}

        def slot_of(src: int, e: int) -> int:
            return slots.setdefault((src, e), len(slots))

        stage_ops = [
            _freeze_stage(n, s, ops, engine._twiddle, slot_of)
            for s, ops in enumerate(walk.stages, 1)
        ]
        uses = [
            (slot_of(src, e), float(sgn), e != 0)
            for _, (src, e, sgn) in walk.finals
        ]
        chains, rows = _chain_arrays(n, uses)
        pos = np.empty(len(uses), dtype=np.int64)
        pos[np.asarray(rows, dtype=np.int64) - n] = [p for p, _ in walk.finals]

        self._stage_ops = stage_ops
        self._raw_src = _idx([src for src, _ in slots])
        self._raw_tw = np.asarray(
            [engine._twiddle(e) for _, e in slots], dtype=np.complex128
        )
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
        self.mults = walk.mults
        self.model_mults = walk.model_mults

    def _array_slots(self) -> Iterator[Tuple[str, object, str]]:
        """``(name, owner, attribute)`` of every compiled array, in order."""
        yield "valid", self, "valid"
        yield "raw_src", self, "_raw_src"
        yield "raw_tw", self, "_raw_tw"
        for s, st in enumerate(self._stage_ops):
            for f in fields(st):
                yield f"s{s}.{f.name}", st, f.name
        for f in fields(self._fin):
            yield f"fin.{f.name}", self._fin, f.name

    def _pack(self) -> None:
        """Move every compiled array into one buffer and keep views."""
        slots = list(self._array_slots())
        arrays = [getattr(owner, attr) for _, owner, attr in slots]
        sizes = [-(-a.nbytes // _ALIGN) * _ALIGN for a in arrays]
        self._buf = np.zeros(sum(sizes), dtype=np.uint8)
        offset = 0
        for (_, owner, attr), a, size in zip(slots, arrays, sizes):
            view = self._buf[offset : offset + a.nbytes].view(a.dtype)
            view[...] = a
            setattr(owner, attr, view)
            offset += size

    # -- bookkeeping -----------------------------------------------------

    @property
    def output_scale(self) -> float:
        return 2.0 ** -self.stages

    @property
    def dense_mults(self) -> int:
        return (self.n // 2) * self.stages

    def _iter_arrays(self) -> Iterator[Tuple[str, np.ndarray]]:
        for name, owner, attr in self._array_slots():
            yield name, getattr(owner, attr)

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
        return self._buf.nbytes

    def digest_payload(self):
        """Content digested by :func:`repro.runtime.plan_cache.value_digest`:
        the header and the one buffer every compiled array lives in."""
        return [self._header(), self._buf]

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

        Each row equals ``SparseFixedPointFft(config, sign).run(row,
        valid=pattern).values`` bit for bit whenever every twiddle product
        is exact in float64, and to within the last bits otherwise (see
        the module docstring for the condition).  The stack runs
        transposed, as ``(n, B)`` work rows, so every gather and scatter
        moves whole batch rows;
        stages of n/2 GENERAL x GENERAL butterflies run on
        :func:`repro.fftcore.reference.butterfly_stage`.
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
        # Nonzero float parts (a compare pass is faster than a complex one).
        parts = np.ascontiguousarray(x).view(np.float64)
        nonzero = np.count_nonzero(parts != 0)
        if nonzero and nonzero != np.count_nonzero(
            parts.reshape(-1, self.n, 2)[:, self.valid] != 0
        ):
            bad = np.setdiff1d(
                np.flatnonzero(np.any(x != 0, axis=0)), self.valid
            )
            raise ValueError(
                "input has non-zeros outside the valid set: "
                f"{bad[:5].tolist()}"
            )

        n, b = self.n, x.shape[0]
        raws = x.T[self._raw_src]
        np.multiply(self._raw_tw[:, None], raws, out=raws)
        # Rows [0, n) are the network positions; the rows after them hold
        # the current stage's chain materializations.  Gathers land in a
        # separate scratch array: np.take copies when its output may
        # overlap its source.
        work = np.empty((n + self._chain_rows, b), dtype=np.complex128)
        vals, chains = work[:n], work[n:]
        vals.fill(0)
        scratch = np.empty((self._scratch_rows, b), dtype=np.complex128)

        for s, (st, fmt) in enumerate(zip(self._stage_ops, self._formats), 1):
            if st.dense_tw.size:
                # Twiddle first, as in the op groups.  Every GENERAL value
                # comes out of a quantization, so it sits on the grid and
                # the halving folds into the scale (see FixedPointFft.batch).
                butterfly_stage(
                    vals, scratch[: n // 2], s, st.dense_tw, twiddle_first=True
                )
                np.multiply(vals, 2.0 ** (fmt.frac_bits - 1), out=vals)
                fmt.round_scaled(vals)
                continue
            _materialize(st, raws, chains, 2.0 ** -(s - 1), fmt)
            if st.half_u.size:
                h = _gather(vals, st.half_u, scratch)
                _halve_quantize(fmt, h)
                vals[st.half_u] = h
                vals[st.half_v] = h
            if st.zv_u.size:
                t = _gather(vals, st.zv_v, scratch)
                np.multiply(st.zv_tw[:, None], t, out=t)
                _halve_quantize(fmt, t)
                vals[st.zv_u] = t
                vals[st.zv_v] = np.negative(t, out=t)
            k = st.f_ou.size
            if k:
                u = _gather(work, st.f_u, scratch)
                t = _gather(work, st.f_t, scratch[k:])
                g = t[: st.f_tw.size]
                np.multiply(st.f_tw[:, None], g, out=g)
                total = np.add(u, t, out=scratch[2 * k : 3 * k])
                np.subtract(u, t, out=u)
                _halve_quantize(fmt, total)
                _halve_quantize(fmt, u)
                vals[st.f_ou] = total
                vals[st.f_ov] = u

        fin = self._fin
        _materialize(fin, raws, scratch, self.output_scale, self._formats[-1])
        vals[fin.pos] = scratch[: fin.pos.size]
        out = np.ascontiguousarray(vals.T)
        return out[0] if single else out

    def __repr__(self) -> str:
        return (
            f"SparsePlan(n={self.n}, valid={self.valid.size}, "
            f"mults={self.mults}/{self.dense_mults})"
        )


def compile_sparse_plan(
    config: ApproxFftConfig, pattern: Sequence[int], sign: int = 1
) -> SparsePlan:
    """Compile the tag walk of ``pattern`` once (see :class:`SparsePlan`)."""
    return SparsePlan(config, pattern, sign=sign)


class SparseWeightPipeline:
    """Batched drop-in for :class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic`.

    Folds a ``(B, n)`` stack of integer weight polynomials, normalizes each
    row by its power-of-two scale, and runs one compiled
    :class:`SparsePlan` over the whole stack.  Row ``i`` of the result
    equals ``SparseApproxNegacyclic(n, config, pattern).weight_forward(w[i])``
    under the plan's condition (every twiddle product exact in float64;
    see :mod:`repro.sparse.plan`), and to within the last bits otherwise.

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
    def model_mults(self) -> int:
        return self.plan.model_mults

    @property
    def plan_bytes(self) -> int:
        return self.base.plan_bytes + self.plan.plan_bytes

    def weight_forward_batch(self, weights):
        """Sparse approximate spectra of a ``(B, n)`` integer weight stack.

        Returns an ``ApproxSpectrum`` whose ``values`` are ``(B, n/2)`` and
        whose ``scale`` is the ``(B,)`` per-row normalization vector.
        """
        weights = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        values, scale = normalized_transform(
            self.plan.execute, self.base.fold_batch(weights),
            self.plan.output_scale,
        )
        return ApproxSpectrum(values=values, scale=scale)

    def weight_forward(self, weight):
        """Single-weight convenience wrapper (a batch of one)."""
        spec = self.weight_forward_batch(np.asarray(weight)[None, :])
        return ApproxSpectrum(
            values=spec.values[0], scale=float(spec.scale[0])
        )
