"""Bit-identity of the batch-innermost sparse plan replay.

``SparsePlan.execute`` runs a ``(B, n)`` stack as an ``(n, B)`` array,
so every gather and scatter moves whole batch rows, and a stage whose
n/2 butterflies are all GENERAL x GENERAL runs on the dense butterfly
kernel.  It must return exactly what the row-major replay it replaced
returned; a frozen copy of that compiler and replay lives here as the
oracle.  Results are compared by ``tobytes()``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core.config import FlashConfig
from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    decompose_strided,
    iter_row_bands,
)
from repro.fftcore.fixed_point import ApproxFftConfig, FxpFormat
from repro.he.params import cheetah_preset
from repro.nn.resnet import resnet18_conv_layers
from repro.runtime.plan_cache import approx_config_key
from repro.sparse.patterns import conv_weight_pattern
from repro.sparse.plan import SparsePlan
from repro.sparse.sparse_fxp import SparseFixedPointFft
from repro.sparse.walk import ZERO, butterfly_tags, scaled


# ---------------------------------------------------------------------------
# The row-major compiler and replay, frozen
# ---------------------------------------------------------------------------


@dataclass
class _RowMajorStage:
    half_u: np.ndarray
    half_v: np.ndarray
    zv_u: np.ndarray
    zv_v: np.ndarray
    zv_tw: np.ndarray
    mat_slot: np.ndarray
    mat_sign: np.ndarray
    mat_q: np.ndarray
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
class _RowMajorFinalize:
    gen_pos: np.ndarray
    sc_pos: np.ndarray
    sc_slot: np.ndarray
    sc_sign: np.ndarray
    sc_q: np.ndarray


class _RowMajorBuilder:
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

    def freeze(self) -> _RowMajorStage:
        def idx(a):
            return np.asarray(a, dtype=np.int64)

        return _RowMajorStage(
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


class RowMajorPlan:
    """The row-major ``SparsePlan`` compile and ``execute``, frozen."""

    def __init__(
        self, config: ApproxFftConfig, pattern: Sequence[int], sign: int = 1
    ):
        engine = SparseFixedPointFft(config, sign=sign)
        self.config = config
        self.n = config.n
        self.stages = engine.stages
        self._formats = engine._formats
        self.valid = np.array(
            sorted({int(v) % self.n for v in pattern}), dtype=np.int64
        )
        self._compile(engine)

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
        stage_ops: List[_RowMajorStage] = []

        for s in range(1, self.stages + 1):
            m = 1 << s
            half = m >> 1
            step = n // m
            st = _RowMajorBuilder()
            k = 0
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
        self._fin = _RowMajorFinalize(
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

    def execute(self, x) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Patterns, plans and inputs
# ---------------------------------------------------------------------------

N = 4096
#: The paper's weight datapath (27-bit stages, k = 5) at ring degree N.
PAPER = FlashConfig(params=cheetah_preset(n=N)).weight_fft_config()
BATCHES = [1, 2, 7, 32, 33, 35]


@functools.lru_cache(maxsize=None)
def layer_pattern(name: str) -> Tuple[int, ...]:
    """Folded weight pattern of a ResNet-18 layer's first band at N."""
    shape = {layer.name: layer.shape for layer in resnet18_conv_layers()}[name]
    phase, _, _ = decompose_strided(shape)[0]
    _, band = iter_row_bands(phase, N)[0]
    return tuple(conv_weight_pattern(Conv2dEncoder(band, N)).tolist())


_PLANS: Dict[tuple, Tuple[SparsePlan, RowMajorPlan]] = {}


def plans(
    config: ApproxFftConfig, pattern: Tuple[int, ...]
) -> Tuple[SparsePlan, RowMajorPlan]:
    """The new and the frozen plan of ``pattern``, compiled once each."""
    key = (approx_config_key(config), pattern)
    if key not in _PLANS:
        _PLANS[key] = (
            SparsePlan(config, pattern, sign=+1),
            RowMajorPlan(config, pattern, sign=+1),
        )
    return _PLANS[key]


def _awkward(rng, shape, valid) -> np.ndarray:
    """Inputs in ``[-0.5, 0.5)`` on the ``valid`` columns, with exact and
    signed zeros, tiny parts and subnormals mixed in; signed zeros only
    elsewhere."""
    parts = rng.uniform(-0.5, 0.5, size=shape + (2,))
    pick = rng.random(parts.shape)
    parts[pick < 0.1] = 0.0
    parts[(pick >= 0.1) & (pick < 0.2)] = -0.0
    tiny = (pick >= 0.2) & (pick < 0.25)
    parts[tiny] *= 2.0**-40
    sub = (pick >= 0.25) & (pick < 0.28)
    parts[sub] = rng.choice([5e-324, -5e-324, 2.5e-310, -1.1e-308], sub.sum())
    invalid = np.ones(shape[-1], dtype=bool)
    invalid[list(valid)] = False
    parts[..., invalid, :] = rng.choice([0.0, -0.0], (invalid.sum(), 2))
    return parts[..., 0] + 1j * parts[..., 1]


def dense_stages(plan: SparsePlan) -> List[int]:
    """1-based stages that run on the dense butterfly kernel."""
    return [s for s, st in enumerate(plan._stage_ops, 1) if st.dense_tw.size]


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_identical(plan, frozen, rng, batches=BATCHES):
    assert plan.mults == frozen.mults
    for b in batches:
        x = _awkward(rng, (b, plan.n), plan.valid)
        assert _same(plan.execute(x), frozen.execute(x)), b
    row = _awkward(rng, (plan.n,), plan.valid)
    got = plan.execute(row)
    assert got.shape == (plan.n,)
    assert _same(got, frozen.execute(row))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

LAYERS = ["layer2.1.conv1", "layer3.0.downsample"]


class TestPaperLayers:
    @pytest.mark.parametrize("input_width", [None, 20])
    @pytest.mark.parametrize("layer", LAYERS)
    def test_matches_rowmajor(self, layer, input_width):
        config = replace(PAPER, input_width=input_width)
        plan, frozen = plans(config, layer_pattern(layer))
        _assert_identical(plan, frozen, np.random.default_rng(len(layer)))

    def test_conv1_tail_runs_dense(self):
        plan, _ = plans(PAPER, layer_pattern("layer2.1.conv1"))
        assert dense_stages(plan) == [9, 10, 11]
        for s in dense_stages(plan):
            st = plan._stage_ops[s - 1]
            assert st.dense_tw.size == 1 << (s - 1)
            assert st.f_ou.size == st.half_u.size == st.zv_u.size == 0

    def test_halving_copies_never_run_dense(self):
        """Downsample stages 10-11 are copies of GENERAL values against
        ZERO partners: all n/2 pairs at stage 11, yet no dense kernel."""
        plan, _ = plans(PAPER, layer_pattern("layer3.0.downsample"))
        assert dense_stages(plan) == []
        for s in (10, 11):
            st = plan._stage_ops[s - 1]
            assert st.half_u.size and st.f_ou.size == 0
        assert plan._stage_ops[10].half_u.size == plan.n // 2

    def test_full_pattern_runs_dense_after_stage_one(self):
        pattern = tuple(range(PAPER.n))
        plan, frozen = plans(PAPER, pattern)
        assert dense_stages(plan) == list(range(2, plan.stages + 1))
        _assert_identical(plan, frozen, np.random.default_rng(4), [1, 33])


SMALL = [
    # (core n, stage widths, twiddle_k, input_width)
    (64, 27, 5, None),
    (64, 12, 0, 10),
    (128, 40, 18, None),
    (128, [30, 28, 26, 24, 22, 20, 18], 5, 16),
]


def _small_patterns(n: int) -> Dict[str, Tuple[int, ...]]:
    rng = np.random.default_rng(n)
    return {
        "empty": (),
        "single-tap": (n // 2 + 3,),
        "full": tuple(range(n)),
        "random": tuple(sorted(rng.choice(n, n // 5, replace=False))),
        "dense-half": tuple(range(0, n, 2)),
    }


class TestPatterns:
    @pytest.mark.parametrize(
        "kind", ["empty", "single-tap", "full", "random", "dense-half"]
    )
    @pytest.mark.parametrize("n,widths,k,input_width", SMALL)
    def test_matches_rowmajor_and_per_call(
        self, n, widths, k, input_width, kind
    ):
        config = ApproxFftConfig(
            n=n, stage_widths=widths, twiddle_k=k, input_width=input_width
        )
        pattern = _small_patterns(n)[kind]
        plan, frozen = plans(config, pattern)
        rng = np.random.default_rng(n + k)
        _assert_identical(plan, frozen, rng, [0] + BATCHES)
        engine = SparseFixedPointFft(config, sign=+1)
        x = _awkward(rng, (2, n), plan.valid)
        for row, got in zip(x, plan.execute(x)):
            ref = engine.run(row, valid=plan.valid)
            assert _same(got, ref.values)
            assert ref.mults == plan.mults

    @pytest.mark.parametrize("width", range(2, 53, 5))
    def test_dense_stages_on_mostly_zero_inputs(self, width):
        """Mostly-zero inputs put signed zeros into the dense stages of a
        full pattern (every stage after the first)."""
        config = ApproxFftConfig(n=64, stage_widths=width, twiddle_k=5)
        plan, frozen = plans(config, tuple(range(64)))
        rng = np.random.default_rng(width)
        x = _awkward(rng, (9, 64), plan.valid)
        x[rng.random(x.shape) < 0.7] = 0
        x[rng.random(x.shape) < 0.2] = complex(-0.0, -0.0)
        assert _same(plan.execute(x), frozen.execute(x))

    def test_stray_input_raises_the_same_error(self):
        config = ApproxFftConfig(n=64, stage_widths=27, twiddle_k=5)
        plan, frozen = plans(config, (0, 3, 5))
        x = np.zeros((3, 64), dtype=np.complex128)
        x[1, [7, 40]] = 0.25j
        x[2, 9] = complex(-0.0, 1e-300)
        errors = []
        for p in (plan, frozen):
            with pytest.raises(ValueError) as err:
                p.execute(x)
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert "[7, 9, 40]" in errors[0]
