"""Bit-identity of the batch-innermost FFT kernels.

``fft_dit_batch`` and ``FixedPointFft.batch`` run each butterfly stage
over the whole batch on an ``(n/m, 2, m/2, B)`` view.  They must return
exactly what the row-major stage loop they replaced returned; frozen
copies of that loop live here as the oracles.

complex128 results are compared by ``tobytes()``.  clongdouble values sit
in 16-byte slots whose padding bytes are arbitrary, so they are compared
by value plus the sign bits of both parts.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.fftcore.fixed_point import ApproxFftConfig, FixedPointFft, FxpFormat
from repro.fftcore.reference import fft_dit, fft_dit_batch, stage_twiddles
from repro.ntt.modmath import bit_reverse_indices


def rowmajor_fft_dit_batch(x, sign=-1):
    """The row-major stage loop ``fft_dit_batch`` ran before, frozen."""
    x = np.asarray(x)
    dtype = (
        np.clongdouble
        if x.dtype in (np.longdouble, np.clongdouble)
        else np.complex128
    )
    x = x.astype(dtype, copy=False)
    n = x.shape[-1]
    lead = x.shape[:-1]
    out = x[..., bit_reverse_indices(n)].reshape(-1)
    for s in range(1, n.bit_length()):
        m = 1 << s
        half = m >> 1
        w = stage_twiddles(n, s, sign, dtype)
        out = out.reshape(-1, m)
        hi = out[:, half:] * w
        np.subtract(out[:, :half], hi, out=out[:, half:])
        out[:, :half] += hi
        out = out.reshape(-1)
    return out.reshape(lead + (n,))


def _quantize_two_parts(fmt: FxpFormat, x):
    return fmt.quantize(x.real) + 1j * fmt.quantize(x.imag)


def rowmajor_fixed_point_batch(fxp: FixedPointFft, x):
    """The row-major ``FixedPointFft.batch`` loop, frozen, with the
    two-part quantization ``quantize_complex`` is pinned to."""
    cfg = fxp.config
    x = np.asarray(x, dtype=np.complex128)
    lead = x.shape[:-1]
    if cfg.input_width is not None:
        x = _quantize_two_parts(FxpFormat(cfg.input_width), x)
    out = x[..., bit_reverse_indices(cfg.n)].reshape(-1)
    for s in range(1, cfg.stages + 1):
        m = 1 << s
        half = m >> 1
        w = fxp._stage_tw[s - 1]
        out = out.reshape(-1, m)
        lo = out[:, :half].copy()
        hi = out[:, half:] * w
        out[:, :half] = (lo + hi) * 0.5
        out[:, half:] = (lo - hi) * 0.5
        fmt = FxpFormat(cfg.stage_widths[s - 1])
        out = _quantize_two_parts(fmt, out.reshape(-1))
    return out.reshape(lead + (cfg.n,))


def _same_complex128(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_clongdouble(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def _awkward(rng, shape, scale=1.0):
    """Values with exact and signed zeros, tiny parts and subnormals mixed
    into a uniform draw in ``[-scale, scale)``."""
    parts = rng.uniform(-scale, scale, size=shape + (2,))
    pick = rng.random(parts.shape)
    parts[pick < 0.2] = 0.0
    parts[(pick >= 0.2) & (pick < 0.3)] = -0.0
    tiny = (pick >= 0.3) & (pick < 0.35)
    parts[tiny] *= 2.0**-40
    sub = (pick >= 0.35) & (pick < 0.38)
    parts[sub] = rng.choice([5e-324, -5e-324, 2.5e-310, -1.1e-308], sub.sum())
    return parts[..., 0] + 1j * parts[..., 1]


BATCHES = [0, 1, 2, 7, 32, 33]


class TestFftDitBatch:
    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_matches_rowmajor_loop_and_per_row(self, batch, sign):
        rng = np.random.default_rng(batch)
        x = _awkward(rng, (batch, 256), scale=1e3)
        got = fft_dit_batch(x, sign)
        assert _same_complex128(got, rowmajor_fft_dit_batch(x, sign))
        for row, out in zip(x, got):
            assert _same_complex128(out, fft_dit(row, sign))

    def test_integer_rows_at_paper_size(self):
        rng = np.random.default_rng(1)
        x = rng.integers(-(1 << 20), 1 << 20, size=(33, 2048))
        for sign in (-1, 1):
            assert _same_complex128(
                fft_dit_batch(x, sign), rowmajor_fft_dit_batch(x, sign)
            )

    @pytest.mark.parametrize("lead", [(), (3, 5), (2, 1, 4), (0, 3)])
    def test_lead_shapes(self, lead):
        rng = np.random.default_rng(len(lead))
        x = _awkward(rng, lead + (64,))
        got = fft_dit_batch(x, +1)
        assert got.shape == x.shape
        assert got.flags.c_contiguous
        assert _same_complex128(got, rowmajor_fft_dit_batch(x, +1))

    @pytest.mark.parametrize("batch", [1, 7, 33])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_long_double(self, batch, sign):
        rng = np.random.default_rng(batch + 100)
        x = _awkward(rng, (batch, 128), scale=1e6).astype(np.clongdouble)
        got = fft_dit_batch(x, sign)
        assert got.dtype == np.clongdouble
        assert _same_clongdouble(got, rowmajor_fft_dit_batch(x, sign))

    def test_signed_zero_rows(self):
        rows = np.array([
            [complex(-0.0, -0.0)] * 16,
            [complex(0.0, -0.0)] * 16,
            [complex(-0.0, 0.0), complex(1.0, -0.0)] * 8,
        ])
        for sign in (-1, 1):
            assert _same_complex128(
                fft_dit_batch(rows, sign), rowmajor_fft_dit_batch(rows, sign)
            )

    def test_stage_twiddles_are_cached_read_only(self):
        for dtype in (np.complex128, np.clongdouble):
            w = stage_twiddles(2048, 6, +1, dtype)
            assert w is stage_twiddles(2048, 6, +1, dtype)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0

    def test_threads_share_a_cold_twiddle_cache(self):
        """Worker threads fill and read one cache; racing first calls may
        build a table twice, never a wrong one."""
        x = _awkward(np.random.default_rng(9), (5, 512))
        expected = rowmajor_fft_dit_batch(x, +1)
        stage_twiddles.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                outs = list(pool.map(lambda _: fft_dit_batch(x, +1), range(24)))
        finally:
            sys.setswitchinterval(interval)
        assert all(_same_complex128(out, expected) for out in outs)


CONFIGS = [
    # (stage width(s), twiddle_k, input_width)
    (2, 0, None),
    (5, 5, None),
    (12, 0, 10),
    (27, 5, None),
    (27, 5, 20),
    (40, 0, None),
    (52, 5, 52),
    (52, 0, None),
    ([30, 28, 26, 24, 22, 20], 5, 16),
]


class TestFixedPointBatch:
    @pytest.mark.parametrize("widths,k,input_width", CONFIGS)
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_matches_rowmajor_loop(self, widths, k, input_width, sign):
        cfg = ApproxFftConfig(
            n=64, stage_widths=widths, twiddle_k=k, input_width=input_width
        )
        fxp = FixedPointFft(cfg, sign=sign)
        rng = np.random.default_rng(k + sign + 7)
        for batch in BATCHES:
            x = _awkward(rng, (batch, 64))
            got = fxp.batch(x)
            assert _same_complex128(got, rowmajor_fixed_point_batch(fxp, x))
        if batch:
            assert _same_complex128(fxp(x[0]), got[0])

    @pytest.mark.parametrize("width", range(2, 53, 5))
    def test_every_width_on_sparse_inputs(self, width):
        """Mostly-zero inputs, as folded sparse weights are, put signed
        zeros into every stage."""
        fxp = FixedPointFft(
            ApproxFftConfig(n=256, stage_widths=width, twiddle_k=5), sign=+1
        )
        rng = np.random.default_rng(width)
        x = _awkward(rng, (9, 256))
        x[rng.random(x.shape) < 0.7] = 0
        assert _same_complex128(fxp.batch(x), rowmajor_fixed_point_batch(fxp, x))

    def test_paper_datapath_at_paper_size(self):
        cfg = ApproxFftConfig(n=2048, stage_widths=27, twiddle_k=5)
        for sign in (-1, 1):
            fxp = FixedPointFft(cfg, sign=sign)
            x = _awkward(np.random.default_rng(sign + 2), (33, 2048))
            assert _same_complex128(
                fxp.batch(x), rowmajor_fixed_point_batch(fxp, x)
            )

    def test_lead_shapes(self):
        fxp = FixedPointFft(ApproxFftConfig(n=32, stage_widths=20, twiddle_k=5))
        x = _awkward(np.random.default_rng(3), (2, 3, 32))
        got = fxp.batch(x)
        assert got.shape == x.shape and got.flags.c_contiguous
        assert _same_complex128(got, rowmajor_fixed_point_batch(fxp, x))
