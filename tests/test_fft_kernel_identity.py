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

from repro.fftcore.approx_pipeline import ApproxNegacyclic
from repro.fftcore.fixed_point import ApproxFftConfig, FixedPointFft, FxpFormat
from repro.fftcore.negacyclic import NegacyclicFft, round_to_integers
from repro.fftcore.reference import fft_dit, fft_dit_batch, stage_twiddles
from repro.ntt.modmath import bit_reverse_indices, find_ntt_primes, mulmod
from repro.ntt.ntt import NegacyclicNtt


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


# ---------------------------------------------------------------------------
# Per-call transform methods: batches of one
# ---------------------------------------------------------------------------
#
# ``NegacyclicFft``, ``ApproxNegacyclic`` and ``NegacyclicNtt`` once kept a
# per-call body beside each batched method; the per-call methods are now a
# shape check plus one ``*_batch`` call.  The removed bodies, frozen below,
# are the oracles: they run the transforms their own way (one row, scalar
# scales, the per-call kernels), so a wrapper that drifted from them shows.


def _frozen_next_pow2(x):
    if x <= 0:
        return 1.0
    return 2.0 ** int(np.ceil(np.log2(x)))


def _frozen_part_scale(z):
    part_max = max(
        float(np.max(np.abs(z.real))), float(np.max(np.abs(z.imag))), 1.0
    )
    return _frozen_next_pow2(part_max * (1.0 + 2.0 ** -20))


def frozen_fold(fft, a):
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (fft.n,):
        raise ValueError(f"expected shape ({fft.n},), got {a.shape}")
    return (a[: fft.half] + 1j * a[fft.half:]) * fft._fold_twist


def frozen_forward(fft, a):
    return fft_dit(frozen_fold(fft, a), sign=+1)


def _frozen_unfold(n, c):
    out = np.empty(n, dtype=np.float64)
    out[: n // 2] = c.real
    out[n // 2:] = c.imag
    return out


def frozen_inverse(fft, spectrum):
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.shape != (fft.half,):
        raise ValueError(f"expected shape ({fft.half},), got {spectrum.shape}")
    c = fft_dit(spectrum, sign=-1) / fft.half * fft._unfold_twist
    return _frozen_unfold(fft.n, c)


def frozen_weight_forward(pipe, weight):
    folded = frozen_fold(pipe.base, weight)
    if pipe._weight_fft is None:
        return fft_dit(folded, sign=+1), 1.0
    scale = _frozen_part_scale(folded)
    spectrum = pipe._weight_fft(folded / scale)
    return spectrum / pipe._weight_fft.output_scale * scale, scale


def frozen_activation_forward(pipe, activation):
    activation = np.asarray(activation, dtype=np.float64)
    if pipe._activation_fft is None:
        return frozen_forward(pipe.base, activation)
    folded = frozen_fold(pipe.base, activation)
    scale = _frozen_part_scale(folded)
    spectrum = pipe._activation_fft(folded / scale)
    return spectrum / pipe._activation_fft.output_scale * scale


def frozen_multiply_spectra(pipe, weight_values, act_spec):
    product = weight_values * np.asarray(act_spec)
    if pipe._inverse_fft is None:
        return frozen_inverse(pipe.base, product)
    scale = _frozen_part_scale(product)
    core = pipe._inverse_fft(product / scale)
    core = core / pipe._inverse_fft.output_scale * scale
    return _frozen_unfold(pipe.n, core / (pipe.n // 2) * pipe.base._unfold_twist)


def frozen_sparse_weight_forward(pipe, weight):
    """``SparseApproxNegacyclic.weight_forward``: one sparse walk."""
    folded = frozen_fold(pipe.base, weight)
    scale = _frozen_part_scale(folded)
    result = pipe.engine.run(folded / scale, valid=pipe._pattern)
    return result.values / pipe.engine.output_scale * scale, scale, result.mults


def frozen_ntt_forward(ntt, a):
    a = np.asarray(a, dtype=np.uint64)
    if a.shape != (ntt.n,):
        raise ValueError(f"expected shape ({ntt.n},), got {a.shape}")
    return ntt._cyclic(mulmod(a, ntt._psi_pows, ntt.q), ntt._omega_pows)


def frozen_ntt_inverse(ntt, a_hat):
    a_hat = np.asarray(a_hat, dtype=np.uint64)
    if a_hat.shape != (ntt.n,):
        raise ValueError(f"expected shape ({ntt.n},), got {a_hat.shape}")
    x = ntt._cyclic(a_hat, ntt._omega_inv_pows)
    x = mulmod(x, ntt._n_inv, ntt.q)
    return mulmod(x, ntt._psi_inv_pows, ntt.q)


SIZES = [16, 64, 256, 4096]

#: Weight-path configurations: (stage widths, twiddle_k, input_width);
#: None is the float64 "FFT (FP)" arm.
WEIGHT_CONFIGS = [None, (27, 5, None), (52, 5, None), (20, 5, 18)]


def _config(n, spec):
    if spec is None:
        return None
    widths, k, input_width = spec
    return ApproxFftConfig(
        n=n // 2, stage_widths=widths, twiddle_k=k, input_width=input_width
    )


def _weights(rng, n):
    """Sparse small weights, a dense wide row and an all-zero row."""
    sparse = rng.integers(-8, 9, size=n) * (rng.random(n) < 0.1)
    wide = rng.integers(-(1 << 12), 1 << 12, size=n)
    return [sparse, wide, np.zeros(n, dtype=np.int64)]


def _activations(rng, n):
    """Centered activations/ciphertext words up to 2^40, and a zero row."""
    return [
        rng.integers(-(1 << 40), 1 << 40, size=n),
        rng.integers(-(1 << 8), 1 << 8, size=n),
        np.zeros(n, dtype=np.int64),
    ]


def _same_spectrum(spec, frozen_values, frozen_scale):
    assert _same_complex128(spec.values, frozen_values)
    assert type(spec.scale) is float
    assert spec.scale == frozen_scale


class TestNegacyclicFftPerCall:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_frozen_bodies(self, n):
        fft = NegacyclicFft(n)
        rng = np.random.default_rng(n)
        for a in _weights(rng, n) + _activations(rng, n):
            assert _same_complex128(fft.fold(a), frozen_fold(fft, a))
            spec = fft.forward(a)
            assert _same_complex128(spec, frozen_forward(fft, a))
            assert _same_complex128(fft.inverse(spec), frozen_inverse(fft, spec))
            assert _same_complex128(
                fft.forward(a), fft.forward_batch(np.stack([a, a]))[1]
            )

    def test_wrong_shapes_raise(self):
        fft = NegacyclicFft(16)
        for method, good in ((fft.fold, 16), (fft.forward, 16), (fft.inverse, 8)):
            for shape in ((good + 1,), (1, good), (2, good), ()):
                with pytest.raises(ValueError, match="expected shape"):
                    method(np.zeros(shape))


class TestApproxNegacyclicPerCall:
    @pytest.mark.parametrize("spec", WEIGHT_CONFIGS)
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_frozen_bodies(self, n, spec):
        pipe = ApproxNegacyclic(n, _config(n, spec))
        rng = np.random.default_rng(n + len(str(spec)))
        acts = _activations(rng, n)
        for w in _weights(rng, n):
            w_spec = pipe.weight_forward(w)
            _same_spectrum(w_spec, *frozen_weight_forward(pipe, w))
            for a in acts:
                a_spec = pipe.activation_forward(a)
                assert _same_complex128(a_spec, frozen_activation_forward(pipe, a))
                assert _same_complex128(
                    pipe.multiply_spectra(w_spec, a_spec),
                    frozen_multiply_spectra(pipe, w_spec.values, a_spec),
                )

    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("path", ["activation", "inverse", "both"])
    def test_fixed_point_ablation_paths(self, n, path):
        """The activation/inverse ablation arms, where the per-call bodies
        normalized and quantized on their own."""
        cfgs = {
            "activation_config": ApproxFftConfig(
                n=n // 2, stage_widths=40, twiddle_k=5, input_width=30
            ),
            "inverse_config": ApproxFftConfig(
                n=n // 2, stage_widths=[50] * (n.bit_length() - 2), twiddle_k=0
            ),
        }
        if path != "both":
            cfgs = {k: v for k, v in cfgs.items() if k.startswith(path)}
        pipe = ApproxNegacyclic(n, _config(n, (27, 5, None)), **cfgs)
        rng = np.random.default_rng(n + len(path))
        for w in _weights(rng, n):
            w_spec = pipe.weight_forward(w)
            for a in _activations(rng, n):
                a_spec = pipe.activation_forward(a)
                assert _same_complex128(a_spec, frozen_activation_forward(pipe, a))
                assert _same_complex128(
                    pipe.multiply_spectra(w_spec, a_spec),
                    frozen_multiply_spectra(pipe, w_spec.values, a_spec),
                )

    def test_wrong_shapes_raise(self):
        pipe = ApproxNegacyclic(16, _config(16, (27, 5, None)))
        w_spec = pipe.weight_forward(np.arange(16))
        a_spec = pipe.activation_forward(np.arange(16))
        for shape in ((17,), (1, 16), (2, 16), ()):
            with pytest.raises(ValueError, match="expected shape"):
                pipe.weight_forward(np.ones(shape))
            with pytest.raises(ValueError, match="expected shape"):
                pipe.activation_forward(np.ones(shape))
        for act in (np.stack([a_spec, a_spec]), a_spec[None, :]):
            with pytest.raises(ValueError, match="expected shape"):
                pipe.multiply_spectra(w_spec, act)
        with pytest.raises(ValueError):
            pipe.multiply_spectra(w_spec, np.ones(9, dtype=complex))


class TestSparseApproxNegacyclicPerCall:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_weight_walk_matches_frozen_body(self, n):
        """The weight transform stays the per-row sparse walk (never the
        dense core); activation, inverse and ``multiply`` are the float64
        arm of ``ApproxNegacyclic``."""
        from repro.sparse.sparse_fxp import SparseApproxNegacyclic

        cfg = _config(n, (27, 5, None))
        dense = ApproxNegacyclic(n, cfg)
        fp = ApproxNegacyclic(n)
        rng = np.random.default_rng(n + 3)
        pattern = np.sort(rng.choice(n, size=n // 4, replace=False))
        differs_from_dense = False
        for valid in (pattern, None):
            pipe = SparseApproxNegacyclic(n, cfg, valid_pattern=valid)
            for w in _weights(rng, n):
                w[np.setdiff1d(np.arange(n), pattern)] = 0
                got = pipe.weight_forward(w)
                values, scale, mults = frozen_sparse_weight_forward(pipe, w)
                _same_spectrum(got, values, scale)
                assert pipe.last_mults == mults
                differs_from_dense |= not _same_complex128(
                    values, dense.weight_forward(w).values
                )
                a = _activations(rng, n)[0]
                product = frozen_multiply_spectra(
                    fp, values, frozen_activation_forward(fp, a)
                )
                assert np.array_equal(
                    pipe.multiply(w, a, modulus=1 << 20),
                    round_to_integers(product, 1 << 20),
                )
        assert differs_from_dense


class TestNegacyclicNttPerCall:
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_frozen_bodies(self, n):
        (q,) = find_ntt_primes(30, n)
        ntt = NegacyclicNtt(n, q)
        rng = np.random.default_rng(n)
        for a in (
            rng.integers(0, q, size=n, dtype=np.uint64),
            np.zeros(n, dtype=np.uint64),
            np.full(n, q - 1, dtype=np.uint64),
        ):
            spec = ntt.forward(a)
            assert _same_complex128(spec, frozen_ntt_forward(ntt, a))
            back = ntt.inverse(spec)
            assert _same_complex128(back, frozen_ntt_inverse(ntt, spec))
            assert _same_complex128(back, a)
            assert _same_complex128(spec, ntt.forward_batch(a[None, :])[0])

    def test_wrong_shapes_raise(self):
        (q,) = find_ntt_primes(30, 16)
        ntt = NegacyclicNtt(16, q)
        for method in (ntt.forward, ntt.inverse):
            for shape in ((17,), (1, 16), (2, 16), ()):
                with pytest.raises(ValueError, match="expected shape"):
                    method(np.zeros(shape, dtype=np.uint64))
