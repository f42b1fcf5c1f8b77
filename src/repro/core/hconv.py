"""Homomorphic convolution pipelines (Figure 4): NTT-exact vs approximate FFT.

Clear-domain entry points that run the full coefficient-encoding path with
a chosen polynomial-multiplication engine -- the quickest way to compare
the three computation styles on a real convolution without paying for
encryption (the encrypted path lives in :mod:`repro.protocol`).

These per-call pipelines are the reference for the batched runtime
(:class:`repro.runtime.engine.BatchedHConvEngine`): the runtime and
sparse conformance tiers and ``bench-runtime``'s ``bit_identical`` gate
compare the engine against them.  They stay independent of the engine in
everything above the kernels -- encoding and decoding per row band
through :func:`repro.encoding.plain_eval.conv2d_via_polynomials`,
rounding each tile product on its own, accumulating the decoded bands
in int64 -- rather than being batch-of-one calls into it.  The
transform kernels are shared: a per-call method such as
``ApproxNegacyclic.weight_forward`` is a batch of one of its ``*_batch``
twin, and ``tests/test_fft_kernel_identity.py`` guards that shared code
with frozen copies of the per-call bodies it replaced.  The sparse
weight transform shares only the tag walk (:mod:`repro.sparse.walk`)
with the compiled sparse plans: its per-row scalar evaluation
(:meth:`repro.sparse.sparse_fxp.SparseFixedPointFft.run`) stays a
separate oracle for their vectorized replay.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.encoding.conv_encoding import ConvShape
from repro.encoding.plain_eval import conv2d_via_polynomials
from repro.fftcore.approx_pipeline import ApproxNegacyclic
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.ntt import find_ntt_primes, get_ntt
from repro.ntt.modmath import centered, from_centered


def ntt_modulus(n: int, value_bound: int) -> int:
    """An NTT-friendly prime for degree ``n`` wide enough that products
    with ``|coefficient| <= value_bound`` do not wrap around.

    The prime has 20..39 bits; a ``2 * value_bound + 1`` wider than 38
    bits raises :class:`ValueError`.
    """
    bits = max(20, min(39, (2 * value_bound + 1).bit_length() + 1))
    if (2 * value_bound + 1) >> 38:
        raise ValueError("results exceed the single-prime NTT range")
    (q,) = find_ntt_primes(bits, n)
    return q


def channel_value_bound(w: np.ndarray, x_max: int) -> int:
    """A bound on every coefficient of one output channel's products,
    summed over its input-channel tiles: ``max_m sum|w[m]| * x_max`` for
    an ``M x C x kh x kw`` kernel ``w`` and inputs ``|x| <= x_max`` (an
    ``ntt_modulus`` argument)."""
    per_channel = np.abs(w).reshape(len(w), -1).sum(axis=1)
    return int(per_channel.max(initial=0)) * x_max


def ntt_polymul_factory(n: int, value_bound: int) -> Callable:
    """Exact negacyclic multiplier via NTT over a large-enough prime.

    Args:
        n: polynomial degree.
        value_bound: bound on ``|result|`` coefficients, used to size the
            working modulus so no wrap-around occurs.
    """
    q = ntt_modulus(n, value_bound)
    ntt = get_ntt(n, q)

    def polymul(a, w):
        ua = from_centered(np.asarray(a, dtype=np.int64), q)
        uw = from_centered(np.asarray(w, dtype=np.int64), q)
        out = ntt.multiply(ua, uw)
        return centered(out, q)

    return polymul


def fft_polymul_factory(
    n: int, config: Optional[ApproxFftConfig] = None
) -> Callable:
    """Negacyclic multiplier via the (optionally approximate) folded FFT."""
    pipeline = ApproxNegacyclic(n, config)

    def polymul(a, w):
        out = pipeline.multiply(np.asarray(w), np.asarray(a))
        return np.array([int(v) for v in out], dtype=np.int64)

    return polymul


def hconv_ntt(x, w, shape: ConvShape, n: int) -> np.ndarray:
    """Convolution through coefficient encoding with exact NTT products."""
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    bound = channel_value_bound(w, max(1, int(np.abs(x).max())))
    return conv2d_via_polynomials(
        x, w, shape, n, polymul=ntt_polymul_factory(n, bound)
    )


def hconv_fft(x, w, shape: ConvShape, n: int) -> np.ndarray:
    """Convolution via the float64 folded FFT (the "FFT (FP)" arm)."""
    return conv2d_via_polynomials(
        np.asarray(x, dtype=np.int64),
        np.asarray(w, dtype=np.int64),
        shape,
        n,
        polymul=fft_polymul_factory(n),
    )


def hconv_flash(
    x, w, shape: ConvShape, n: int, config: ApproxFftConfig
) -> np.ndarray:
    """Convolution via FLASH's approximate fixed-point weight transforms."""
    return conv2d_via_polynomials(
        np.asarray(x, dtype=np.int64),
        np.asarray(w, dtype=np.int64),
        shape,
        n,
        polymul=fft_polymul_factory(n, config),
    )


def hconv_sparse(
    x, w, shape: ConvShape, n: int, config: ApproxFftConfig
) -> np.ndarray:
    """Convolution via FLASH's *sparse* approximate weight transforms.

    The per-call reference for the batched sparse runtime: each channel
    tile's weight transform evaluates the skipping/merging tag walk row by
    row in scalar arithmetic
    (:class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic`), configured
    with the tile's structural zero pattern from the encoder.  The sparse
    conformance tier holds ``BatchedHConvEngine(mode="sparse")``
    bit-identical to this function.
    """
    from repro.sparse.sparse_fxp import SparseApproxNegacyclic

    pipes = {}

    def tiled_polymul(encoder, tile, a_poly, w_poly):
        key = (id(encoder), tile)
        if key not in pipes:
            pipes[key] = SparseApproxNegacyclic(
                n, config,
                valid_pattern=encoder.weight_valid_indices(tile),
            )
        out = pipes[key].multiply(w_poly, a_poly)
        return np.array([int(v) for v in out], dtype=np.int64)

    return conv2d_via_polynomials(
        np.asarray(x, dtype=np.int64),
        np.asarray(w, dtype=np.int64),
        shape,
        n,
        tiled_polymul=tiled_polymul,
    )
