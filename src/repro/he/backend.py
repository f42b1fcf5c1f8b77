"""Pluggable polynomial-multiplication backends for plaintext-ciphertext
products.

The backend is where FLASH differs from NTT-based accelerators: the same
BFV/Cheetah protocol runs either on the exact negacyclic NTT (F1, CHAM,
HEAX, ...) or on the approximate folded FFT with fixed-point weight
transforms (FLASH).  Both consume a ciphertext-ring polynomial and a
signed small-coefficient weight vector.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.fftcore.approx_pipeline import ApproxNegacyclic, ApproxSpectrum
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly
from repro.ntt.rns import RnsBasis
from repro.obs import trace as obs_trace

#: Default byte budget for the bounded weight-spectrum caches.  Generous for
#: every test/benchmark workload, but finite: the old ad-hoc dict caches
#: grew without bound across a long-running inference service.
DEFAULT_SPECTRUM_CACHE_BYTES = 64 << 20


class PolyMulBackend:
    """Interface: multiply a ring polynomial by signed integer weights."""

    def multiply(self, poly: RingPoly, weights: np.ndarray) -> RingPoly:
        raise NotImplementedError

    def multiply_many(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        """Pairwise products ``polys[i] * weights_list[i]``, in order.

        The default loops :meth:`multiply`; the batched backends of
        :mod:`repro.runtime` override it with vectorized transforms that
        return bit-identical products.
        """
        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        return [self.multiply(p, w) for p, w in zip(polys, weights_list)]


class NttPolyMulBackend(PolyMulBackend):
    """Exact product via the per-prime negacyclic NTT (the baseline)."""

    @obs_trace.traced("he.ntt_multiply")
    def multiply(self, poly: RingPoly, weights: np.ndarray) -> RingPoly:
        w = RingPoly.from_signed(poly.basis, weights)
        return poly * w


class CachedNttBackend(PolyMulBackend):
    """Exact NTT backend that pre-stores weight spectra (Figure 1's trade).

    The paper: "it is possible to pre-compute and store the weight
    polynomials in the NTT domain, but it incurs significant memory
    overhead ... 23 GB for a 4-bit ResNet-50, more than 1000x higher".
    This backend realizes that option: each distinct weight polynomial's
    per-prime NTT spectrum is computed once and cached, and the cache's
    memory footprint is tracked so the trade-off can be measured.

    Args:
        capacity_bytes: optional cache budget; exceeding it raises
            :class:`MemoryError` (models the paper's infeasibility point).
            Storage routes through a :class:`repro.runtime.PlanCache` in its
            ``on_full="error"`` mode.
    """

    def __init__(self, capacity_bytes: Optional[int] = None):
        from repro.runtime.plan_cache import PlanCache

        self.capacity_bytes = capacity_bytes
        self._spectra = PlanCache(
            capacity_bytes=capacity_bytes, on_full="error",
            check_integrity=True,
        )

    @property
    def hits(self) -> int:
        return self._spectra.hits

    @property
    def misses(self) -> int:
        return self._spectra.misses

    @property
    def cached_bytes(self) -> int:
        """Memory held by cached NTT-domain weights (8 bytes per word)."""
        return self._spectra.cached_bytes

    def clear_cache(self) -> None:
        self._spectra.clear()

    def _weight_spectra(self, basis, weights: np.ndarray) -> list:
        from repro.ntt.ntt import get_ntt

        def build() -> list:
            residues = basis.to_rns(weights)
            return [
                get_ntt(basis.n, prime).forward(component)
                for prime, component in zip(basis.primes, residues)
            ]

        return self._spectra.get_or_build((basis.n, weights.tobytes()), build)

    @obs_trace.traced("he.cached_ntt_multiply")
    def multiply(self, poly: RingPoly, weights: np.ndarray) -> RingPoly:
        from repro.ntt.modmath import mulmod
        from repro.ntt.ntt import get_ntt

        basis = poly.basis
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        w_spectra = self._weight_spectra(basis, weights)
        out = []
        for prime, component, w_spec in zip(
            basis.primes, poly.residues, w_spectra
        ):
            ntt = get_ntt(basis.n, prime)
            out.append(ntt.inverse(mulmod(ntt.forward(component), w_spec, prime)))
        return RingPoly(basis, out)


class FftPolyMulBackend(PolyMulBackend):
    """Approximate product via the FLASH folded-FFT pipeline.

    The ciphertext polynomial is CRT-lifted to centered integers, multiplied
    in the FFT domain (weight transform on the approximate fixed-point path,
    everything else float64), rounded, and reduced back into RNS.  Weight
    spectra are cached: in an HConv the same weight polynomial multiplies
    both ciphertext components of every input tile, so hardware computes the
    weight transform once (this is also why the second approach of
    Section III-B wins -- activation transforms are shared along output
    channels).

    Args:
        weight_config: fixed-point configuration for the weight-transform
            butterflies; ``None`` runs the weight path in float64 (the
            "FFT (FP)" ablation arm).
        spectrum_cache_bytes: LRU byte budget for cached weight spectra
            (``None`` disables the bound); the cache never exceeds it.
            Entries are integrity-checked: a tampered cached spectrum is
            evicted and recomputed rather than served.
        plan_cache: optional shared :class:`repro.runtime.PlanCache` for
            the transform pipelines themselves.
    """

    def __init__(
        self,
        weight_config: Optional[ApproxFftConfig] = None,
        spectrum_cache_bytes: Optional[int] = DEFAULT_SPECTRUM_CACHE_BYTES,
        plan_cache=None,
    ):
        from repro.runtime.plan_cache import PlanCache

        self.weight_config = weight_config
        self._pipelines = (
            plan_cache if plan_cache is not None
            else PlanCache(max_entries=16)
        )
        self._spectrum_cache = PlanCache(
            capacity_bytes=spectrum_cache_bytes, check_integrity=True
        )

    def pipeline(self, n: int) -> ApproxNegacyclic:
        cfg = self.weight_config
        if cfg is not None and cfg.n != n // 2:
            raise ValueError(
                f"weight core is {cfg.n}-point but ring needs {n // 2}"
            )
        from repro.runtime.plan_cache import approx_config_key

        return self._pipelines.get_or_build(
            ("fft-plan", n, approx_config_key(cfg)),
            lambda: ApproxNegacyclic(n, cfg),
        )

    @obs_trace.traced("he.weight_spectrum")
    def weight_spectrum(self, n: int, weights: np.ndarray) -> ApproxSpectrum:
        """Cached approximate forward transform of a weight polynomial."""
        weights = np.ascontiguousarray(weights, dtype=np.int64)
        pipeline = self.pipeline(n)
        return self._spectrum_cache.get_or_build(
            (n, weights.tobytes()),
            lambda: pipeline.weight_forward(weights),
        )

    @property
    def cache_stats(self) -> dict:
        """Hit/miss/byte statistics of the weight-spectrum cache."""
        return self._spectrum_cache.stats()

    def clear_cache(self) -> None:
        self._spectrum_cache.clear()

    @obs_trace.traced("he.fft_multiply")
    def multiply(self, poly: RingPoly, weights: np.ndarray) -> RingPoly:
        n = poly.basis.n
        pipe = self.pipeline(n)
        w_spec = self.weight_spectrum(n, np.asarray(weights))
        a_spec = pipe.activation_forward(centered_lift(poly))
        return round_to_ring(poly.basis, pipe.multiply_spectra(w_spec, a_spec))


def centered_lift(poly: RingPoly) -> np.ndarray:
    """The centered CRT lift of ``poly`` as float64.

    It loses only bits beyond float64's 53-bit mantissa -- exactly the LSB
    error the approximate scheme is designed to absorb.  Both the int64
    cast and ``float(int)`` (object dtype, q >= 2**62) round to nearest
    even, so the lift is the same on either CRT path.
    """
    ints = poly.basis._crt(poly.residues, centered=True)
    # repro-lint: disable=DTYPE001  the float64 rounding of the lift is
    # the approximation FLASH tolerates (see above), not a silent loss
    return ints.astype(np.float64)


def round_to_ring(basis: RnsBasis, product: np.ndarray) -> RingPoly:
    """Round a float64 product to integers and reduce it into ``basis``.

    ``np.rint`` rounds half to even like ``round()``; values at or above
    ``2**53`` are already integers.  ``np.mod`` per prime is then exact:
    ``fmod`` is exact in IEEE arithmetic and every prime is below ``2**53``,
    so the sign fix-up ``mod + p`` is an exact integer sum.  Reducing mod
    each prime equals reducing mod q first, since each prime divides q.
    """
    rounded = np.rint(product)
    if not np.all(np.isfinite(rounded)):
        raise OverflowError("non-finite FFT product cannot be rounded")
    return RingPoly(
        basis,
        [np.mod(rounded, float(p)).astype(np.uint64) for p in basis.primes],
    )


def fp_fft_backend() -> FftPolyMulBackend:
    """The double-precision FFT backend (no fixed-point approximation)."""
    return FftPolyMulBackend(weight_config=None)


def flash_backend(
    n: int,
    stage_widths=27,
    twiddle_k: int = 5,
    twiddle_max_shift: int = 16,
) -> FftPolyMulBackend:
    """FLASH's default approximate backend for ring dimension ``n``.

    Defaults follow the paper: 27-bit fixed-point datapath (Figure 5(b))
    and twiddle quantization level k=5 (Table II / Section IV-C1).
    """
    cfg = ApproxFftConfig(
        n=n // 2,
        stage_widths=stage_widths,
        twiddle_k=twiddle_k,
        twiddle_max_shift=twiddle_max_shift,
    )
    return FftPolyMulBackend(weight_config=cfg)
