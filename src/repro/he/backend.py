"""Pluggable polynomial-multiplication backends for plaintext-ciphertext
products.

The backend is where FLASH differs from NTT-based accelerators: the same
BFV/Cheetah protocol runs either on the exact negacyclic NTT (F1, CHAM,
HEAX, ...) or on the approximate folded FFT with fixed-point weight
transforms (FLASH), optionally with the weight transforms on compiled
sparse plans.  All consume ciphertext-ring polynomials and signed
small-coefficient weight vectors.

There is one class per transform and one product path per class:
:meth:`PolyMulBackend.multiply_many` stacks a batch of products into
vectorized transform passes (weight spectra cached, independent work
fanned across a thread pool or the worker processes of a
:class:`repro.cluster.ClusterExecutor`); a single product is a batch of
one.  A polynomial object passed for several products (a ciphertext
component against every output channel's weight) is lifted and
forward-transformed once per call; pointwise products, inverse
transforms and the rounding back into the ring run once per product.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.exact import (
    ExactNegacyclic,
    digit_split,
    get_exact_negacyclic,
    split_digits,
)
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.poly import RingPoly
from repro.ntt.modmath import (
    SINGLE_PRODUCT_BITS,
    addmod,
    floor_mod,
    mulmod,
    row_blocks,
)
from repro.ntt.rns import RnsBasis
from repro.obs import trace as obs_trace
from repro.runtime.engine import RuntimeStats, fan_out
from repro.runtime.plan_cache import (
    PlanCache,
    approx_config_key,
    fft_pipeline,
    sparse_pipeline,
    sparse_weight_spectra,
)

#: Default byte budget of a backend's ``plan_cache``.  Generous for every
#: test/benchmark workload, but finite: the old ad-hoc dict caches grew
#: without bound across a long-running inference service.
DEFAULT_SPECTRUM_CACHE_BYTES = 64 << 20


def distinct_objects(items: Sequence) -> Tuple[list, np.ndarray]:
    """The distinct objects of ``items``, in first-seen order, and each
    item's row in that list.

    Objects are told apart by identity, not content: a private round
    passes the same ciphertext polynomial once per output channel, and
    comparing contents would hash every row of every call.
    """
    rows: Dict[int, int] = {}
    distinct = []
    for item in items:
        if rows.setdefault(id(item), len(distinct)) == len(distinct):
            distinct.append(item)
    return distinct, np.array([rows[id(item)] for item in items])


class PolyMulBackend:
    """Multiply ring polynomials by signed integer weights.

    Subclasses implement :meth:`_multiply_batch`; the single-product entry
    point, the argument checks, cluster delegation and the worker set-up
    are shared.

    Args:
        plan_cache: the backend's one store of plans and weight spectra;
            when omitted, a ``DEFAULT_SPECTRUM_CACHE_BYTES`` cache with
            entry-integrity checking (a tampered spectrum is evicted and
            recomputed rather than served).
        max_workers: thread-pool width for independent jobs (RNS limbs,
            CRT lifts, reductions); ``None``/``0``/``1`` selects the serial
            fallback.
        cluster: optional :class:`repro.cluster.ClusterExecutor`; products
            then shard across its supervised worker processes and
            ``last_stats.cluster`` carries the per-call supervision counters.
    """

    #: ``RuntimeStats.mode`` of the backend and its cluster job kind.
    kind: str

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        cluster=None,
    ):
        # Note: "plan_cache or ..." would discard an *empty* shared cache
        # (PlanCache defines __len__), so test identity explicitly.
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(
                capacity_bytes=DEFAULT_SPECTRUM_CACHE_BYTES,
                check_integrity=True,
            )
        )
        self.max_workers = max_workers
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode=self.kind)

    def multiply(self, poly: RingPoly, weights: np.ndarray) -> RingPoly:
        """The product ``poly * weights``: a batch of one."""
        return self.multiply_many([poly], [weights])[0]

    @obs_trace.traced("runtime.multiply_many")
    def multiply_many(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        """Pairwise products ``polys[i] * weights_list[i]``, in order.

        Args:
            polys: ring polynomials sharing one RNS basis.
            weights_list: one signed weight vector per polynomial (repeats
                hit the spectrum cache).
        """
        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        if not polys:
            return []
        if self.cluster is not None:
            return self._cluster_multiply_many(polys, weights_list)
        return self._multiply_batch(polys, weights_list)

    def _multiply_batch(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        raise NotImplementedError

    def _cluster_multiply_many(self, polys, weights_list):
        """Shard the products across the cluster's worker processes.

        The polynomials cross the protocol wire format; ``last_stats`` is
        the executor's record of the call (summed worker-side work
        counters plus the per-call supervision counters).
        """
        cluster = self.cluster
        outs = cluster.multiply_many(
            self.kind, getattr(self, "weight_config", None), polys, weights_list
        )
        self.last_stats = cluster.last_stats
        return outs


class _CertifiedSpectrum(np.ndarray):
    """A weight's exact spectrum carrying its certificate: ``digits`` and
    ``bounds``, one per prime (:meth:`ExactNegacyclic.certify`)."""

    digits: Tuple[int, ...]
    bounds: Tuple[float, ...]


def _certified_spectrum(
    kernel: ExactNegacyclic, primes, weights: np.ndarray
) -> _CertifiedSpectrum:
    spectrum, digits, bounds = kernel.certify(primes, weights)
    out = spectrum.view(_CertifiedSpectrum)
    out.digits, out.bounds = digits, bounds
    return out


class NttPolyMulBackend(PolyMulBackend):
    """Exact product on the certified folded FFT, digit-split where needed.

    Each product runs one RNS limb at a time on the float64 folded FFT
    (:mod:`repro.fftcore.exact`): a limb's centered residues go through one
    ``forward_batch`` (one row per distinct polynomial), a pointwise
    product with the weight's cached spectrum, one ``inverse_batch`` (one
    row per product), ``np.rint`` and a reduction mod ``p``.  One
    spectrum (``8 * n`` bytes, built once in long double) serves every
    limb.  Each (weight, prime) pair runs on the smallest digit count
    ``D`` whose a-priori certificate bound is below 1/2, which makes the
    rounding exact: the residues split into ``D`` centered digits stacked
    along the batch axis of the same three passes, and the exact digit
    products recombine mod ``p``.  ``D = 1`` is the plain product; a
    weight no ``D`` certifies raises :class:`ValueError`.  Limbs are
    fanned across the worker pool; each spectrum is cached in
    ``plan_cache`` with its certificate (digit counts and bounds) under
    ``("exact-wspec", n, primes, weight-bytes)``.

    Stored transform-domain weights are Figure 1's trade: "it is possible
    to pre-compute and store the weight polynomials in the NTT domain, but
    it incurs significant memory overhead ... 23 GB for a 4-bit ResNet-50,
    more than 1000x higher".  A ``plan_cache`` with a byte budget and
    ``on_full="error"`` models that memory wall: a spectrum that exceeds
    the budget raises :class:`MemoryError`.

    Each call sets ``rounding_worst`` (the realized worst ``|x - rint(x)|``
    of its digit rows), ``rounding_bound`` (their largest certificate
    bound) and ``digits`` (the largest ``D``) on its
    ``runtime.multiply_many`` span.

    Args:
        plan_cache, max_workers, cluster: see :class:`PolyMulBackend`.
    """

    kind = "ntt"

    def _multiply_batch(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        basis = polys[0].basis
        primes = basis.primes
        count = len(polys)
        kernel = get_exact_negacyclic(basis.n)
        weights_list = [
            np.ascontiguousarray(w, dtype=np.int64) for w in weights_list
        ]
        # Spectra and certificates are built serially (deterministic cache
        # order); limb jobs below only read plain arrays.
        keys = [w.tobytes() for w in weights_list]
        certs: Dict[bytes, tuple] = {}
        for w, key in zip(weights_list, keys):
            if key not in certs:
                spec = self.plan_cache.get_or_build(
                    ("exact-wspec", kernel.n, tuple(primes), key),
                    lambda: _certified_spectrum(kernel, primes, w),
                )
                certs[key] = (spec.view(np.ndarray), spec.digits, spec.bounds)
        spectra, digits, bounds = zip(*(certs[key] for key in keys))
        # Per limb, the rows of each digit count, in order.
        groups: List[Dict[int, List[int]]] = []
        for limb in range(len(primes)):
            by_digits: Dict[int, List[int]] = {}
            for i in range(count):
                by_digits.setdefault(digits[i][limb], []).append(i)
            groups.append(by_digits)
        # One stack of spectra serves every limb grouping the same rows.
        stacks = {
            tuple(rows): np.stack([spectra[i] for i in rows])
            for by_digits in groups for rows in by_digits.values()
        }

        def limb_job(limb: int) -> Tuple[np.ndarray, float]:
            prime = primes[limb]
            out = np.empty((count, basis.n), dtype=np.uint64)
            worst = 0.0
            for limb_digits, rows in groups[limb].items():
                distinct, index = distinct_objects([polys[i] for i in rows])
                stack = np.stack([poly.residues[limb] for poly in distinct])
                out[rows], rows_worst = exact_fft_products(
                    kernel, stack, stacks[tuple(rows)], prime, limb_digits,
                    index,
                )
                worst = max(worst, rows_worst)
            return out, worst

        limbs = fan_out(range(len(primes)), limb_job, self.max_workers)
        obs_trace.tracer.current_span().set(
            rounding_worst=max(worst for _, worst in limbs),
            rounding_bound=max(max(bound) for bound in bounds),
            digits=max(max(d) for d in digits),
        )
        self.last_stats = RuntimeStats(
            mode=self.kind,
            batch=count,
            products=count,
            workers=self.max_workers or 1,
        )
        return [
            RingPoly(basis, [limbs[l][0][i] for l in range(len(primes))])
            for i in range(count)
        ]


def exact_fft_products(
    kernel: ExactNegacyclic,
    residues: np.ndarray,
    spectra: np.ndarray,
    prime: int,
    digits: int,
    index: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, float]:
    """Exact negacyclic products of one limb on the float64 folded FFT.

    ``residues`` is an ``(r, n)`` stack mod ``prime``; product ``i``
    multiplies row ``index[i]`` (row ``i`` when ``index`` is ``None``), so
    a row shared by several products is transformed once.  ``spectra``
    are the ``(k, n/2)`` (or one shared ``(n/2,)``) cached weight spectra
    of the ``k`` products, every one certified for ``prime`` at ``digits``
    digits.  The centered residues split into ``digits`` digits
    (:func:`split_digits`), stacked along the batch axis of one forward
    transform; the pointwise products and one inverse transform then run
    per product.  The rounded digit products are reduced mod ``prime`` and
    recombined with ``mulmod`` by ``2**(b*d)``.  Returns the ``(k, n)``
    products mod ``prime`` and the worst realized rounding distance
    ``|x - rint(x)|``.  The certificate keeps every ``|x|`` below
    ``2**53``, so the rounded products are exact integers in float64 and
    in int64.
    """
    rows, n = residues.shape
    width = digit_split(prime // 2, digits)[0]
    # repro-lint: disable=DTYPE001  exact: residues r < p < 2**40 at every
    # prime mulmod admits (centered, |r| < 2**39 < 2**53)
    lifted = residues.astype(np.float64)
    lifted -= (lifted > prime // 2) * float(prime)  # centered, |r| <= p/2
    stack = split_digits(lifted, width, digits).reshape(-1, n)
    fft = kernel.fft
    spectrum = fft.forward_batch(stack).reshape(digits, rows, -1)
    if index is not None:
        spectrum = spectrum[:, index]
    count = spectrum.shape[1]
    spectrum = spectrum * spectra
    product = fft.inverse_batch(spectrum.reshape(digits * count, -1))
    rounded = np.rint(product)
    product -= rounded
    worst = float(np.max(np.abs(product, out=product)))
    ints = floor_mod(rounded.astype(np.int64), prime)
    ints = ints.view(np.uint64).reshape(digits, count, n)
    out = ints[0]
    for d in range(1, digits):
        shifted = mulmod(ints[d], pow(2, width * d, prime), prime)
        out = addmod(out, shifted, prime)
    return out, worst


class FftPolyMulBackend(PolyMulBackend):
    """Approximate product via the FLASH folded-FFT pipeline.

    Ciphertext polynomials are CRT-lifted to centered integers, multiplied
    in the FFT domain (weight transform on the approximate fixed-point
    path, everything else float64), rounded, and reduced back into RNS.  A
    batch lifts and activation-transforms each distinct polynomial once,
    in one batched pass, then runs the pointwise products and inverse
    transforms of every product as single batched passes.  Weight
    spectra are cached: in an HConv the same weight polynomial multiplies
    both ciphertext components of every input tile, so hardware computes
    the weight transform once (this is also why the second approach of
    Section III-B wins -- activation transforms are shared along output
    channels).  A call's missing spectra are built in one batched weight
    transform (:meth:`PlanCache.get_or_build_many`).

    Args:
        weight_config: fixed-point configuration for the weight-transform
            butterflies; ``None`` runs the weight path in float64 (the
            "FFT (FP)" ablation arm).
        plan_cache, max_workers, cluster: see :class:`PolyMulBackend`;
            the cache holds the pipeline and the weight spectra.
    """

    kind = "flash"

    def __init__(
        self,
        weight_config: Optional[ApproxFftConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        cluster=None,
    ):
        super().__init__(plan_cache, max_workers, cluster)
        self.weight_config = weight_config

    def _weight_rows(
        self, n: int, weights: List[np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Stacked weight spectra plus mult accounting for one call.

        The sparse backend overrides this to run compiled plans; the
        accounting dict feeds the ``weight_mults_*`` fields of
        ``last_stats`` and is returned (not stored on ``self``) so
        concurrent calls stay race-free.
        """
        pipe = fft_pipeline(self.plan_cache, n, self.weight_config)
        cfg_key = approx_config_key(self.weight_config)
        rows = self.plan_cache.get_or_build_many(
            weights,
            lambda w: ("fft-wspec", n, cfg_key, w.tobytes()),
            lambda ws: pipe.weight_forward_batch(np.stack(ws)).values,
        )
        return np.stack(rows), {}

    def _multiply_batch(
        self, polys: List[RingPoly], weights_list: List[np.ndarray]
    ) -> List[RingPoly]:
        basis = polys[0].basis
        n = basis.n
        pipe = fft_pipeline(self.plan_cache, n, self.weight_config)
        w_rows, mult_stats = self._weight_rows(n, [
            np.ascontiguousarray(w, dtype=np.int64) for w in weights_list
        ])

        distinct, index = distinct_objects(polys)
        lifts = fan_out(distinct, centered_lift, self.max_workers)
        a_spec = pipe.activation_forward_batch(np.stack(lifts))
        products = pipe.multiply_spectra_batch(w_rows, a_spec[index])
        residues = ring_residues(basis, products)
        out = [
            RingPoly(basis, [limb[i] for limb in residues])
            for i in range(len(polys))
        ]
        self.last_stats = RuntimeStats(
            mode=self.kind,
            batch=len(polys),
            products=len(polys),
            workers=self.max_workers or 1,
            **mult_stats,
        )
        return out


class SparseFftPolyMulBackend(FftPolyMulBackend):
    """FLASH backend whose weight transforms run compiled sparse plans.

    Identical to :class:`FftPolyMulBackend` except that each weight's
    spectrum is produced by a :class:`repro.sparse.plan.SparsePlan`
    compiled for its structural zero pattern, the weight's own support
    (``np.nonzero``).  Weights sharing a folded pattern share one plan and
    are transformed in one batched execution
    (:func:`repro.runtime.plan_cache.sparse_weight_spectra`); every
    spectrum equals per-call
    :meth:`repro.sparse.sparse_fxp.SparseApproxNegacyclic.weight_forward`
    with the same pattern, bit for bit when every twiddle product is
    exact in float64 (the condition in :mod:`repro.sparse.plan`).  Plans
    and spectra share ``plan_cache``.

    ``last_stats`` reports realized/dense/model multiplication counts per
    *distinct* weight in the call (c0/c1 and cross-item repeats dedupe by
    spectrum key), so the accounting is deterministic and cache-warmth
    independent.
    """

    kind = "sparse"

    def __init__(
        self,
        weight_config: Optional[ApproxFftConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        cluster=None,
    ):
        if weight_config is None:
            raise ValueError("SparseFftPolyMulBackend needs a weight_config")
        super().__init__(weight_config, plan_cache, max_workers, cluster)

    def _weight_rows(
        self, n: int, weights: List[np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        cfg = self.weight_config
        cfg_key = approx_config_key(cfg)
        # A weight's folded pattern, and so its pipeline, is a function of
        # the weight: spectra are looked up by weight bytes alone, and only
        # the misses are folded and fetch their pipelines.  Repeated
        # weights (c0/c1 of one ciphertext, shared kernels across a batch)
        # are transformed and counted once.
        keys = [w.tobytes() for w in weights]
        rows = self.plan_cache.get_or_build_many(
            list(zip(keys, weights)),
            lambda item: ("sparse-wspec", n, cfg_key, item[0]),
            lambda missing: self._counted_spectra(
                n, [w for _, w in missing]
            ),
        )
        counted = dict(zip(keys, rows))
        return np.stack(rows), {
            "weight_transforms": len(counted),
            "weight_mults_realized": sum(r.mults for r in counted.values()),
            "weight_mults_dense": sum(r.dense_mults for r in counted.values()),
            "weight_mults_model": sum(r.model_mults for r in counted.values()),
        }

    def _counted_spectra(
        self, n: int, weights: List[np.ndarray]
    ) -> List["_CountedSpectrum"]:
        """Spectra of distinct weights, each carrying its pipeline's mult
        counts; weights sharing a folded pattern share one pipeline."""
        from repro.sparse.patterns import fold_valid_indices

        pipes: Dict[bytes, object] = {}
        row_pipes = []
        for w in weights:
            fp = fold_valid_indices(np.nonzero(w)[0], n)
            pattern = fp.tobytes()
            if pattern not in pipes:
                pipes[pattern] = sparse_pipeline(
                    self.plan_cache, n, self.weight_config, fp
                )
            row_pipes.append(pipes[pattern])
        spectra = sparse_weight_spectra(row_pipes, np.stack(weights))
        out = []
        for row, pipe in zip(spectra, row_pipes):
            row = row.view(_CountedSpectrum)
            row.mults = pipe.mults
            row.dense_mults = pipe.dense_mults
            row.model_mults = pipe.model_mults
            out.append(row)
        return out


class _CountedSpectrum(np.ndarray):
    """A sparse weight spectrum carrying the mult counts of its transform
    (the pipeline's realized, dense and model counts)."""

    mults: int
    dense_mults: int
    model_mults: int


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


#: Rounded products below this magnitude split exactly into int64 halves
#: ``hi * 2**32 + lo`` with ``|hi| <= 2**62`` and ``0 <= lo < 2**32``.
_SPLIT_LIMIT = 2.0 ** 94

#: The weight of the high half.
_LOW_SPAN = 2.0 ** 32


def ring_residues(basis: RnsBasis, products: np.ndarray) -> List[np.ndarray]:
    """Round float64 products to integers and reduce them into ``basis``.

    ``products`` is one product or a ``(k, n)`` stack; returns one uint64
    residue array of its shape per basis prime.  ``np.rint`` rounds half
    to even like ``round()``; values at or above ``2**53`` are already
    integers.  Below ``2**94`` in magnitude, ``hi = floor(x * 2**-32)`` and
    ``lo = x - hi * 2**32`` are exact (power-of-two scaling; ``lo`` is an
    integer below ``2**32`` and a multiple of ``x``'s ulp), so ``x mod p =
    (hi mod p) * (2**32 mod p) + lo mod p`` reduces in int64
    (:func:`repro.ntt.modmath.floor_mod`).  A row block holding a larger
    magnitude reduces with ``np.mod`` per prime, also exact: ``fmod`` is
    exact in IEEE arithmetic and every prime is below ``2**53``, so the
    sign fix-up ``mod + p`` is an exact integer sum.  Reducing mod each
    prime equals reducing mod q first, since each prime divides q.

    Raises:
        OverflowError: a product is NaN or infinite.
    """
    products = np.asarray(products, dtype=np.float64)
    stack = products.reshape(-1, products.shape[-1])
    out = [np.empty(stack.shape, dtype=np.uint64) for _ in basis.primes]
    for block in row_blocks(*stack.shape):
        _reduce_block(basis, stack[block], [limb[block] for limb in out])
    return [limb.reshape(products.shape) for limb in out]


def _reduce_block(basis: RnsBasis, products: np.ndarray, out) -> None:
    """:func:`ring_residues` of one row block, into the views ``out``."""
    rounded = np.rint(products)
    top, bottom = np.max(rounded), np.min(rounded)
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise OverflowError("non-finite FFT product cannot be rounded")
    if max(top, -bottom) >= _SPLIT_LIMIT:
        for limb, p in zip(out, basis.primes):
            np.copyto(limb, np.mod(rounded, float(p)), casting="unsafe")
        return
    split = rounded * (1.0 / _LOW_SPAN)
    np.floor(split, out=split)
    hi = split.astype(np.int64)
    split *= -_LOW_SPAN
    split += rounded
    lo = rounded.view(np.int64)  # rounded is spent: lo takes its buffer
    np.copyto(lo, split, casting="unsafe")
    high = split.view(np.int64)  # and the high part the split's
    for limb, p in zip(out, basis.primes):
        floor_mod(hi, p, out=high)
        if p.bit_length() <= SINGLE_PRODUCT_BITS:  # below 2**62
            high *= (1 << 32) % p
        else:
            np.copyto(high, mulmod(high, (1 << 32) % p, p), casting="unsafe")
        high += lo  # below 2**62 + 2**32
        floor_mod(high, p, out=limb.view(np.int64))


def round_to_ring(basis: RnsBasis, product: np.ndarray) -> RingPoly:
    """One float64 product rounded into the ring (:func:`ring_residues`)."""
    return RingPoly(basis, ring_residues(basis, product))


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
