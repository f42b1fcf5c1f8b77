"""Batched HConv execution engine (the CPU-side runtime of the system).

Every HConv used to run one ciphertext at a time through freshly built FFT
plans.  This module stacks many polynomial pairs into 2-D arrays and runs
the NTT / approximate-FFT butterflies over the batch axis in single
vectorized numpy passes, amortizing:

* **plans** -- twiddle tables and pipelines come from a bounded
  :class:`repro.runtime.plan_cache.PlanCache`;
* **activation transforms** -- computed once per input tile and reused by
  all output channels;
* **weight transforms** -- streamed through the output-channel group jobs
  (the Section III-B dataflow that shares activation transforms and
  computes weight transforms as they are consumed): each job transforms
  its chunk of ``(tile, out_channel)`` weights in one batch, multiplies,
  inverse-transforms and drops the spectra.  Only when all of a call's
  distinct weight spectra fit the plan cache are they cached, so a warm
  layer reuses them across calls.

Independent RNS limbs and output-channel groups fan out across a
``concurrent.futures`` thread pool (numpy releases the GIL inside the
vectorized kernels); results are reassembled by index so ordering is
deterministic and byte-identical to the serial fallback.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.encoding.conv_encoding import (
    Conv2dEncoder,
    ConvShape,
    decompose_strided,
    iter_row_bands,
    pad_input,
)
from repro.fftcore.exact import (
    CERTIFIED_BELOW, get_exact_negacyclic, weight_norm,
)
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.ntt import find_ntt_primes, get_ntt
from repro.ntt.modmath import centered, from_centered, mulmod
from repro.obs import trace as obs_trace
from repro.runtime.plan_cache import (
    PlanCache, approx_config_key, fft_pipeline, sparse_pipeline,
    sparse_weight_spectra,
)

#: Magnitude from which a rounded float no longer fits in int64.
_INT64_BOUND = float(1 << 63)

#: Most ``(tile, out_channel)`` pairs one group job transforms, multiplies
#: and inverse-transforms at a time.  32 spectra are 1 MiB at n=4096; on a
#: 3x3 ResNet-18 layer 32-64 ran fastest, 256 was ~20% and 2048 (half the
#: layer) ~2.3x slower.
_SPECTRA_CHUNK = 32


def fan_out(jobs: Sequence, fn: Callable, max_workers: Optional[int]) -> list:
    """Run ``fn`` over ``jobs`` with deterministic result ordering.

    Serial fallback when ``max_workers`` is ``None``/``0``/``1`` or there is
    at most one job; otherwise a thread pool of ``max_workers`` threads.
    Results are collected in submission order, so the output list is
    identical to the serial path for pure ``fn``.  A job's exception
    propagates; worker-process death is :mod:`repro.cluster`'s concern.
    """
    jobs = list(jobs)
    if not max_workers or max_workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        return [future.result() for future in futures]


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


def _split_groups(items: Sequence, groups: int) -> List[list]:
    """Split ``items`` into at most ``groups`` contiguous non-empty chunks."""
    items = list(items)
    if not items:
        return []
    groups = max(1, min(groups, len(items)))
    size = -(-len(items) // groups)
    return [items[i : i + size] for i in range(0, len(items), size)]


class MultReductions:
    """Weight-mult reductions of a stats record carrying the
    ``weight_mults_{realized,dense,model}`` counters."""

    @property
    def realized_mult_reduction(self) -> float:
        """Fraction of dense weight-FFT mults removed by the executed plans."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_realized / self.weight_mults_dense

    @property
    def model_mult_reduction(self) -> float:
        """The :mod:`repro.sparse.opcount` prediction for the same transforms."""
        if not self.weight_mults_dense:
            return 0.0
        return 1.0 - self.weight_mults_model / self.weight_mults_dense


@dataclass
class RuntimeStats(MultReductions):
    """Per-run accounting: stage timings, work counts, cache behaviour.

    The ``weight_mults_*`` counters track weight-transform multiplication
    work per *requested* transform (deterministic regardless of cache
    warmth): ``realized`` is what the executed plans actually perform,
    ``dense`` is the dense-butterfly count for the same transforms, and
    ``model`` is the analytical :mod:`repro.sparse.opcount` prediction.
    """

    #: the work counters: what a cluster job ships back (:meth:`work`)
    #: and what the executor sums over a call's jobs (:meth:`summed`).
    WORK_COUNTERS: ClassVar[Tuple[str, ...]] = (
        "products", "weight_transforms",
        "weight_mults_realized", "weight_mults_dense", "weight_mults_model",
    )

    mode: str = "ntt"
    batch: int = 0
    products: int = 0
    workers: int = 1
    weight_transforms: int = 0
    weight_mults_realized: int = 0
    weight_mults_dense: int = 0
    weight_mults_model: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    cache: Dict[str, float] = field(default_factory=dict)
    #: supervision counters of the run when it executed on a
    #: :class:`repro.cluster.ClusterExecutor` (dispatches, worker deaths,
    #: respawns, requeues, serial fallbacks, ...); empty on in-process runs.
    cluster: Dict[str, float] = field(default_factory=dict)

    def work(self) -> Dict[str, int]:
        """The work counters alone, by name."""
        return {name: getattr(self, name) for name in self.WORK_COUNTERS}

    @classmethod
    def summed(cls, works: Iterable[Dict[str, int]], **fields) -> "RuntimeStats":
        """A record built from ``fields`` whose work counters are the sums
        of ``works`` (per-job :meth:`work` dicts)."""
        stats = cls(**fields)
        for work in works:
            for name in cls.WORK_COUNTERS:
                setattr(stats, name, getattr(stats, name) + int(work.get(name, 0)))
        return stats

    def add(self, stage: str, seconds: float) -> None:
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def describe(self) -> str:
        lines = [
            f"mode={self.mode} batch={self.batch} "
            f"products={self.products} workers={self.workers}"
        ]
        for stage, seconds in sorted(
            self.stage_seconds.items(), key=lambda kv: -kv[1]
        ):
            frac = seconds / self.total_seconds if self.total_seconds else 0.0
            lines.append(f"  {stage:<22} {seconds * 1e3:9.2f} ms  ({frac:5.1%})")
        if self.weight_mults_dense:
            lines.append(
                f"  weight mults: {self.weight_mults_realized}"
                f"/{self.weight_mults_dense} dense "
                f"({self.realized_mult_reduction:.1%} removed; "
                f"model {self.model_mult_reduction:.1%}) over "
                f"{self.weight_transforms} transforms"
            )
        if self.cache:
            lines.append(
                "  plan cache: "
                f"{self.cache.get('hits', 0)} hits / "
                f"{self.cache.get('misses', 0)} misses "
                f"(hit rate {self.cache.get('hit_rate', 0.0):.1%}), "
                f"{self.cache.get('cached_bytes', 0) / 1024:.1f} KiB held"
            )
        if self.cluster:
            lines.append(
                "  cluster: "
                f"{self.cluster.get('workers', 0)} workers, "
                f"{self.cluster.get('dispatches', 0)} dispatches, "
                f"{self.cluster.get('recoveries', 0)} recoveries "
                f"({self.cluster.get('worker_deaths', 0)} deaths, "
                f"{self.cluster.get('hang_timeouts', 0)} hangs, "
                f"{self.cluster.get('jobs_requeued', 0)} requeued, "
                f"{self.cluster.get('serial_fallback_jobs', 0)} serial)"
            )
        return "\n".join(lines)


class _Timer:
    """Stage timer that doubles as a ``runtime.<stage>`` trace span.

    The span is a no-op singleton while tracing is disabled, so the
    stage-accounting hot path stays as cheap as before.
    """

    def __init__(self, stats: RuntimeStats, stage: str):
        self._stats = stats
        self._stage = stage

    def __enter__(self):
        self._span = obs_trace.tracer.span("runtime." + self._stage)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._stats.add(self._stage, time.perf_counter() - self._t0)
        self._span.end("error" if exc and exc[0] is not None else "ok")
        return False


def _round_rows_exact(rows: np.ndarray, residual: bool = False):
    """Round a float ``(J, n)`` batch to int64, bit-compatible with the
    per-call path's ``int(round(float(v)))`` (both round half-to-even).

    Float64 values at or above ``2**53`` are already integers, so the cast
    is exact at every magnitude int64 can hold; larger values raise.
    With ``residual``, returns ``(ints, worst)``: ``worst`` is the largest
    ``|x - rint(x)|`` (``rows`` is overwritten).
    """
    rounded = np.rint(rows)
    if rounded.size and not float(np.max(np.abs(rounded))) < _INT64_BOUND:
        raise OverflowError("rounded HConv output does not fit in int64")
    ints = rounded.astype(np.int64)
    if not residual:
        return ints
    rows -= rounded
    return ints, float(np.max(np.abs(rows, out=rows), initial=0.0))


def _encoded_weight_norms(
    w: np.ndarray, stride: int, bands, n: int
) -> Tuple[float, int]:
    """Upper bounds on the largest ``||.||_2`` and ``||.||_1`` over a
    call's encoded weight polynomials.

    The polynomial of ``(tile, m)`` holds exactly the taps
    ``w[m, tile channels]`` of its stride phase, so the norms come from
    the kernel without encoding it.
    """
    norm2, norm1 = 0.0, 0
    for a, b, band in dict.fromkeys((a, b, band) for a, b, _, _, band in bands):
        per_tile = Conv2dEncoder(band, n).channels_per_tile
        phase = w[:, :, a::stride, b::stride]
        virtual = -phase.shape[1] % per_tile  # zero-padded channels
        rows = np.pad(phase, ((0, 0), (0, virtual), (0, 0), (0, 0)))
        rows = rows.reshape(-1, per_tile * phase[0, 0].size)
        squares = np.einsum("ij,ij->i", rows, rows)
        norm2 = max(norm2, weight_norm(rows[int(np.argmax(squares))]))
        norm1 = max(norm1, int(np.abs(rows).sum(axis=1).max()))
    return norm2, norm1


class BatchedHConvEngine:
    """Clear-domain batched HConv over the coefficient encoding.

    The batched counterpart of :func:`repro.core.hconv.hconv_ntt` /
    ``hconv_fft`` / ``hconv_flash`` / ``hconv_sparse``: bit-identical
    results computed in vectorized passes over the whole batch.  Those
    per-call pipelines are the reference the conformance tests and
    ``bench-runtime`` hold this engine to.

    Weight spectra are computed inside the output-channel group jobs,
    ``_SPECTRA_CHUNK`` ``(tile, out_channel)`` pairs at a time.  Whether
    they are kept is decided once per :meth:`conv2d_batch` call: if all
    of the call's distinct spectra (every stride phase and row band) fit
    ``plan_cache.capacity_bytes``, jobs read the cache and fill in their
    misses, so a warm layer reuses them across calls; otherwise each job
    transforms its chunk, uses and drops it, and only plans are cached
    (no thrashing of a cache too small for the layer).

    Thread-safety contract (checked by ``repro lint --concurrency`` and
    the runtime stress tests): the engine object is confined to the
    submitting thread -- ``last_stats`` and the per-run ``RuntimeStats``
    are only ever written between ``fan_out`` calls, and worker jobs
    close over locals.  The only state shared *with* workers is
    ``plan_cache``, which synchronizes internally.

    Mode ``"ntt"`` is exact: certified FFT, NTT fallback.  Each call
    bounds its float64 round-off a priori (:meth:`repro.fftcore.exact
    .ExactNegacyclic.float64_bound` at the call's prime, from the largest
    ``||w||_2`` and ``||w||_1`` of its encoded weight polynomials); below
    1/2 the call runs the float64 folded FFT, whose rounding is then
    exact, otherwise the single-prime NTT.  The call's
    ``runtime.conv2d_batch`` span carries ``rounding_bound``, ``rounding_worst`` (the realized
    worst ``|x - rint(x)|``, 0 on the NTT) and ``ntt_fallback`` (1 when
    the call ran the NTT).

    Args:
        mode: ``"ntt"`` (exact; certified FFT, NTT fallback),
            ``"flash"`` (approximate fixed-point weight transforms) or
            ``"sparse"`` (flash with compiled sparse weight plans: the
            structural zero pattern of each channel tile drives the
            skipping/merging dataflow of :class:`repro.sparse.plan
            .SparsePlan`, bit-identical to per-call
            :class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic`).
        weight_config: fixed-point configuration for ``mode="flash"`` /
            ``"sparse"``.
        plan_cache: shared :class:`PlanCache` of plans, and of weight
            spectra for layers whose spectra fit it; a fresh 64 MiB cache
            with entry-integrity checking when omitted (a tampered cached
            spectrum is evicted and recomputed rather than served).
        max_workers: thread-pool width for the pointwise/inverse stage;
            ``None``/``0``/``1`` selects the serial fallback.
        cluster: optional :class:`repro.cluster.ClusterExecutor`; batched
            calls shard across its supervised worker processes
            (bit-identical to the in-process path, crash recovery and
            serial degradation included) and ``last_stats.cluster``
            carries the per-call supervision counters.
    """

    MODES = ("ntt", "flash", "sparse")

    def __init__(
        self,
        mode: str = "ntt",
        weight_config: Optional[ApproxFftConfig] = None,
        plan_cache: Optional[PlanCache] = None,
        max_workers: Optional[int] = None,
        cluster=None,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if mode in ("flash", "sparse") and weight_config is None:
            raise ValueError(f"mode={mode!r} needs a weight_config")
        if mode == "ntt":
            weight_config = None
        self.mode = mode
        self.weight_config = weight_config
        # Note: "plan_cache or ..." would discard an *empty* shared cache
        # (PlanCache defines __len__), so test identity explicitly.
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(capacity_bytes=64 << 20, check_integrity=True)
        )
        self.max_workers = max_workers
        self.cluster = cluster
        self.last_stats = RuntimeStats(mode=mode)

    # -- plan helpers ---------------------------------------------------

    def _ntt_plan(self, n: int, q: int):
        return self.plan_cache.get_or_build(
            ("ntt-plan", n, q), lambda: get_ntt(n, q)
        )

    # -- batched convolution --------------------------------------------

    @obs_trace.traced("runtime.conv2d_batch")
    def conv2d_batch(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        shape: ConvShape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Batched ``conv2d`` through the coefficient encoding.

        Args:
            xs: ``B x C x H x W`` integer inputs.
            w: ``M x C x kh x kw`` integer kernel (shared across the batch).
            shape: convolution geometry of one batch item.
            n: polynomial degree.
            deadline_s: optional remaining request-SLO budget; on the
                cluster path it becomes each job's ``deadline_ms`` hang
                deadline, on the in-process path it is ignored (the call
                is already synchronous and uninterruptible).

        Returns:
            ``B x M x out_h x out_w`` int64 outputs, bit-identical to
            running the per-call pipeline on each item.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim == 3:
            xs = xs[None]
        w = np.asarray(w, dtype=np.int64)
        if not len(xs):
            self.last_stats = RuntimeStats(mode=self.mode, workers=self._workers())
            return np.zeros(
                (0, shape.out_channels, shape.out_height, shape.out_width),
                dtype=np.int64,
            )
        if self.cluster is not None:
            return self._conv2d_batch_cluster(
                xs, w, shape, n, deadline_s=deadline_s
            )
        stats = RuntimeStats(mode=self.mode, workers=self._workers())
        batch = xs.shape[0]
        stats.batch = batch

        bound = int(np.abs(w).sum() * max(1, int(np.abs(xs).max() if xs.size else 1)))
        xp = np.stack([pad_input(x, shape.padding) for x in xs])
        total = np.zeros(
            (batch, shape.out_channels, shape.out_height, shape.out_width),
            dtype=np.int64,
        )
        s = shape.stride
        bands = [
            (a, b, phase.width, row_start, band)
            for phase, a, b in decompose_strided(shape)
            for row_start, band in iter_row_bands(phase, n)
        ]
        cache_spectra = self._spectra_fit(bands, n)
        arm, q = self.mode, None
        if arm == "ntt":
            q = ntt_modulus(n, bound)
            certificate = get_exact_negacyclic(n).float64_bound(
                q, *_encoded_weight_norms(w, s, bands, n)
            )
            if certificate < CERTIFIED_BELOW:
                arm = "fft"
        worst = 0.0
        for a, b, width, row_start, band in bands:
            x_band = xp[:, :, a::s, b::s][
                :, :, row_start : row_start + band.height, :width
            ]
            worst = max(worst, self._run_band(
                x_band, w[:, :, a::s, b::s], band, n, q, arm, shape,
                row_start, total, stats, cache_spectra,
            ))
        if q is not None:
            obs_trace.tracer.current_span().set(
                rounding_bound=certificate,
                rounding_worst=worst,
                ntt_fallback=int(arm == "ntt"),
            )
        stats.cache = self.plan_cache.stats()
        self.last_stats = stats
        return total

    def _workers(self) -> int:
        return self.max_workers if self.max_workers and self.max_workers > 1 else 1

    def _spectra_fit(self, bands, n: int) -> bool:
        """Whether all distinct weight spectra of a call fit the plan cache.

        Bands of one stride phase with equal shapes encode identical
        weight polynomials, so each ``(phase, band shape)`` counts once.
        A spectrum is ``8 * n`` bytes: ``n`` int64 NTT values or ``n/2``
        complex128 FFT values.
        """
        capacity = self.plan_cache.capacity_bytes
        if capacity is None:
            return True
        distinct = {(a, b, band) for a, b, _, _, band in bands}
        spectra = sum(
            Conv2dEncoder(band, n).num_tiles * band.out_channels
            for _, _, band in distinct
        )
        return spectra * 8 * n <= capacity

    def _conv2d_batch_cluster(
        self,
        xs: np.ndarray,
        w: np.ndarray,
        shape: ConvShape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Shard the batch across the supervised worker processes.

        Each worker runs this same engine code on its contiguous batch
        shard (items are independent), so the reassembled output is
        bit-identical to the in-process call; ``last_stats`` is the
        executor's record of the call (summed worker-side work counters
        plus the supervision counters).
        """
        out = self.cluster.conv2d_batch(
            self.mode, self.weight_config, xs, w, shape, n,
            deadline_s=deadline_s,
        )
        self.last_stats = self.cluster.last_stats
        return out

    def _run_band(
        self,
        x_band: np.ndarray,
        w_phase: np.ndarray,
        band: ConvShape,
        n: int,
        q: Optional[int],
        arm: str,
        shape: ConvShape,
        row_start: int,
        total: np.ndarray,
        stats: RuntimeStats,
        cache_spectra: bool,
    ) -> float:
        """Run one row band on ``arm``'s transforms, adding its outputs
        into ``total``; returns the band's worst ``|x - rint(x)|`` on the
        certified arm of mode ``"ntt"``, else 0."""
        batch = x_band.shape[0]
        with _Timer(stats, "encode"):
            enc = Conv2dEncoder(band, n)
            in_rows = []
            for item in range(batch):
                in_rows.extend(enc.encode_input(x_band[item]))
            tiles = len(in_rows) // batch
            a_stack = np.stack(in_rows)  # (B * tiles, n)
            w_polys = enc.encode_weights(w_phase)
        pairs = sorted(w_polys.keys())  # (tile, m), deterministic order

        def stack(chunk) -> np.ndarray:
            return np.stack([w_polys[pair] for pair in chunk])

        # Per arm: ``transform(chunk)`` batch-transforms the weights of a
        # chunk of pairs into spectrum rows, ``key_of(pair)`` names the
        # pair's cached spectrum and ``product(w_rows, a_rows)`` multiplies
        # and inverse-transforms.  Mode "ntt" runs the float64 "fft" arm
        # when its certificate holds and then reports the rounding residual.
        residual = arm == "fft"
        if arm == "ntt":
            plan = self._ntt_plan(n, q)

            def transform(chunk):
                return plan.forward_batch(from_centered(stack(chunk), q))

            def key_of(pair):
                return ("ntt-wspec", n, q, w_polys[pair].tobytes())

            with _Timer(stats, "activation_transform"):
                a_spec = plan.forward_batch(from_centered(a_stack, q))

            def product(w_rows: np.ndarray, a_rows: np.ndarray) -> np.ndarray:
                spec = mulmod(a_rows, w_rows, q)
                return centered(plan.inverse_batch(spec), q)

        else:
            pipe = fft_pipeline(self.plan_cache, n, self.weight_config)
            if arm == "sparse":
                with _Timer(stats, "weight_transform"):
                    transform, key_of = self._sparse_weight_source(
                        n, enc, w_polys, pairs, stats
                    )
            else:
                cfg_key = approx_config_key(self.weight_config)

                def transform(chunk):
                    return pipe.weight_forward_batch(stack(chunk)).values

                def key_of(pair):
                    return ("fft-wspec", n, cfg_key, w_polys[pair].tobytes())

                if arm == "flash":
                    # Dense fixed-point weight FFT: every butterfly
                    # multiplies, so realized == dense == model.
                    stages = (n // 2).bit_length() - 1
                    dense = (n // 4) * stages * len(pairs)
                    stats.weight_transforms += len(pairs)
                    stats.weight_mults_realized += dense
                    stats.weight_mults_dense += dense
                    stats.weight_mults_model += dense
            with _Timer(stats, "activation_transform"):
                a_spec = pipe.activation_forward_batch(
                    a_stack.astype(np.float64)
                )

            def product(w_rows: np.ndarray, a_rows: np.ndarray):
                return _round_rows_exact(
                    pipe.multiply_spectra_batch(w_rows, a_rows), residual
                )

        cache = self.plan_cache

        def spectra(chunk: List[Tuple[int, int]]) -> np.ndarray:
            """The chunk's weight spectra, one row per pair."""
            if not cache_spectra:
                return transform(chunk)
            return np.stack(cache.get_or_build_many(chunk, key_of, transform))

        def group_job(group: List[Tuple[int, int]]) -> np.ndarray:
            a_idx = [
                item * tiles + tile
                for item in range(batch)
                for tile, _ in group
            ]
            w_rows = np.tile(spectra(group), (batch, 1))
            return product(w_rows, a_spec[a_idx])

        groups = _split_groups(
            pairs, max(self._workers(), -(-len(pairs) // _SPECTRA_CHUNK))
        )
        with _Timer(stats, "pointwise+inverse"):
            group_rows = fan_out(groups, group_job, self.max_workers)
        stats.products += len(pairs) * batch
        worst = 0.0
        if residual:
            group_rows, worsts = zip(*group_rows)
            worst = max(worsts)

        with _Timer(stats, "decode"):
            oh, ow = shape.out_height, shape.out_width
            for item in range(batch):
                products: Dict[Tuple[int, int], np.ndarray] = {}
                for group, rows in zip(groups, group_rows):
                    base = item * len(group)
                    for offset, pair in enumerate(group):
                        products[pair] = rows[base + offset]
                y = enc.decode_output(products)
                r0 = row_start
                r1 = min(r0 + y.shape[1], oh)
                total[item, :, r0:r1, :ow] += y[:, : r1 - r0, :ow]
        return worst

    def _sparse_weight_source(self, n, enc, w_polys, pairs, stats):
        """``(transform, key_of)`` of a band's sparse weight spectra.

        All output channels of a tile share one structural pattern
        (:meth:`Conv2dEncoder.weight_valid_indices`), hence one compiled
        pipeline; :func:`sparse_weight_spectra` runs a chunk's weights in
        one batched execution per pattern.  Mult counters are charged
        here, per requested transform, so the accounting is cache-warmth
        independent.
        """
        from repro.sparse.opcount import sparse_fft_mults
        from repro.sparse.patterns import fold_valid_indices

        cfg = self.weight_config
        pipes, patterns = {}, {}
        for tile, count in Counter(tile for tile, _ in pairs).items():
            pattern = fold_valid_indices(enc.weight_valid_indices(tile), n)
            pipe = pipes[tile] = sparse_pipeline(self.plan_cache, n, cfg, pattern)
            patterns[tile] = pattern.tobytes()
            stats.weight_transforms += count
            stats.weight_mults_realized += pipe.mults * count
            stats.weight_mults_dense += pipe.dense_mults * count
            stats.weight_mults_model += sparse_fft_mults(
                tuple(int(v) for v in pattern), n // 2
            ) * count

        def transform(chunk):
            return sparse_weight_spectra(
                [pipes[tile] for tile, _ in chunk],
                np.stack([w_polys[pair] for pair in chunk]),
            )

        cfg_key = approx_config_key(cfg)

        def key_of(pair):
            return (
                "sparse-wspec", n, cfg_key, patterns[pair[0]],
                w_polys[pair].tobytes(),
            )

        return transform, key_of
