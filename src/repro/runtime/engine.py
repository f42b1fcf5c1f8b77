"""Batched HConv execution engine (the CPU-side runtime of the system).

Every HConv used to run one ciphertext at a time through freshly built FFT
plans.  This module stacks many polynomial pairs into 2-D arrays and runs
the exact or approximate folded-FFT butterflies over the batch axis in single
vectorized numpy passes, amortizing:

* **plans** -- twiddle tables and pipelines come from a bounded
  :class:`repro.runtime.plan_cache.PlanCache`;
* **activation transforms** -- computed once per input tile and reused by
  all output channels;
* **weight transforms** -- streamed through the output-channel group jobs
  (the Section III-B dataflow that shares activation transforms and
  computes weight transforms as they are consumed): each job transforms
  the weights of its output channels, all tiles, in one batch, multiplies,
  inverse-transforms and drops the spectra.  Only when all of a call's
  distinct weight spectra fit the plan cache are they cached, so a warm
  layer reuses them across calls;
* **inverse transforms** -- on the exact arms the tile products of an
  output channel are summed in the spectral domain, leaving one inverse
  per ``(item, out_channel)``.

Independent RNS limbs and output-channel groups fan out across a
``concurrent.futures`` thread pool (numpy releases the GIL inside the
vectorized kernels); results are reassembled by index so ordering is
deterministic and byte-identical to the serial fallback.
"""

from __future__ import annotations

import time
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
    certified_digits, digit_split, get_exact_negacyclic, split_digits,
    weight_norm,
)
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.obs import trace as obs_trace
from repro.runtime.plan_cache import (
    PlanCache, approx_config_key, fft_pipeline, sparse_pipeline,
    sparse_weight_spectra,
)

#: Magnitude from which a rounded float no longer fits in int64.
_INT64_BOUND = float(1 << 63)

#: About how many weight spectra one group job transforms and multiplies
#: at a time: a job owns ``ceil(_SPECTRA_CHUNK / tiles)`` whole output
#: channels (at least one) with all of their tiles.  32 spectra are 1 MiB
#: at n=4096; on a 3x3 ResNet-18 layer 32-64 ran fastest, 256 was ~20% and
#: 2048 (half the layer) ~2.3x slower.
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
    call's encoded weight polynomials, from their taps alone."""
    norm2, norm1 = 0.0, 0
    for a, b, band in dict.fromkeys((a, b, band) for a, b, _, _, band in bands):
        taps = Conv2dEncoder(band, n).weight_taps(w[:, :, a::stride, b::stride])
        rows = taps.reshape(-1, taps.shape[-1])
        squares = np.einsum("ij,ij->i", rows, rows)
        norm2 = max(norm2, weight_norm(rows[int(np.argmax(squares))]))
        norm1 = max(norm1, int(np.abs(rows).sum(axis=1).max()))
    return norm2, norm1


def _poly_keys(slots: np.ndarray, taps: np.ndarray) -> List[bytes]:
    """Compact cache keys of a band's weight polynomials, row ``tile * M
    + m`` of the ``(tiles, M, taps)`` ``taps``.

    A key is the bytes of the polynomial's nonzero ``(coefficient index,
    value)`` pairs in tap order, a few hundred bytes instead of ``8 n``.
    :meth:`Conv2dEncoder.weight_slots` strictly decrease in tap order, so
    equal polynomials get equal keys whatever band encoded them.
    """
    flat = taps.reshape(-1, taps.shape[-1])
    rows, cols = np.nonzero(flat)
    entries = np.stack([slots[cols], flat[rows, cols]], axis=1)
    ends = np.cumsum(np.bincount(rows, minlength=len(flat)))
    starts = np.concatenate([[0], ends[:-1]])
    return [entries[a:b].tobytes() for a, b in zip(starts, ends)]


class BatchedHConvEngine:
    """Clear-domain batched HConv over the coefficient encoding.

    The batched counterpart of :func:`repro.core.hconv.hconv_ntt` /
    ``hconv_fft`` / ``hconv_flash`` / ``hconv_sparse``: bit-identical
    results computed in vectorized passes over the whole batch.  Those
    per-call pipelines are the reference the conformance tests and
    ``bench-runtime`` hold this engine to.

    Weight spectra are computed inside the output-channel group jobs,
    each owning whole output channels with all of their tiles (about
    ``_SPECTRA_CHUNK`` spectra per job).  Whether
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

    Mode ``"ntt"`` is exact, on the certified float64 folded FFT: it sums
    an output channel's tile products in the spectral domain and runs one
    inverse transform per ``(item, out_channel)``.  Each call bounds its
    round-off a priori (:meth:`repro.fftcore.exact.ExactNegacyclic
    .float64_bound` from the largest ``|x|`` of its inputs, its tile count
    and the largest ``||w||_2`` and ``||w||_1`` of its encoded weight
    polynomials) and runs on the smallest digit count ``D`` that brings
    the bound below 1/2, which makes the rounding exact: the inputs split
    into ``D`` centered digits stacked along the batch axis, and the exact
    digit outputs recombine in int64.  A call no ``D`` certifies raises
    :class:`ValueError`; one whose outputs may exceed int64 raises
    :class:`OverflowError`, both before any transform.  The call's
    ``runtime.conv2d_batch`` span carries ``rounding_bound``,
    ``rounding_worst`` (the realized worst ``|x - rint(x)|``) and
    ``digits`` (``D``).  Flash and sparse round each tile product and sum
    the integers, bit-identical to their per-call references (sparse under
    the exact-product condition of :mod:`repro.sparse.plan`).

    Args:
        mode: ``"ntt"`` (exact; certified FFT, digit-split as needed),
            ``"flash"`` (approximate fixed-point weight transforms) or
            ``"sparse"`` (flash with compiled sparse weight plans: the
            structural zero pattern of each channel tile drives the
            skipping/merging dataflow of :class:`repro.sparse.plan
            .SparsePlan`; bit-identical to per-call
            :class:`repro.sparse.sparse_fxp.SparseApproxNegacyclic` when
            every twiddle product is exact in float64, the condition in
            :mod:`repro.sparse.plan`).
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

        x_max = max(1, int(np.abs(xs).max() if xs.size else 1))
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
        digits, digit_width = 1, 0
        if self.mode == "ntt":
            # Every output is at most max_m sum|w[m]| * max|x|; the digit
            # sums wrap mod 2**64, so they are exact when that fits int64.
            per_channel = np.abs(w).reshape(len(w), -1).sum(axis=1)
            if int(per_channel.max(initial=0)) * x_max >> 63:
                raise OverflowError("HConv outputs may exceed int64")
            tiles = max(Conv2dEncoder(band, n).num_tiles for *_, band in bands)
            norms = _encoded_weight_norms(w, s, bands, n)
            kernel = get_exact_negacyclic(n)
            digits, certificate = certified_digits(
                x_max,
                lambda d: kernel.float64_bound(*norms, x_max, tiles, d),
            )
            digit_width = digit_split(x_max, digits)[0]
        worst = 0.0
        for a, b, width, row_start, band in bands:
            x_band = xp[:, :, a::s, b::s][
                :, :, row_start : row_start + band.height, :width
            ]
            worst = max(worst, self._run_band(
                x_band, w[:, :, a::s, b::s], band, n, digits, digit_width,
                shape, row_start, total, stats, cache_spectra,
            ))
        if self.mode == "ntt":
            obs_trace.tracer.current_span().set(
                rounding_bound=certificate,
                rounding_worst=worst,
                digits=digits,
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
        A spectrum is ``8 * n`` bytes: ``n/2`` complex128 values.
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
        digits: int,
        digit_width: int,
        shape: ConvShape,
        row_start: int,
        total: np.ndarray,
        stats: RuntimeStats,
        cache_spectra: bool,
    ) -> float:
        """Run one row band, adding its outputs into ``total``; returns
        the band's worst ``|x - rint(x)|`` in mode ``"ntt"``, else 0.

        The inputs split into ``digits`` centered base-``2**digit_width``
        digits (one digit in flash and sparse: the inputs themselves),
        stacked along the batch axis of the activation transform.  Each
        group job owns whole output channels with all of their tiles and
        returns one int64 row per ``(item, channel)``: mode ``"ntt"`` sums
        the tile products in the spectral domain before one inverse
        transform per ``(digit, item, channel)`` and recombines an item's
        digit rows; flash and sparse round each tile product, as their
        per-call references do, and sum the integers.
        """
        batch = x_band.shape[0]
        with _Timer(stats, "encode"):
            enc = Conv2dEncoder(band, n)
            a_stack = np.stack(
                [row for x in x_band for row in enc.encode_input(x)]
            )  # (B * tiles, n)
            slots = enc.weight_slots()
            taps = enc.weight_taps(w_phase)  # (tiles, M, taps)
        tiles, channels = taps.shape[:2]

        def encode(chunk) -> np.ndarray:
            """The weight polynomials of a chunk of ``(tile, m)`` pairs."""
            tile_idx, m_idx = np.array(chunk).T
            rows = np.zeros((len(chunk), n), dtype=np.int64)
            rows[:, slots] = taps[tile_idx, m_idx]
            return rows

        # Per mode: ``transform(chunk)`` batch-transforms the weights of a
        # chunk of pairs into spectrum rows, ``key`` names the kind of
        # their cached spectra and ``product(w_rows, a_rows)`` takes a
        # job's ``(channels, tiles, .)`` weight spectra against the
        # ``(digits * B, tiles, .)`` activation spectra to ``(B, channels,
        # n)`` int64 outputs.  Mode "ntt" also reports the rounding
        # residual.
        mode = self.mode
        pipe = fft_pipeline(self.plan_cache, n, self.weight_config)
        key = ("fft-wspec", n, approx_config_key(self.weight_config))
        if mode == "sparse":
            with _Timer(stats, "weight_transform"):
                transform, pattern = self._sparse_weight_source(
                    n, enc, encode, tiles * channels, stats
                )
            key = ("sparse-wspec",) + key[1:] + (pattern,)
        else:

            def transform(chunk):
                return pipe.weight_forward_batch(encode(chunk)).values

            if mode == "flash":
                # Dense fixed-point weight FFT: every butterfly
                # multiplies, so realized == dense == model.
                stages = (n // 2).bit_length() - 1
                dense = (n // 4) * stages * tiles * channels
                stats.weight_transforms += tiles * channels
                stats.weight_mults_realized += dense
                stats.weight_mults_dense += dense
                stats.weight_mults_model += dense
        with _Timer(stats, "activation_transform"):
            digit_rows = split_digits(a_stack, digit_width, digits)
            a_spec = pipe.activation_forward_batch(
                digit_rows.reshape(-1, n).astype(np.float64)
            )

        if mode == "ntt":

            def product(w_rows: np.ndarray, a_rows: np.ndarray):
                spec = (w_rows[None] * a_rows[:, None]).sum(axis=2)
                rows, worst = _round_rows_exact(
                    pipe.base.inverse_batch(spec), residual=True
                )
                # An item's digit rows recombine in int64; the sums wrap
                # mod 2**64 but the exact outputs fit (checked a priori).
                rows = rows.reshape((digits, batch) + rows.shape[1:])
                joined = rows[0]
                for d in range(1, digits):
                    joined = joined + rows[d] * np.int64(1 << (digit_width * d))
                return joined, worst

        else:

            def product(w_rows: np.ndarray, a_rows: np.ndarray):
                # One row per (item, channel, tile) product.
                shape = (len(a_rows),) + w_rows.shape
                return _round_rows_exact(
                    pipe.multiply_spectra_batch(
                        np.broadcast_to(w_rows, shape),
                        np.broadcast_to(a_rows[:, None], shape),
                    )
                ).sum(axis=2)

        a_spec = a_spec.reshape(digits * batch, tiles, -1)
        cache = self.plan_cache
        if cache_spectra:
            poly_keys = _poly_keys(slots, taps)

            def key_of(pair):
                return key + (poly_keys[pair[0] * channels + pair[1]],)

        def group_job(group: range):
            chunk = [(tile, m) for m in group for tile in range(tiles)]
            if cache_spectra:
                rows = np.stack(cache.get_or_build_many(chunk, key_of, transform))
            else:
                rows = transform(chunk)
            return product(rows.reshape(len(group), tiles, -1), a_spec)

        per_job = max(1, -(-_SPECTRA_CHUNK // tiles))
        groups = _split_groups(
            range(channels), max(self._workers(), -(-channels // per_job))
        )
        with _Timer(stats, "pointwise+inverse"):
            group_rows = fan_out(groups, group_job, self.max_workers)
        stats.products += tiles * channels * batch
        worst = 0.0
        if mode == "ntt":
            group_rows, worsts = zip(*group_rows)
            worst = max(worsts)

        with _Timer(stats, "decode"):
            # Uniform tiles: every tile's outputs sit at the same indices.
            idx = enc.output_indices(0)
            r1 = min(row_start + band.out_height, shape.out_height)
            ow = shape.out_width
            for group, rows in zip(groups, group_rows):
                y = rows[..., idx].reshape(
                    batch, len(group), band.out_height, band.out_width
                )
                total[:, group[0] : group[-1] + 1, row_start:r1, :ow] += (
                    y[:, :, : r1 - row_start, :ow]
                )
        return worst

    def _sparse_weight_source(self, n, enc, encode, count, stats):
        """``(transform, pattern)`` of a band's ``count`` sparse weight
        spectra.

        Uniform tiles give every tile of a band the same structural
        pattern (:meth:`Conv2dEncoder.weight_valid_indices`), hence one
        compiled pipeline: :func:`sparse_weight_spectra` runs a chunk's
        weights, whatever their tiles, in one batched execution.  Mult
        counters are charged here, per requested transform, so the
        accounting is cache-warmth independent.
        """
        from repro.sparse.patterns import fold_valid_indices

        pattern = fold_valid_indices(enc.weight_valid_indices(0), n)
        pipe = sparse_pipeline(self.plan_cache, n, self.weight_config, pattern)
        stats.weight_transforms += count
        stats.weight_mults_realized += pipe.mults * count
        stats.weight_mults_dense += pipe.dense_mults * count
        stats.weight_mults_model += pipe.model_mults * count

        def transform(chunk):
            return sparse_weight_spectra([pipe] * len(chunk), encode(chunk))

        return transform, pattern.tobytes()
