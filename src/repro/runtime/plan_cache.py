"""Bounded, keyed cache for transform plans and precomputed spectra.

Every hot path in the repository used to keep its own unbounded dict cache
(NTT plans in :mod:`repro.ntt.ntt`, weight spectra and FFT pipelines in
:mod:`repro.he.backend`).  :class:`PlanCache` replaces those with one
byte-accounted LRU structure: entries are keyed by arbitrary hashable
tuples -- typically ``(kind, degree, modulus)`` for NTT plans and
``(kind, degree, config_key, weights_bytes)`` for weight spectra -- and
evicted least-recently-used when a capacity is exceeded.

Each weight-spectrum consumer (:class:`repro.runtime.BatchedHConvEngine`
and every :mod:`repro.he.backend` backend) owns one ``plan_cache`` and
fills it through one path: :func:`fft_pipeline` and :func:`sparse_pipeline`
for plans, :meth:`PlanCache.get_or_build_many` for spectra (one lookup
per distinct key, one batched build of the misses) and
:func:`sparse_weight_spectra` for every sparse weight transform.

Two full-cache policies exist because the paper needs both:

* ``on_full="evict"`` -- the runtime behaviour: never hold more than
  ``capacity_bytes``, evicting LRU entries (an entry larger than the whole
  capacity is returned but not retained).
* ``on_full="error"`` -- the Figure 1 memory-wall model, as the weight
  spectrum store of :class:`repro.he.backend.NttPolyMulBackend`
  (``NttPolyMulBackend(plan_cache=PlanCache(capacity_bytes=...,
  on_full="error"))``): exceeding the budget raises :class:`MemoryError`,
  demonstrating why storing NTT-domain weights is infeasible at ResNet
  scale.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)


def estimate_nbytes(value: Any) -> int:
    """Best-effort byte footprint of a cached value.

    Understands numpy arrays, containers of arrays, objects exposing a
    ``plan_bytes`` property (transform plans) and objects with ``values``
    arrays (:class:`repro.fftcore.approx_pipeline.ApproxSpectrum`).
    """
    import numpy as np

    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    plan_bytes = getattr(value, "plan_bytes", None)
    if isinstance(plan_bytes, (int, np.integer)):
        return int(plan_bytes)
    if isinstance(value, (list, tuple)):
        return sum(estimate_nbytes(v) for v in value)
    if isinstance(value, dict):
        return sum(estimate_nbytes(v) for v in value.values())
    values = getattr(value, "values", None)
    if isinstance(values, np.ndarray):
        return int(values.nbytes) + estimate_nbytes(
            getattr(value, "scale", None)
        )
    if isinstance(value, (int, float, complex)):
        return 8
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    return 0


def value_digest(value: Any) -> Optional[int]:
    """CRC32 digest of the array content of a cached value.

    Walks the same structures as :func:`estimate_nbytes` (arrays,
    containers of arrays, spectrum objects with ``values`` arrays) and
    folds their raw bytes, dtypes and shapes into one CRC32.  Returns
    ``None`` for values with no digestible content (e.g. opaque transform
    plans), which the integrity check then skips.  A C-contiguous array's
    buffer is read in place, without a copy.
    """
    import numpy as np

    state = {"crc": 0, "found": False}

    def mix(data) -> None:
        state["crc"] = zlib.crc32(data, state["crc"])
        state["found"] = True

    def walk(v: Any) -> None:
        if v is None:
            return
        if isinstance(v, np.ndarray):
            data = np.ascontiguousarray(v)
            # Object arrays export no buffer; their bytes are pointers.
            mix(data.tobytes() if data.dtype.hasobject else data)
            mix(repr((v.dtype.str, v.shape)).encode())
            return
        if isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
            return
        if isinstance(v, dict):
            for item in v.values():
                walk(item)
            return
        if isinstance(v, (bytes, bytearray)):
            mix(v)
            return
        if isinstance(v, (bool, int, float, complex, str, np.generic)):
            mix(repr(v).encode())
            return
        values = getattr(v, "values", None)
        if isinstance(values, np.ndarray):
            walk(values)
            walk(getattr(v, "scale", None))
            return
        payload = getattr(v, "digest_payload", None)
        if callable(payload):
            # Compiled plans (e.g. repro.sparse.plan.SparsePlan) expose
            # their index/twiddle arrays for integrity checking.
            walk(payload())
            return
        # Opaque objects (other transform plans etc.): nothing to digest.

    walk(value)
    return state["crc"] if state["found"] else None


class PlanCache:
    """Keyed LRU cache with byte accounting and hit/miss statistics.

    Args:
        capacity_bytes: byte budget; ``None`` means unbounded.
        max_entries: optional entry-count bound (applied with LRU order).
        on_full: ``"evict"`` (LRU eviction, the runtime default) or
            ``"error"`` (raise :class:`MemoryError` when the byte budget is
            exceeded -- the paper's memory-wall model).
        check_integrity: digest each entry's array content at insert
            (:func:`value_digest`) and re-verify on every hit; a tampered
            entry is evicted and counted in ``corruptions`` instead of
            being served, so the caller transparently recomputes it.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        on_full: str = "evict",
        check_integrity: bool = False,
    ):
        if on_full not in ("evict", "error"):
            raise ValueError(f"unknown on_full policy {on_full!r}")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.max_entries = max_entries
        self.on_full = on_full
        self.check_integrity = check_integrity
        self._entries: "OrderedDict[Hashable, Tuple[Any, int, Optional[int]]]" = (
            OrderedDict()
        )
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def _intact_locked(self, key: Hashable) -> bool:
        """Verify (and on mismatch evict) the entry under ``key``.

        Returns ``False`` when the entry was corrupted and dropped; callers
        then treat the lookup as a miss and rebuild.
        """
        if not self.check_integrity:
            return True
        value, size, digest = self._entries[key]
        if digest is None or value_digest(value) == digest:
            return True
        self._entries.pop(key)
        self._bytes -= size
        self.corruptions += 1
        return False

    # -- inspection ------------------------------------------------------
    # All snapshots take the lock: ``stats()`` reads several counters that
    # must come from one consistent state, and even single-field reads
    # interleave with ``put``'s pop/reinsert windows.  ``_lock`` is an
    # RLock, so nesting (``stats`` -> ``hit_rate``) is fine.

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def cached_bytes(self) -> int:
        """Bytes held by cached values (per the size estimator)."""
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Consistent snapshot of counters for reports and benchmarks."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "cached_bytes": self._bytes,
                "capacity_bytes": self.capacity_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "corruptions": self.corruptions,
                "hit_rate": self.hit_rate,
            }

    def keys(self):
        with self._lock:
            return list(self._entries.keys())

    # Dict-style access, so a PlanCache is a drop-in for the plain dict
    # caches it replaced (misses raise KeyError instead of counting).

    def __getitem__(self, key: Hashable) -> Any:
        with self._lock:
            if key not in self._entries or not self._intact_locked(key):
                raise KeyError(key)
            self._entries.move_to_end(key)
            return self._entries[key][0]

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    # -- core operations -------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``, refreshing its LRU position on a hit."""
        with self._lock:
            if key in self._entries and self._intact_locked(key):
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any, nbytes: Optional[int] = None) -> Any:
        """Insert ``value`` under ``key``, applying the full-cache policy.

        Returns the value (possibly without retaining it, when a single
        entry exceeds the whole byte budget under the eviction policy).
        """
        size = estimate_nbytes(value) if nbytes is None else int(nbytes)
        digest = value_digest(value) if self.check_integrity else None
        with self._lock:
            if (
                self.on_full == "evict"
                and self.capacity_bytes is not None
                and size > self.capacity_bytes
            ):
                # Oversized entry: caching it would only evict every other
                # entry and then itself; hand it back without retaining.
                if key in self._entries:
                    self._bytes -= self._entries.pop(key)[1]
                return value
            if key in self._entries:
                self._bytes -= self._entries.pop(key)[1]
            self._entries[key] = (value, size, digest)
            self._bytes += size
            if self.on_full == "error":
                if (
                    self.capacity_bytes is not None
                    and self._bytes > self.capacity_bytes
                ):
                    raise MemoryError(
                        f"plan cache exceeds {self.capacity_bytes} bytes "
                        f"({self._bytes} held; the Figure 1 memory wall)"
                    )
                return value
            self._shrink_locked()
            return value

    def _shrink_locked(self) -> None:
        """Evict LRU entries until both capacity bounds hold."""
        while self._entries and (
            (
                self.capacity_bytes is not None
                and self._bytes > self.capacity_bytes
            )
            or (
                self.max_entries is not None
                and len(self._entries) > self.max_entries
            )
        ):
            _, (_, size, _) = self._entries.popitem(last=False)
            self._bytes -= size
            self.evictions += 1

    def get_or_build(
        self,
        key: Hashable,
        build: Callable[[], Any],
        nbytes: Optional[int] = None,
    ) -> Any:
        """Return the cached value for ``key`` or build, insert and return it.

        The build runs outside the lock (plan construction can be slow); a
        concurrent duplicate build is tolerated and the first inserted value
        wins, keeping results deterministic for pure builders.
        """
        with self._lock:
            if key in self._entries and self._intact_locked(key):
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key][0]
            self.misses += 1
        value = build()
        with self._lock:
            if key in self._entries and self._intact_locked(key):
                self._entries.move_to_end(key)
                return self._entries[key][0]
        return self.put(key, value, nbytes=nbytes)

    def get_or_build_many(
        self,
        items: Sequence,
        key: Callable[[Any], Hashable],
        build: Callable[[list], Sequence],
    ) -> List[Any]:
        """The cached values of ``items``, in order, building all misses
        in one call.

        Each distinct ``key(item)`` is looked up once; ``build`` receives
        the first item of every missing key, in order, and returns one
        value per item (e.g. the rows of one batched transform).  The new
        values are put in the cache; items sharing a key share its value.
        """
        keys = [key(item) for item in items]
        values = {k: self.get(k) for k in dict.fromkeys(keys)}
        missing = [k for k, value in values.items() if value is None]
        if missing:
            first: Dict[Hashable, Any] = {}
            for k, item in zip(keys, items):
                first.setdefault(k, item)
            built = build([first[k] for k in missing])
            for k, value in zip(missing, built):
                values[k] = self.put(k, value)
        return [values[k] for k in keys]

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __repr__(self) -> str:
        cap = (
            f"{self.capacity_bytes}B"
            if self.capacity_bytes is not None
            else "unbounded"
        )
        with self._lock:
            return (
                f"PlanCache(entries={len(self._entries)}, "
                f"bytes={self._bytes}, capacity={cap}, policy={self.on_full})"
            )


def approx_config_key(config) -> tuple:
    """Hashable cache key for an :class:`ApproxFftConfig` (or ``None``)."""
    if config is None:
        return ("fp64",)
    return (
        config.n,
        tuple(config.stage_widths),
        config.twiddle_k,
        config.twiddle_max_shift,
        config.input_width,
    )


def fft_pipeline(cache: PlanCache, n: int, config):
    """The :class:`repro.fftcore.approx_pipeline.ApproxNegacyclic` of ring
    degree ``n`` with weight-path ``config`` (``None``: float64), built
    once per ``cache``."""
    from repro.fftcore.approx_pipeline import ApproxNegacyclic

    return cache.get_or_build(
        ("fft-plan", n, approx_config_key(config)),
        lambda: ApproxNegacyclic(n, config),
    )


def sparse_pipeline(cache: PlanCache, n: int, config, folded_pattern):
    """The :class:`repro.sparse.plan.SparseWeightPipeline` of one folded
    weight pattern for ring degree ``n``; its compiled
    :class:`repro.sparse.plan.SparsePlan` is built once per ``cache``."""
    from repro.sparse.plan import SparsePlan, SparseWeightPipeline

    key = (
        "sparse-plan",
        n // 2,
        approx_config_key(config),
        folded_pattern.tobytes(),
    )
    plan = cache.get_or_build(
        key, lambda: SparsePlan(config, folded_pattern, sign=+1)
    )
    return SparseWeightPipeline(n, config, folded_pattern, plan=plan)


def sparse_weight_spectra(pipes: Sequence, weights):
    """Sparse approximate spectra of a ``(B, n)`` weight stack.

    Row ``i`` runs ``pipes[i]``, the :func:`sparse_pipeline` of its folded
    pattern; rows sharing a pipeline run in one batched execution (with
    one pipeline, as in the engine, its result is returned as is).
    Returns the ``(B, n/2)`` spectra, each bit-identical to a per-weight
    transform.
    """
    import numpy as np

    groups: Dict[int, List[int]] = {}
    for i, pipe in enumerate(pipes):
        groups.setdefault(id(pipe), []).append(i)
    if len(groups) == 1:
        return pipes[0].weight_forward_batch(weights).values
    rows = np.empty((len(weights), weights.shape[1] // 2), dtype=np.complex128)
    for idxs in groups.values():
        rows[idxs] = pipes[idxs[0]].weight_forward_batch(weights[idxs]).values
    return rows
