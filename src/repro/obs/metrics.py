"""Unified metrics: counters, gauges, and fixed-bucket histograms.

One :class:`MetricsRegistry` instance is the single metrics surface of a
process (the serve front end owns one and exposes it through
``health()``).  It does **not** replace the per-layer stats objects;
:func:`absorb_cluster_stats` and :func:`absorb_serve_stats` project the
serve front end's ``ClusterStats`` and ``ServeStats`` into the registry
on demand (``InferenceServer.metrics_dict``).

Determinism rules:

- Histogram bucket boundaries are fixed at construction (default
  :data:`DEFAULT_LATENCY_BUCKETS_MS`), never adaptive, so two runs with
  the same observations produce identical bucket vectors.
- ``to_dict()`` / ``to_text()`` emit series sorted by (name, labels), so
  snapshots diff cleanly.

Thread safety: callers' threads, the coalescer, and the test harness all
write concurrently; every read-modify-write happens under one internal
lock (``repro lint --concurrency`` runs over this package in CI).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Fixed latency bucket upper bounds (milliseconds).  A value ``v`` lands
#: in the first bucket with ``v <= bound``; larger values overflow into
#: the implicit ``+Inf`` bucket.
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    200.0, 500.0, 1000.0, 2000.0, 5000.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render(name: str, key: _LabelKey) -> str:
    if not key:
        return name
    inner = ",".join('%s="%s"' % (k, v) for k, v in key)
    return "%s{%s}" % (name, inner)


class _Histogram:
    """Fixed-boundary histogram cell.  Callers synchronize."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by ``(name, labels)``."""

    def __init__(
        self, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS
    ):
        if list(buckets) != sorted(set(float(b) for b in buckets)):
            raise ValueError("buckets must be strictly increasing")
        self._lock = threading.Lock()
        self._buckets = tuple(float(b) for b in buckets)
        self._counters: Dict[Tuple[str, _LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], _Histogram] = {}

    # -- writing ----------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            cell = self._histograms.get(key)
            if cell is None:
                cell = _Histogram(self._buckets)
                self._histograms[key] = cell
            cell.observe(float(value))

    # -- reading ----------------------------------------------------------

    def counter_value(
        self, name: str, default: float = 0.0, **labels: object
    ) -> float:
        with self._lock:
            return self._counters.get((name, _label_key(labels)), default)

    def gauge_value(
        self, name: str, default: Optional[float] = None, **labels: object
    ) -> Optional[float]:
        with self._lock:
            return self._gauges.get((name, _label_key(labels)), default)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot, deterministically ordered."""
        with self._lock:
            counters = {
                _render(name, key): value
                for (name, key), value in self._counters.items()
            }
            gauges = {
                _render(name, key): value
                for (name, key), value in self._gauges.items()
            }
            histograms = {}
            for (name, key), cell in self._histograms.items():
                histograms[_render(name, key)] = {
                    "buckets": list(cell.bounds),
                    "counts": list(cell.counts),
                    "sum": cell.total,
                    "count": cell.count,
                }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def to_text(self) -> str:
        """Prometheus-style text exposition (cumulative ``_bucket`` rows)."""
        snap = self.to_dict()
        lines: List[str] = []
        for series, value in snap["counters"].items():
            lines.append("%s %g" % (series, value))
        for series, value in snap["gauges"].items():
            lines.append("%s %g" % (series, value))
        for series, cell in snap["histograms"].items():
            name, brace, inner = series.partition("{")
            inner = inner[:-1] if brace else ""
            cumulative = 0
            for bound, count in zip(
                list(cell["buckets"]) + ["+Inf"], cell["counts"]
            ):
                cumulative += count
                extra = 'le="%s"' % bound
                joined = "%s,%s" % (inner, extra) if inner else extra
                lines.append("%s_bucket{%s} %d" % (name, joined, cumulative))
            suffix = "{%s}" % inner if inner else ""
            lines.append("%s_sum%s %g" % (name, suffix, cell["sum"]))
            lines.append("%s_count%s %d" % (name, suffix, cell["count"]))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Adapters: project existing stats objects into a registry.  Counters in
# the sources are cumulative, so adapters SET gauges (idempotent across
# repeated absorbs) rather than incrementing counters.
# ---------------------------------------------------------------------------


def absorb_cluster_stats(registry: MetricsRegistry, stats) -> None:
    """Project :class:`repro.cluster.supervisor.ClusterStats` totals."""
    data = stats.to_dict() if hasattr(stats, "to_dict") else dict(stats)
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.set_gauge("cluster_" + str(key), float(value))


def absorb_serve_stats(registry: MetricsRegistry, stats_dict: dict) -> None:
    """Project a :meth:`repro.serve.stats.ServeStats.to_dict` snapshot."""
    for key, value in stats_dict.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        registry.set_gauge("serve_" + str(key), float(value))
    shed = stats_dict.get("shed")
    if isinstance(shed, dict):
        for reason, count in shed.items():
            if isinstance(count, (int, float)):
                registry.set_gauge(
                    "serve_shed", float(count), reason=str(reason)
                )
    breaker = stats_dict.get("breaker")
    if isinstance(breaker, dict):
        for key in ("trips", "recoveries"):
            value = breaker.get(key)
            if isinstance(value, (int, float)):
                registry.set_gauge(
                    "serve_breaker_%s" % key, float(value)
                )


__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "absorb_cluster_stats",
    "absorb_serve_stats",
]
