"""repro.obs: end-to-end tracing, unified metrics, and profiling exports.

Three pieces, designed to stay out of the hot path unless asked:

- :mod:`repro.obs.trace` -- a low-overhead span tracer.  Instrumented
  code calls ``obs_trace.tracer.span("runtime.encode")``; when tracing
  is disabled (the default) that returns a shared no-op singleton, so
  the cost is one attribute read and one truth test.  When enabled,
  finished spans land in a bounded ring buffer (the flight recorder)
  with monotonic timestamps, pids/thread ids, and parent links inferred
  from a per-thread span stack.  Trace context crosses the CRC32-framed
  cluster wire as a ``_trace_ctx`` envelope key (stripped worker-side,
  same discipline as ``deadline_ms``), so one serve request's spans
  stitch across worker processes while results stay byte-identical.

- :mod:`repro.obs.metrics` -- a lock-disciplined
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  histograms with fixed bucket boundaries) plus adapters that *absorb*
  the serve front end's ``ClusterStats`` and ``ServeStats`` instead of
  replacing them.

- :mod:`repro.obs.export` -- Chrome-trace (``chrome://tracing``) and
  flamegraph-folded exporters over flight-recorder records, with the
  inverse reader and span-forest analysis behind ``python -m repro obs``.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    absorb_cluster_stats,
    absorb_serve_stats,
)
from repro.obs.trace import (
    TRACE_CTX_KEY,
    Span,
    Tracer,
    pop_trace_context,
    reset_for_fork,
    stamp_trace_context,
    traced,
    tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "MetricsRegistry",
    "Span",
    "TRACE_CTX_KEY",
    "Tracer",
    "absorb_cluster_stats",
    "absorb_serve_stats",
    "pop_trace_context",
    "reset_for_fork",
    "stamp_trace_context",
    "traced",
    "tracer",
]
