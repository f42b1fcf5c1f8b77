"""Overload-resilient multi-tenant inference serving.

``repro.serve`` is the long-running front end over the batched runtime
and the crash-recovering cluster: each request is admitted on the caller's
thread through per-tenant token buckets and bounded queues (explicit
backpressure replies, never silent drops), a single coalescer thread
batches compatible work under the latency SLO, request deadlines
propagate end-to-end into per-job cluster deadlines, a circuit breaker
routes around worker churn onto the bit-identical serial path, and
per-tenant :class:`~repro.faults.BudgetGuard` degradation ladders walk
noisy tenants from sparse to approximate to exact execution.  See
``docs/robustness.md`` ("Overload and admission control") and
``docs/runtime.md`` (serve quickstart).
"""

from repro.serve.admission import (
    LADDER,
    AdmissionController,
    TokenBucket,
    clamp_mode,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.stats import SHED_REASONS, RollingLatency, ServeStats

__all__ = [
    "LADDER",
    "SHED_REASONS",
    "AdmissionController",
    "CircuitBreaker",
    "InferenceServer",
    "LoadgenConfig",
    "RollingLatency",
    "ServeConfig",
    "ServeStats",
    "TokenBucket",
    "clamp_mode",
    "run_loadgen",
]
