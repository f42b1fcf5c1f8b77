"""Batched parallel HConv runtime: plan caching + vectorized batch passes.

The execution layer between the protocol and the transform kernels:

* :class:`PlanCache` -- bounded, byte-accounted LRU cache for NTT/FFT plans,
  compiled sparse plans and precomputed weight spectra.
* :class:`BatchedHConvEngine` -- clear-domain batched convolution through
  the coefficient encoding (bit-identical to the per-call pipelines).
* :func:`fan_out` / :class:`RuntimeStats` -- the order-preserving worker
  pool and per-call accounting shared with the encrypted-path backends of
  :mod:`repro.he.backend` (``NttPolyMulBackend``, ``FftPolyMulBackend``,
  ``SparseFftPolyMulBackend``), whose ``multiply_many`` batches the
  transforms of the encrypted path and fans independent work across
  workers.
"""

from repro.runtime.engine import BatchedHConvEngine, RuntimeStats, fan_out
from repro.runtime.plan_cache import (
    PlanCache,
    approx_config_key,
    estimate_nbytes,
    value_digest,
)

__all__ = [
    "BatchedHConvEngine",
    "PlanCache",
    "RuntimeStats",
    "approx_config_key",
    "estimate_nbytes",
    "fan_out",
    "value_digest",
]
