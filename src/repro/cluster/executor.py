"""High-level sharded execution API over the supervised worker pool.

:class:`ClusterExecutor` turns one batched runtime call into a list of
framed jobs (contiguous batch shards), runs them through the
:class:`~repro.cluster.supervisor.ClusterSupervisor` scheduling loop, and
reassembles results in input order.  Shard boundaries depend only on the
*configured* pool width, never on current pool health, so the work a
caller observes is byte-identical whether every worker lived, half the
pool was SIGKILLed, or the whole batch ran on the serial fallback.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import trace as obs_trace
from repro.runtime.engine import RuntimeStats

from repro.cluster.jobs import (
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    WireBasisParams,
    conv_job_payload,
    mul_job_payload,
)
from repro.cluster.supervisor import (
    ClusterFaultInjector,
    ClusterPolicy,
    ClusterSupervisor,
)

def _split_indices(total: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds (at most ``shards``)."""
    shards = max(1, min(shards, total))
    size = -(-total // shards)
    return [(i, min(i + size, total)) for i in range(0, total, size)]


class ClusterExecutor:
    """Shard batched conv / ``multiply_many`` work across worker processes.

    Like the thread-pool engines, the executor object is confined to the
    submitting thread; the worker processes share nothing with it but the
    job pipes.

    Args:
        policy: :class:`ClusterPolicy` (pool width, deadlines, budgets).
        fault_injector: optional :class:`ClusterFaultInjector` for chaos
            campaigns and recovery tests.
        seed: PRNG seed for the supervisor's virtual requeue backoff.
    """

    def __init__(
        self,
        policy: Optional[ClusterPolicy] = None,
        fault_injector: Optional[ClusterFaultInjector] = None,
        seed: int = 0,
    ):
        self.supervisor = ClusterSupervisor(
            policy=policy, fault_injector=fault_injector, seed=seed
        )
        #: per-call supervision counters (delta of the last run), the dict
        #: that flows into ``RuntimeStats.cluster`` / ``bench-runtime --json``.
        self.last_cluster: Dict[str, float] = {}
        #: the last call's stats: its jobs' summed work counters plus
        #: ``last_cluster``; engines and backends report it as theirs.
        self.last_stats = RuntimeStats()

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ClusterExecutor":
        self.supervisor.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.supervisor.close()

    @property
    def policy(self) -> ClusterPolicy:
        return self.supervisor.policy

    @property
    def stats(self):
        return self.supervisor.stats

    # -- internals -------------------------------------------------------

    def _run(
        self, kind: str, payloads: List[Dict[str, Any]], mode: str, batch: int
    ) -> List[dict]:
        before = self.supervisor.stats.to_dict()
        replies = self.supervisor.run_jobs(kind, payloads)
        self.last_cluster = self.supervisor.stats.snapshot_delta(before)
        self.last_stats = RuntimeStats.summed(
            (reply.get("stats", {}) for reply in replies),
            mode=mode,
            batch=batch,
            workers=self.policy.workers,
            cluster=dict(self.last_cluster),
        )
        return replies

    # -- sharded entry points --------------------------------------------

    @staticmethod
    def _stamp_deadline(
        payloads: List[Dict[str, Any]], deadline_s: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Attach the request SLO budget to every job envelope.

        The supervisor arms each dispatched job's hang deadline with
        ``min(heartbeat_timeout, deadline_ms)``; workers strip the key
        before execution, so results stay byte-identical with or without
        a deadline.
        """
        if deadline_s is not None:
            for payload in payloads:
                payload["deadline_ms"] = max(1.0, float(deadline_s) * 1e3)
        return payloads

    @staticmethod
    def _stamp_trace(
        payloads: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Attach the caller's trace context to every job envelope.

        Same discipline as ``deadline_ms``: workers strip the key before
        execution, run the job under a span parented to it, and ship the
        recorded spans back *beside* the result data, so traced results
        stay byte-identical to untraced runs.  No-op when tracing is off
        or no span is active.
        """
        return obs_trace.stamp_trace_context(payloads)

    def conv2d_batch(
        self,
        mode: str,
        weight_config,
        xs: np.ndarray,
        w: np.ndarray,
        shape,
        n: int,
        deadline_s: Optional[float] = None,
    ) -> np.ndarray:
        """Batched clear-domain convolution, sharded along the batch axis.

        Bit-identical to one unsharded
        :meth:`repro.runtime.engine.BatchedHConvEngine.conv2d_batch` call:
        batch items are independent, and the exact NTT path yields the
        same residues for any admissible per-shard modulus choice.

        Args:
            deadline_s: optional remaining request budget; propagated as
                a per-job ``deadline_ms`` so the supervisor declares
                hung workers within the request SLO.
        """
        xs = np.ascontiguousarray(xs, dtype=np.int64)
        payloads = self._stamp_deadline(
            [
                conv_job_payload(mode, weight_config, n, shape, xs[lo:hi], w)
                for lo, hi in _split_indices(len(xs), self.policy.workers)
            ],
            deadline_s,
        )
        replies = self._run(
            MSG_JOB_CONV, self._stamp_trace(payloads), mode, len(xs)
        )
        return np.concatenate([reply["out"] for reply in replies])

    def multiply_many(
        self,
        backend: str,
        weight_config,
        polys: List,
        weights_list: List[np.ndarray],
        deadline_s: Optional[float] = None,
    ) -> List:
        """Sharded plaintext products over serialized ring polynomials.

        Every polynomial crosses the process boundary in the
        :mod:`repro.protocol.wire` format (validated by
        ``deserialize_poly`` on the worker, re-validated on the reply), so
        the cluster path exercises exactly the wire checks the protocol
        transport relies on.  Each distinct polynomial object (by
        identity, as in the backends) is serialized once and shipped once
        per shard, with each product's row in the shard's blobs, so the
        worker backend lifts and transforms it once.
        """
        from repro.he.backend import distinct_objects
        from repro.protocol.wire import deserialize_poly, serialize_poly

        if len(polys) != len(weights_list):
            raise ValueError("polys and weights_list must have equal length")
        if not polys:
            return []
        basis = polys[0].basis
        distinct, rows = distinct_objects(polys)
        blobs = [serialize_poly(p) for p in distinct]
        payloads = []
        for lo, hi in _split_indices(len(polys), self.policy.workers):
            used, index = np.unique(rows[lo:hi], return_inverse=True)
            payloads.append(mul_job_payload(
                backend, weight_config, basis,
                [blobs[i] for i in used], weights_list[lo:hi], index,
            ))
        replies = self._run(
            MSG_JOB_MUL,
            self._stamp_trace(self._stamp_deadline(payloads, deadline_s)),
            backend,
            len(polys),
        )
        params = WireBasisParams(basis)
        return [
            deserialize_poly(blob, params)[0]
            for reply in replies
            for blob in reply["polys"]
        ]


def make_executor(
    workers: int = 2,
    heartbeat_timeout: float = 30.0,
    max_respawns: int = 8,
    min_workers: int = 1,
    fault_injector: Optional[ClusterFaultInjector] = None,
    seed: int = 0,
) -> ClusterExecutor:
    """Convenience constructor used by the engine/CLI wiring."""
    policy = ClusterPolicy(
        workers=workers,
        heartbeat_timeout=heartbeat_timeout,
        max_respawns=max_respawns,
        min_workers=min_workers,
    )
    return ClusterExecutor(
        policy=policy, fault_injector=fault_injector, seed=seed
    )
