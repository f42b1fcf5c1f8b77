"""Serving statistics: rolling latency percentiles and overload counters.

:class:`ServeStats` records and reads the serving front end's
accounting.  The counters themselves live in the server's
:class:`~repro.obs.metrics.MetricsRegistry`, the one store of every
serve fact: each ``record_*`` call increments ``serve_<what>_total``
counters there, and :meth:`ServeStats.to_dict` /
:meth:`ServeStats.accounting` are views folded from one snapshot of
them.  The core invariant is the **no-silent-drop identity**: every
request the server *received* ends in exactly one terminal counter --

``received == admitted + shed(rate|tenant_queue|server_queue)`` and
``admitted == completed + deadline_misses + errors
+ shed(infeasible|shutdown) + in_flight``

(wire errors never reach ``received``) -- which :meth:`ServeStats.accounting`
exposes and the loadgen verdict (and the serve CI smoke) assert to be
exact.  Latency percentiles are computed over a bounded rolling window
of *completed* requests, so a long-running server reports recent
p50/p99, not lifetime averages.

Callers' threads record admission decisions while the coalescer thread
records completions concurrently: the registry serializes its counters
under its own lock, and only the latency window and ``largest_batch``
live here, under this object's lock.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: Terminal shed reasons a request can be refused with (explicit replies).
SHED_REASONS = (
    "rate",          # tenant token bucket empty (admission)
    "tenant_queue",  # tenant's bounded queue full (admission)
    "server_queue",  # global bounded queue full (admission)
    "infeasible",    # remaining deadline smaller than the service estimate
    "shutdown",      # server draining at close
)

#: Counters labelled ``tenant``: ``serve_<what>_total`` for each ``what``,
#: which is also the key of that count in a ``per_tenant`` row.
_TENANT_COUNTERS = (
    "received", "admitted", "completed", "shed", "deadline_misses",
    "errors", "degraded",
)


class RollingLatency:
    """Bounded window of latencies with nearest-rank percentiles.

    Not internally locked: callers (:class:`ServeStats`) synchronize.
    """

    def __init__(self, window: int = 4096):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._values: deque = deque(maxlen=window)

    def record(self, seconds: float) -> None:
        self._values.append(float(seconds))

    def __len__(self) -> int:
        return len(self._values)

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile (seconds); ``0.0`` on an empty window."""
        if not 0.0 < pct <= 100.0:
            raise ValueError("pct must be in (0, 100]")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(1, int(-(-len(ordered) * pct // 100)))
        return ordered[rank - 1]


class ServeStats:
    """Recorder and view of one :class:`~repro.serve.server
    .InferenceServer` lifetime's accounting.

    Counters, all in ``metrics``: ``serve_<what>_total`` labelled
    ``tenant`` for each of ``_TENANT_COUNTERS`` (sheds also carry
    ``reason`` and ``admitted``), ``serve_batches_total{path}``,
    ``serve_batched_requests_total``, ``serve_cluster_recoveries_total``,
    ``serve_wire_errors_total``, ``serve_reply_timeouts_total`` and
    ``serve_breaker_transitions_total{to}``.

    Args:
        metrics: the registry the counters live in (a fresh one if
            ``None``).
        clock: monotonic time source (injected in tests).
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ):
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self._lock = threading.Lock()
        self._clock = clock
        self.started_at = clock()
        self.largest_batch = 0
        self._latency = RollingLatency()

    # -- recording --------------------------------------------------------

    def record_wire_error(self) -> None:
        self.metrics.inc("serve_wire_errors_total")

    def record_received(self, tenant: str) -> None:
        self.metrics.inc("serve_received_total", tenant=tenant)

    def record_admitted(self, tenant: str) -> None:
        self.metrics.inc("serve_admitted_total", tenant=tenant)

    def record_shed(
        self, tenant: str, reason: str, post_admit: bool = False
    ) -> None:
        """Record an explicit refusal.

        ``post_admit=True`` marks a shed of an *already admitted* request
        (infeasible deadline, shutdown drain); these count against the
        admitted total in :meth:`accounting`, admission-stage sheds do not.
        """
        if reason not in SHED_REASONS:
            raise ValueError(f"unknown shed reason {reason!r}")
        self.metrics.inc(
            "serve_shed_total", tenant=tenant, reason=reason,
            admitted="true" if post_admit else "false",
        )

    def record_completed(
        self, tenant: str, latency_s: float, degraded: bool = False
    ) -> None:
        self.metrics.inc("serve_completed_total", tenant=tenant)
        if degraded:
            self.metrics.inc("serve_degraded_total", tenant=tenant)
        with self._lock:
            self._latency.record(latency_s)

    def record_deadline_miss(self, tenant: str) -> None:
        self.metrics.inc("serve_deadline_misses_total", tenant=tenant)

    def record_error(self, tenant: str) -> None:
        self.metrics.inc("serve_errors_total", tenant=tenant)

    def record_reply_timeout(self) -> None:
        self.metrics.inc("serve_reply_timeouts_total")

    def record_batch(self, size: int, path: str, recoveries: int = 0) -> None:
        self.metrics.inc("serve_batches_total", path=path)
        self.metrics.inc("serve_batched_requests_total", size)
        if recoveries:
            self.metrics.inc("serve_cluster_recoveries_total", recoveries)
        with self._lock:
            self.largest_batch = max(self.largest_batch, size)

    def record_breaker_transition(
        self, frm: str, to: str, reason: str = ""
    ) -> None:
        """Count one breaker transition by its target state.  The breaker
        keeps the log itself (``CircuitBreaker.transitions``); a trip is a
        move to ``open`` and a recovery a move to ``closed``, which the
        breaker only makes from ``half_open``."""
        self.metrics.inc("serve_breaker_transitions_total", to=to)

    # -- reading ----------------------------------------------------------

    def _fold(self):
        """Fold one registry snapshot into ``(totals, shed, per_tenant)``:
        each counter summed over its labels, sheds by reason, and the
        tenant-labelled counters by tenant."""
        totals: Counter = Counter()
        shed = dict.fromkeys(SHED_REASONS, 0)
        per_tenant: Dict[str, Dict[str, int]] = {}
        for (name, key), value in self.metrics.counters().items():
            if not (name.startswith("serve_") and name.endswith("_total")):
                continue
            what = name[len("serve_"):-len("_total")]
            labels = dict(key)
            value = int(value)
            totals[what] += value
            if "tenant" in labels:
                row = per_tenant.setdefault(
                    labels["tenant"], dict.fromkeys(_TENANT_COUNTERS, 0)
                )
                row[what] += value
            if what == "shed":
                shed[labels["reason"]] += value
                if labels["admitted"] == "true":
                    totals["shed_post_admit"] += value
            elif what == "batches" and labels["path"] == "cluster":
                totals["cluster_routed_batches"] += value
            elif what == "breaker_transitions":
                totals["breaker_to_" + labels["to"]] += value
        return totals, shed, per_tenant

    @staticmethod
    def _accounting(totals: Counter, in_flight: int) -> Dict[str, int]:
        post_admit_shed = totals["shed_post_admit"]
        terminal = (
            totals["completed"] + totals["deadline_misses"]
            + totals["errors"] + post_admit_shed
        )
        return {
            "received": totals["received"],
            "admitted": totals["admitted"],
            "admission_shed": totals["shed"] - post_admit_shed,
            "terminal": terminal,
            "in_flight": int(in_flight),
            "unaccounted": totals["admitted"] - terminal - int(in_flight),
        }

    def accounting(self, in_flight: int = 0) -> Dict[str, int]:
        """The no-silent-drop identity, with the residual made explicit.

        ``unaccounted`` is the number of admitted requests that reached no
        terminal state (and are not in flight): it must be **zero** at all
        times on a healthy server, and the loadgen verdict fails if not.
        """
        return self._accounting(self._fold()[0], in_flight)

    def to_dict(self, in_flight: int = 0) -> Dict[str, object]:
        totals, shed, per_tenant = self._fold()
        with self._lock:
            p50_s = self._latency.percentile(50.0)
            p99_s = self._latency.percentile(99.0)
            largest_batch = self.largest_batch
        return {
            "uptime_s": self._clock() - self.started_at,
            "received": totals["received"],
            "wire_errors": totals["wire_errors"],
            "admitted": totals["admitted"],
            "completed": totals["completed"],
            "deadline_misses": totals["deadline_misses"],
            "errors": totals["errors"],
            "reply_timeouts": totals["reply_timeouts"],
            "degraded": totals["degraded"],
            "shed": shed,
            "p50_ms": p50_s * 1e3,
            "p99_ms": p99_s * 1e3,
            "batches": totals["batches"],
            "batched_requests": totals["batched_requests"],
            "largest_batch": largest_batch,
            "serial_routed_batches": (
                totals["batches"] - totals["cluster_routed_batches"]
            ),
            "cluster_routed_batches": totals["cluster_routed_batches"],
            "cluster_recoveries": totals["cluster_recoveries"],
            "breaker": {
                "trips": totals["breaker_to_open"],
                "recoveries": totals["breaker_to_closed"],
            },
            "per_tenant": per_tenant,
            "accounting": self._accounting(totals, in_flight),
        }

    def describe(self) -> str:
        d = self.to_dict()
        shed = ", ".join(
            f"{k}={v}" for k, v in sorted(d["shed"].items()) if v
        ) or "none"
        lines = [
            f"serve: {d['received']} received, {d['admitted']} admitted, "
            f"{d['completed']} completed "
            f"(p50 {d['p50_ms']:.1f} ms, p99 {d['p99_ms']:.1f} ms)",
            f"  shed: {shed}; deadline misses {d['deadline_misses']}, "
            f"errors {d['errors']}, degraded {d['degraded']}",
            f"  batches: {d['batches']} "
            f"({d['cluster_routed_batches']} cluster / "
            f"{d['serial_routed_batches']} serial, "
            f"largest {d['largest_batch']}), "
            f"cluster recoveries {d['cluster_recoveries']}",
            f"  breaker: {d['breaker']['trips']} trips, "
            f"{d['breaker']['recoveries']} recoveries",
        ]
        for tenant in sorted(d["per_tenant"]):
            row = d["per_tenant"][tenant]
            lines.append(
                f"  tenant {tenant}: {row['admitted']}/{row['received']} "
                f"admitted, {row['completed']} completed, {row['shed']} shed"
            )
        return "\n".join(lines)


__all__ = ["RollingLatency", "SHED_REASONS", "ServeStats"]
