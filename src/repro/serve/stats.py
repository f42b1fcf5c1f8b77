"""Serving statistics: rolling latency percentiles and overload counters.

:class:`ServeStats` is the single accounting surface of the serving
front end.  Its core invariant is the **no-silent-drop identity**: every
request the server *received* ends in exactly one terminal counter --

``received == wire_errors' siblings aside,``
``admitted + shed(rate|tenant_queue|server_queue)`` and
``admitted == completed + deadline_misses + errors
+ shed(infeasible|shutdown) + in_flight``

-- which :meth:`ServeStats.accounting` exposes and the loadgen verdict
(and the serve CI smoke) assert to be exact.  Latency percentiles are
computed over a bounded rolling window of *completed* requests, so a
long-running server reports recent p50/p99, not lifetime averages.

All counters are mutated under one internal lock: callers' threads
record admission decisions while the coalescer thread records
completions and breaker transitions concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

#: Terminal shed reasons a request can be refused with (explicit replies).
SHED_REASONS = (
    "rate",          # tenant token bucket empty (admission)
    "tenant_queue",  # tenant's bounded queue full (admission)
    "server_queue",  # global bounded queue full (admission)
    "infeasible",    # remaining deadline smaller than the service estimate
    "shutdown",      # server draining at close
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
    """Cumulative accounting of one :class:`~repro.serve.server
    .InferenceServer` lifetime.

    Args:
        latency_window: size of the rolling completed-latency window.
        clock: monotonic time source (injected in tests).
    """

    def __init__(self, latency_window: int = 4096, clock=time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self.started_at = clock()
        self.received = 0
        self.wire_errors = 0
        self.admitted = 0
        self.completed = 0
        self.deadline_misses = 0
        self.errors = 0
        self.reply_timeouts = 0
        self.degraded_requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.largest_batch = 0
        self.cluster_recoveries = 0
        self.serial_routed_batches = 0
        self.cluster_routed_batches = 0
        self.breaker_trips = 0
        self.breaker_recoveries = 0
        self.breaker_transitions: List[Dict[str, object]] = []
        self.shed: Dict[str, int] = {reason: 0 for reason in SHED_REASONS}
        self.shed_post_admit = 0
        self.per_tenant: Dict[str, Dict[str, int]] = {}
        self._latency = RollingLatency(latency_window)

    # -- tenant helpers ---------------------------------------------------

    def _tenant_locked(self, tenant: str) -> Dict[str, int]:
        row = self.per_tenant.get(tenant)
        if row is None:
            row = {
                "received": 0, "admitted": 0, "completed": 0,
                "shed": 0, "deadline_misses": 0, "errors": 0,
                "degraded": 0,
            }
            self.per_tenant[tenant] = row
        return row

    # -- recording --------------------------------------------------------

    def record_wire_error(self) -> None:
        with self._lock:
            self.wire_errors += 1

    def record_received(self, tenant: str) -> None:
        with self._lock:
            self.received += 1
            self._tenant_locked(tenant)["received"] += 1

    def record_admitted(self, tenant: str) -> None:
        with self._lock:
            self.admitted += 1
            self._tenant_locked(tenant)["admitted"] += 1

    def record_shed(
        self, tenant: str, reason: str, post_admit: bool = False
    ) -> None:
        """Record an explicit refusal.

        ``post_admit=True`` marks a shed of an *already admitted* request
        (infeasible deadline, shutdown drain); these count against the
        admitted total in :meth:`accounting`, admission-stage sheds do not.
        """
        if reason not in self.shed:
            raise ValueError(f"unknown shed reason {reason!r}")
        with self._lock:
            self.shed[reason] += 1
            if post_admit:
                self.shed_post_admit += 1
            self._tenant_locked(tenant)["shed"] += 1

    def record_completed(
        self, tenant: str, latency_s: float, degraded: bool = False
    ) -> None:
        with self._lock:
            self.completed += 1
            row = self._tenant_locked(tenant)
            row["completed"] += 1
            if degraded:
                self.degraded_requests += 1
                row["degraded"] += 1
            self._latency.record(latency_s)

    def record_deadline_miss(self, tenant: str) -> None:
        with self._lock:
            self.deadline_misses += 1
            self._tenant_locked(tenant)["deadline_misses"] += 1

    def record_error(self, tenant: str) -> None:
        with self._lock:
            self.errors += 1
            self._tenant_locked(tenant)["errors"] += 1

    def record_reply_timeout(self) -> None:
        with self._lock:
            self.reply_timeouts += 1

    def record_batch(self, size: int, path: str, recoveries: int = 0) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            if size > self.largest_batch:
                self.largest_batch = size
            if path == "cluster":
                self.cluster_routed_batches += 1
            else:
                self.serial_routed_batches += 1
            self.cluster_recoveries += int(recoveries)

    def record_breaker_transition(
        self, frm: str, to: str, reason: str = ""
    ) -> None:
        with self._lock:
            self.breaker_transitions.append(
                {
                    "at_s": self._clock() - self.started_at,
                    "from": frm,
                    "to": to,
                    "reason": reason,
                }
            )
            if to == "open":
                self.breaker_trips += 1
            if frm in ("half_open", "open") and to == "closed":
                self.breaker_recoveries += 1

    # -- reading ----------------------------------------------------------

    def last_breaker_transition(self) -> Optional[Dict[str, object]]:
        """Most recent breaker transition record, or ``None`` if the
        breaker has never changed state."""
        with self._lock:
            if not self.breaker_transitions:
                return None
            return dict(self.breaker_transitions[-1])

    def p50_ms(self) -> float:
        with self._lock:
            return self._latency.percentile(50.0) * 1e3

    def p99_ms(self) -> float:
        with self._lock:
            return self._latency.percentile(99.0) * 1e3

    def shed_total(self) -> int:
        with self._lock:
            return sum(self.shed.values())

    def accounting(self, in_flight: int = 0) -> Dict[str, int]:
        """The no-silent-drop identity, with the residual made explicit.

        ``unaccounted`` is the number of admitted requests that reached no
        terminal state (and are not in flight): it must be **zero** at all
        times on a healthy server, and the loadgen verdict fails if not.
        """
        with self._lock:
            total_shed = sum(self.shed.values())
            post_admit_shed = self.shed_post_admit
            admission_shed = total_shed - post_admit_shed
            terminal = (
                self.completed + self.deadline_misses + self.errors
                + post_admit_shed
            )
            return {
                "received": self.received,
                "admitted": self.admitted,
                "admission_shed": admission_shed,
                "terminal": terminal,
                "in_flight": int(in_flight),
                "unaccounted": self.admitted - terminal - int(in_flight),
            }

    def to_dict(self, in_flight: int = 0) -> Dict[str, object]:
        accounting = self.accounting(in_flight=in_flight)
        with self._lock:
            return {
                "uptime_s": self._clock() - self.started_at,
                "received": self.received,
                "wire_errors": self.wire_errors,
                "admitted": self.admitted,
                "completed": self.completed,
                "deadline_misses": self.deadline_misses,
                "errors": self.errors,
                "reply_timeouts": self.reply_timeouts,
                "degraded": self.degraded_requests,
                "shed": dict(self.shed),
                "p50_ms": self._latency.percentile(50.0) * 1e3,
                "p99_ms": self._latency.percentile(99.0) * 1e3,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "largest_batch": self.largest_batch,
                "serial_routed_batches": self.serial_routed_batches,
                "cluster_routed_batches": self.cluster_routed_batches,
                "cluster_recoveries": self.cluster_recoveries,
                "breaker": {
                    "trips": self.breaker_trips,
                    "recoveries": self.breaker_recoveries,
                    "transitions": list(self.breaker_transitions),
                },
                "per_tenant": {
                    name: dict(row) for name, row in self.per_tenant.items()
                },
                "accounting": accounting,
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
