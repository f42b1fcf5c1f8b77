"""Circuit breaker guarding the cluster executor.

The breaker sits between the batch coalescer and the
:class:`~repro.cluster.ClusterExecutor`.  The cluster *recovers* from
worker death on its own (respawn + replay, PR 6), so a single SIGKILL is
not an outage -- but each recovery costs a heartbeat timeout, and under
sustained worker churn those stalls stack into a retry storm that
inflates every queued request's latency.  The breaker's job is to notice
the churn early and route traffic to the bit-identical serial fallback
until the cluster proves healthy again.

States follow the classic three-state machine:

- ``closed``: traffic flows to the cluster.  Every observed failure
  signal (a :class:`~repro.cluster.ClusterError`: the cluster could not
  run the batch at all, or a batch whose
  :class:`~repro.cluster.ClusterStats` delta shows worker recoveries)
  increments a failure count that decays on success; ``failure_threshold``
  consecutive failures trip the breaker.
- ``open``: all traffic routes to the serial fallback.  After
  ``recovery_timeout`` seconds the next ``allow()`` probe transitions to
  half-open.
- ``half_open``: exactly one probe batch is sent to the cluster.
  Success closes the breaker; failure re-opens it and restarts the
  recovery clock.

All transitions are appended to ``transitions``, the one log of them
(the server counts them by target state and serves this log in
``stats_dict()`` and ``health()``), so a chaos run can assert the
breaker tripped *and* recovered.  A batch that raises was the request's
fault, not the cluster's: the cluster runs a job that raised on a worker
once on its serial path, books no recovery for it and re-raises its
exception, and the server then calls
:meth:`CircuitBreaker.release_probe` instead of recording a failure.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Three-state circuit breaker with injectable clock.

    Args:
        failure_threshold: consecutive failures (while closed) that trip
            the breaker.
        recovery_timeout: seconds the breaker stays open before allowing
            a half-open probe.
        clock: monotonic time source.
        on_transition: optional callback ``(from, to, reason)`` invoked
            *outside* the lock after every state change.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_timeout: float = 1.0,
        clock=time.monotonic,
        on_transition: Optional[Callable[[str, str, str], None]] = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_timeout <= 0:
            raise ValueError("recovery_timeout must be > 0")
        self.failure_threshold = int(failure_threshold)
        self.recovery_timeout = float(recovery_timeout)
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.transitions: List[Dict[str, object]] = []

    # -- state machine ----------------------------------------------------

    def _transition_locked(self, to: str, reason: str) -> Optional[tuple]:
        frm = self._state
        if frm == to:
            return None
        self._state = to
        self.transitions.append(
            {"at": self._clock(), "from": frm, "to": to, "reason": reason}
        )
        return (frm, to, reason)

    def _notify(self, change: Optional[tuple]) -> None:
        if change is not None and self._on_transition is not None:
            self._on_transition(*change)

    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the *next* batch may go to the cluster.

        While open, returns ``False`` until ``recovery_timeout`` elapses,
        then transitions to half-open and admits exactly one probe at a
        time (concurrent callers keep getting ``False`` until the probe
        resolves).
        """
        change = None
        allowed = False
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at >= self.recovery_timeout:
                    change = self._transition_locked(HALF_OPEN, "probe window")
                    self._probe_in_flight = True
                    allowed = True
            elif self._state == HALF_OPEN:
                if not self._probe_in_flight:
                    self._probe_in_flight = True
                    allowed = True
        self._notify(change)
        return allowed

    def record_success(self) -> None:
        change = None
        with self._lock:
            self._failures = 0
            if self._state == HALF_OPEN:
                self._probe_in_flight = False
                change = self._transition_locked(CLOSED, "probe succeeded")
        self._notify(change)

    def record_failure(self, reason: str = "failure") -> None:
        change = None
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_in_flight = False
                self._opened_at = self._clock()
                change = self._transition_locked(
                    OPEN, f"probe failed: {reason}"
                )
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._opened_at = self._clock()
                    change = self._transition_locked(
                        OPEN,
                        f"{self._failures} consecutive failures: {reason}",
                    )
            # while OPEN: failures on the fallback path don't re-arm the
            # clock -- the fallback is not the guarded resource.
        self._notify(change)

    def release_probe(self) -> None:
        """Hand back a half-open probe without a verdict: the batch it
        carried failed for its own reasons, which says nothing about the
        cluster, so the next :meth:`allow` admits a new probe."""
        with self._lock:
            self._probe_in_flight = False

    def to_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "state": self._state,
                "failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "recovery_timeout_s": self.recovery_timeout,
                "transitions": list(self.transitions),
            }


__all__ = ["CLOSED", "HALF_OPEN", "OPEN", "CircuitBreaker"]
