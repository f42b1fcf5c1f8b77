"""Per-tenant admission control: token buckets, bounded queues, ladders.

Admission is the first robustness layer of the serving front end: a
request is either *admitted* (and from then on guaranteed a terminal
reply) or refused immediately with an explicit backpressure reply that
names the reason and a ``retry_after_s`` hint -- the server never holds a
request it cannot queue and never drops one silently.

Three bounded resources gate admission, checked in order:

1. the tenant's **token bucket** (sustained rate + burst) -- a flooding
   tenant exhausts its own bucket and is shed with ``"rate"`` while other
   tenants' buckets are untouched;
2. the tenant's **bounded queue slice** (``"tenant_queue"``);
3. the **global queue bound** (``"server_queue"``).

The controller also owns the per-tenant **degradation ladder**
``sparse -> flash -> ntt``: noise-budget pressure (a
:class:`repro.faults.BudgetGuard` preflight trigger) pushes a tenant one
rung toward the exact-but-slower mode, and a streak of clean completions
walks it back up.  The ladder clamps the *requested* mode, so a degraded
tenant cannot ask its way back onto the approximate path early.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

#: Degradation ladder, fastest/most-approximate first.  A tenant at level
#: ``i`` runs every request at ``LADDER[max(i, requested)]``.
LADDER = ("sparse", "flash", "ntt")


def ladder_level(mode: str) -> int:
    """Ladder position of ``mode`` (exact modes sit at the bottom rung)."""
    try:
        return LADDER.index(mode)
    except ValueError:
        return len(LADDER) - 1  # modes outside the ladder sit with "ntt"


def clamp_mode(requested: str, level: int) -> str:
    """The mode a tenant at ``level`` actually runs ``requested`` at."""
    if requested not in LADDER:
        return requested  # exact / unknown modes are never degraded
    return LADDER[max(ladder_level(requested), level)]


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Thread-safe; time is injected so tests drive it deterministically.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._last = clock()

    def try_acquire(self) -> Tuple[bool, float]:
        """Take one token; returns ``(acquired, retry_after_s)``."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate

    def tokens(self) -> float:
        with self._lock:
            now = self._clock()
            return min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )


class TenantState:
    """Mutable per-tenant record (guarded by the controller's lock)."""

    def __init__(self, name: str, bucket: TokenBucket):
        self.name = name
        self.bucket = bucket
        self.queued = 0           # admitted-but-unfinished request count
        self.level = 0            # current degradation-ladder rung
        self.clean_streak = 0     # consecutive undegraded completions
        self.degradations = 0     # lifetime ladder pushes


class AdmissionController:
    """Bounded, fair admission over all tenants of one server.

    Args:
        tenant_rate: sustained per-tenant request rate (tokens/second).
        tenant_burst: per-tenant bucket capacity.
        tenant_queue_limit: max admitted-but-unfinished requests per tenant.
        server_queue_limit: max admitted-but-unfinished requests in total.
        ladder_recover_after: clean completions before a degraded tenant
            climbs one rung back up the ladder.
        clock: monotonic time source shared with the buckets.
    """

    def __init__(
        self,
        tenant_rate: float = 200.0,
        tenant_burst: int = 16,
        tenant_queue_limit: int = 32,
        server_queue_limit: int = 128,
        ladder_recover_after: int = 8,
        clock=time.monotonic,
    ):
        if tenant_queue_limit < 1 or server_queue_limit < 1:
            raise ValueError("queue limits must be >= 1")
        if ladder_recover_after < 1:
            raise ValueError("ladder_recover_after must be >= 1")
        self.tenant_rate = float(tenant_rate)
        self.tenant_burst = int(tenant_burst)
        self.tenant_queue_limit = int(tenant_queue_limit)
        self.server_queue_limit = int(server_queue_limit)
        self.ladder_recover_after = int(ladder_recover_after)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        self._depth = 0

    # -- tenant registry --------------------------------------------------

    def tenant(self, name: str) -> TenantState:
        with self._lock:
            return self._tenant_locked(name)

    def _tenant_locked(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = TenantState(
                name,
                TokenBucket(
                    self.tenant_rate, self.tenant_burst, clock=self._clock
                ),
            )
            self._tenants[name] = state
        return state

    # -- admission --------------------------------------------------------

    def admit(self, name: str) -> Tuple[bool, str, float]:
        """Try to admit one request; ``(ok, shed_reason, retry_after_s)``.

        An admitted request holds one tenant slot and one global slot
        until :meth:`release` -- callers must pair every successful admit
        with exactly one release (the server does so on every terminal
        reply).
        """
        state = self.tenant(name)
        ok, retry_after = state.bucket.try_acquire()
        if not ok:
            return False, "rate", retry_after
        with self._lock:
            if state.queued >= self.tenant_queue_limit:
                return False, "tenant_queue", 1.0 / self.tenant_rate
            if self._depth >= self.server_queue_limit:
                return False, "server_queue", 1.0 / self.tenant_rate
            state.queued += 1
            self._depth += 1
        return True, "", 0.0

    def release(self, name: str) -> None:
        with self._lock:
            state = self._tenant_locked(name)
            if state.queued > 0:
                state.queued -= 1
            if self._depth > 0:
                self._depth -= 1

    def depth(self) -> int:
        with self._lock:
            return self._depth

    # -- degradation ladder ----------------------------------------------

    def effective_mode(self, name: str, requested: str) -> str:
        with self._lock:
            return clamp_mode(requested, self._tenant_locked(name).level)

    def degrade(self, name: str) -> int:
        """Push a tenant one rung down the ladder; returns its new level."""
        with self._lock:
            state = self._tenant_locked(name)
            state.clean_streak = 0
            state.degradations += 1
            if state.level < len(LADDER) - 1:
                state.level += 1
            return state.level

    def note_clean_completion(self, name: str) -> int:
        """Record an undegraded completion; may climb one rung back up."""
        with self._lock:
            state = self._tenant_locked(name)
            state.clean_streak += 1
            if (
                state.level > 0
                and state.clean_streak >= self.ladder_recover_after
            ):
                state.level -= 1
                state.clean_streak = 0
            return state.level

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                name: {
                    "queued": state.queued,
                    "level": state.level,
                    "mode_floor": LADDER[state.level],
                    "degradations": state.degradations,
                    "tokens": state.bucket.tokens(),
                }
                for name, state in self._tenants.items()
            }


__all__ = [
    "LADDER",
    "AdmissionController",
    "TenantState",
    "TokenBucket",
    "clamp_mode",
    "ladder_level",
]
