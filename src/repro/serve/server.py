"""Overload-resilient multi-tenant inference front end.

:class:`InferenceServer` is the long-running serving layer over the
batched runtime (PR 2) and the crash-recovering cluster (PR 6).  Requests
arrive as CRC32-framed envelopes (:mod:`repro.serve.messages`) and are
decoded and admitted on **the caller's thread**, which then waits for its
reply; a single **coalescer thread** owns all execution.  The design
invariant is *no silent drops*: every request the server receives ends
in exactly one reply -- a result, an explicit shed
with a named reason, a deadline notice, or an error -- and
:class:`~repro.serve.stats.ServeStats.accounting` proves the books
balance at any instant.

Request life cycle::

    the caller's thread                  coalescer thread
    -------------------                  ----------------
    decode (wire errors counted)
    admission: token bucket,
      tenant queue, server queue  ... shed("rate"|"tenant_queue"|"server_queue")
    feasibility vs EWMA estimate  ... shed("infeasible")
    enqueue + wait on event  --->    take head, coalesce same-key requests
                                     (held open only while others are
                                     still on their way in)
                                     ladder clamp + BudgetGuard preflight
                                     breaker.allow() ? cluster : serial
                                     conv2d_batch (one call)
                                     per-request: result | deadline notice
    reply bytes  <---------------    fulfill event

Concurrency contract: the queue, the closing flag and the count of
requests still on their way in are guarded by one condition variable;
all cross-thread counters live in lock-disciplined :class:`ServeStats` /
:class:`AdmissionController` / breaker objects; the coalescer thread
exclusively owns the cluster executor, the serial
:class:`~repro.cluster.worker.WorkerState` and every per-tenant
:class:`~repro.faults.BudgetGuard` (so the unlocked guard object is
single-threaded by construction).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster import ClusterError, ClusterExecutor
from repro.cluster.jobs import (
    MSG_JOB_CONV,
    config_from_wire,
    shape_from_wire,
)
from repro.cluster.worker import WorkerState, execute_job
from repro.faults.channel import ChecksumError
from repro.faults.guard import BudgetGuard
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    absorb_cluster_stats,
    absorb_serve_stats,
)
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.messages import (
    REQ_PING,
    decode_request,
    deadline_reply,
    error_reply,
    pong_reply,
    result_reply,
    shed_reply,
)
from repro.serve.stats import ServeStats


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`InferenceServer`.

    Args:
        coalesce_window_s: upper bound on how long the coalescer holds a
            batch open for same-key requests once it has the head.  The
            hold lasts only while another request is on its way in, and
            never past the head's deadline slack.
        max_batch: largest coalesced batch.
        slo_ms: default latency SLO; clients stamp ``deadline_at`` from it
            when the caller gives no explicit deadline budget.
        tenant_rate / tenant_burst: per-tenant token bucket.
        tenant_queue_limit / server_queue_limit: bounded admission queues.
        ladder_recover_after: clean completions before a degraded tenant
            climbs one ladder rung back up.
        breaker_failures / breaker_recovery_s: circuit-breaker trip
            threshold and open-state probe delay.
        guard_params: BFV parameters for per-tenant noise-budget guards
            (``None`` disables guard preflight).
        guard_policy: ``"fallback"`` or ``"warn"`` -- ``"raise"`` would
            kill the coalescer thread and is rejected.
        guard_min_margin_bits: preflight margin threshold.
        reply_timeout_s: the caller's backstop wait beyond the deadline;
            expiry yields an explicit error reply, never a hang.
    """

    coalesce_window_s: float = 0.002
    max_batch: int = 16
    slo_ms: float = 500.0
    tenant_rate: float = 200.0
    tenant_burst: int = 16
    tenant_queue_limit: int = 32
    server_queue_limit: int = 128
    ladder_recover_after: int = 8
    breaker_failures: int = 3
    breaker_recovery_s: float = 0.25
    guard_params: Optional[object] = None
    guard_policy: str = "fallback"
    guard_min_margin_bits: float = 1.0
    latency_window: int = 4096
    reply_timeout_s: float = 30.0

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.guard_policy not in ("fallback", "warn"):
            raise ValueError(
                "guard_policy must be 'fallback' or 'warn' in a server "
                "(a raising guard would kill the coalescer thread)"
            )


class _PendingRequest:
    """One admitted request parked between its caller and the coalescer.

    ``fulfill`` is idempotent under its own lock: exactly one caller (the
    coalescer on the normal path, the caller's thread on its backstop
    timeout) wins and performs the terminal accounting for this request.
    """

    __slots__ = (
        "request_id", "kind", "tenant", "payload", "deadline_at",
        "received_at", "group_key", "trace_ctx", "reply", "_lock", "_done",
    )

    def __init__(
        self,
        request_id: int,
        kind: str,
        tenant: str,
        payload: Dict[str, Any],
        deadline_at: Optional[float],
        received_at: float,
        group_key: tuple,
        trace_ctx: Optional[tuple] = None,
    ):
        self.request_id = request_id
        self.kind = kind
        self.tenant = tenant
        self.payload = payload
        self.deadline_at = deadline_at
        self.received_at = received_at
        self.group_key = group_key
        self.trace_ctx = trace_ctx
        self.reply: Optional[bytes] = None
        self._lock = threading.Lock()
        self._done = threading.Event()

    def fulfill(self, reply: bytes) -> bool:
        """Attach the terminal reply; ``True`` iff this call won."""
        with self._lock:
            if self.reply is not None:
                return False
            self.reply = reply
        self._done.set()
        return True

    def wait(self, timeout: Optional[float]) -> bool:
        return self._done.wait(timeout)


class _ServiceEstimator:
    """EWMA of batch service time per coalescing key (thread-safe)."""

    def __init__(self, alpha: float = 0.3):
        self._alpha = float(alpha)
        self._lock = threading.Lock()
        self._estimates: Dict[tuple, float] = {}

    def estimate(self, key: tuple) -> Optional[float]:
        with self._lock:
            return self._estimates.get(key)

    def update(self, key: tuple, elapsed_s: float) -> None:
        with self._lock:
            prev = self._estimates.get(key)
            if prev is None:
                self._estimates[key] = float(elapsed_s)
            else:
                self._estimates[key] = (
                    (1.0 - self._alpha) * prev + self._alpha * elapsed_s
                )


def _estimate_key(kind: str, payload: Dict[str, Any]) -> tuple:
    """Feasibility-estimator key: requested execution context, pre-ladder."""
    return (kind, payload["mode"], payload["n"], tuple(payload["shape"]))


class InferenceServer:
    """Multi-tenant batching front end with admission control, deadline
    propagation, circuit-broken cluster execution and per-tenant
    degradation ladders.

    Args:
        config: :class:`ServeConfig`.
        cluster: optional started :class:`~repro.cluster.ClusterExecutor`
            the coalescer routes batches to while the breaker is closed;
            ``None`` serves everything on the in-process serial path.
            The server does **not** own the executor's lifecycle.
        clock: shared monotonic clock (clients must stamp ``deadline_at``
            on the same clock).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        cluster: Optional[ClusterExecutor] = None,
        clock=time.monotonic,
    ):
        self.config = config or ServeConfig()
        self.cluster = cluster
        self._clock = clock
        self.stats = ServeStats(
            latency_window=self.config.latency_window, clock=clock
        )
        self.admission = AdmissionController(
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
            tenant_queue_limit=self.config.tenant_queue_limit,
            server_queue_limit=self.config.server_queue_limit,
            ladder_recover_after=self.config.ladder_recover_after,
            clock=clock,
        )
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            recovery_timeout=self.config.breaker_recovery_s,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self.metrics.set_gauge("serve_breaker_state_code", 0.0)
        self.metrics.set_gauge(
            "serve_breaker_last_transition_s", float(self._clock())
        )
        self._estimator = _ServiceEstimator()
        # Queue, closing flag and on-the-way count share one condition
        # variable ("the lock").  A request is on its way from submit()
        # until it is queued or answered; the coalescer holds a batch open
        # only while that count is non-zero.
        self._lock = threading.Condition()
        self._queue: List[_PendingRequest] = []
        self._closing = False
        self._on_way = 0
        # Coalescer-confined execution state (never touched by callers).
        self._serial_state = WorkerState()
        self._guards: Dict[str, BudgetGuard] = {}
        self._coalescer = threading.Thread(
            target=self._coalesce_loop, name="serve-coalesce", daemon=True
        )
        self._coalescer.start()

    # -- lifecycle --------------------------------------------------------

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drain and stop.  Queued admitted requests get an explicit
        ``shed("shutdown")`` reply; nothing is silently dropped."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._lock.notify_all()
        self._coalescer.join(timeout=60.0)

    # -- health / introspection ------------------------------------------

    _BREAKER_STATE_CODES = {"closed": 0.0, "open": 1.0, "half_open": 2.0}

    def _on_breaker_transition(self, frm: str, to: str, reason: str) -> None:
        """Breaker callback (invoked outside the breaker lock): mirror the
        transition into :class:`ServeStats` (existing behavior) and the
        unified registry, and flag trips to the flight recorder."""
        self.stats.record_breaker_transition(frm, to, reason)
        self.metrics.set_gauge(
            "serve_breaker_state_code",
            self._BREAKER_STATE_CODES.get(to, -1.0),
        )
        self.metrics.set_gauge(
            "serve_breaker_last_transition_s", float(self._clock())
        )
        self.metrics.inc("serve_breaker_transitions_total", to=to)
        obs_trace.tracer.event(
            "serve.breaker_transition",
            incident=(to == "open"),
            frm=frm, to=to, reason=reason,
        )

    def ready(self) -> bool:
        """Readiness: accepting and with admission headroom."""
        with self._lock:
            closing = self._closing
        return (
            not closing
            and self.admission.depth() < self.config.server_queue_limit
        )

    def health(self) -> Dict[str, Any]:
        """Liveness snapshot served to ``serve-ping`` probes."""
        with self._lock:
            closing = self._closing
        last_transition_s = self.metrics.gauge_value(
            "serve_breaker_last_transition_s", default=self.stats.started_at
        )
        return {
            "status": "closing" if closing else "ok",
            "ready": self.ready(),
            "depth": self.admission.depth(),
            "breaker": self.breaker.state(),
            "breaker_state_age_s": max(
                0.0, float(self._clock()) - float(last_transition_s)
            ),
            "breaker_last_transition": self.stats.last_breaker_transition(),
            "p50_ms": self.stats.p50_ms(),
            "p99_ms": self.stats.p99_ms(),
            "shed": self.stats.shed_total(),
            "completed": self.stats.completed,
            "metrics": self.metrics_dict(),
        }

    def stats_dict(self) -> Dict[str, Any]:
        """Full :class:`ServeStats` snapshot with live in-flight count."""
        return self.stats.to_dict(in_flight=self.admission.depth())

    def metrics_dict(self) -> Dict[str, Any]:
        """Unified-registry snapshot (JSON form), adapters refreshed.

        The existing stats objects stay authoritative; this projects
        their current values into the registry so one endpoint carries
        counters, gauges and fixed-bucket histograms together.
        """
        absorb_serve_stats(self.metrics, self.stats_dict())
        if self.cluster is not None:
            absorb_cluster_stats(self.metrics, self.cluster.stats)
        return self.metrics.to_dict()

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of :meth:`metrics_dict`."""
        self.metrics_dict()
        return self.metrics.to_text()

    # -- caller side: the request entry point ----------------------------

    def submit(self, frame: bytes) -> bytes:
        """Serve one framed request; returns the framed reply.

        Thread-safe: decoding and admission run on the caller's thread,
        which then blocks until its reply.  After :meth:`close` the
        request gets an explicit shutdown shed instead of raising.
        """
        span = obs_trace.tracer.span("serve.request")
        with span:
            admitted = None
            with self._lock:
                self._on_way += 1
            try:
                admitted = self._admit(frame, span)
            finally:
                # Every exit of _admit ends the way in, so the count always
                # returns to zero; an admitted request is queued if open.
                with self._lock:
                    self._on_way -= 1
                    queued = (
                        isinstance(admitted, _PendingRequest)
                        and not self._closing
                    )
                    if queued:
                        self._queue.append(admitted)
                    self._lock.notify_all()
            if not isinstance(admitted, _PendingRequest):
                return admitted
            if not queued:
                self._finish_shed(admitted, "shutdown")
            return self._await_reply(admitted)

    def _admit(self, frame: bytes, span) -> Union[bytes, _PendingRequest]:
        """Decode and admit one frame: the immediate reply bytes, or the
        :class:`_PendingRequest` to queue."""
        now = self._clock()
        try:
            kind, request_id, payload = decode_request(frame)
        except (ChecksumError, ValueError) as exc:
            self.stats.record_wire_error()
            return error_reply(0, f"wire error: {exc}")
        span.set(kind=kind, request_id=request_id)

        if kind == REQ_PING:
            return pong_reply(request_id, self.health())

        tenant = payload["tenant"]
        span.set(tenant=tenant)
        self.stats.record_received(tenant)
        with self._lock:
            closing = self._closing
        if closing:
            self.stats.record_shed(tenant, "shutdown")
            return shed_reply(request_id, "shutdown")

        ok, reason, retry_after = self.admission.admit(tenant)
        if not ok:
            self.stats.record_shed(tenant, reason)
            return shed_reply(request_id, reason, retry_after)
        self.stats.record_admitted(tenant)

        deadline_at = payload["deadline_at"]
        est_key = _estimate_key(kind, payload)
        if deadline_at is not None:
            remaining = deadline_at - now
            estimate = self._estimator.estimate(est_key)
            if remaining <= 0.0 or (
                estimate is not None and remaining < estimate
            ):
                self.admission.release(tenant)
                self.stats.record_shed(tenant, "infeasible", post_admit=True)
                return shed_reply(
                    request_id, "infeasible",
                    0.0 if estimate is None else estimate,
                )

        return _PendingRequest(
            request_id=request_id,
            kind=kind,
            tenant=tenant,
            payload=payload,
            deadline_at=deadline_at,
            received_at=now,
            group_key=est_key,
            trace_ctx=span.context(),
        )

    def _await_reply(self, pending: _PendingRequest) -> bytes:
        wait_s = self.config.reply_timeout_s
        if pending.deadline_at is not None:
            wait_s += max(0.0, pending.deadline_at - pending.received_at)
        pending.wait(wait_s)
        if pending.reply is None:
            # Backstop: the coalescer failed to produce a terminal reply in
            # time.  Win the fulfillment race (or lose it to a late
            # coalescer reply) so the client always gets an answer.
            if pending.fulfill(
                error_reply(pending.request_id, "server reply timeout")
            ):
                self.admission.release(pending.tenant)
                self.stats.record_reply_timeout()
                self.stats.record_error(pending.tenant)
        return pending.reply

    # -- coalescer side ---------------------------------------------------

    def _coalesce_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._lock.wait()
                if not self._queue:
                    return  # closing, and every queued request answered
                head = self._queue.pop(0)
                closing = self._closing
            if closing:
                self._finish_shed(head, "shutdown")
                continue
            batch: List[Tuple[_PendingRequest, str, bool]] = []
            try:
                self._gather_batch(head, batch)
                self._execute_batch(batch)
            except Exception as exc:  # noqa: BLE001 - reported per request
                # The head may have failed before joining the batch;
                # fulfill is idempotent, so naming it twice is harmless.
                message = f"{type(exc).__name__}: {exc}"
                for pending in [head] + [p for p, _, _ in batch]:
                    self._finish_error(pending, message)

    def _effective_plan(
        self, pending: _PendingRequest
    ) -> Tuple[str, bool, tuple]:
        """Ladder-clamped + guard-checked execution mode for one request.

        Returns ``(effective_mode, degraded, batch_key)``.
        Runs only on the coalescer thread: per-tenant guards are
        single-threaded by construction.
        """
        payload = pending.payload
        requested = payload["mode"]
        effective = self.admission.effective_mode(pending.tenant, requested)
        if effective != "ntt" and self.config.guard_params is not None:
            guard = self._guards.get(pending.tenant)
            if guard is None:
                guard = BudgetGuard(
                    params=self.config.guard_params,
                    policy=self.config.guard_policy,
                    min_margin_bits=self.config.guard_min_margin_bits,
                )
                self._guards[pending.tenant] = guard
            shape = shape_from_wire(payload["shape"])
            if guard.preflight(
                payload["w"],
                num_accumulated=shape.in_channels,
                layer=f"{pending.tenant}/req{pending.request_id}",
            ):
                effective = "ntt"
                self.admission.degrade(pending.tenant)
        degraded = effective != requested
        key = (
            pending.kind, effective, payload["config"], payload["n"],
            tuple(payload["shape"]), payload["w"].tobytes(),
        )
        return effective, degraded, key

    def _gather_batch(
        self,
        head: _PendingRequest,
        batch: List[Tuple[_PendingRequest, str, bool]],
    ) -> None:
        """Coalesce same-key queued requests behind ``head`` into ``batch``
        (in place: a failure part-way still names every request taken).

        Work-conserving: the batch stays open only while some request is
        still on its way in (between ``submit()`` and the queue), and never
        longer than ``coalesce_window_s`` or the head's deadline slack.  A
        request with nothing else on its way runs at once.
        """
        now = self._clock()
        head_mode, head_degraded, head_key = self._effective_plan(head)
        batch.append((head, head_mode, head_degraded))
        window = self.config.coalesce_window_s
        if head.deadline_at is not None:
            estimate = self._estimator.estimate(head.group_key) or 0.0
            slack = head.deadline_at - now - estimate
            window = max(0.0, min(window, slack))
        window_end = now + window
        plans: Dict[int, Tuple[str, bool, tuple]] = {}
        while len(batch) < self.config.max_batch:
            with self._lock:
                taken = []
                remaining = []
                for pending in self._queue:
                    if len(batch) + len(taken) >= self.config.max_batch:
                        remaining.append(pending)
                        continue
                    plan = plans.get(id(pending))
                    if plan is None:
                        plan = self._effective_plan(pending)
                        plans[id(pending)] = plan
                    if plan[2] == head_key:
                        taken.append((pending, plan[0], plan[1]))
                    else:
                        remaining.append(pending)
                self._queue = remaining
                batch.extend(taken)
                if len(batch) >= self.config.max_batch or self._closing:
                    break
                wait = window_end - self._clock()
                if wait <= 0 or not self._on_way:
                    break
                self._lock.wait(timeout=wait)

    # -- terminal accounting (coalescer + drain paths) --------------------

    def _finish_shed(self, pending: _PendingRequest, reason: str) -> None:
        if pending.fulfill(shed_reply(pending.request_id, reason)):
            self.admission.release(pending.tenant)
            self.stats.record_shed(pending.tenant, reason, post_admit=True)

    def _finish_deadline(self, pending: _PendingRequest, now: float) -> None:
        late_by = 0.0
        if pending.deadline_at is not None:
            late_by = max(0.0, now - pending.deadline_at)
        if pending.fulfill(deadline_reply(pending.request_id, late_by)):
            self.admission.release(pending.tenant)
            self.stats.record_deadline_miss(pending.tenant)

    def _finish_error(self, pending: _PendingRequest, message: str) -> None:
        if pending.fulfill(error_reply(pending.request_id, message)):
            self.admission.release(pending.tenant)
            self.stats.record_error(pending.tenant)

    def _finish_result(
        self,
        pending: _PendingRequest,
        body: Dict[str, Any],
        degraded: bool,
        now: float,
    ) -> None:
        latency = now - pending.received_at
        body = dict(body)
        body["latency_s"] = latency
        body["degraded"] = bool(degraded)
        if pending.fulfill(result_reply(pending.request_id, body)):
            self.admission.release(pending.tenant)
            self.stats.record_completed(
                pending.tenant, latency, degraded=degraded
            )
            self.metrics.observe(
                "serve_request_latency_ms", latency * 1e3, kind=pending.kind
            )
            if not degraded:
                self.admission.note_clean_completion(pending.tenant)

    # -- batch execution --------------------------------------------------

    def _execute_batch(self, batch) -> None:
        now = self._clock()
        live = []
        for pending, mode, degraded in batch:
            if pending.deadline_at is not None and now > pending.deadline_at:
                self._finish_deadline(pending, now)
            else:
                live.append((pending, mode, degraded))
        if not live:
            return
        deadline_s = None
        deadlines = [
            p.deadline_at - now
            for p, _, _ in live
            if p.deadline_at is not None
        ]
        if deadlines:
            deadline_s = max(0.001, min(deadlines))
        started = self._clock()
        # The batch span runs on the coalescer thread, parented to the
        # head request's root span; the cluster executor stamps it onto
        # job envelopes, which is what stitches worker-process spans into
        # this request tree.
        with obs_trace.tracer.span(
            "serve.batch",
            parent=live[0][0].trace_ctx,
            size=len(live),
            kind=live[0][0].kind,
        ):
            self._execute_conv_batch(live, deadline_s)
        elapsed = self._clock() - started
        self._estimator.update(live[0][0].group_key, elapsed)
        tracer = obs_trace.tracer
        if tracer.enabled:
            # One execute span per coalesced request, parented to its own
            # root, so every request trace is a single connected tree even
            # though the physical execution was shared.
            for pending, _mode, _degraded in live:
                tracer.record_span(
                    "serve.execute",
                    start_s=started,
                    end_s=started + elapsed,
                    parent=pending.trace_ctx,
                    batch=len(live),
                )
        self.metrics.observe("serve_batch_ms", elapsed * 1e3)
        self.metrics.inc("serve_batches_total")

    def _cluster_allowed(self) -> bool:
        return self.cluster is not None and self.breaker.allow()

    def _observe_cluster(self) -> int:
        """Feed the breaker from the last cluster call's recovery delta."""
        recoveries = int(self.cluster.last_cluster.get("recoveries", 0))
        if recoveries > 0:
            self.breaker.record_failure(
                f"{recoveries} worker recoveries in batch"
            )
        else:
            self.breaker.record_success()
        return recoveries

    def _execute_conv_batch(self, live, deadline_s: Optional[float]) -> None:
        head, mode, _ = live[0]
        payload = head.payload
        xs = np.stack([p.payload["x"] for p, _, _ in live])
        w = payload["w"]
        recoveries = 0
        path = "serial"
        out = None
        if self._cluster_allowed():
            try:
                out = self.cluster.conv2d_batch(
                    mode,
                    config_from_wire(payload["config"]),
                    xs,
                    w,
                    shape_from_wire(payload["shape"]),
                    payload["n"],
                    deadline_s=deadline_s,
                )
                path = "cluster"
                recoveries = self._observe_cluster()
            except ClusterError as exc:
                self.breaker.record_failure(str(exc))
                out = None
        if out is None:
            job = {
                "mode": mode,
                "config": payload["config"],
                "n": payload["n"],
                "shape": payload["shape"],
                "x": xs,
                "w": w,
            }
            out = execute_job(MSG_JOB_CONV, job, self._serial_state)["out"]
        self.stats.record_batch(len(live), path, recoveries=recoveries)
        now = self._clock()
        for i, (pending, eff_mode, degraded) in enumerate(live):
            if pending.deadline_at is not None and now > pending.deadline_at:
                self._finish_deadline(pending, now)
                continue
            self._finish_result(
                pending,
                {"out": out[i], "mode": eff_mode, "path": path},
                degraded,
                now,
            )


__all__ = ["InferenceServer", "ServeConfig"]
