"""Worker-process side of the cluster executor.

:func:`worker_main` is the process entry point: a loop that receives
CRC32-framed job envelopes over its pipe, executes them against a
per-process :class:`WorkerState` (cached engines/backends with their own
integrity-checked plan caches) and replies with framed results.

Every reply carries a cumulative snapshot of the worker's local fault
counters -- wire decode errors from :func:`repro.protocol.wire
.deserialize_poly` and plan-cache integrity evictions -- so the
supervisor folds them into its :class:`~repro.cluster.supervisor
.ClusterStats` incrementally.  A worker that dies (SIGKILL, OOM) loses at
most the counters accumulated since its last reply, not its whole
history.

:func:`execute_job` is deliberately a pure module-level function shared
with the supervisor's in-process serial fallback: the degraded path runs
*exactly* the code a worker would have run, which is what makes the
fallback a bit-identical oracle rather than a second implementation.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.cluster.jobs import (
    MSG_ERROR,
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TAMPER,
    MSG_WARMUP,
    WireBasisParams,
    WireDecodeError,
    basis_from_wire,
    config_from_wire,
    decode_message,
    encode_message,
    shape_from_wire,
)
from repro.faults import corrupt_cache_entry
from repro.faults.channel import ChecksumError
from repro.obs import trace as obs_trace


class WorkerState:
    """Per-process execution state: cached engines, backends, counters."""

    def __init__(self):
        self._engines: Dict[tuple, Any] = {}
        self._backends: Dict[tuple, Any] = {}
        self.jobs_done = 0
        self.wire_errors = 0

    # -- lazily built execution objects ---------------------------------

    def engine(self, mode: str, config_wire):
        key = ("engine", mode, config_wire)
        if key not in self._engines:
            from repro.runtime.engine import BatchedHConvEngine

            self._engines[key] = BatchedHConvEngine(
                mode=mode,
                weight_config=config_from_wire(config_wire),
                max_workers=None,
            )
        return self._engines[key]

    def backend(self, kind: str, config_wire):
        key = ("backend", kind, config_wire)
        if key not in self._backends:
            from repro.he.backend import (
                FftPolyMulBackend,
                NttPolyMulBackend,
                SparseFftPolyMulBackend,
            )

            if kind == "ntt":
                backend = NttPolyMulBackend()
            elif kind == "flash":
                backend = FftPolyMulBackend(
                    weight_config=config_from_wire(config_wire)
                )
            elif kind == "sparse":
                backend = SparseFftPolyMulBackend(
                    weight_config=config_from_wire(config_wire)
                )
            else:
                raise ValueError(f"unknown backend kind {kind!r}")
            self._backends[key] = backend
        return self._backends[key]

    # -- fault counters ---------------------------------------------------

    def caches(self):
        """The ``plan_cache`` of every engine and backend in this process."""
        for owner in (*self._engines.values(), *self._backends.values()):
            yield owner.plan_cache

    def cache_corruptions(self) -> int:
        """Total integrity evictions across every cache this process owns."""
        return sum(cache.corruptions for cache in self.caches())

    def counters(self) -> Dict[str, int]:
        """Cumulative per-process counter snapshot (attached to replies)."""
        return {
            "jobs": self.jobs_done,
            "wire_errors": self.wire_errors,
            "cache_corruptions": self.cache_corruptions(),
        }


# ---------------------------------------------------------------------------
# Job execution (shared with the supervisor's serial fallback)
# ---------------------------------------------------------------------------


def execute_job(kind: str, payload: Dict[str, Any], state: WorkerState) -> dict:
    """Execute one job payload; returns the reply payload.

    Raises:
        WireDecodeError: a serialized polynomial in the payload failed
            :func:`~repro.protocol.wire.deserialize_poly` validation.
        Exception: anything the job raises propagates (the supervisor
            runs the job once on its serial path and re-raises what that
            run raises).
    """
    if kind == MSG_JOB_CONV:
        return _execute_conv(payload, state)
    if kind == MSG_JOB_MUL:
        return _execute_mul(payload, state)
    raise ValueError(f"unknown job kind {kind!r}")


def _execute_conv(payload: Dict[str, Any], state: WorkerState) -> dict:
    engine = state.engine(payload["mode"], payload["config"])
    shape = shape_from_wire(payload["shape"])
    out = engine.conv2d_batch(payload["x"], payload["w"], shape, payload["n"])
    state.jobs_done += 1
    return {"out": out, "stats": engine.last_stats.work()}


def _execute_mul(payload: Dict[str, Any], state: WorkerState) -> dict:
    from repro.protocol.wire import deserialize_poly, serialize_poly

    basis = basis_from_wire(payload["basis"])
    params = WireBasisParams(basis)
    polys = []
    for i, blob in enumerate(payload["polys"]):
        try:
            poly, _ = deserialize_poly(blob, params)
        except ValueError as exc:
            state.wire_errors += 1
            raise WireDecodeError(
                f"job polynomial {i} failed wire validation: {exc}"
            ) from exc
        polys.append(poly)
    backend = state.backend(payload["backend"], payload["config"])
    outs = backend.multiply_many(
        [polys[i] for i in payload["index"]], payload["weights"]
    )
    state.jobs_done += 1
    return {
        "polys": [serialize_poly(p) for p in outs],
        "stats": backend.last_stats.work(),
    }


# ---------------------------------------------------------------------------
# Process entry point
# ---------------------------------------------------------------------------


def worker_main(conn, slot: int) -> None:
    """Receive-execute-reply loop of one cluster worker process.

    Args:
        conn: the worker end of the supervisor's duplex pipe.
        slot: pool slot index (stable across respawns; for diagnostics).
    """
    # A forked child may inherit the parent's tracer with its lock held
    # by another thread; rebind a fresh one before anything can touch it.
    obs_trace.reset_for_fork()
    state = WorkerState()
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        try:
            kind, job_id, payload = decode_message(data)
        except (ChecksumError, ValueError) as exc:
            # The job frame itself was damaged in transit: report it under
            # job id 0 (a cluster fault) so the supervisor requeues.
            state.wire_errors += 1
            _safe_send(conn, encode_message(MSG_ERROR, 0, {
                "error": str(exc), "counters": state.counters(),
            }))
            continue
        if kind == MSG_SHUTDOWN:
            break
        if kind == MSG_TAMPER:
            tampered = sum(
                corrupt_cache_entry(cache) for cache in state.caches()
            )
            _safe_send(conn, encode_message(MSG_RESULT, job_id, {
                "data": {"tampered": tampered}, "counters": state.counters(),
            }))
            continue

        # Injected-fault decorations (chaos campaigns / recovery tests)
        # and supervisor-side scheduling metadata: all are envelope-level
        # keys the execution code must never see.
        hang_s = 0.0
        duplicate = False
        trace_ctx = None
        if isinstance(payload, dict):
            hang_s = float(payload.pop("_inject_hang_s", 0.0))
            duplicate = bool(payload.pop("_inject_duplicate", False))
            payload.pop("deadline_ms", None)  # armed supervisor-side
            trace_ctx = obs_trace.pop_trace_context(payload)
        if hang_s > 0.0:
            time.sleep(hang_s)  # simulated hang: the supervisor's deadline fires

        spans = None
        try:
            if kind == MSG_WARMUP:
                execute_job(payload["job_kind"], payload["job"], state)
                reply = {"warmed": True}
            elif trace_ctx is not None:
                reply, spans = _traced_execute(
                    kind, payload, state, trace_ctx, slot
                )
            else:
                reply = execute_job(kind, payload, state)
        except Exception as exc:  # noqa: BLE001 - reported, never swallowed
            # The job raised (WireDecodeError included): reported under
            # its job id, the job's own fault, never requeued.
            _safe_send(conn, encode_message(MSG_ERROR, job_id, {
                "error": f"{type(exc).__name__}: {exc}",
                "counters": state.counters(),
            }))
            continue
        envelope = {"data": reply, "counters": state.counters()}
        if spans:
            # Spans travel beside -- never inside -- the result data, so
            # traced results stay byte-identical to untraced runs.
            envelope["spans"] = spans
        message = encode_message(MSG_RESULT, job_id, envelope)
        _safe_send(conn, message)
        if duplicate:
            _safe_send(conn, message)  # exercises exactly-once discard
    conn.close()


def _traced_execute(kind, payload, state, trace_ctx, slot):
    """Run one job under a ``cluster.job`` span parented to the caller.

    The worker-local tracer is enabled only for the duration of the job;
    its buffer is drained into the reply so the supervisor can stitch
    the worker's spans (engine stage timers included, via the per-thread
    span stack) into the request's trace.
    """
    tracer = obs_trace.tracer
    was_enabled = tracer.enabled
    if not was_enabled:
        tracer.enable(capacity=512)
        tracer.clear()
    try:
        with tracer.span("cluster.job", parent=trace_ctx, kind=kind,
                         slot=slot):
            reply = execute_job(kind, payload, state)
    finally:
        spans = tracer.drain()
        if not was_enabled:
            tracer.disable()
    return reply, spans


def _safe_send(conn, data: bytes) -> bool:
    try:
        conn.send_bytes(data)
        return True
    except (BrokenPipeError, OSError):
        return False
