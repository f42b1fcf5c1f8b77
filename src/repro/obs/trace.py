"""Low-overhead span tracer with a bounded flight recorder.

Design constraints, in priority order:

1. **Disabled must be near-free.**  Every instrumented hot path runs
   ``obs_trace.tracer.span(...)`` unconditionally; when tracing is off
   that is one module-attribute read plus one truth test returning a
   shared no-op singleton (no allocation, no lock).  ``bench-check``
   gates the measured overhead (< 3% disabled, < 10% enabled).

2. **Thread-safe when enabled.**  Spans finish on callers', coalescer,
   fan-out, and supervisor threads concurrently; the ring buffer and id
   counter are guarded by one lock, while parent inference uses a
   per-thread span stack (``threading.local``) that needs none.

3. **Cross-process stitching.**  Span/trace ids mix the pid into their
   high bits so ids allocated in different worker processes never
   collide; timestamps are ``time.monotonic()``, which on Linux is
   CLOCK_MONOTONIC -- system-wide, so worker-side timestamps are
   directly comparable to supervisor-side ones.  The executor stamps the
   caller's context onto job envelopes (:func:`stamp_trace_context`),
   workers strip it (:func:`pop_trace_context`), run under a span
   parented to it, and ship their records back *beside* the result data.

4. **Fork-safe.**  The cluster forks workers while other threads may
   hold the tracer lock; a forked child calls :func:`reset_for_fork`
   first thing, rebinding a fresh :class:`Tracer` so it never touches
   the inherited (possibly locked) one.  Instrumented code therefore
   always accesses ``obs_trace.tracer`` as a module attribute -- never
   ``from repro.obs.trace import tracer``.

Record schema (one dict per finished span or event)::

    {"name": str, "trace": int, "span": int, "parent": int | None,
     "ts": float monotonic-seconds, "dur": float seconds,
     "pid": int, "tid": int, "thread": str,
     "status": "ok" | "error" | "truncated",
     "kind": "span" | "event", "attrs": {...}}
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Envelope key carrying ``[trace_id, span_id]`` over the cluster wire.
#: Workers pop it before execution -- same discipline as ``deadline_ms``.
TRACE_CTX_KEY = "_trace_ctx"

DEFAULT_CAPACITY = 8192


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def end(self, status: str = "ok") -> None:
        return None

    def context(self) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; becomes a record dict in the ring buffer on exit."""

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id",
        "attrs", "start_s", "_done",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = time.monotonic()
        self._done = False

    def context(self) -> Tuple[int, int]:
        """``(trace_id, span_id)`` -- what children/wire stamps parent to."""
        return (self.trace_id, self.span_id)

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def end(self, status: str = "ok") -> None:
        if not self._done:
            self._done = True
            self._tracer._finish(self, status)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> bool:
        self.end("error" if exc_type is not None else "ok")
        return False


class Tracer:
    """Ring-buffered flight recorder with per-thread parent inference.

    All shared mutable state (``_records``, ``_seq``, ``_enabled``,
    ``_incident_dir``) is written only under ``_lock``; the per-thread
    span stacks live in ``threading.local`` and are single-owner.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._lock = threading.Lock()
        self._enabled = False
        self._records: deque = deque(maxlen=int(capacity))
        self._seq = 0
        self._id_base = (os.getpid() & 0x3FFFFF) << 40
        self._incident_dir: Optional[str] = None
        self._incident_seq = 0
        self._local = threading.local()

    # -- lifecycle --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(
        self,
        capacity: Optional[int] = None,
        incident_dir: Optional[str] = None,
    ) -> "Tracer":
        """Turn recording on; optionally resize the ring / arm auto-dumps.

        ``incident_dir`` arms the flight recorder: any
        :meth:`event` with ``incident=True`` (breaker trips, worker
        deaths, chaos failures) dumps the current ring to a Chrome-trace
        JSON file in that directory.
        """
        with self._lock:
            self._enabled = True
            if capacity is not None and capacity != self._records.maxlen:
                self._records = deque(self._records, maxlen=int(capacity))
            if incident_dir is not None:
                self._incident_dir = incident_dir or None
        return self

    def disable(self) -> None:
        with self._lock:
            self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # -- recording --------------------------------------------------------

    def _alloc_id(self) -> int:
        with self._lock:
            self._seq += 1
            return self._id_base | self._seq

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _resolve_parent(
        self, parent: Optional[Iterable[int]]
    ) -> Optional[Tuple[int, int]]:
        """Explicit ``(trace, span)`` wins; else the thread's active span."""
        if parent is not None:
            ctx = tuple(parent)
            if len(ctx) == 2:
                return (int(ctx[0]), int(ctx[1]))
            return None
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].context()
        return None

    def span(self, name: str, parent: Optional[Iterable[int]] = None,
             **attrs: Any):
        """Open a span (context manager).  No-op singleton when disabled."""
        if not self._enabled:
            return NOOP_SPAN
        ctx = self._resolve_parent(parent)
        if ctx is None:
            trace_id = self._alloc_id()
            parent_id: Optional[int] = None
        else:
            trace_id, parent_id = ctx
        span = Span(self, name, trace_id, self._alloc_id(), parent_id, attrs)
        self._stack().append(span)
        return span

    def _finish(self, span: Span, status: str) -> None:
        end_s = time.monotonic()
        stack = getattr(self._local, "stack", None)
        if stack:
            if stack[-1] is span:
                stack.pop()
            else:
                # Out-of-order end() (span closed on another thread or
                # leaked): remove without disturbing the rest.
                try:
                    stack.remove(span)
                except ValueError:
                    pass
        record = {
            "name": span.name,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "ts": span.start_s,
            "dur": end_s - span.start_s,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "status": status,
            "kind": "span",
            "attrs": span.attrs,
        }
        with self._lock:
            if self._enabled:
                self._records.append(record)

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Iterable[int]] = None,
        status: str = "ok",
        **attrs: Any,
    ) -> Optional[Tuple[int, int]]:
        """Record a span from already-measured timestamps.

        Used where a context manager cannot wrap the work: per-request
        ``serve.execute`` spans cut from one shared batch execution, and
        the supervisor's ``status="truncated"`` marker for a job whose
        worker died mid-span.
        """
        if not self._enabled:
            return None
        ctx = self._resolve_parent(parent) if parent is not None else None
        if ctx is None:
            trace_id = self._alloc_id()
            parent_id: Optional[int] = None
        else:
            trace_id, parent_id = ctx
        span_id = self._alloc_id()
        record = {
            "name": name,
            "trace": trace_id,
            "span": span_id,
            "parent": parent_id,
            "ts": float(start_s),
            "dur": max(0.0, float(end_s) - float(start_s)),
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "status": status,
            "kind": "span",
            "attrs": dict(attrs),
        }
        with self._lock:
            if self._enabled:
                self._records.append(record)
        return (trace_id, span_id)

    def event(
        self,
        name: str,
        parent: Optional[Iterable[int]] = None,
        incident: bool = False,
        **attrs: Any,
    ) -> None:
        """Record an instant event; ``incident=True`` may dump the ring."""
        if not self._enabled:
            return
        ctx = self._resolve_parent(parent)
        if ctx is None:
            trace_id = self._alloc_id()
            parent_id: Optional[int] = None
        else:
            trace_id, parent_id = ctx
        record = {
            "name": name,
            "trace": trace_id,
            "span": self._alloc_id(),
            "parent": parent_id,
            "ts": time.monotonic(),
            "dur": 0.0,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "thread": threading.current_thread().name,
            "status": "ok",
            "kind": "event",
            "attrs": dict(attrs, incident=bool(incident)),
        }
        dump: Optional[Tuple[str, List[dict]]] = None
        with self._lock:
            if not self._enabled:
                return
            self._records.append(record)
            if incident and self._incident_dir:
                self._incident_seq += 1
                safe = "".join(
                    c if c.isalnum() or c in "._-" else "_" for c in name
                )
                path = os.path.join(
                    self._incident_dir,
                    "obs-incident-%d-%03d-%s.json"
                    % (os.getpid(), self._incident_seq, safe),
                )
                dump = (path, list(self._records))
        if dump is not None:
            self._write_dump(dump[0], dump[1])

    @staticmethod
    def _write_dump(path: str, records: List[dict]) -> None:
        from repro.obs.export import to_chrome_trace

        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(to_chrome_trace(records), handle)
        except OSError:
            pass  # incident dumps are best-effort; never fail the caller

    # -- reading / transport ----------------------------------------------

    def current_context(self) -> Optional[Tuple[int, int]]:
        """The calling thread's active span context (``None`` when idle)."""
        if not self._enabled:
            return None
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].context()
        return None

    def current_span(self):
        """The calling thread's innermost open span, for attaching results
        computed inside it (the no-op span when idle or disabled)."""
        if not self._enabled:
            return NOOP_SPAN
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else NOOP_SPAN

    def records(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def drain(self) -> List[dict]:
        with self._lock:
            out = list(self._records)
            self._records.clear()
        return out

    def ingest(self, records: Iterable[dict]) -> int:
        """Absorb records shipped from another process (worker replies)."""
        if not self._enabled:
            return 0
        cleaned = [
            r for r in records
            if isinstance(r, dict) and "name" in r and "span" in r
        ]
        if not cleaned:
            return 0
        with self._lock:
            if self._enabled:
                self._records.extend(cleaned)
        return len(cleaned)


#: Process-wide default tracer.  Always access as ``obs_trace.tracer``
#: (module attribute) so :func:`reset_for_fork` rebinds take effect.
tracer = Tracer()


def reset_for_fork() -> Tracer:
    """Rebind a fresh disabled tracer; call first thing in forked children.

    A fork can capture the parent's tracer lock *held* by another thread;
    the child must never touch that object.
    """
    global tracer
    tracer = Tracer()
    return tracer


def stamp_trace_context(payloads: Iterable[Dict[str, Any]]):
    """Attach the caller's active span context to job envelopes.

    No-op (no key added) when tracing is disabled or no span is active,
    so untraced payloads are byte-identical to pre-tracing ones.
    """
    ctx = tracer.current_context()
    if ctx is not None:
        for payload in payloads:
            payload[TRACE_CTX_KEY] = [int(ctx[0]), int(ctx[1])]
    return payloads


def pop_trace_context(payload: Any) -> Optional[Tuple[int, int]]:
    """Strip the wire key worker-side; returns the context or ``None``."""
    if not isinstance(payload, dict):
        return None
    ctx = payload.pop(TRACE_CTX_KEY, None)
    if isinstance(ctx, (list, tuple)) and len(ctx) == 2:
        return (int(ctx[0]), int(ctx[1]))
    return None


def traced(name: str, **static_attrs: Any):
    """Decorator wrapping a function in a span when tracing is enabled.

    The disabled fast path is one module-attribute read and one truth
    test before calling through -- cheap enough for per-batch methods
    (do not use it inside per-element inner loops).
    """

    def decorate(fn):
        def wrapper(*args: Any, **kwargs: Any):
            active = tracer
            if not active._enabled:
                return fn(*args, **kwargs)
            with active.span(name, **static_attrs):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


__all__ = [
    "DEFAULT_CAPACITY",
    "NOOP_SPAN",
    "Span",
    "TRACE_CTX_KEY",
    "Tracer",
    "pop_trace_context",
    "reset_for_fork",
    "stamp_trace_context",
    "traced",
    "tracer",
]
