"""Supervised multi-process worker pool with crash recovery.

The supervisor owns N worker processes, each reached through its own
duplex pipe carrying CRC32-framed envelopes (:mod:`repro.cluster.jobs`).
Scheduling is a single-threaded event loop:

1. **dispatch** -- idle workers receive the next queued job; every
   dispatch arms a per-job deadline.
2. **collect** -- ``multiprocessing.connection.wait`` blocks until a
   reply arrives or the earliest deadline expires.  Results are applied
   *exactly once* by job id: a late reply for a job that was requeued
   (or a worker's duplicated send) is counted and discarded.
3. **recover** -- a worker that died (EOF/SIGKILL) or blew its deadline
   (hang) is killed and replaced, its plan caches re-warmed by replaying
   one recorded job per execution context, and its in-flight job is
   requeued through the :class:`repro.faults.session.RetryPolicy`
   bounded-retry machinery (virtual backoff, dead letters).
4. **degrade** -- when the respawn budget runs out and the pool shrinks
   below ``min_workers``, or a job exhausts its attempts, the remaining
   work runs on the in-process serial path (the same
   :func:`repro.cluster.worker.execute_job` code), so the caller always
   gets the deterministic answer -- a cluster fault may cost time, never
   correctness.

Worker death is detected before the drain of its pipe, and the drain runs
first: a job whose result was written just before the SIGKILL landed is
applied from the pipe buffer and **not** requeued.
"""

from __future__ import annotations

import os
import random
import signal
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional

from repro.obs import trace as obs_trace

from repro.cluster.jobs import (
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TAMPER,
    MSG_WARMUP,
    decode_message,
    encode_message,
    warmup_key,
    warmup_payload,
)
from repro.cluster.worker import WorkerState, execute_job, worker_main
from repro.faults.channel import ChecksumError, DeadLetter, TransportError
from repro.faults.session import RetryPolicy


class ClusterError(RuntimeError):
    """The cluster (including its serial fallback) could not finish a job."""


@dataclass(frozen=True)
class ClusterPolicy:
    """Supervision and degradation parameters of one worker pool.

    Args:
        workers: initial pool width.
        heartbeat_timeout: seconds a dispatched job may run before its
            worker is declared hung (also bounds liveness probes and
            warmup replays).
        max_respawns: replacement budget of the pool between clean
            calls; once spent, further failures shrink the pool
            instead.  A :meth:`ClusterSupervisor.run_jobs` call in which
            no worker died refills it (the pool does not regrow), so
            sporadic deaths spread over a long life never exhaust it,
            while a crash loop or a job that kills every worker does.
        min_workers: below this pool width the supervisor stops
            scheduling and runs the remaining jobs serially in-process.
        retry: per-job bounded-retry parameters, reusing the
            :class:`repro.faults.session.RetryPolicy` machinery --
            ``max_attempts`` caps dispatches per job and ``backoff`` is
            accounted (virtually) per requeue.
        start_method: ``multiprocessing`` start method (``"fork"`` is the
            fast Linux default; ``"spawn"`` works everywhere).
    """

    workers: int = 2
    heartbeat_timeout: float = 30.0
    max_respawns: int = 8
    min_workers: int = 1
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, timeout=30.0)
    )
    start_method: str = "fork"

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if not 1 <= self.min_workers <= self.workers:
            raise ValueError("need 1 <= min_workers <= workers")


@dataclass
class ClusterStats:
    """Cumulative supervision accounting (one pool lifetime).

    ``wire_errors`` and ``cache_corruptions`` aggregate the *worker-side*
    counters shipped with every reply, so per-process fault detections
    survive the death of the process that detected them.
    """

    workers: int = 0
    jobs: int = 0
    dispatches: int = 0
    worker_deaths: int = 0
    hang_timeouts: int = 0
    respawns: int = 0
    pool_shrinks: int = 0
    warmup_replays: int = 0
    jobs_requeued: int = 0
    duplicate_results: int = 0
    dead_letters: int = 0
    serial_fallback_jobs: int = 0
    wire_errors: int = 0
    cache_corruptions: int = 0
    backoff_seconds: float = 0.0
    dead_letter_log: List[DeadLetter] = field(default_factory=list)

    @property
    def recoveries(self) -> int:
        """Total recovery events (the bench/chaos headline number)."""
        return (
            self.worker_deaths + self.hang_timeouts + self.jobs_requeued
            + self.serial_fallback_jobs
        )

    def to_dict(self) -> Dict[str, float]:
        out = {
            name: getattr(self, name)
            for name in (
                "workers", "jobs", "dispatches", "worker_deaths",
                "hang_timeouts", "respawns", "pool_shrinks",
                "warmup_replays", "jobs_requeued", "duplicate_results",
                "dead_letters", "serial_fallback_jobs", "wire_errors",
                "cache_corruptions", "backoff_seconds",
            )
        }
        out["recoveries"] = self.recoveries
        return out

    def snapshot_delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Per-call view: counters accumulated since ``before``.

        ``workers`` is a gauge (current pool width), not a counter, and is
        reported as-is.
        """
        now = self.to_dict()
        return {
            k: v if k == "workers" else type(v)(v - before.get(k, 0))
            for k, v in now.items()
        }


class ClusterFaultInjector:
    """Seeded worker-level fault injection for chaos campaigns and tests.

    Rate-based decisions draw from one PRNG stream per dispatch, so a
    campaign replays bit-identically under a fixed seed.  Explicit job-id
    sets override the rates for deterministic unit tests.

    Args:
        kill_rate: probability the worker is SIGKILLed immediately
            before its dispatch frame is written (the worker dies blocked
            in ``recv`` with the job in flight, never executing it).
        hang_rate: probability the worker sleeps past the supervisor's
            deadline before executing (exercises hang detection; the
            late result then exercises duplicate discard).
        corrupt_rate: probability the outgoing job frame has one byte
            flipped (the worker's CRC check must catch it).
        duplicate_rate: probability the worker sends its result twice.
        seed: PRNG seed.
        kill_before_jobs: explicit job indices whose dispatch is preceded
            by a SIGKILL (deterministic in-flight death).
        kill_after_jobs: explicit job indices whose *result receipt* is
            followed by a SIGKILL (a completed job must not be reapplied
            or requeued).
        hang_jobs: explicit job indices executed after an injected sleep.
    """

    def __init__(
        self,
        kill_rate: float = 0.0,
        hang_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        seed: int = 0,
        kill_before_jobs=None,
        kill_after_jobs=None,
        hang_jobs=None,
    ):
        for name, rate in (
            ("kill_rate", kill_rate), ("hang_rate", hang_rate),
            ("corrupt_rate", corrupt_rate), ("duplicate_rate", duplicate_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.kill_rate = kill_rate
        self.hang_rate = hang_rate
        self.corrupt_rate = corrupt_rate
        self.duplicate_rate = duplicate_rate
        self._rng = random.Random(seed)
        self.kill_before_jobs = set(kill_before_jobs or ())
        self.kill_after_jobs = set(kill_after_jobs or ())
        self.hang_jobs = set(hang_jobs or ())
        self.injected: Dict[str, int] = {
            "kills": 0, "kills_after": 0, "hangs": 0,
            "corruptions": 0, "duplicates": 0,
        }

    def plan_dispatch(self, job_index: int, attempt: int) -> Dict[str, Any]:
        """Fault plan for one dispatch (first attempts only: a retried job
        runs clean, so bounded budgets always make progress)."""
        plan = {"kill": False, "hang": False, "corrupt": False,
                "duplicate": False}
        if job_index in self.kill_before_jobs and attempt == 1:
            plan["kill"] = True
        if job_index in self.hang_jobs and attempt == 1:
            plan["hang"] = True
        if attempt == 1:
            if self.kill_rate and self._rng.random() < self.kill_rate:
                plan["kill"] = True
            if self.hang_rate and self._rng.random() < self.hang_rate:
                plan["hang"] = True
            if self.corrupt_rate and self._rng.random() < self.corrupt_rate:
                plan["corrupt"] = True
            if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
                plan["duplicate"] = True
        if plan["kill"]:
            self.injected["kills"] += 1
        if plan["hang"]:
            self.injected["hangs"] += 1
        if plan["corrupt"]:
            self.injected["corruptions"] += 1
        if plan["duplicate"]:
            self.injected["duplicates"] += 1
        return plan

    def kill_after(self, job_index: int) -> bool:
        if job_index in self.kill_after_jobs:
            self.kill_after_jobs.discard(job_index)
            self.injected["kills_after"] += 1
            return True
        return False


class _WorkerHandle:
    """One pool slot: process + pipe + in-flight bookkeeping."""

    def __init__(self, slot: int, incarnation: int, process, conn):
        self.slot = slot
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        self.busy_job: Optional[int] = None  # job index, None when idle
        self.busy_id: Optional[int] = None   # envelope job id of busy_job
        self.busy_ctx = None                 # trace context of busy_job
        self.busy_since: float = 0.0         # dispatch time of busy_job
        self.deadline: float = float("inf")
        self.counters_seen: Dict[str, int] = {}

    @property
    def idle(self) -> bool:
        return self.busy_job is None

    def clear(self) -> None:
        self.busy_job = None
        self.busy_id = None
        self.busy_ctx = None
        self.busy_since = 0.0
        self.deadline = float("inf")


class ClusterSupervisor:
    """Self-healing worker pool executing framed jobs with exactly-once
    result application and a deterministic serial fallback.

    The supervisor is confined to the thread that calls it (no internal
    threads, no locks); workers are separate *processes* whose only shared
    state is the job pipes.

    Args:
        policy: supervision parameters (pool width, deadlines, budgets).
        fault_injector: optional :class:`ClusterFaultInjector`.
        seed: PRNG seed for the virtual requeue backoff.
    """

    def __init__(
        self,
        policy: Optional[ClusterPolicy] = None,
        fault_injector: Optional[ClusterFaultInjector] = None,
        seed: int = 0,
    ):
        self.policy = policy if policy is not None else ClusterPolicy()
        self.fault_injector = fault_injector
        self.stats = ClusterStats()
        self._ctx = get_context(self.policy.start_method)
        self._pool: List[_WorkerHandle] = []
        self._incarnations = 0
        # stats.respawns at the end of the last call with no worker
        # death: the budget counts respawns since then.
        self._respawns_at_clean = 0
        self._call_seq = 0
        self._warmups: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._serial_state = WorkerState()
        self._rng = random.Random(seed)
        self._started = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Spawn the initial pool (idempotent)."""
        if self._started or self._closed:
            return
        self._started = True
        for slot in range(self.policy.workers):
            handle = self._spawn(slot, replay_warmups=False)
            if handle is not None:
                self._pool.append(handle)
        self.stats.workers = len(self._pool)

    def close(self) -> None:
        """Shut workers down gracefully, then forcefully."""
        if self._closed:
            return
        self._closed = True
        for w in self._pool:
            try:
                w.conn.send_bytes(encode_message(MSG_SHUTDOWN, 0, None))
            except (BrokenPipeError, OSError):
                pass
        for w in self._pool:
            w.process.join(timeout=1.0)
            if w.process.is_alive():
                w.process.kill()
                w.process.join(timeout=1.0)
            w.conn.close()
        self._pool.clear()

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    # -- spawning / probing ----------------------------------------------

    def _spawn(self, slot: int, replay_warmups: bool = True):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._incarnations += 1
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, slot, self._incarnations),
            daemon=True,
            name=f"repro-cluster-w{slot}.{self._incarnations}",
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(slot, self._incarnations, process, parent_conn)
        if replay_warmups and self._warmups:
            for kind, payload in list(self._warmups.values()):
                if not self._sync_request(
                    handle, MSG_WARMUP, warmup_payload(kind, payload)
                ):
                    self._dispose(handle)
                    return None
                self.stats.warmup_replays += 1
        return handle

    def _dispose(self, handle: _WorkerHandle) -> None:
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=1.0)
        handle.conn.close()

    def _sync_request(self, handle: _WorkerHandle, kind: str, payload) -> bool:
        """One blocking request/reply on an idle worker (ping, warmup)."""
        try:
            handle.conn.send_bytes(encode_message(kind, 0, payload))
        except (BrokenPipeError, OSError):
            return False
        deadline = time.monotonic() + self.policy.heartbeat_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                if not handle.conn.poll(remaining):
                    return False
                data = handle.conn.recv_bytes()
            except (EOFError, OSError):
                return False
            try:
                rkind, rjob_id, rpayload = decode_message(data)
            except (ChecksumError, ValueError):
                return False
            if isinstance(rpayload, dict) and "counters" in rpayload:
                self._fold_counters(handle, rpayload["counters"])
            if rkind == MSG_RESULT and rjob_id != 0:
                # A stale job result still buffered from an earlier batch
                # (e.g. a worker's duplicated send): count the discard and
                # keep waiting for the actual reply.
                self.stats.duplicate_results += 1
                continue
            if rkind in (MSG_PONG, MSG_RESULT):
                return True
            if rkind == MSG_ERROR:
                return False

    def probe(self) -> int:
        """Blocking heartbeat: ping every idle worker; replace the
        unresponsive.

        Returns the number of workers replaced (or dropped when the
        respawn budget is spent).  :meth:`run_jobs` does not call it: it
        only replaces exited processes (:meth:`_replace_exited`) and
        leaves the rest to the dispatch, collect and deadline paths.
        Because the pipe is FIFO, the pong also flushes stale results
        buffered ahead of it.
        """
        replaced = 0
        for handle in list(self._pool):
            alive = handle.process.is_alive() and self._sync_request(
                handle, MSG_PING, None
            )
            if not alive:
                replaced += 1
                self._replace(handle)
        return replaced

    def _replace_exited(self) -> None:
        """Non-blocking liveness check: replace every worker whose
        process has exited, so a worker that died between calls never
        receives work.  A worker that dies later is caught by a broken
        pipe at dispatch, EOF at collect, or its job deadline."""
        for handle in list(self._pool):
            if not handle.process.is_alive():
                self._replace(handle)

    def _replace(self, handle: _WorkerHandle) -> None:
        """Count one worker death, then swap in a respawned worker (or
        drop the slot when the respawn budget is spent)."""
        self.stats.worker_deaths += 1
        self._dispose(handle)
        replacement = self._respawn(handle.slot)
        if replacement is None:
            self._pool.remove(handle)
        else:
            self._pool[self._pool.index(handle)] = replacement
        self.stats.workers = len(self._pool)

    def _respawn(self, slot: int) -> Optional[_WorkerHandle]:
        """Replacement worker for ``slot`` (or ``None``: pool shrinks)."""
        while (
            self.stats.respawns - self._respawns_at_clean
            < self.policy.max_respawns
        ):
            self.stats.respawns += 1
            handle = self._spawn(slot)
            if handle is not None:
                return handle
            # The replacement itself failed warmup; charge the budget and
            # try again -- a crash loop must exhaust the budget, not spin.
            self.stats.worker_deaths += 1
        self.stats.pool_shrinks += 1
        return None

    # -- warmup recording -------------------------------------------------

    def record_warmup(self, kind: str, payload: Dict[str, Any]) -> None:
        """Keep one representative job per execution context for replay."""
        key = warmup_key(kind, payload)
        if key not in self._warmups:
            self._warmups[key] = (kind, payload)

    # -- chaos hook -------------------------------------------------------

    def tamper_worker_caches(self) -> int:
        """Ask every live worker to corrupt one cached entry in place.

        Chaos-campaign hook: subsequent jobs must detect the corruption
        (integrity digests), evict, recompute, and report the eviction in
        the worker counters that flow back into :class:`ClusterStats`.
        """
        tampered = 0
        for handle in self._pool:
            if handle.idle and self._sync_request(handle, MSG_TAMPER, None):
                tampered += 1
        return tampered

    # -- the scheduling loop ----------------------------------------------

    def run_jobs(
        self,
        kind: str,
        payloads: List[Dict[str, Any]],
        serial_fn: Optional[Callable[[Dict[str, Any]], dict]] = None,
    ) -> List[dict]:
        """Execute ``payloads`` across the pool; results in input order.

        Args:
            kind: job kind (``jobs.MSG_JOB_CONV`` / ``jobs.MSG_JOB_MUL``).
            serial_fn: in-process fallback; defaults to running
                :func:`repro.cluster.worker.execute_job` against the
                supervisor's own :class:`WorkerState`.

        Raises:
            ClusterError: a job failed even on the serial path (a real
                bug, reproduced loudly rather than masked as a fault).
        """
        if self._closed:
            raise ClusterError("supervisor is closed")
        self.start()
        if serial_fn is None:
            def serial_fn(payload):
                return execute_job(kind, payload, self._serial_state)
        if not payloads:
            return []
        deaths_before = self.stats.worker_deaths
        self._replace_exited()
        for payload in payloads:
            self.record_warmup(kind, payload)

        self._call_seq += 1
        base_id = self._call_seq << 20
        total = len(payloads)
        results: List[Optional[dict]] = [None] * total
        done = [False] * total
        attempts = [0] * total
        pending = deque(range(total))
        id_to_index = {}
        self.stats.jobs += total

        def run_serial(index: int) -> None:
            try:
                data = serial_fn(dict(payloads[index]))
            except Exception as exc:
                raise ClusterError(
                    f"job {index} failed on the serial fallback path: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if not done[index]:
                results[index] = {"data": data}
                done[index] = True
                self.stats.serial_fallback_jobs += 1

        def requeue_or_dead_letter(index: int) -> None:
            if done[index]:
                return
            if attempts[index] >= self.policy.retry.max_attempts:
                self.stats.dead_letters += 1
                self.stats.dead_letter_log.append(
                    DeadLetter(
                        seq=base_id + index,
                        payload_bytes=0,
                        attempts=attempts[index],
                        last_error="cluster job exhausted its retry budget",
                    )
                )
                run_serial(index)
            else:
                self.stats.jobs_requeued += 1
                self.stats.backoff_seconds += self.policy.retry.backoff(
                    attempts[index], self._rng
                )
                pending.append(index)

        def handle_reply(handle: _WorkerHandle, data: bytes) -> None:
            try:
                rkind, job_id, payload = decode_message(data)
            except (ChecksumError, ValueError):
                # A reply damaged on the pipe: treat like a worker fault --
                # the in-flight job retries, the pool member is recycled.
                self.stats.wire_errors += 1
                self._recover_worker(
                    handle, handle_reply, requeue_or_dead_letter
                )
                return
            if isinstance(payload, dict) and "counters" in payload:
                self._fold_counters(handle, payload["counters"])
            index = id_to_index.get(job_id)
            if rkind == MSG_RESULT:
                if index is None or done[index]:
                    self.stats.duplicate_results += 1
                else:
                    if isinstance(payload, dict) and "spans" in payload:
                        # Worker-side spans shipped beside the result
                        # data: stitch them into this process's trace.
                        obs_trace.tracer.ingest(payload.pop("spans"))
                    results[index] = payload
                    done[index] = True
                if handle.busy_id == job_id:
                    handle.clear()
                if (
                    self.fault_injector is not None
                    and index is not None
                    and self.fault_injector.kill_after(index)
                    and handle.process.is_alive()
                ):
                    os.kill(handle.process.pid, signal.SIGKILL)
            elif rkind == MSG_ERROR:
                if handle.busy_id == job_id or job_id == 0:
                    target = handle.busy_job
                    handle.clear()
                    if target is not None:
                        requeue_or_dead_letter(target)
            elif rkind == MSG_PONG:
                pass

        while not all(done):
            alive = [w for w in self._pool if w.process.is_alive()]
            if len(alive) < max(1, self.policy.min_workers):
                # Pool degraded below the floor: deterministic serial path
                # for everything still outstanding (queued or in flight).
                for index in range(total):
                    if not done[index]:
                        run_serial(index)
                break

            # Dispatch to idle workers.
            for handle in alive:
                if not pending:
                    break
                if not handle.idle:
                    continue
                index = pending.popleft()
                if done[index]:
                    continue
                attempts[index] += 1
                job_id = base_id + index
                id_to_index[job_id] = index
                payload = dict(payloads[index])
                plan = None
                if self.fault_injector is not None:
                    plan = self.fault_injector.plan_dispatch(
                        index, attempts[index]
                    )
                    if plan["hang"]:
                        payload["_inject_hang_s"] = (
                            3.0 * self.policy.heartbeat_timeout
                        )
                    if plan["duplicate"]:
                        payload["_inject_duplicate"] = True
                frame = encode_message(kind, job_id, payload)
                if plan is not None and plan["corrupt"]:
                    mutated = bytearray(frame)
                    mutated[len(mutated) // 2] ^= 0x40
                    frame = bytes(mutated)
                if plan is not None and plan["kill"]:
                    # Deliver the SIGKILL before the frame is written: the
                    # worker is blocked in recv and dies with the job in
                    # flight, never having executed it -- the death is
                    # observed in *this* batch regardless of scheduling.
                    # (Death after a completed result is the separate
                    # kill_after_jobs hook.)
                    os.kill(handle.process.pid, signal.SIGKILL)
                try:
                    handle.conn.send_bytes(frame)
                except (BrokenPipeError, OSError):
                    # The worker died between selection and dispatch, so
                    # busy_* was never set: mark the aborted job here --
                    # _recover_worker sees an idle handle and records
                    # nothing for it.
                    self._record_truncated_job(
                        handle, index, payload.get(obs_trace.TRACE_CTX_KEY)
                    )
                    self._recover_worker(
                        handle, handle_reply, requeue_or_dead_letter
                    )
                    requeue_or_dead_letter(index)
                    continue
                self.stats.dispatches += 1
                handle.busy_job = index
                handle.busy_id = job_id
                handle.busy_ctx = payload.get("_trace_ctx")
                handle.busy_since = time.monotonic()
                # Per-job deadline: a job carrying a request SLO budget
                # ("deadline_ms", set by the serving layer) arms a tighter
                # hang deadline than the pool-wide heartbeat, so a stuck
                # worker is declared hung within the request's budget
                # instead of the generic supervisor timeout.  Each retry
                # gets the same relative budget.
                budget = self.policy.heartbeat_timeout
                deadline_ms = payload.get("deadline_ms")
                if deadline_ms is not None:
                    budget = min(
                        budget, max(0.001, float(deadline_ms) / 1e3)
                    )
                handle.deadline = time.monotonic() + budget

            busy = [w for w in self._pool if not w.idle]
            if not busy:
                if pending or not all(done):
                    continue
                break

            # Collect: block until a reply lands or a deadline expires.
            next_deadline = min(w.deadline for w in busy)
            timeout = max(0.0, next_deadline - time.monotonic())
            ready = _wait_connections(
                [w.conn for w in busy], timeout=min(timeout, 1.0)
            )
            conn_map = {id(w.conn): w for w in busy}
            for conn in ready:
                handle = conn_map[id(conn)]
                self._drain(handle, handle_reply, requeue_or_dead_letter)

            # Deadline sweep: declare hangs, recycle the workers.
            now = time.monotonic()
            for handle in busy:
                if handle.idle or now <= handle.deadline:
                    continue
                # One last non-blocking drain: a result racing the
                # deadline is a completion, not a hang.
                self._drain(handle, handle_reply, requeue_or_dead_letter)
                if handle.idle:
                    continue
                self.stats.hang_timeouts += 1
                self._recover_worker(
                    handle, handle_reply, requeue_or_dead_letter
                )

        # Final sweep: consume replies still buffered on idle pipes (a
        # worker's duplicated send, a result that raced the last deadline)
        # so they are counted now rather than confusing the next batch.
        for handle in list(self._pool):
            if handle.process.is_alive():
                self._drain(handle, handle_reply, requeue_or_dead_letter)
        self.stats.workers = len(self._pool)
        if self.stats.worker_deaths == deaths_before:
            self._respawns_at_clean = self.stats.respawns
        return [r["data"] for r in results]  # type: ignore[index]

    # -- recovery internals ----------------------------------------------

    def _drain(self, handle, handle_reply, requeue_or_dead_letter) -> None:
        """Process every readable reply; detect death at EOF."""
        while True:
            try:
                if not handle.conn.poll(0):
                    return
                data = handle.conn.recv_bytes()
            except (EOFError, OSError):
                # Death detected mid-drain: completed results (processed
                # in earlier loop turns) are already applied; only the
                # still-unfinished in-flight job is requeued.
                self._recover_worker(
                    handle, handle_reply, requeue_or_dead_letter
                )
                return
            handle_reply(handle, data)

    def _recover_worker(
        self, handle, handle_reply, requeue_or_dead_letter
    ) -> None:
        """Replace (or drop) a dead/hung worker and requeue its job.

        The pipe is drained *before* the requeue decision, so a job whose
        result was already in flight when the worker died is applied
        exactly once and never re-dispatched.
        """
        if handle not in self._pool:
            return
        # Salvage buffered results first (no recursion into recovery: the
        # pipe is consumed until EOF or empty, then the decision is made).
        salvaged: List[bytes] = []
        try:
            while handle.conn.poll(0):
                salvaged.append(handle.conn.recv_bytes())
        except (EOFError, OSError):
            pass
        in_flight = handle.busy_job
        if in_flight is not None:
            self._record_truncated_job(
                handle, in_flight, handle.busy_ctx, handle.busy_since
            )
        self._replace(handle)
        for data in salvaged:
            # Replies salvaged from a dead worker's pipe still apply
            # exactly once; counters ride along as usual.
            handle_reply(handle, data)
        if in_flight is not None:
            requeue_or_dead_letter(in_flight)

    @staticmethod
    def _record_truncated_job(
        handle, job_index: int, ctx, started: Optional[float] = None
    ) -> None:
        """Trace a job lost with its worker (died or hung mid-job): its
        own records went with the process, so mark the gap with a
        truncated ``cluster.job`` span and a ``cluster.worker_death``
        incident instead of leaving the trace dangling."""
        tracer = obs_trace.tracer
        if not tracer.enabled:
            return
        now = time.monotonic()
        tracer.record_span(
            "cluster.job",
            start_s=started or now,
            end_s=now,
            parent=ctx,
            status="truncated",
            slot=handle.slot,
            job_index=job_index,
        )
        tracer.event(
            "cluster.worker_death",
            parent=ctx,
            incident=True,
            slot=handle.slot,
            incarnation=handle.incarnation,
        )

    def _fold_counters(self, handle: _WorkerHandle, counters: Dict) -> None:
        """Fold a worker's cumulative counter snapshot as deltas."""
        if not isinstance(counters, dict):
            return
        seen = handle.counters_seen
        for name, target in (
            ("wire_errors", "wire_errors"),
            ("cache_corruptions", "cache_corruptions"),
        ):
            value = int(counters.get(name, 0))
            delta = value - seen.get(name, 0)
            if delta > 0:
                setattr(
                    self.stats, target, getattr(self.stats, target) + delta
                )
            seen[name] = value


__all__ = [
    "ClusterError",
    "ClusterFaultInjector",
    "ClusterPolicy",
    "ClusterStats",
    "ClusterSupervisor",
    "TransportError",
]
