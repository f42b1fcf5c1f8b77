"""Closed-loop load generator and no-silent-drop verifier for the server.

``python -m repro loadgen`` drives an in-process
:class:`~repro.serve.server.InferenceServer` with N closed-loop client
threads (each waits for its reply before sending the next request, and
keeps to its share of its tenant's rate) under a seeded arrival process,
then renders a machine-checkable verdict:

* **zero silent drops** -- every request got exactly one terminal reply
  and :meth:`ServeStats.accounting` balances to the request;
* **bit-identical results** -- every completed request's output is
  replayed through a fresh serial :func:`~repro.cluster.worker
  .execute_job` at its *effective* mode and compared byte-for-byte;
* **breaker behaviour** -- under worker-SIGKILL chaos the circuit
  breaker must trip *and* recover at least once, with both transitions
  visible in the stats.

Chaos knobs model the three canonical overload adversaries:

* ``flood_clients`` -- extra zero-think clients on one tenant, which must
  be rate-shed without starving the polite tenants;
* ``slow_client_rate`` -- requests whose deadline is stamped and then
  mostly spent client-side before submission (stale arrivals exercise
  infeasibility shedding and deadline misses);
* ``chaos_kill_rate`` -- seeded mid-request worker SIGKILLs via
  :class:`~repro.cluster.ClusterFaultInjector` on the cluster executor.

The report dict (written as ``BENCH_serve.json`` by the CLI) carries
``params`` / ``serve`` / ``verdict`` sections; ``bench-check`` gates the
latency percentiles, shed rate and breaker trips against a baseline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.jobs import (
    MSG_JOB_CONV,
    config_to_wire,
    shape_to_wire,
)
from repro.cluster.worker import WorkerState, execute_job
from repro.serve.messages import (
    REP_DEADLINE,
    REP_ERROR,
    REP_RESULT,
    REP_SHED,
    conv_request,
    decode_reply,
)
from repro.serve.server import InferenceServer, ServeConfig


@dataclass
class LoadgenConfig:
    """One load-generation campaign.

    The client population is ``clients`` polite closed-loop clients
    spread round-robin over ``tenants`` tenants, plus ``flood_clients``
    zero-think clients all hammering the single ``flood`` tenant when
    ``flood_clients > 0``.  A polite client also keeps to its share of
    its tenant's ``tenant_rate``: it sends no sooner than ``k /
    tenant_rate`` after its previous send, with ``k`` polite clients on
    the tenant.  Its offered load then does not grow with the speed of
    the server, so admission sheds none of it on a clean run.
    """

    seed: int = 0
    clients: int = 4
    requests_per_client: int = 25
    tenants: int = 2
    mode: str = "sparse"
    n: int = 64
    channels: int = 1
    size: int = 4
    out_channels: int = 1
    kernel: int = 3
    slo_ms: float = 500.0
    think_ms: float = 2.0
    duration_s: Optional[float] = None
    # chaos
    flood_clients: int = 0
    slow_client_rate: float = 0.0
    chaos_kill_rate: float = 0.0
    cluster_workers: int = 0
    # server tuning (kept small so overload is reachable in a smoke run)
    tenant_rate: float = 200.0
    tenant_burst: int = 16
    tenant_queue_limit: int = 32
    server_queue_limit: int = 128
    breaker_failures: int = 2
    breaker_recovery_s: float = 0.2
    # Upper bound on how long a batch is held open; the hold lasts only
    # while another request is still on its way into the server.
    coalesce_window_ms: float = 2.0
    max_batch: int = 8

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be >= 1")
        if self.tenant_rate <= 0:
            raise ValueError("tenant_rate must be > 0")
        if not 0.0 <= self.slow_client_rate <= 1.0:
            raise ValueError("slow_client_rate must be in [0, 1]")
        if self.chaos_kill_rate and not self.cluster_workers:
            raise ValueError("chaos_kill_rate needs cluster_workers > 0")


@dataclass
class _ClientTally:
    """Per-client-thread record sink (thread-confined, merged after join)."""

    sent: int = 0
    records: List[Dict[str, Any]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def _flash_config(n: int):
    from repro.fftcore.fixed_point import ApproxFftConfig

    return ApproxFftConfig(
        n=n // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
    )


def _conv_shape(cfg: LoadgenConfig):
    from repro.encoding import ConvShape

    return ConvShape.square(
        cfg.channels, cfg.size, cfg.out_channels, cfg.kernel,
        padding=cfg.kernel // 2,
    )


def run_loadgen(
    config: LoadgenConfig,
    server: Optional[InferenceServer] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run one campaign; returns the ``BENCH_serve.json`` report dict.

    Args:
        config: campaign description (fully seeded).
        server: optional externally-built server (tests); by default the
            campaign builds its own, plus a cluster executor when
            ``cluster_workers > 0``.
        progress: optional ``print``-like callable for human output.
    """
    say = progress or (lambda *_args: None)
    shape = _conv_shape(config)
    weight_config = (
        _flash_config(config.n) if config.mode in ("flash", "sparse") else None
    )
    wire_config = config_to_wire(weight_config)
    wire_shape = shape_to_wire(shape)
    rng = np.random.default_rng(config.seed)
    w = rng.integers(
        -8, 8,
        size=(config.out_channels, config.channels,
              config.kernel, config.kernel),
    )

    executor = None
    owns_server = server is None
    if owns_server:
        if config.cluster_workers:
            from repro.cluster import ClusterFaultInjector, make_executor

            injector = None
            if config.chaos_kill_rate:
                injector = ClusterFaultInjector(
                    kill_rate=config.chaos_kill_rate, seed=config.seed
                )
            executor = make_executor(
                workers=config.cluster_workers,
                fault_injector=injector,
                seed=config.seed,
            )
        server = InferenceServer(
            ServeConfig(
                slo_ms=config.slo_ms,
                tenant_rate=config.tenant_rate,
                tenant_burst=config.tenant_burst,
                tenant_queue_limit=config.tenant_queue_limit,
                server_queue_limit=config.server_queue_limit,
                breaker_failures=config.breaker_failures,
                breaker_recovery_s=config.breaker_recovery_s,
                coalesce_window_s=config.coalesce_window_ms / 1e3,
                max_batch=config.max_batch,
            ),
            cluster=executor,
        )

    slo_s = config.slo_ms / 1e3
    started = time.monotonic()
    stop_at = (
        None if config.duration_s is None else started + config.duration_s
    )

    def client_loop(
        client_idx: int,
        tenant: str,
        flood: bool,
        pace_s: float,
        tally: _ClientTally,
    ) -> None:
        # Client threads deliberately read the wall clock and a seeded
        # per-client PRNG: deadlines and arrivals ARE the workload, and the
        # verdict (accounting identity + serial replay) is
        # interleaving-independent.
        crng = np.random.default_rng(config.seed * 7919 + client_idx + 1)
        for i in range(config.requests_per_client):
            if stop_at is not None and time.monotonic() > stop_at:  # repro-lint: disable=DET001  wall-clock duration cap is the workload spec, not a result
                break
            request_id = client_idx * 1_000_000 + i
            x = crng.integers(
                -8, 8, size=(config.channels, config.size, config.size)
            )
            deadline_at = time.monotonic() + slo_s  # repro-lint: disable=DET001  deadline stamping on the shared clock is the feature under test
            if not flood and crng.random() < config.slow_client_rate:
                # Slow client: the deadline budget is mostly spent before
                # the request ever reaches the server.
                time.sleep(slo_s * 0.9)
            frame = conv_request(
                request_id, tenant, config.mode, weight_config,
                config.n, shape, x, w, deadline_at=deadline_at,
            )
            tally.sent += 1
            sent_at = time.monotonic()  # repro-lint: disable=DET001  pacing sends on the shared clock is the workload spec
            try:
                kind, _rid, body = decode_reply(server.submit(frame))
            except Exception as exc:  # noqa: BLE001 - a verdict failure
                tally.errors.append(f"client {client_idx}: {exc}")
                continue
            tally.records.append({
                "tenant": tenant,
                "reply": kind,
                "x": x,
                "body": body,
            })
            if kind == REP_SHED and not flood:
                time.sleep(min(0.05, body.get("retry_after_s", 0.0)))
            if not flood:
                think_s = 0.0
                if config.think_ms > 0:
                    think_s = crng.exponential(config.think_ms / 1e3)
                next_at = sent_at + pace_s
                time.sleep(max(think_s, next_at - time.monotonic()))  # repro-lint: disable=DET001  pacing sends on the shared clock is the workload spec

    threads = []
    tallies = []
    for idx in range(config.clients):
        tenant_idx = idx % config.tenants
        polite_on_tenant = len(
            range(tenant_idx, config.clients, config.tenants)
        )
        tally = _ClientTally()
        tallies.append(tally)
        threads.append(threading.Thread(
            target=client_loop,
            args=(
                idx, f"tenant-{tenant_idx}", False,
                polite_on_tenant / config.tenant_rate, tally,
            ),
            name=f"loadgen-{idx}",
        ))
    for fidx in range(config.flood_clients):
        tally = _ClientTally()
        tallies.append(tally)
        threads.append(threading.Thread(
            target=client_loop,
            args=(config.clients + fidx, "flood", True, 0.0, tally),
            name=f"loadgen-flood-{fidx}",
        ))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started

    try:
        accounting = server.stats.accounting(
            in_flight=server.admission.depth()
        )
        report = _verdict(
            config, server, tallies, accounting, elapsed,
            wire_config, wire_shape, w, say,
        )
    finally:
        if owns_server:
            server.close()
            if executor is not None:
                executor.close()
    return report


def _verdict(
    config, server, tallies, accounting, elapsed,
    wire_config, wire_shape, w, say,
) -> Dict[str, Any]:
    sent = sum(t.sent for t in tallies)
    client_errors = [e for t in tallies for e in t.errors]
    records = [r for t in tallies for r in t.records]
    replies = len(records) + len(client_errors)
    by_kind: Dict[str, int] = {}
    for record in records:
        by_kind[record["reply"]] = by_kind.get(record["reply"], 0) + 1

    # Bit-identical replay of every completed request on a fresh serial
    # WorkerState at its *effective* mode (the oracle the cluster's own
    # recovery tests use).
    replay_state = WorkerState()
    mismatches = 0
    for record in records:
        if record["reply"] != REP_RESULT:
            continue
        body = record["body"]
        job = {
            "mode": body["mode"],
            "config": wire_config,
            "n": config.n,
            "shape": wire_shape,
            "x": record["x"][None],
            "w": w,
        }
        expected = execute_job(MSG_JOB_CONV, job, replay_state)["out"][0]
        if not np.array_equal(expected, body["out"]):
            mismatches += 1

    stats = server.stats_dict()
    silent_drops = (
        accounting["unaccounted"]
        + (sent - replies)          # a client never saw a reply at all
    )
    chaos_requested = bool(config.chaos_kill_rate)
    trips = stats["breaker"]["trips"]
    recoveries = stats["breaker"]["recoveries"]
    chaos_ok = (not chaos_requested) or (trips >= 1 and recoveries >= 1)
    shed_rate = sum(stats["shed"].values()) / max(1, sent)
    completed = by_kind.get(REP_RESULT, 0)
    ok = (
        silent_drops == 0
        and mismatches == 0
        and not client_errors
        and chaos_ok
        and completed > 0
    )
    verdict = {
        "ok": bool(ok),
        "sent": sent,
        "replies": replies,
        "completed": completed,
        "shed": by_kind.get(REP_SHED, 0),
        "deadline": by_kind.get(REP_DEADLINE, 0),
        "errors": by_kind.get(REP_ERROR, 0),
        "client_errors": client_errors,
        "silent_drops": int(silent_drops),
        "replay_checked": completed,
        "replay_mismatches": int(mismatches),
        "shed_rate": float(shed_rate),
        "breaker_trips": int(trips),
        "breaker_recoveries": int(recoveries),
        "chaos_requested": chaos_requested,
        "chaos_ok": bool(chaos_ok),
        "elapsed_s": float(elapsed),
    }
    say(
        f"loadgen: {sent} sent, {completed} completed, "
        f"{verdict['shed']} shed, {verdict['deadline']} deadline, "
        f"{verdict['errors']} errors in {elapsed:.2f}s"
    )
    say(
        f"  p50 {stats['p50_ms']:.1f} ms  p99 {stats['p99_ms']:.1f} ms  "
        f"shed rate {shed_rate:.3f}  breaker trips {trips} "
        f"recoveries {recoveries}"
    )
    say(
        f"  verdict: {'OK' if ok else 'FAIL'} "
        f"(silent drops {silent_drops}, replay mismatches {mismatches})"
    )
    return {
        "schema": "serve-loadgen/v1",
        "params": asdict(config),
        "serve": stats,
        "verdict": verdict,
    }


__all__ = ["LoadgenConfig", "run_loadgen"]
