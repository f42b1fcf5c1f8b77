"""Randomized fault campaign: ``python -m repro chaos``.

Each iteration draws fault rates up to ``max_rate`` from a seeded PRNG and
fires three probes at the stack (four with ``--cluster``):

* **transport** -- a full private convolution (exact NTT) whose ciphertext
  traffic crosses a :class:`repro.faults.FaultyChannel` through a
  :class:`repro.faults.ResilientSession`; must finish bit-exact or fail
  loudly with a dead letter.
* **degradation** -- the same convolution on an approximate-FFT backend
  under a ``"fallback"`` :class:`repro.faults.BudgetGuard`; alternating
  iterations undersize ``q`` (predicted exhaustion) or crank the FFT
  approximation (observed exhaustion); must finish bit-exact.
* **sparse** -- the compiled-sparse-plan path
  (:class:`repro.he.backend.SparseFftPolyMulBackend`) under in-place
  corruption of cached plans/spectra; the integrity-checked caches must
  detect, evict and recompute, and the output must stay byte-identical.
* **cluster** (``--cluster``) -- a batched convolution sharded across
  supervised worker *processes* (:mod:`repro.cluster`) while random
  workers are SIGKILLed and hung mid-run; the reassembled output must be
  bit-identical to the serial path.

The campaign's verdict is binary: **zero silent corruptions** (a probe
that completes with a wrong answer).  Detected-and-handled faults --
retries, fallbacks, evictions, respawns, even dead letters -- are
survival, and the report counts them.

Heavy imports (protocol, runtime, cluster) stay inside the probes so
importing :mod:`repro.faults` never drags the whole stack in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faults.channel import FaultyChannel, TransportError
from repro.faults.guard import BudgetGuard
from repro.faults.session import ResilientSession


@dataclass
class ChaosIteration:
    """Outcome of one campaign iteration (three or four probes)."""

    index: int
    rates: Dict[str, float]
    transport_ok: bool = False
    degradation_ok: bool = False
    sparse_ok: bool = False
    #: ``None`` when the cluster probe did not run this campaign.
    cluster_ok: Optional[bool] = None
    silent_corruptions: int = 0
    loud_failures: int = 0
    retries: int = 0
    timeouts: int = 0
    checksum_failures: int = 0
    dead_letters: int = 0
    injected_channel_faults: int = 0
    guard_events: int = 0
    cache_corruptions_detected: int = 0
    cluster_kills: int = 0
    cluster_hangs: int = 0
    cluster_recoveries: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.transport_ok
            and self.degradation_ok
            and self.sparse_ok
            and self.cluster_ok is not False
        )

    def to_dict(self) -> dict:
        """JSON-ready form (``python -m repro chaos --json``)."""
        out = dict(vars(self))
        out["rates"] = dict(self.rates)
        out["errors"] = list(self.errors)
        out["ok"] = self.ok
        return out

    def describe(self) -> str:
        flags = "".join(
            "Y" if ok else "n"
            for ok in (self.transport_ok, self.degradation_ok, self.sparse_ok)
        )
        if self.cluster_ok is not None:
            flags += "Y" if self.cluster_ok else "n"
        rates = " ".join(f"{k}={v:.2f}" for k, v in sorted(self.rates.items()))
        line = (
            f"iter {self.index}: [{flags}] {rates} | "
            f"injected={self.injected_channel_faults} retries={self.retries} "
            f"crc={self.checksum_failures} timeouts={self.timeouts} "
            f"dead={self.dead_letters} guard={self.guard_events} "
            f"cachecorrupt={self.cache_corruptions_detected}"
        )
        if self.cluster_ok is not None:
            line += (
                f" cluster={self.cluster_kills}k/{self.cluster_hangs}h/"
                f"{self.cluster_recoveries}r"
            )
        if self.errors:
            line += " | " + "; ".join(self.errors)
        return line


@dataclass
class ChaosReport:
    """Aggregated campaign outcome; ``survived`` is the acceptance gate."""

    seed: int
    max_rate: float
    iterations: List[ChaosIteration] = field(default_factory=list)

    @property
    def silent_corruptions(self) -> int:
        return sum(it.silent_corruptions for it in self.iterations)

    @property
    def loud_failures(self) -> int:
        return sum(it.loud_failures for it in self.iterations)

    @property
    def survived(self) -> bool:
        """No probe ever completed with a wrong answer."""
        return self.silent_corruptions == 0

    def to_dict(self) -> dict:
        """JSON-ready campaign trajectory for CI artifacts."""
        return {
            "seed": self.seed,
            "max_rate": self.max_rate,
            "survived": self.survived,
            "silent_corruptions": self.silent_corruptions,
            "loud_failures": self.loud_failures,
            "iterations": [it.to_dict() for it in self.iterations],
        }

    def describe(self) -> str:
        lines = [
            f"chaos campaign: seed={self.seed} "
            f"iterations={len(self.iterations)} max_rate={self.max_rate:.2f}"
        ]
        lines.extend("  " + it.describe() for it in self.iterations)
        total_faults = sum(it.injected_channel_faults for it in self.iterations)
        total_retries = sum(it.retries for it in self.iterations)
        total_guard = sum(it.guard_events for it in self.iterations)
        total_corrupt = sum(
            it.cache_corruptions_detected for it in self.iterations
        )
        line = (
            f"  totals: {total_faults} channel faults injected, "
            f"{total_retries} retries, {total_guard} guard degradations, "
            f"{total_corrupt} cache corruptions detected, "
            f"{self.loud_failures} loud failures, "
            f"{self.silent_corruptions} SILENT corruptions"
        )
        if any(it.cluster_ok is not None for it in self.iterations):
            line += (
                f"; cluster: "
                f"{sum(it.cluster_kills for it in self.iterations)} kills, "
                f"{sum(it.cluster_hangs for it in self.iterations)} hangs, "
                f"{sum(it.cluster_recoveries for it in self.iterations)} "
                "recoveries"
            )
        lines.append(line)
        lines.append(
            "verdict: SURVIVED (all completed results correct)"
            if self.survived
            else "verdict: FAILED (silent corruption detected)"
        )
        return "\n".join(lines)


def _probe_transport(it: ChaosIteration, n: int, seed: int) -> None:
    """Private conv over a faulty channel: exact result or loud failure."""
    import numpy as np

    from repro.encoding.conv_encoding import ConvShape
    from repro.he.params import toy_preset
    from repro.protocol.hybrid import HybridConvProtocol

    params = toy_preset(n=n)
    channel = FaultyChannel(
        seed=seed,
        drop=it.rates["drop"],
        corrupt=it.rates["corrupt"],
        truncate=it.rates["truncate"],
        duplicate=it.rates["duplicate"],
        max_latency=it.rates["latency"],
    )
    transport = ResilientSession(channel=channel, seed=seed)
    shape = ConvShape(
        in_channels=1, height=4, width=4, out_channels=1,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )
    rng = np.random.default_rng(seed)
    x = rng.integers(-7, 8, size=(1, 4, 4))
    w = rng.integers(-2, 3, size=(1, 1, 3, 3))
    protocol = HybridConvProtocol(
        params, shape, transport=transport, layer_name=f"chaos{it.index}"
    )
    try:
        result = protocol.run(x, w, rng)
    except TransportError as exc:
        it.loud_failures += 1
        it.errors.append(f"transport dead-letter: {exc}")
        it.transport_ok = True  # loud failure, nothing corrupted
    else:
        if result.exact:
            it.transport_ok = True
        else:
            it.silent_corruptions += 1
            it.errors.append(
                f"transport probe corrupted: max_error={result.max_error}"
            )
        it.retries += result.stats.retries
        it.timeouts += result.stats.timeouts
        it.checksum_failures += result.stats.checksum_failures
    it.dead_letters += transport.stats.dead_letters
    it.injected_channel_faults += sum(
        count
        for name, count in channel.injected.items()
        if name != "frames"
    )


def _probe_degradation(it: ChaosIteration, n: int, seed: int) -> None:
    """Approx path under a fallback guard: must land bit-exact."""
    import numpy as np

    from repro.encoding.conv_encoding import ConvShape
    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.he.backend import FftPolyMulBackend
    from repro.he.params import toy_preset

    from repro.protocol.hybrid import HybridConvProtocol

    params = toy_preset(n=n)
    if it.index % 2 == 0:
        # Demand more margin than the parameters can offer: the noise
        # model predicts exhaustion pre-flight, before any crypto runs.
        config = None
        guard = BudgetGuard(params, policy="fallback", min_margin_bits=200.0)
    else:
        # Aggressive approximation: error shows up only after the run.
        config = ApproxFftConfig(
            n=n // 2, stage_widths=12, twiddle_k=2, twiddle_max_shift=8
        )
        guard = BudgetGuard(params, policy="fallback")
    shape = ConvShape(
        in_channels=1, height=4, width=4, out_channels=1,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, size=(1, 4, 4))
    w = rng.integers(-2, 3, size=(1, 1, 3, 3))
    protocol = HybridConvProtocol(
        params, shape,
        backend=FftPolyMulBackend(weight_config=config),
        guard=guard,
        layer_name=f"chaos{it.index}",
    )
    result = protocol.run(x, w, rng)
    it.guard_events += len(guard.events)
    if result.exact:
        it.degradation_ok = True
    else:
        it.silent_corruptions += 1
        it.errors.append(
            f"degradation probe corrupted: max_error={result.max_error} "
            f"({guard.describe()})"
        )


def corrupt_cache_entry(cache) -> int:
    """Flip one byte of the first cached array of an integrity-checked
    :class:`repro.runtime.PlanCache`, in place (simulated memory
    corruption).

    Returns how many entries were mutated (0 or 1); the next lookup of the
    entry must detect the damage via its digest, evict and recompute it.
    """
    import numpy as np

    if not cache.check_integrity:
        return 0
    for key in cache.keys():
        value = cache.get(key)
        for arr in (value, getattr(value, "values", None)):
            if isinstance(arr, np.ndarray) and arr.size:
                arr.view(np.uint8).reshape(-1)[0] ^= 0xFF
                return 1
    return 0


def _probe_sparse(it: ChaosIteration, n: int, seed: int, workers: int) -> None:
    """Sparse-plan path under cache corruption.

    One cached spectrum in the ``plan_cache`` of a
    :class:`repro.he.backend.SparseFftPolyMulBackend` is corrupted in place
    between two runs; the integrity digests must evict the damage and the
    second run must stay byte-identical to the fault-free reference.
    """
    import numpy as np

    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.he.backend import SparseFftPolyMulBackend
    from repro.he.params import toy_preset
    from repro.he.poly import RingPoly

    basis = toy_preset(n=n).basis
    cfg = ApproxFftConfig(
        n=n // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
    )
    rng = np.random.default_rng(seed)
    polys, weights = [], []
    for _ in range(4):
        coeffs = rng.integers(0, 1 << 20, size=basis.n)
        polys.append(RingPoly(basis, basis.to_rns(coeffs)))
        w = rng.integers(-5, 6, size=basis.n)
        w[rng.random(size=basis.n) < 0.6] = 0  # structural sparsity
        weights.append(w)
    reference = SparseFftPolyMulBackend(
        weight_config=cfg, max_workers=workers
    ).multiply_many(polys, weights)

    faulty = SparseFftPolyMulBackend(weight_config=cfg, max_workers=workers)
    first = faulty.multiply_many(polys, weights)
    corruptions_before = faulty.plan_cache.corruptions
    corrupt_cache_entry(faulty.plan_cache)
    second = faulty.multiply_many(polys, weights)
    it.cache_corruptions_detected += (
        faulty.plan_cache.corruptions - corruptions_before
    )
    identical = all(
        np.array_equal(a, b)
        for out, ref in zip(first + second, reference + reference)
        for a, b in zip(out.residues, ref.residues)
    )
    if identical:
        it.sparse_ok = True
    else:
        it.silent_corruptions += 1
        it.errors.append(
            "sparse probe corrupted: output differs after cache tampering"
        )


def _probe_cluster(
    it: ChaosIteration, n: int, seed: int, cluster_workers: int
) -> None:
    """Sharded multi-process conv under SIGKILLs and hangs.

    Random supervised workers are killed and hung mid-run; the
    reassembled batch must be bit-identical to the serial engine
    (dense NTT on even iterations, compiled sparse plans on odd).
    """
    import numpy as np

    from repro.cluster import ClusterFaultInjector, ClusterPolicy, ClusterExecutor
    from repro.encoding.conv_encoding import ConvShape
    from repro.fftcore.fixed_point import ApproxFftConfig
    from repro.runtime.engine import BatchedHConvEngine

    mode = "ntt" if it.index % 2 == 0 else "sparse"
    cfg = (
        None
        if mode == "ntt"
        else ApproxFftConfig(
            n=n // 2, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
    )
    shape = ConvShape(
        in_channels=1, height=4, width=4, out_channels=2,
        kernel_h=3, kernel_w=3, stride=1, padding=1,
    )
    rng = np.random.default_rng(seed)
    xs = rng.integers(-7, 8, size=(2 * cluster_workers, 1, 4, 4))
    w = rng.integers(-2, 3, size=(2, 1, 3, 3))
    reference = BatchedHConvEngine(
        mode=mode, weight_config=cfg, max_workers=None
    ).conv2d_batch(xs, w, shape, n)

    injector = ClusterFaultInjector(
        kill_rate=it.rates["cluster_kill"],
        hang_rate=it.rates["cluster_hang"],
        seed=seed,
    )
    executor = ClusterExecutor(
        policy=ClusterPolicy(
            workers=cluster_workers,
            # Probe shards are tiny (sub-second); a short deadline keeps
            # injected hangs from stalling the campaign.
            heartbeat_timeout=5.0,
            max_respawns=4 * cluster_workers,
            min_workers=1,
        ),
        fault_injector=injector,
        seed=seed,
    )
    try:
        engine = BatchedHConvEngine(
            mode=mode, weight_config=cfg, cluster=executor
        )
        out = engine.conv2d_batch(xs, w, shape, n)
        cluster_stats = engine.last_stats.cluster
    finally:
        executor.close()
    it.cluster_kills += injector.injected["kills"]
    it.cluster_hangs += injector.injected["hangs"]
    it.cluster_recoveries += int(cluster_stats.get("recoveries", 0))
    it.cache_corruptions_detected += int(
        cluster_stats.get("cache_corruptions", 0)
    )
    if np.array_equal(out, reference):
        it.cluster_ok = True
    else:
        it.cluster_ok = False
        it.silent_corruptions += 1
        it.errors.append(
            f"cluster probe corrupted: {mode} output differs from serial"
        )


def run_campaign(
    seed: int = 0,
    iterations: int = 10,
    max_rate: float = 0.2,
    n: int = 64,
    workers: int = 2,
    cluster: bool = False,
    cluster_workers: int = 2,
) -> ChaosReport:
    """Run the randomized fault campaign and return its report.

    Args:
        seed: master PRNG seed; campaigns replay bit-identically.
        iterations: fault-rate draws (three probes each, four with
            ``cluster=True``).
        max_rate: upper bound on drop/corrupt/truncate/duplicate rates.
        n: polynomial degree of the probe parameters (tiny by design).
        workers: thread-pool width for the sparse probe.
        cluster: also run the multi-process cluster probe (SIGKILLs and
            hangs random supervised workers mid-run).
        cluster_workers: pool width for the cluster probe.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 <= max_rate <= 1.0:
        raise ValueError("max_rate must be in [0, 1]")
    if cluster and cluster_workers < 1:
        raise ValueError("cluster_workers must be >= 1")
    master = random.Random(seed)
    report = ChaosReport(seed=seed, max_rate=max_rate)
    for index in range(iterations):
        rates = {
            "drop": master.uniform(0.0, max_rate),
            "corrupt": master.uniform(0.0, max_rate),
            "truncate": master.uniform(0.0, max_rate),
            "duplicate": master.uniform(0.0, max_rate),
            "latency": master.uniform(0.0, 0.3),
            "cluster_kill": master.uniform(0.1, 0.5),
            "cluster_hang": master.uniform(0.0, 0.25),
        }
        probe_seed = master.randrange(1 << 30)
        it = ChaosIteration(index=index, rates=rates)
        _probe_transport(it, n, probe_seed)
        _probe_degradation(it, n, probe_seed + 1)
        _probe_sparse(it, n, probe_seed + 2, workers)
        if cluster:
            _probe_cluster(it, n, probe_seed + 3, cluster_workers)
        report.iterations.append(it)
    return report
