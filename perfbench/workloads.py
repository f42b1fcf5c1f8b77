"""The benchmark's three workloads.

Each workload builds its inputs from the seed (the program receives only
those), sets the program up, measures it for a given time, checks every
output, and turns the measurement into metrics.  Why each workload exists
and what each metric means is written down in ``README.md`` next to this
file.

* ``private-cnn``    -- encrypted MiniCNN inference at ``cheetah_preset``
  (n=4096): the HE scheme and RNS arithmetic do most of the work.
* ``resnet18-hconv`` -- clear-domain HConv of two ResNet-18 layers: the
  transform kernels and the plan cache do nearly all the work.
* ``serve-conv``     -- many tiny conv requests from one client through the
  server and a two-worker cluster: admission, framing and dispatch dominate.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.obs import trace as obs_trace

import calibration
import checks

MODES = ("ntt", "flash", "sparse")
STAGES = ("encode", "weight_transform", "activation_transform",
          "pointwise+inverse", "decode")
#: Threads of the clear-domain engine's pointwise/inverse stage: one per
#: core of the two-core machine the benchmark is sized for.
ENGINE_THREADS = 2


@dataclass(frozen=True)
class ConvLayer:
    name: str
    shape: object  # repro.encoding.ConvShape
    #: whether the layer's weight spectra fit one engine's default plan
    #: cache; a layer that thrashes recomputes them on every call, so its
    #: set-up warms plans with a one-channel call instead of a full call
    cache_fits: bool


@dataclass(frozen=True)
class Scale:
    """Problem sizes: :func:`paper_scale` for runs, :func:`tiny_scale` for
    the smoke test."""

    n: int
    cnn_images: int
    cnn_train_samples: int
    resnet: Tuple[ConvLayer, ...]
    serve_shape: object


def paper_scale() -> Scale:
    from repro.encoding import ConvShape
    from repro.nn.resnet import resnet18_conv_layers

    table = {layer.name: layer.shape for layer in resnet18_conv_layers()}
    return Scale(
        n=4096,
        cnn_images=8,
        cnn_train_samples=600,
        resnet=(
            ConvLayer("layer3.0.downsample", table["layer3.0.downsample"],
                      cache_fits=True),
            ConvLayer("layer2.1.conv1", table["layer2.1.conv1"],
                      cache_fits=False),
        ),
        serve_shape=ConvShape.square(4, 16, 4, 3, padding=1),
    )


def tiny_scale() -> Scale:
    from repro.encoding import ConvShape

    return Scale(
        n=256,
        cnn_images=2,
        cnn_train_samples=200,
        resnet=(
            ConvLayer("layer3.0.downsample",
                      ConvShape.square(8, 8, 8, 1, stride=2), cache_fits=True),
            ConvLayer("layer2.1.conv1",
                      ConvShape.square(4, 8, 4, 3, padding=1),
                      cache_fits=False),
        ),
        serve_shape=ConvShape.square(2, 6, 2, 3, padding=1),
    )


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _group_by(items, key) -> Dict[object, list]:
    groups: Dict[object, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _span(name: str):
    """A benchmark-side marker span (a free no-op while tracing is off)."""
    return obs_trace.tracer.span(name)


def _repeat_rounds(seconds: float, run_round, min_rounds: int = 1) -> int:
    """Run ``run_round(i)`` until ``seconds`` have passed and at least
    ``min_rounds`` rounds ran; returns the round count."""
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        run_round(rounds)
        rounds += 1
    return rounds


def _weight_config(n: int):
    """The paper's default datapath (27-bit, k=5) at degree ``n``."""
    from repro.core.config import FlashConfig
    from repro.he.params import cheetah_preset

    return FlashConfig(params=cheetah_preset(n=n)).weight_fft_config()


def _random_int4(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(-8, 8, size=shape, dtype=np.int64)


# ---------------------------------------------------------------------------
# private-cnn
# ---------------------------------------------------------------------------


def cnn_fixture(scale: Scale):
    """Trained W4A4 MiniCNN and its test images (seed-independent fixture)."""
    from repro.nn.data import make_synthetic_dataset, train_test_split
    from repro.nn.model import QuantizedCnn, make_mini_cnn
    from repro.nn.training import train

    dataset = make_synthetic_dataset(
        scale.cnn_train_samples, size=12, channels=1, seed=3
    )
    train_set, test_set = train_test_split(dataset)
    model = make_mini_cnn(channels=1, size=12, width=8, seed=0)
    train(model, train_set, epochs=2, lr=0.08, seed=1)
    net = QuantizedCnn.from_float(
        model, train_set.images[:100], w_bits=4, a_bits=4
    )
    return net, test_set.images


def cnn_inputs(test_images: np.ndarray, seed: int, count: int):
    """The seeded inputs: which test images, and the protocol's randomness."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(test_images), size=count, replace=False)
    return test_images[np.sort(idx)], int(rng.integers(1 << 62))


class PrivateCnn:
    name = "private-cnn"
    setup_repeats = 1  # one cold set-up compiles ~24 sparse plans (20-30 s)

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        self.net, test_images = cnn_fixture(scale)
        self.images, self.proto_seed = cnn_inputs(
            test_images, seed, scale.cnn_images
        )
        self.evaluators: Dict[str, object] = {}

    def setup(self) -> None:
        """Keys, plans, weight spectra and sparse plans: one cold call each."""
        from repro.core.config import FlashConfig
        from repro.he.params import cheetah_preset
        from repro.protocol.private_network import PrivateCnnEvaluator

        params = cheetah_preset(n=self.scale.n)
        # The narrowest datapath that stays bit-exact at n=4096 (the paper's
        # 27-bit/k=5 default gets no logits exact on the encrypted path).
        config = FlashConfig(
            params=params, data_width=52, twiddle_k=24, twiddle_max_shift=40
        )
        backends = {
            "ntt": config.batched_exact_backend(),
            "flash": config.batched_flash_backend(),
            "sparse": config.batched_sparse_backend(),
        }
        self.evaluators = {
            mode: PrivateCnnEvaluator(self.net, params, backend=backend)
            for mode, backend in backends.items()
        }
        rng = np.random.default_rng([self.proto_seed, 1 << 20])
        for evaluator in self.evaluators.values():
            evaluator.infer_batch(self.images[:1], rng)

    def teardown(self) -> None:
        self.evaluators = {}

    def measure(self, seconds: float) -> dict:
        calls = []
        probes = []
        probe = calibration.Probe()

        def run_round(r: int) -> None:
            # One image per call, modes interleaved: the per-mode median
            # over rounds then shrugs off a slow spell of the machine.
            image = self.images[r % len(self.images)][None]
            for m, mode in enumerate(MODES):
                rng = np.random.default_rng([self.proto_seed, r, m])
                with _span("bench.infer." + mode):
                    t0 = time.perf_counter()
                    traces = self.evaluators[mode].infer_batch(image, rng)
                    wall = time.perf_counter() - t0
                calls.append((mode, wall, traces))
                probes.append(probe.bracket())

        # Five samples per mode at least, so the median has a middle.
        _repeat_rounds(seconds, run_round, min_rounds=5)
        ops = sum(len(traces) for _, _, traces in calls)
        return {"calls": calls, "probes": probes, "ops": ops,
                "wall": sum(c[1] for c in calls)}

    @staticmethod
    def _ok(mode: str, trace) -> bool:
        if mode == "ntt":
            return trace.matches_plain
        return checks.top1_agrees(trace)

    def check(self, result: dict) -> None:
        checks.check_exact_logits(
            t for mode, _, traces in result["calls"] if mode == "ntt"
            for t in traces
        )

    def counts(self, result: dict) -> Tuple[int, int]:
        failed = sum(
            not self._ok(mode, t)
            for mode, _, traces in result["calls"] for t in traces
        )
        return result["ops"], failed

    def end_to_end(self, result: dict) -> Dict[str, float]:
        """Times at the reference host speed (see ``calibration.py``)."""
        calls = [
            (mode, calibration.at_reference_speed(wall, probe_s), traces)
            for (mode, wall, traces), probe_s
            in zip(result["calls"], result["probes"])
        ]
        metrics = {
            f"infer_ms.{mode}": _median(
                1e3 * wall / len(traces)
                for m, wall, traces in calls if m == mode
            )
            for mode in MODES
        }
        approx = [
            checks.top1_agrees(t)
            for mode, _, traces in calls if mode != "ntt"
            for t in traces
        ]
        metrics["infer_per_s"] = result["ops"] / sum(c[1] for c in calls)
        metrics["agreement"] = sum(approx) / len(approx)
        return metrics

    def per_layer(self, result, traced, spans, setup_spans) -> Dict[str, float]:
        """Times are per inference of the traced measurement."""
        from repro.obs.export import summarize

        ops = traced["ops"]
        traces = [
            t for r in (result, traced) for _, _, ts in r["calls"] for t in ts
        ]
        by_name = summarize(spans.spans)["by_name"]
        out = {
            "protocol.conv_batch.self_ms":
                by_name.get("protocol.conv_batch", {}).get("self_ms", 0.0)
                / ops,
            "protocol.linear.ms": spans.total_ms("protocol.linear") / ops,
            "protocol.bytes_per_infer": _median(t.total_bytes for t in traces),
            "protocol.rounds_per_infer": _median(
                len(t.layer_stats) for t in traces
            ),
            "he.encrypt_symmetric.ms":
                spans.total_ms("he.encrypt_symmetric") / ops,
            "he.encrypt_symmetric.calls":
                spans.count("he.encrypt_symmetric") / ops,
            "he.decrypt.ms":
                spans.total_ms("he.decrypt", not_under=["he.noise_budget"])
                / ops,
            "he.decrypt.calls":
                spans.count("he.decrypt", not_under=["he.noise_budget"]) / ops,
            "he.noise_budget.ms": spans.total_ms("he.noise_budget") / ops,
            "he.ct_arith.ms": spans.total_ms("he.ct_arith") / ops,
            "he.noise_margin_bits": min(t.min_noise_budget for t in traces),
            "rns.from_rns.ms": spans.total_ms("rns.from_rns") / ops,
            "rns.to_rns.ms": spans.total_ms("rns.to_rns") / ops,
        }
        for layer in range(3):
            out[f"protocol.layer{layer}.ms"] = (
                spans.total_ms(f"protocol.layer{layer}") / ops
            )
        for mode in MODES:
            mode_ops = sum(
                len(ts) for m, _, ts in traced["calls"] if m == mode
            )
            out[f"runtime.multiply_many.ms.{mode}"] = spans.total_ms(
                "runtime.multiply_many", under="bench.infer." + mode
            ) / mode_ops
        out.update(_encoding_metrics(spans, ops))
        out["plan_cache.cached_bytes"] = sum(
            _backend_cached_bytes(ev.backend)
            for ev in self.evaluators.values()
        )
        out["sparse.plan_compile.ms"] = setup_spans.total_ms(
            "sparse.plan_compile"
        )
        out["calibration.probe_ms"] = _median(1e3 * p for p in result["probes"])
        return out


def _backend_cached_bytes(backend) -> int:
    total = 0
    for attr in ("plan_cache", "_spectrum_cache"):
        cache = getattr(backend, attr, None)
        if cache is not None and hasattr(cache, "stats"):
            total += int(cache.stats()["cached_bytes"])
    return total


def _encoding_metrics(spans, ops: int) -> Dict[str, float]:
    return {
        f"encoding.{fn}.ms": spans.total_ms("encoding." + fn) / ops
        for fn in ("encode_input", "encode_weights", "extract_output")
    }


# ---------------------------------------------------------------------------
# resnet18-hconv
# ---------------------------------------------------------------------------


#: The modes each round runs; later rounds repeat the last entry.  The ntt
#: calls take 14 s of the full round's 24 s and spread least between runs
#: (6 %); one flash or sparse sample spread 13-17 %, so they get two.
RESNET_ROUND_MODES = (MODES, ("flash", "sparse"))


def resnet_inputs(seed: int, scale: Scale) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Seeded 4-bit batch-1 input and weights per layer."""
    rng = np.random.default_rng(seed)
    out = {}
    for layer in scale.resnet:
        s = layer.shape
        x = _random_int4(rng, (1, s.in_channels, s.height, s.width))
        w = _random_int4(rng, (s.out_channels, s.in_channels,
                               s.kernel_h, s.kernel_w))
        out[layer.name] = (x, w)
    return out


class ResnetHconv:
    name = "resnet18-hconv"
    setup_repeats = 1  # one set-up is ~13 s of weight spectra and plans

    def __init__(self, seed: int, scale: Scale):
        from repro.nn.model import conv2d_int_batch

        self.scale = scale
        self.inputs = resnet_inputs(seed, scale)
        self.references = {
            layer.name: conv2d_int_batch(
                self.inputs[layer.name][0], self.inputs[layer.name][1],
                layer.shape.stride, layer.shape.padding,
            )
            for layer in scale.resnet
        }
        self.engines: Dict[Tuple[str, str], object] = {}

    def setup(self) -> None:
        """One engine per (layer, mode), each with its own default cache."""
        from dataclasses import replace

        from repro.runtime.engine import BatchedHConvEngine

        config = _weight_config(self.scale.n)
        self.engines = {}
        for mode in MODES:
            for layer in self.scale.resnet:
                engine = BatchedHConvEngine(
                    mode=mode, weight_config=None if mode == "ntt" else config,
                    max_workers=ENGINE_THREADS,
                )
                x, w = self.inputs[layer.name]
                if layer.cache_fits:
                    engine.conv2d_batch(x, w, layer.shape, self.scale.n)
                else:
                    one = replace(layer.shape, out_channels=1)
                    engine.conv2d_batch(x, w[:1], one, self.scale.n)
                self.engines[(layer.name, mode)] = engine

    def teardown(self) -> None:
        self.engines = {}

    def measure(self, seconds: float) -> dict:
        calls = []
        probe = calibration.Probe()

        def run_round(r: int) -> None:
            for mode in RESNET_ROUND_MODES[min(r, len(RESNET_ROUND_MODES) - 1)]:
                for layer in self.scale.resnet:
                    engine = self.engines[(layer.name, mode)]
                    x, w = self.inputs[layer.name]
                    before = engine.plan_cache.stats()
                    with _span(f"bench.conv.{layer.name}.{mode}"):
                        t0 = time.perf_counter()
                        out = engine.conv2d_batch(
                            x, w, layer.shape, self.scale.n
                        )
                        wall = time.perf_counter() - t0
                    probe_s = probe.bracket()
                    after = engine.plan_cache.stats()
                    calls.append({
                        "round": r, "layer": layer.name, "mode": mode,
                        "wall": wall, "probe": probe_s,
                        "out": out, "stats": engine.last_stats,
                        "cache": {k: after[k] - before[k]
                                  for k in ("hits", "misses", "evictions")},
                    })

        rounds = _repeat_rounds(
            seconds, run_round, min_rounds=len(RESNET_ROUND_MODES)
        )
        return {"calls": calls, "rounds": rounds,
                "ops": len(calls) // len(self.scale.resnet),
                "wall": sum(c["wall"] for c in calls)}

    def _matches(self, call) -> bool:
        ref = self.references[call["layer"]]
        return call["out"].dtype == ref.dtype and np.array_equal(
            call["out"], ref
        )

    def check(self, result: dict) -> None:
        groups = _group_by(
            result["calls"], lambda c: (c["round"], c["layer"])
        )
        for (_, layer), calls in groups.items():
            checks.check_conv_outputs(
                {c["mode"]: c["out"] for c in calls},
                self.references[layer], layer,
            )

    def counts(self, result: dict) -> Tuple[int, int]:
        calls = result["calls"]
        return len(calls), sum(not self._matches(c) for c in calls)

    def end_to_end(self, result: dict) -> Dict[str, float]:
        """Times at the reference host speed (see ``calibration.py``)."""

        def wall(call) -> float:
            return calibration.at_reference_speed(call["wall"], call["probe"])

        metrics = {}
        for mode in MODES:
            per_round = _group_by(
                (c for c in result["calls"] if c["mode"] == mode),
                lambda c: c["round"],
            )
            metrics[f"infer_ms.{mode}"] = _median(
                1e3 * sum(wall(c) for c in calls)
                for calls in per_round.values()
            )
        approx = [self._matches(c) for c in result["calls"]
                  if c["mode"] != "ntt"]
        metrics["infer_per_s"] = result["ops"] / sum(
            wall(c) for c in result["calls"]
        )
        metrics["agreement"] = sum(approx) / len(approx)
        return metrics

    def per_layer(self, result, traced, spans, setup_spans) -> Dict[str, float]:
        """Stage, cache and sparsity figures come from the untraced calls."""
        out: Dict[str, float] = {}
        last = {(c["layer"], c["mode"]): c for c in result["calls"]}
        for (layer, mode), call in last.items():
            stats = call["stats"]
            for stage in STAGES:
                key = stage.replace("+", "_")
                out[f"runtime.{key}.ms.{layer}.{mode}"] = (
                    1e3 * stats.stage_seconds.get(stage, 0.0)
                )
            out[f"runtime.hconv_us.{layer}.{mode}"] = (
                1e6 * call["wall"] / max(1, stats.products)
            )
            lookups = call["cache"]["hits"] + call["cache"]["misses"]
            out[f"plan_cache.hit_rate.{layer}.{mode}"] = (
                call["cache"]["hits"] / lookups if lookups else 0.0
            )
            out[f"plan_cache.evictions.{layer}.{mode}"] = (
                call["cache"]["evictions"]
            )
            if mode == "sparse":
                out[f"sparse.mult_reduction.{layer}"] = (
                    stats.realized_mult_reduction
                )
                out[f"sparse.model_gap.{layer}"] = (
                    stats.weight_mults_realized - stats.weight_mults_model
                )
        out["plan_cache.cached_bytes"] = sum(
            engine.plan_cache.stats()["cached_bytes"]
            for engine in self.engines.values()
        )
        out.update(_encoding_metrics(spans, traced["ops"]))
        out["sparse.plan_compile.ms"] = setup_spans.total_ms(
            "sparse.plan_compile"
        )
        out["calibration.probe_ms"] = _median(
            1e3 * c["probe"] for c in result["calls"]
        )
        return out


# ---------------------------------------------------------------------------
# serve-conv
# ---------------------------------------------------------------------------

#: Tenants with their fixed weights and requested modes.
TENANTS = (("tenant-0", "flash"), ("tenant-1", "sparse"), ("tenant-2", "ntt"))
#: One closed-loop client.  With two, the client threads, the server's
#: threads and both workers contend for a two-core machine, requests
#: coalesce by chance, and the median latency of a tenant jumps between
#: the coalesced and the queued mode from run to run (over 20 % apart).
CLIENTS = 1
#: Generous enough that a healthy run sheds and misses nothing.
SLO_S = 10.0
#: Length of one load window between two host-speed probes.
WINDOW_S = 3.0


class ServeConv:
    name = "serve-conv"
    setup_repeats = 3

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale
        self.shape = scale.serve_shape
        self.config = _weight_config(scale.n)
        rng = np.random.default_rng(seed)
        s = self.shape
        self.weights = {
            tenant: _random_int4(
                rng, (s.out_channels, s.in_channels, s.kernel_h, s.kernel_w)
            )
            for tenant, _ in TENANTS
        }
        self.warm_x = _random_int4(rng, (2, s.in_channels, s.height, s.width))
        self.server = None
        self.executor = None

    def client_inputs(self, client: int):
        """The requests of one closed-loop client, in order: the tenant
        (index into :data:`TENANTS`) and the input.

        Tenants are drawn at random rather than cycled, so the mix does not
        hinge on the number of clients: two clients cycling the tenants
        lock into step (every batch coalesces two requests) or stay out of
        step (no batch does) by chance.
        """
        rng = np.random.default_rng([self.seed, client])
        s = self.shape
        while True:
            tenant = int(rng.integers(len(TENANTS)))
            yield tenant, _random_int4(rng, (s.in_channels, s.height, s.width))

    def _config(self, mode: str):
        return None if mode == "ntt" else self.config

    def setup(self) -> None:
        """Spawn two workers, warm every tenant on both, start the server."""
        from repro.cluster import make_executor
        from repro.serve.messages import conv_request, decode_reply
        from repro.serve.server import InferenceServer, ServeConfig

        self.teardown()
        # Workers fork here, before the server starts any thread.
        self.executor = make_executor(workers=2, seed=self.seed)
        for tenant, mode in TENANTS:
            # Two items shard onto both workers, so each builds its plans.
            self.executor.conv2d_batch(
                mode, self._config(mode), self.warm_x, self.weights[tenant],
                self.shape, self.scale.n,
            )
        self.server = InferenceServer(
            ServeConfig(
                slo_ms=SLO_S * 1e3,
                tenant_rate=1e6,
                tenant_burst=1000,
            ),
            cluster=self.executor,
        )
        for i, (tenant, mode) in enumerate(TENANTS):
            frame = conv_request(
                -1 - i, tenant, mode, self._config(mode), self.scale.n,
                self.shape, self.warm_x[0], self.weights[tenant],
            )
            decode_reply(self.server.submit(frame))

    def teardown(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        if self.executor is not None:
            self.executor.close()
            self.executor = None

    def _client(self, idx, inputs, ids, stop_at, records, errors) -> None:
        from repro.serve.messages import conv_request, decode_reply

        while time.monotonic() < stop_at:
            which, x = next(inputs)
            tenant, mode = TENANTS[which]
            frame = conv_request(
                next(ids), tenant, mode, self._config(mode),
                self.scale.n, self.shape, x, self.weights[tenant],
                deadline_at=time.monotonic() + SLO_S,
            )
            t0 = time.perf_counter()
            try:
                kind, _, body = decode_reply(self.server.submit(frame))
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
                continue
            records.append({"tenant": tenant, "mode": mode, "x": x,
                            "kind": kind, "body": body,
                            "latency": time.perf_counter() - t0})

    def _window(self, seconds, inputs, ids, errors) -> Tuple[list, float]:
        """The clients' closed loops for ``seconds``; (records, wall)."""
        stop_at = time.monotonic() + seconds
        tallies = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(target=self._client,
                             args=(i, inputs[i], ids[i], stop_at, tallies[i],
                                   errors),
                             name=f"bench-client-{i}")
            for i in range(CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        wall = time.perf_counter() - start
        errors.extend(f"{t.name} did not finish" for t in threads
                      if t.is_alive())
        return [r for tally in tallies for r in tally], wall

    def measure(self, seconds: float) -> dict:
        """Load in windows of about :data:`WINDOW_S` with the host-speed
        probe before, between and after them (the clients pause while it
        runs).  A request takes a few ms, far less than the probe, so
        requests are not bracketed one by one: the run's host speed is the
        median of all its probes."""
        before_cluster = self.executor.stats.to_dict()
        before = self.server.stats_dict()
        inputs = [self.client_inputs(i) for i in range(CLIENTS)]
        ids = [itertools.count(i * 1_000_000) for i in range(CLIENTS)]
        windows = max(1, round(seconds / WINDOW_S))
        records: List[dict] = []
        errors: List[str] = []
        probes = [calibration.run_probe()]
        wall = 0.0
        for _ in range(windows):
            window, window_wall = self._window(
                seconds / windows, inputs, ids, errors
            )
            probes.append(calibration.run_probe())
            records.extend(window)
            wall += window_wall
        after = self.server.stats_dict()
        return {
            "records": records,
            "errors": errors,
            "probes": probes,
            "ops": len(records) + len(errors),
            "wall": wall,
            "cluster": self.executor.stats.snapshot_delta(before_cluster),
            "serve": {k: after[k] - before[k]
                      for k in ("batches", "batched_requests",
                                "deadline_misses", "errors")},
            "shed": sum(after["shed"].values()) - sum(before["shed"].values()),
            "server_p50_ms": after["p50_ms"],
            "accounting": after["accounting"],
        }

    def _completed(self, result: dict) -> List[dict]:
        from repro.serve.messages import REP_RESULT

        return [r for r in result["records"] if r["kind"] == REP_RESULT]

    def _exact(self, record: dict) -> bool:
        from repro.nn.model import conv2d_int_batch

        s = self.shape
        ref = conv2d_int_batch(
            record["x"][None], self.weights[record["tenant"]],
            s.stride, s.padding,
        )[0]
        return np.array_equal(record["body"]["out"], ref)

    def check(self, result: dict) -> None:
        """Serial replay of every completed reply, exact ntt, accounting."""
        from repro.cluster.jobs import MSG_JOB_CONV, config_to_wire, shape_to_wire
        from repro.cluster.worker import WorkerState, execute_job

        checks.check_client_errors(result["errors"])
        checks.check_accounting(result["accounting"])
        state = WorkerState()
        groups = _group_by(
            self._completed(result),
            lambda r: (r["tenant"], r["body"]["mode"]),
        )
        for (tenant, mode), records in groups.items():
            replayed = []
            for lo in range(0, len(records), 64):
                chunk = records[lo:lo + 64]
                job = {
                    "mode": mode,
                    "config": config_to_wire(self._config(mode)),
                    "n": self.scale.n,
                    "shape": shape_to_wire(self.shape),
                    "x": np.stack([r["x"] for r in chunk]),
                    "w": self.weights[tenant],
                }
                replayed.extend(execute_job(MSG_JOB_CONV, job, state)["out"])
            checks.check_replay(
                [r["body"]["out"] for r in records], replayed,
                f"{tenant} [{mode}]",
            )
            if mode == "ntt":
                for r in records:
                    if not self._exact(r):
                        raise checks.CheckFailed(
                            f"{tenant} [ntt]: reply differs from "
                            "conv2d_int_batch"
                        )

    def counts(self, result: dict) -> Tuple[int, int]:
        return result["ops"], result["ops"] - len(self._completed(result))

    def end_to_end(self, result: dict) -> Dict[str, float]:
        """Times at the reference host speed (see ``calibration.py``)."""
        completed = self._completed(result)
        host_s = _median(result["probes"])
        metrics = {
            f"infer_ms.{mode}": 1e3 * calibration.at_reference_speed(
                _median(r["latency"] for r in completed if r["mode"] == mode),
                host_s,
            )
            for mode in MODES
        }
        approx = [self._exact(r) for r in completed if r["mode"] != "ntt"]
        metrics["infer_per_s"] = len(completed) / (
            calibration.at_reference_speed(result["wall"], host_s)
        )
        metrics["agreement"] = sum(approx) / max(1, len(approx))
        return metrics

    def per_layer(self, result, traced, spans, setup_spans) -> Dict[str, float]:
        """Counters come from the untraced run, span times from the traced."""
        completed = self._completed(result)
        latencies = sorted(1e3 * r["latency"] for r in completed)
        ops = max(1, traced["ops"])
        out = {
            "cluster.dispatches": result["cluster"].get("dispatches", 0),
            "cluster.recoveries": result["cluster"].get("recoveries", 0),
            "serve.batch_size.mean": result["serve"]["batched_requests"]
            / max(1, result["serve"]["batches"]),
            "serve.server_p50_ms": result["server_p50_ms"],
            "serve.shed": result["shed"],
            "serve.deadline_misses": result["serve"]["deadline_misses"],
            "serve.client_p99_ms": latencies[
                max(0, int(np.ceil(0.99 * len(latencies))) - 1)
            ] if latencies else 0.0,
        }
        jobs = spans.select("cluster.job")
        out["cluster.job.ms"] = _median(1e3 * r["dur"] for r in jobs)
        longest_job: Dict[object, float] = {}
        for r in jobs:
            longest_job[r["parent"]] = max(
                longest_job.get(r["parent"], 0.0), r["dur"]
            )
        out["cluster.overhead_ms"] = _median(
            1e3 * (r["dur"] - longest_job.get(r["span"], 0.0))
            for r in spans.select("cluster.call")
        )
        executes = {r["trace"]: r["dur"] for r in spans.select("serve.execute")}
        out["serve.queue_ms"] = _median(
            1e3 * (r["dur"] - executes[r["trace"]])
            for r in spans.select("serve.request") if r["trace"] in executes
        )
        out.update(_encoding_metrics(spans, ops))
        out["sparse.plan_compile.ms"] = setup_spans.total_ms(
            "sparse.plan_compile"
        )
        out["calibration.probe_ms"] = _median(1e3 * p for p in result["probes"])
        return out


WORKLOADS = {w.name: w for w in (PrivateCnn, ResnetHconv, ServeConv)}
