"""Paper-scale benchmark: private CNN inference, ResNet-18 HConv and serving.

Run from the root of a checkout::

    python3 perfbench/run.py --workload private-cnn --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the unmodified program and prints the end-to-end
metrics; ``--trace 1`` sets up under the benchmark's timing wrappers,
measures once untraced and once traced, and prints the per-layer metrics
(see ``README.md``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
correctness check prints ``"correct": false`` and exits with code 1; a
checkout without the program exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MODES = ("ntt", "flash", "sparse")
RESNET_LAYERS = ("layer3.0.downsample", "layer2.1.conv1")
STAGE_METRICS = ("encode", "weight_transform", "activation_transform",
                 "pointwise_inverse", "decode")

#: End-to-end metrics; every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "infer_ms.ntt": "ms",
    "infer_ms.flash": "ms",
    "infer_ms.sparse": "ms",
    "infer_per_s": "1/s",
    "agreement": "share",
}

#: Wrapped kernels: span name -> (time metric suffix, bytes metric suffix).
KERNELS = {
    "kernel.ntt.forward_batch": ("us_per_row", "bytes_per_row_computed"),
    "kernel.ntt.inverse_batch": ("us_per_row", "bytes_per_row_computed"),
    "kernel.fft.weight_forward": ("us", "bytes_computed"),
    "kernel.fft.activation_forward_batch":
        ("us_per_row", "bytes_per_row_computed"),
    "kernel.fft.multiply_spectra_batch":
        ("us_per_row", "bytes_per_row_computed"),
    "kernel.sparse.execute": ("us_per_row", "bytes_per_row_computed"),
}


def _per_layer_catalog() -> Dict[str, str]:
    units: Dict[str, str] = {
        "protocol.conv_batch.self_ms": "ms",
        "protocol.linear.ms": "ms",
        "protocol.layer0.ms": "ms",
        "protocol.layer1.ms": "ms",
        "protocol.layer2.ms": "ms",
        "protocol.bytes_per_infer": "B",
        "protocol.rounds_per_infer": "count",
        "he.encrypt_symmetric.ms": "ms",
        "he.encrypt_symmetric.calls": "count",
        "he.decrypt.ms": "ms",
        "he.decrypt.calls": "count",
        "he.noise_budget.ms": "ms",
        "he.ct_arith.ms": "ms",
        "he.noise_margin_bits": "bits",
        "rns.from_rns.ms": "ms",
        "rns.to_rns.ms": "ms",
        "encoding.encode_input.ms": "ms",
        "encoding.encode_weights.ms": "ms",
        "encoding.extract_output.ms": "ms",
    }
    for mode in MODES:
        units[f"runtime.multiply_many.ms.{mode}"] = "ms"
    for layer in RESNET_LAYERS:
        for mode in MODES:
            for stage in STAGE_METRICS:
                units[f"runtime.{stage}.ms.{layer}.{mode}"] = "ms"
            units[f"runtime.hconv_us.{layer}.{mode}"] = "us"
            units[f"plan_cache.hit_rate.{layer}.{mode}"] = "share"
            units[f"plan_cache.evictions.{layer}.{mode}"] = "count"
    units["plan_cache.cached_bytes"] = "B"
    for layer in RESNET_LAYERS:
        units[f"sparse.mult_reduction.{layer}"] = "share"
        units[f"sparse.model_gap.{layer}"] = "count"
    units["sparse.plan_compile.ms"] = "ms"
    for kernel, (time_key, bytes_key) in KERNELS.items():
        units[f"{kernel}.{time_key}"] = "us"
        units[f"{kernel}.{bytes_key}"] = "B"
    units.update({
        "cluster.dispatches": "count",
        "cluster.recoveries": "count",
        "cluster.job.ms": "ms",
        "cluster.overhead_ms": "ms",
        "serve.queue_ms": "ms",
        "serve.batch_size.mean": "count",
        "serve.server_p50_ms": "ms",
        "serve.client_p99_ms": "ms",
        "serve.shed": "count",
        "serve.deadline_misses": "count",
        "trace.overhead_frac": "share",
        "trace.unattributed_frac": "share",
        "calibration.probe_ms": "ms",
    })
    return units


PER_LAYER = _per_layer_catalog()


def _with_units(values: Dict[str, float], units: Dict[str, str]) -> dict:
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def _check(workload, result: dict) -> bool:
    from checks import CheckFailed

    try:
        workload.check(result)
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return False
    return True


def _traced_setup(workload) -> list:
    import tracing
    from repro.obs import trace as obs_trace

    with tracing.traced_run() as records:
        with obs_trace.tracer.span("bench.setup"):
            workload.setup()
    return records


def _traced_measure(
    workload, seconds: float, untraced: dict, setup_records: list,
    trace_path: Optional[str],
):
    """Repeat the measurement under the timing wrappers; per-layer values."""
    import tracing
    from repro.obs import trace as obs_trace
    from repro.obs.export import write_chrome_trace

    with tracing.traced_run() as records:
        with obs_trace.tracer.span("bench.measure"):
            traced = workload.measure(seconds)
    if trace_path:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        write_chrome_trace(trace_path, setup_records + records)

    spans = tracing.Spans(records)
    values = workload.per_layer(
        untraced, traced, spans, tracing.Spans(setup_records)
    )
    for kernel, (time_key, bytes_key) in KERNELS.items():
        us, moved = spans.kernel(kernel)
        values[f"{kernel}.{time_key}"] = us
        values[f"{kernel}.{bytes_key}"] = moved
    values["trace.overhead_frac"] = (
        (traced["wall"] / traced["ops"]) / (untraced["wall"] / untraced["ops"])
        - 1.0
    )
    values["trace.unattributed_frac"] = spans.unattributed_frac("bench.measure")
    return traced, values


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale=None,
    trace_path: Optional[str] = None,
) -> dict:
    """One benchmark run; returns the result object that ``main`` prints.

    A traced run sets up once, under the wrappers (for set-up spans such as
    sparse plan compilation), then measures untraced and traced back to
    back; the untraced measurement is the base of ``trace.overhead_frac``.
    """
    import workloads

    workload = workloads.WORKLOADS[name](
        seed, scale if scale is not None else workloads.paper_scale()
    )
    try:
        if trace:
            setup_records = _traced_setup(workload)
        else:
            setups = []
            for _ in range(workload.setup_repeats):
                t0 = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t0)
        result = workload.measure(seconds)
        correct = _check(workload, result)
        attempted, failed = workload.counts(result)
        if trace:
            traced, values = _traced_measure(
                workload, seconds, result, setup_records, trace_path
            )
            correct = _check(workload, traced) and correct
            more_attempted, more_failed = workload.counts(traced)
            attempted += more_attempted
            failed += more_failed
            metrics = _with_units(values, PER_LAYER)
        else:
            values = workload.end_to_end(result)
            values["setup_s"] = statistics.median(setups)
            metrics = _with_units(values, END_TO_END)
    finally:
        workload.teardown()
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({src})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace_path = os.path.join(
        HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"
    ) if args.trace else None
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_path=trace_path,
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
