"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def tiny():
    return workloads.tiny_scale()


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- seeded inputs -----------------------------------------------------------


def test_cnn_inputs_follow_the_seed():
    images = np.arange(40 * 12 * 12, dtype=np.float64).reshape(40, 1, 12, 12)
    a = workloads.cnn_inputs(images, SEED, 4)
    b = workloads.cnn_inputs(images, SEED, 4)
    c = workloads.cnn_inputs(images, SEED + 1, 4)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not (np.array_equal(a[0], c[0]) and a[1] == c[1])


def test_resnet_inputs_follow_the_seed(tiny):
    a = workloads.resnet_inputs(SEED, tiny)
    b = workloads.resnet_inputs(SEED, tiny)
    c = workloads.resnet_inputs(SEED + 1, tiny)
    for name in a:
        for left, right in zip(a[name], b[name]):
            assert np.array_equal(left, right)
    assert any(not np.array_equal(a[k][0], c[k][0]) for k in a)


def test_serve_inputs_follow_the_seed(tiny):
    a = workloads.ServeConv(SEED, tiny)
    b = workloads.ServeConv(SEED, tiny)
    for tenant in a.weights:
        assert np.array_equal(a.weights[tenant], b.weights[tenant])
    for client in range(workloads.CLIENTS):
        xs_a, xs_b = a.client_inputs(client), b.client_inputs(client)
        for _ in range(5):
            (tenant_a, x_a), (tenant_b, x_b) = next(xs_a), next(xs_b)
            assert tenant_a == tenant_b and np.array_equal(x_a, x_b)
    other = workloads.ServeConv(SEED + 1, tiny)
    assert not np.array_equal(next(a.client_inputs(0))[1],
                              next(other.client_inputs(0))[1])


# -- correctness checks trip on corrupted outputs ----------------------------


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def measured(request, tiny):
    workload = workloads.WORKLOADS[request.param](SEED, tiny)
    workload.setup()
    try:
        result = workload.measure(0.2)
    finally:
        workload.teardown()
    return workload, result


def _corrupt(workload, result):
    """Flip one value of one output the workload checks."""
    if workload.name == "private-cnn":
        trace = next(t for mode, _, ts in result["calls"] if mode == "ntt"
                     for t in ts)
        trace.logits = trace.logits.copy()
        trace.logits[0] += 1
    elif workload.name == "resnet18-hconv":
        call = next(c for c in result["calls"] if c["mode"] == "sparse")
        call["out"] = call["out"].copy()
        call["out"].flat[0] += 1
    else:
        record = next(r for r in result["records"]
                      if r["body"].get("out") is not None)
        record["body"]["out"] = record["body"]["out"].copy()
        record["body"]["out"].flat[0] += 1


def test_clean_measurement_passes_its_checks(measured):
    workload, result = measured
    workload.check(result)
    attempted, failed = workload.counts(result)
    assert attempted >= 1 and failed == 0


def test_check_trips_on_a_corrupted_output(measured):
    import copy

    workload, result = measured
    broken = copy.deepcopy(result)
    _corrupt(workload, broken)
    with pytest.raises(checks.CheckFailed):
        workload.check(broken)


def test_conv_check_rejects_sparse_differing_from_flash():
    ref = np.arange(6, dtype=np.int64).reshape(1, 1, 2, 3)
    checks.check_conv_outputs({"flash": ref, "sparse": ref}, ref, "l")
    odd = ref.copy()
    odd[0, 0, 0, 0] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_conv_outputs({"flash": ref, "sparse": odd}, ref, "l")
    with pytest.raises(checks.CheckFailed):
        checks.check_conv_outputs({"ntt": ref.astype(np.int32)}, ref, "l")


def test_serve_accounting_check_trips_on_a_lost_request():
    checks.check_accounting({"unaccounted": 0, "in_flight": 0})
    with pytest.raises(checks.CheckFailed):
        checks.check_accounting({"unaccounted": 1, "in_flight": 0})
    with pytest.raises(checks.CheckFailed):
        checks.check_client_errors(["client 0: timeout"])


# -- tracing ----------------------------------------------------------------


def test_traced_run_restores_every_wrapped_attribute():
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, _, _ in tracing._targets()]
    with tracing.traced_run():
        assert any(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_unattributed_frac_counts_uncovered_root_time():
    def span(name, sid, parent, ts, dur):
        return {"name": name, "span": sid, "parent": parent, "ts": ts,
                "dur": dur, "kind": "span", "attrs": {}}

    spans = tracing.Spans([
        span("bench.measure", 1, None, 0.0, 10.0),
        span("he.decrypt", 2, 1, 1.0, 2.0),
        span("rns.to_rns", 3, 2, 1.5, 1.0),   # nested: no extra cover
        span("runtime.encode", 4, 1, 6.0, 2.0),
        span("bench.infer.ntt", 5, 1, 0.0, 10.0),  # not a layer span
    ])
    assert spans.unattributed_frac("bench.measure") == pytest.approx(0.6)
    assert spans.total_ms("rns.to_rns", under="he.decrypt") == 1e3
    assert spans.count("rns.to_rns", not_under=["he.decrypt"]) == 0


# -- tiny-n smoke pass -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_metric_of_benchmark_json(
    name, tiny, benchmark_json, tmp_path
):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(
            name, SEED, 0.2, trace, scale=tiny,
            trace_path=str(tmp_path / "trace.json") if trace else None,
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in benchmark_json[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
        values = [v["value"] for v in result["metrics"].values()]
        assert all(np.isfinite(values))
        if not trace:
            assert all(v != 0 for v in values)
    assert (tmp_path / "trace.json").stat().st_size > 0
