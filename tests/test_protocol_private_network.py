"""End-to-end integration: a full CNN classified under the BFV protocol."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.he import BfvParameters, flash_backend
from repro.he.backend import SparseFftPolyMulBackend
from repro.nn import (
    QuantizedCnn,
    make_mini_cnn,
    make_mini_resnet,
    make_synthetic_dataset,
    train,
    train_test_split,
)
from repro.protocol.private_network import PrivateCnnEvaluator


@pytest.fixture(scope="module")
def setup():
    ds = make_synthetic_dataset(900, size=8, channels=1, seed=4)
    tr, te = train_test_split(ds)
    model = make_mini_cnn(channels=1, size=8, width=4, seed=0)
    train(model, tr, epochs=6, lr=0.08, seed=1)
    qnet = QuantizedCnn.from_float(model, tr.images[:150], w_bits=4, a_bits=4)
    # Ring: n=256 holds the 8x8 planes; t sized for the worst sum-product.
    params = BfvParameters(n=256, plain_modulus=1 << 17, q_bits=(30, 30))
    return qnet, te, params


class TestPrivateCnnEvaluator:
    def test_exact_backend_matches_plain_inference(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(0)
        trace = evaluator.infer(te.images[0], rng)
        assert trace.matches_plain
        assert trace.prediction == int(trace.expected_logits.argmax())

    def test_trace_accounting(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(1)
        trace = evaluator.infer(te.images[1], rng)
        assert len(trace.layer_stats) == 3  # conv, conv, linear
        assert trace.total_bytes > 0
        assert trace.total_ciphertexts >= 6
        assert trace.min_noise_budget > 0

    def test_flash_backend_classification_robust(self, setup):
        qnet, te, params = setup
        backend = flash_backend(
            params.n, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
        )
        evaluator = PrivateCnnEvaluator(qnet, params, backend)
        rng = np.random.default_rng(2)
        agree = 0
        for i in range(3):
            trace = evaluator.infer(te.images[i], rng)
            if trace.prediction == int(trace.expected_logits.argmax()):
                agree += 1
        assert agree == 3

    def test_private_accuracy(self, setup):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        rng = np.random.default_rng(3)
        acc = evaluator.accuracy(te.images, te.labels, rng, max_samples=4)
        plain = qnet.accuracy_int(te.images[:4], te.labels[:4])
        assert acc == plain

    def test_infer_batch_empty(self, setup):
        qnet, te, params = setup
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        assert PrivateCnnEvaluator(qnet, params).infer_batch(
            te.images[:0], rng
        ) == []
        assert rng.bit_generator.state == state  # no keygen, no draws

    @pytest.mark.parametrize("max_samples, count", [(0, 4), (-1, 4), (8, 0)])
    def test_accuracy_needs_a_sample(self, setup, max_samples, count):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(qnet, params)
        with pytest.raises(ValueError, match="max_samples"):
            evaluator.accuracy(
                te.images[:count], te.labels[:count],
                np.random.default_rng(5), max_samples=max_samples,
            )

    def test_rejects_undersized_plaintext_ring(self, setup):
        qnet, _, _ = setup
        small = BfvParameters(n=256, plain_modulus=1 << 8, q_bits=(30, 30))
        with pytest.raises(ValueError):
            PrivateCnnEvaluator(qnet, small)


class TestResidualNetwork:
    def test_mini_resnet_runs_privately(self):
        # The residual join runs on the same walk as forward_int: every
        # image's private logits match it, one round per compute layer.
        ds = make_synthetic_dataset(300, size=12, channels=1, seed=5)
        tr, te = train_test_split(ds)
        model = make_mini_resnet(channels=1, size=12, width=8, seed=0)
        train(model, tr, epochs=2, lr=0.08, seed=1)
        qnet = QuantizedCnn.from_float(model, tr.images[:100], 4, 4)
        assert "res_add" in [op[0] for op in qnet.ops]
        params = BfvParameters(n=256, plain_modulus=1 << 17, q_bits=(30, 30))
        evaluator = PrivateCnnEvaluator(qnet, params)
        images = te.images[:3]
        traces = evaluator.infer_batch(images, np.random.default_rng(0))
        expected = qnet.forward_int(images)
        assert len(traces) == len(images)
        for trace, logits in zip(traces, expected):
            assert trace.matches_plain
            assert np.array_equal(trace.logits, logits)
            assert len(trace.layer_stats) == 4


# Supervision counters dropped from ProtocolStats after these digests were
# recorded (they were written but never read).  They are 0 on every run
# here, so hashing them as 0 keeps the pinned digests byte for byte.
RETIRED_STATS = {
    "cluster_dispatches": 0,
    "cluster_jobs_requeued": 0,
    "cluster_recoveries": 0,
    "cluster_serial_fallback_jobs": 0,
    "cluster_worker_deaths": 0,
}


def trace_digest(trace) -> str:
    """Stable digest of one private inference: logits and layer stats."""
    h = hashlib.sha256()
    for logits in (trace.logits, trace.expected_logits):
        h.update(np.ascontiguousarray(logits, dtype="<i8").tobytes())
    for stats in trace.layer_stats:
        stats = {**dataclasses.asdict(stats), **RETIRED_STATS}
        for name, value in sorted(stats.items()):
            value = value.hex() if isinstance(value, float) else repr(value)
            h.update(f"{name}={value};".encode())
    return h.hexdigest()[:16]


def _digest_backend(mode, params):
    if mode == "ntt":
        return None
    flash = flash_backend(params.n, stage_widths=27, twiddle_k=5)
    if mode == "flash":
        return flash
    return SparseFftPolyMulBackend(weight_config=flash.weight_config)


class TestInferDigest:
    """``PrivateCnnEvaluator.infer`` and ``infer_batch`` are pinned bit for
    bit on fixed seeds.  The ntt/flash ``infer`` digests were recorded from
    the original per-image layer loop; the sparse ``infer`` digest and the
    three-image ``infer_batch`` digests were recorded from the code that
    still decrypted each returned ciphertext on its own, before decryption
    was batched per layer.  With more than one item per call they pin the
    order in which masks are drawn and ciphertexts decrypted."""

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("ntt", "10594bd9f4b64d56"),
            ("flash", "646f0282a3612b26"),
            ("sparse", "bc2733e0ab2eb8d6"),
        ],
        ids=["ntt", "flash", "sparse"],
    )
    def test_infer_digest(self, setup, mode, digest):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(
            qnet, params, _digest_backend(mode, params)
        )
        trace = evaluator.infer(te.images[5], np.random.default_rng(31))
        assert trace_digest(trace) == digest

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("ntt", "980063fec8dd610e"),
            ("flash", "c745bf50028d2564"),
            ("sparse", "e99e8585c653915f"),
        ],
        ids=["ntt", "flash", "sparse"],
    )
    def test_infer_batch_digest(self, setup, mode, digest):
        qnet, te, params = setup
        evaluator = PrivateCnnEvaluator(
            qnet, params, _digest_backend(mode, params)
        )
        traces = evaluator.infer_batch(
            te.images[5:8], np.random.default_rng(32)
        )
        assert len(traces) == 3
        joined = "".join(trace_digest(trace) for trace in traces)
        assert hashlib.sha256(joined.encode()).hexdigest()[:16] == digest
