"""Cluster message and job codecs: framing, wire forms, warmup keys."""

import pickle

import numpy as np
import pytest

from repro.cluster.jobs import (
    MSG_JOB_CONV,
    MSG_JOB_MUL,
    MSG_RESULT,
    MSG_SHUTDOWN,
    basis_from_wire,
    basis_to_wire,
    config_from_wire,
    config_to_wire,
    conv_job_payload,
    decode_message,
    encode_message,
    mul_job_payload,
    shape_from_wire,
    shape_to_wire,
    warmup_key,
    warmup_payload,
)
from repro.encoding.conv_encoding import ConvShape
from repro.faults.channel import ChecksumError, encode_frame
from repro.fftcore.fixed_point import ApproxFftConfig
from repro.ntt import RnsBasis

SHAPE = ConvShape(
    in_channels=2, height=6, width=6, out_channels=3,
    kernel_h=3, kernel_w=3, stride=2, padding=1,
)
CFG = ApproxFftConfig(
    n=64, stage_widths=27, twiddle_k=18, twiddle_max_shift=24
)


class TestEnvelope:
    def test_roundtrip_with_arrays(self):
        payload = {"x": np.arange(12, dtype=np.int64).reshape(3, 4), "k": 7}
        kind, job_id, out = decode_message(
            encode_message(MSG_RESULT, 0xDEADBEEF, payload)
        )
        assert kind == MSG_RESULT
        assert job_id == 0xDEADBEEF
        assert out["k"] == 7
        assert np.array_equal(out["x"], payload["x"])

    def test_none_payload_roundtrip(self):
        assert decode_message(encode_message(MSG_SHUTDOWN, 0, None)) == (
            MSG_SHUTDOWN, 0, None,
        )

    def test_job_id_above_32_bits_survives_in_envelope(self):
        # The frame seq only carries the low 32 bits; the envelope carries
        # the full id (call_seq << 20 grows past 2**32 in long sessions).
        job_id = (1 << 40) + 5
        _, got, _ = decode_message(encode_message(MSG_RESULT, job_id, None))
        assert got == job_id

    def test_flipped_byte_raises_checksum_error(self):
        frame = bytearray(encode_message(MSG_RESULT, 1, {"v": 3}))
        frame[len(frame) // 2] ^= 0x40
        with pytest.raises((ChecksumError, ValueError)):
            decode_message(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = encode_message(MSG_RESULT, 1, {"v": 3})
        with pytest.raises(ValueError):
            decode_message(frame[: len(frame) // 2])

    def test_valid_frame_with_garbage_body_rejected(self):
        # The CRC passes (the garbage was framed honestly) but the
        # envelope does not unpickle: still a loud ValueError, not junk.
        with pytest.raises(ValueError, match="undecodable"):
            decode_message(encode_frame(0, b"not a pickle"))

    def test_non_string_kind_rejected(self):
        body = pickle.dumps((42, 1, None), protocol=4)
        with pytest.raises(ValueError, match="bad message kind"):
            decode_message(encode_frame(1, body))


class TestWireForms:
    def test_config_roundtrip(self):
        wire = config_to_wire(CFG)
        assert wire == (64, (27,) * 6, 18, 24, None)
        back = config_from_wire(wire)
        assert back.n == CFG.n
        assert list(back.stage_widths) == list(CFG.stage_widths)
        assert back.twiddle_k == CFG.twiddle_k
        assert back.twiddle_max_shift == CFG.twiddle_max_shift
        assert back.input_width == CFG.input_width

    def test_config_none_passthrough(self):
        assert config_to_wire(None) is None
        assert config_from_wire(None) is None

    def test_shape_roundtrip(self):
        assert shape_from_wire(shape_to_wire(SHAPE)) == SHAPE

    def test_basis_roundtrip(self):
        basis = RnsBasis.generate(64, [30, 30, 31])
        back = basis_from_wire(basis_to_wire(basis))
        assert back.n == basis.n
        assert list(back.primes) == list(basis.primes)

    def test_wire_forms_are_plain_picklable_tuples(self):
        # Job payloads must cross a process boundary without importing
        # repro classes at unpickle time.
        for wire in (
            config_to_wire(CFG),
            shape_to_wire(SHAPE),
            basis_to_wire(RnsBasis.generate(64, [30, 31])),
        ):
            assert isinstance(wire, tuple)
            assert pickle.loads(pickle.dumps(wire)) == wire


class TestJobPayloads:
    def test_conv_payload_casts_and_copies(self):
        xs = np.ones((2, 2, 6, 6), dtype=np.int32)
        w = np.ones((3, 2, 3, 3), dtype=np.int32)
        payload = conv_job_payload("ntt", None, 128, SHAPE, xs, w)
        assert payload["mode"] == "ntt"
        assert payload["n"] == 128
        assert payload["x"].dtype == np.int64
        assert payload["w"].dtype == np.int64
        assert payload["x"].flags["C_CONTIGUOUS"]

    def test_mul_payload_structure(self):
        basis = RnsBasis.generate(64, [30, 31])
        payload = mul_job_payload(
            "ntt", None, basis, [b"blob0", b"blob1"],
            [np.zeros(64), np.ones(64)],
        )
        assert payload["backend"] == "ntt"
        assert payload["basis"] == basis_to_wire(basis)
        assert payload["polys"] == [b"blob0", b"blob1"]
        assert all(w.dtype == np.int64 for w in payload["weights"])


class TestWarmupKeys:
    def test_conv_key_distinguishes_mode_degree_config(self):
        base = conv_job_payload("ntt", None, 128, SHAPE,
                                np.zeros((1, 2, 6, 6)), np.zeros((3, 2, 3, 3)))
        other_mode = dict(base, mode="flash", config=config_to_wire(CFG))
        other_n = dict(base, n=256)
        keys = {
            warmup_key(MSG_JOB_CONV, p)
            for p in (base, other_mode, other_n)
        }
        assert len(keys) == 3

    def test_same_context_same_key_regardless_of_data(self):
        a = conv_job_payload("ntt", None, 128, SHAPE,
                             np.zeros((1, 2, 6, 6)), np.zeros((3, 2, 3, 3)))
        b = conv_job_payload("ntt", None, 128, SHAPE,
                             np.ones((4, 2, 6, 6)), np.ones((3, 2, 3, 3)))
        assert warmup_key(MSG_JOB_CONV, a) == warmup_key(MSG_JOB_CONV, b)

    def test_mul_key_uses_backend_and_degree(self):
        basis = RnsBasis.generate(64, [30, 31])
        a = mul_job_payload("ntt", None, basis, [], [])
        b = mul_job_payload("flash", CFG, basis, [], [])
        assert warmup_key(MSG_JOB_MUL, a) != warmup_key(MSG_JOB_MUL, b)
        assert warmup_key(MSG_JOB_MUL, a) != warmup_key(MSG_JOB_CONV, {
            "mode": "ntt", "n": 64, "config": None,
        })

    def test_warmup_payload_wraps_job(self):
        wrapped = warmup_payload(MSG_JOB_CONV, {"mode": "ntt"})
        assert wrapped == {"job_kind": MSG_JOB_CONV, "job": {"mode": "ntt"}}
