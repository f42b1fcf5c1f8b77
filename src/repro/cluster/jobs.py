"""Message and job codecs for the multi-process cluster executor.

Every supervisor <-> worker message travels as one CRC32-checksummed frame
in the :mod:`repro.faults.channel` wire format (``encode_frame`` /
``decode_frame``), so a corrupted pipe write is *detected* -- the receiver
sees :class:`repro.faults.channel.ChecksumError` instead of silently
unpickling garbage.  Inside the frame sits a pickled ``(kind, job_id,
payload)`` envelope; array-heavy crypto fields (ciphertext polynomials)
additionally use the :mod:`repro.protocol.wire` polynomial format, so
worker-side decoding exercises -- and its error counters cover -- exactly
the ``deserialize_poly`` validation the protocol transport relies on.

Job identity is the 64-bit ``job_id`` carried by every envelope: retries
of one logical job reuse its id, which is how the supervisor recognizes
(and discards) a duplicate result from a worker that was declared hung
after it had already finished the work.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.channel import decode_frame, encode_frame

# Message kinds (supervisor -> worker unless noted).
MSG_PING = "ping"          # liveness probe
MSG_PONG = "pong"          # worker -> supervisor: probe reply + counters
MSG_WARMUP = "warmup"      # replay a representative job to rebuild plan caches
MSG_JOB_CONV = "conv"      # batched clear-domain convolution shard
MSG_JOB_MUL = "mul"        # multiply_many shard (serialized ring polynomials)
MSG_TAMPER = "tamper"      # chaos/test hook: corrupt one cached entry in place
MSG_RESULT = "result"      # worker -> supervisor: job outcome + counters
MSG_ERROR = "error"        # worker -> supervisor: detected fault (wire/exec)
MSG_SHUTDOWN = "shutdown"  # graceful worker exit

JOB_KINDS = (MSG_JOB_CONV, MSG_JOB_MUL)


class WireDecodeError(ValueError):
    """A job payload's serialized polynomial failed wire validation."""


def encode_message(kind: str, job_id: int, payload: Any) -> bytes:
    """Frame one envelope; ``job_id``'s low bits double as the frame seq."""
    body = pickle.dumps((kind, int(job_id), payload), protocol=4)
    return encode_frame(int(job_id) & 0xFFFFFFFF, body)


def decode_message(data: bytes) -> Tuple[str, int, Any]:
    """Parse one framed envelope.

    Raises:
        ValueError: malformed frame header or undecodable envelope body.
        ChecksumError: frame payload failed its CRC32.
    """
    _, body = decode_frame(data)
    try:
        kind, job_id, payload = pickle.loads(body)
        job_id = int(job_id)
    except Exception as exc:  # pickle raises a zoo of types
        raise ValueError(f"undecodable message envelope: {exc}") from exc
    if not isinstance(kind, str):
        raise ValueError(f"bad message kind {kind!r}")
    return kind, job_id, payload


# ---------------------------------------------------------------------------
# Config / shape / parameter wire forms (plain tuples, spawn-safe)
# ---------------------------------------------------------------------------


def config_to_wire(config) -> Optional[tuple]:
    """Flatten an :class:`ApproxFftConfig` into a plain tuple (or ``None``)."""
    if config is None:
        return None
    return (
        int(config.n),
        tuple(int(w) for w in config.stage_widths),
        int(config.twiddle_k),
        int(config.twiddle_max_shift),
        None if config.input_width is None else int(config.input_width),
    )


def config_from_wire(wire: Optional[tuple]):
    if wire is None:
        return None
    from repro.fftcore.fixed_point import ApproxFftConfig

    n, stage_widths, twiddle_k, twiddle_max_shift, input_width = wire
    return ApproxFftConfig(
        n=n,
        stage_widths=list(stage_widths),
        twiddle_k=twiddle_k,
        twiddle_max_shift=twiddle_max_shift,
        input_width=input_width,
    )


def shape_to_wire(shape) -> tuple:
    """Flatten a :class:`ConvShape` into a plain tuple."""
    return (
        shape.in_channels, shape.height, shape.width, shape.out_channels,
        shape.kernel_h, shape.kernel_w, shape.stride, shape.padding,
    )


def shape_from_wire(wire: tuple):
    from repro.encoding.conv_encoding import ConvShape

    (in_channels, height, width, out_channels,
     kernel_h, kernel_w, stride, padding) = wire
    return ConvShape(
        in_channels=in_channels, height=height, width=width,
        out_channels=out_channels, kernel_h=kernel_h, kernel_w=kernel_w,
        stride=stride, padding=padding,
    )


class WireBasisParams:
    """Minimal parameter shim carrying just the RNS basis.

    :func:`repro.protocol.wire.deserialize_poly` validates incoming bytes
    against ``params.basis``; cluster jobs ship the exact basis primes so
    the worker-side check is byte-for-byte the one the protocol performs.
    """

    def __init__(self, basis):
        self.basis = basis


def basis_to_wire(basis) -> tuple:
    return (int(basis.n), tuple(int(p) for p in basis.primes))


def basis_from_wire(wire: tuple):
    from repro.ntt.rns import RnsBasis

    n, primes = wire
    return RnsBasis(list(primes), n)


# ---------------------------------------------------------------------------
# Job payload builders (supervisor side)
# ---------------------------------------------------------------------------


def conv_job_payload(
    mode: str,
    config,
    n: int,
    shape,
    x_shard: np.ndarray,
    w: np.ndarray,
) -> Dict[str, Any]:
    """One clear-domain convolution shard: a contiguous slice of the batch."""
    return {
        "mode": mode,
        "config": config_to_wire(config),
        "n": int(n),
        "shape": shape_to_wire(shape),
        "x": np.ascontiguousarray(x_shard, dtype=np.int64),
        "w": np.ascontiguousarray(w, dtype=np.int64),
    }


def mul_job_payload(
    backend: str,
    config,
    basis,
    poly_blobs: List[bytes],
    weights: List[np.ndarray],
    index: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """One ``multiply_many`` shard: serialized polys + their weight vectors.

    Product ``i`` multiplies ``poly_blobs[index[i]]`` by ``weights[i]``;
    without ``index``, blob ``i``.  A polynomial shared by several
    products is shipped, and deserialized by the worker, once.
    """
    if index is None:
        index = range(len(weights))
    return {
        "backend": backend,
        "config": config_to_wire(config),
        "basis": basis_to_wire(basis),
        "polys": list(poly_blobs),
        "index": [int(i) for i in index],
        "weights": [
            np.ascontiguousarray(w, dtype=np.int64) for w in weights
        ],
    }


def warmup_key(kind: str, payload: Dict[str, Any]) -> tuple:
    """Context key under which one representative job is kept for replay.

    A respawned worker starts with cold plan caches; the supervisor replays
    one recorded job per distinct execution context (mode/backend, degree,
    datapath config) so the replacement rebuilds its plans and weight
    spectra before rejoining the pool.
    """
    if kind == MSG_JOB_CONV:
        return (kind, payload["mode"], payload["n"], payload["config"])
    if kind == MSG_JOB_MUL:
        return (
            kind, payload["backend"], payload["basis"][0], payload["config"],
        )
    return (kind,)


def warmup_payload(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap a representative job for replay (its result is discarded)."""
    return {"job_kind": kind, "job": payload}
