"""Request/reply wire format for the serving front end.

Serve traffic reuses the cluster envelope codec
(:func:`repro.cluster.jobs.encode_message` /
:func:`~repro.cluster.jobs.decode_message`): one CRC32-checksummed frame
per message holding a pickled ``(kind, request_id, payload)`` envelope,
with the same plain-tuple wire forms for :class:`ApproxFftConfig` and
:class:`ConvShape` that cluster jobs use.  A
corrupted client frame therefore surfaces as
:class:`~repro.faults.channel.ChecksumError` at decode time -- counted as
a wire error, never executed.

Requests
    - ``serve-conv``: one logical conv2d request (a batch-of-one input
      plus its weight tensor), carrying ``tenant``, requested ``mode``
      and an absolute ``deadline_at`` on the shared monotonic clock.
    - ``serve-ping``: health probe; answered inline on the caller's thread.

Replies (exactly one per received request -- the no-silent-drop rule)
    - ``serve-result``: output tensor plus the *effective* mode the
      request ran at, whether the ladder or guard degraded it, and which
      path (cluster/serial) executed the batch.
    - ``serve-shed``: explicit backpressure; names one of
      :data:`repro.serve.stats.SHED_REASONS` and a ``retry_after_s`` hint.
    - ``serve-deadline``: the deadline expired before a result could be
      returned (the computed result, if any, is discarded).
    - ``serve-error``: execution failed; carries the error text.
    - ``serve-pong``: health snapshot for ``serve-ping``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cluster.jobs import (
    config_to_wire,
    decode_message,
    encode_message,
    shape_from_wire,
    shape_to_wire,
)
from repro.runtime.engine import BatchedHConvEngine

REQ_CONV = "serve-conv"
REQ_PING = "serve-ping"
REQUEST_KINDS = (REQ_CONV, REQ_PING)

REP_RESULT = "serve-result"
REP_SHED = "serve-shed"
REP_DEADLINE = "serve-deadline"
REP_ERROR = "serve-error"
REP_PONG = "serve-pong"
REPLY_KINDS = (REP_RESULT, REP_SHED, REP_DEADLINE, REP_ERROR, REP_PONG)


# ---------------------------------------------------------------------------
# Requests (client side)
# ---------------------------------------------------------------------------


def conv_request(
    request_id: int,
    tenant: str,
    mode: str,
    config,
    n: int,
    shape,
    x: np.ndarray,
    w: np.ndarray,
    deadline_at: Optional[float] = None,
) -> bytes:
    """One conv2d request; ``x`` is a single input ``(C, H, W)``."""
    payload = {
        "tenant": str(tenant),
        "mode": str(mode),
        "config": config_to_wire(config),
        "n": int(n),
        "shape": shape_to_wire(shape),
        "x": np.ascontiguousarray(x, dtype=np.int64),
        "w": np.ascontiguousarray(w, dtype=np.int64),
        "deadline_at": None if deadline_at is None else float(deadline_at),
    }
    return encode_message(REQ_CONV, request_id, payload)


def ping_request(request_id: int, tenant: str = "probe") -> bytes:
    return encode_message(REQ_PING, request_id, {"tenant": str(tenant)})


def decode_request(data: bytes) -> Tuple[str, int, Dict[str, Any]]:
    """Decode a client frame; raises on malformed/corrupt/unknown input.

    A ``serve-conv`` payload must carry every field the server reads, in
    the form :func:`conv_request` writes it, so a CRC-valid but malformed
    frame is a wire error and is never admitted.
    """
    kind, request_id, payload = decode_message(data)
    if kind not in REQUEST_KINDS:
        raise ValueError(f"unknown serve request kind {kind!r}")
    if not isinstance(payload, dict):
        raise ValueError("serve request payload must be a dict")
    if kind == REQ_CONV:
        _check_conv_payload(payload)
    return kind, request_id, payload


_CONV_FIELDS = (
    "tenant", "mode", "config", "n", "shape", "x", "w", "deadline_at",
)
_INT = (int, np.integer)  # concrete types: an ABC check costs microseconds


def _check_conv_payload(payload: Dict[str, Any]) -> None:
    def require(ok: bool, field: str, want: str) -> None:
        if not ok:
            raise ValueError(f"serve-conv field {field!r} must be {want}")

    missing = [field for field in _CONV_FIELDS if field not in payload]
    if missing:
        raise ValueError(f"serve-conv payload lacks {missing}")
    tenant, mode, config, n, shape, x, w, deadline_at = (
        payload[field] for field in _CONV_FIELDS
    )
    require(isinstance(tenant, str), "tenant", "a str")
    require(
        isinstance(mode, str) and mode in BatchedHConvEngine.MODES,
        "mode", "ntt, flash or sparse",
    )
    require(
        isinstance(n, _INT) and n >= 2 and n & (n - 1) == 0,
        "n", "a power of two >= 2",
    )
    require(
        isinstance(shape, tuple) and len(shape) == 8
        and all(isinstance(v, _INT) for v in shape),
        "shape", "a tuple of 8 ints",
    )
    shape_from_wire(shape)  # ConvShape rejects impossible geometry
    require(
        (isinstance(config, tuple) and len(config) == 5)
        or (config is None and mode == "ntt"),
        "config", "a 5-tuple (or None for ntt)",
    )
    c, h, width, m, kh, kw = shape[:6]
    for field, array, dims, want in (
        ("x", x, (c, h, width), "an int (C, H, W) array"),
        ("w", w, (m, c, kh, kw), "an int (M, C, kh, kw) array"),
    ):
        require(
            isinstance(array, np.ndarray) and array.dtype.kind == "i"
            and array.shape == dims,
            field, want,
        )
    require(
        deadline_at is None
        or (isinstance(deadline_at, (float,) + _INT)
            and math.isfinite(deadline_at)),
        "deadline_at", "None or a finite number",
    )


# ---------------------------------------------------------------------------
# Replies (server side)
# ---------------------------------------------------------------------------


def result_reply(request_id: int, body: Dict[str, Any]) -> bytes:
    return encode_message(REP_RESULT, request_id, body)


def shed_reply(
    request_id: int, reason: str, retry_after_s: float = 0.0
) -> bytes:
    return encode_message(
        REP_SHED,
        request_id,
        {"reason": str(reason), "retry_after_s": float(retry_after_s)},
    )


def deadline_reply(request_id: int, late_by_s: float = 0.0) -> bytes:
    return encode_message(
        REP_DEADLINE, request_id, {"late_by_s": float(late_by_s)}
    )


def error_reply(request_id: int, message: str) -> bytes:
    return encode_message(REP_ERROR, request_id, {"error": str(message)})


def pong_reply(request_id: int, health: Dict[str, Any]) -> bytes:
    return encode_message(REP_PONG, request_id, {"health": dict(health)})


def decode_reply(data: bytes) -> Tuple[str, int, Dict[str, Any]]:
    kind, request_id, payload = decode_message(data)
    if kind not in REPLY_KINDS:
        raise ValueError(f"unknown serve reply kind {kind!r}")
    if not isinstance(payload, dict):
        raise ValueError("serve reply payload must be a dict")
    return kind, request_id, payload


__all__ = [
    "REP_DEADLINE",
    "REP_ERROR",
    "REP_PONG",
    "REP_RESULT",
    "REP_SHED",
    "REPLY_KINDS",
    "REQ_CONV",
    "REQ_PING",
    "REQUEST_KINDS",
    "conv_request",
    "decode_reply",
    "decode_request",
    "deadline_reply",
    "error_reply",
    "ping_request",
    "pong_reply",
    "result_reply",
    "shed_reply",
]
