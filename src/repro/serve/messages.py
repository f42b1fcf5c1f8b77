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
    - ``serve-ping``: health probe; answered inline by the acceptor.

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

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cluster.jobs import (
    config_to_wire,
    decode_message,
    encode_message,
    shape_to_wire,
)

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
    """Decode a client frame; raises on malformed/corrupt/unknown input."""
    kind, request_id, payload = decode_message(data)
    if kind not in REQUEST_KINDS:
        raise ValueError(f"unknown serve request kind {kind!r}")
    if not isinstance(payload, dict):
        raise ValueError("serve request payload must be a dict")
    return kind, request_id, payload


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
