"""Correctness checks run inside every benchmark run.

Each check raises :class:`CheckFailed` on a wrong output; the run then
reports ``"correct": false`` and exits non-zero, so a broken program can
never produce a passing measurement.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program differs from its reference."""


def check_exact_logits(traces: Iterable) -> None:
    """The exact (NTT) private inference must reproduce the clear logits."""
    for i, trace in enumerate(traces):
        if not np.array_equal(trace.logits, trace.expected_logits):
            raise CheckFailed(
                f"ntt inference {i}: logits {trace.logits.tolist()} != "
                f"expected {trace.expected_logits.tolist()}"
            )


def top1_agrees(trace) -> bool:
    """Top-1 class of a private inference equals the clear pipeline's."""
    return int(np.argmax(trace.logits)) == int(np.argmax(trace.expected_logits))


def check_conv_outputs(
    outputs: Dict[str, np.ndarray], reference: np.ndarray, layer: str
) -> None:
    """Every mode equals the integer reference bit for bit; sparse == flash."""
    for mode, out in outputs.items():
        if out.dtype != reference.dtype or not np.array_equal(out, reference):
            bad = int(np.count_nonzero(out != reference)) if (
                out.shape == reference.shape
            ) else -1
            raise CheckFailed(
                f"{layer} [{mode}]: output differs from conv2d_int_batch "
                f"({bad} elements)"
            )
    if "sparse" in outputs and "flash" in outputs and not np.array_equal(
        outputs["sparse"], outputs["flash"]
    ):
        raise CheckFailed(f"{layer}: sparse output differs from flash")


def check_replay(
    replies: Sequence[np.ndarray], replayed: Sequence[np.ndarray], what: str
) -> None:
    """Served results must equal a serial replay byte for byte."""
    if len(replies) != len(replayed):
        raise CheckFailed(f"{what}: {len(replies)} replies, "
                          f"{len(replayed)} replayed")
    for i, (got, want) in enumerate(zip(replies, replayed)):
        got = np.asarray(got)
        if got.dtype != want.dtype or got.tobytes() != want.tobytes():
            raise CheckFailed(f"{what}: reply {i} differs from serial replay")


def check_accounting(accounting: Dict[str, int]) -> None:
    """The server's no-silent-drop identity must balance exactly."""
    if accounting.get("unaccounted", 0) != 0 or accounting.get(
        "in_flight", 0
    ) != 0:
        raise CheckFailed(f"serve accounting does not balance: {accounting}")


def check_client_errors(errors: List[str]) -> None:
    """Every request must have come back with a decodable reply."""
    if errors:
        raise CheckFailed(f"{len(errors)} client errors, first: {errors[0]}")
