"""Traced-run support: timing wrappers around the layers' public functions.

The untraced runs that give the end-to-end metrics execute the program
unmodified.  The traced run installs the wrappers below, enables the
program's own tracer (:mod:`repro.obs.trace`), and afterwards reads the
per-layer numbers out of the recorded spans -- the program's built-in
spans (``runtime.<stage>``, ``protocol.conv_batch``, ``serve.request``,
``cluster.job`` ...) plus one span per wrapped call.

Every wrapper patches the attribute on the class it is looked up on, so
instances created before or after installation, and cluster workers
forked while the wrappers are installed, all go through it.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import trace as obs_trace

#: Span-name prefixes that belong to a named layer of the program, plus the
#: benchmark's own host-speed probe.  Time inside the measured root span
#: that none of them covers is reported as ``trace.unattributed_frac``.
LAYER_PREFIXES = (
    "protocol.", "he.", "rns.", "encoding.", "runtime.", "kernel.",
    "sparse.", "cluster.", "serve.", "bench.calibrate",
)

#: Ring capacity for one traced run; far above the span count of any
#: workload, so no record is dropped.
TRACE_CAPACITY = 400_000


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _nbytes(*arrays) -> int:
    total = 0
    for arr in arrays:
        values = getattr(arr, "values", arr)  # ApproxSpectrum -> its array
        total += int(getattr(values, "nbytes", 0))
    return total


def _batch_kernel(args, out) -> dict:
    """``(self, stack, ...)`` kernels: rows of the stack, bytes in + out."""
    return {"rows": _rows(args[1]), "bytes": _nbytes(*args[1:], out)}


def _spectra_kernel(args, out) -> dict:
    """``multiply_spectra_batch(self, weight_values, act_spec)``."""
    return {"rows": _rows(args[2]), "bytes": _nbytes(args[1], args[2], out)}


def _protocol_layer(args) -> str:
    # layer_name is "layer<k>:conv" / "layer<k>:linear" (PrivateCnnEvaluator)
    return "protocol." + str(args[0].layer_name).split(":")[0]


def _targets() -> List[Tuple[type, str, object, Optional[Callable]]]:
    """``(owner, attribute, span name or name function, attrs function)``."""
    from repro.cluster.executor import ClusterExecutor
    from repro.encoding.conv_encoding import Conv2dEncoder
    from repro.fftcore.approx_pipeline import ApproxNegacyclic
    from repro.he.bfv import BfvContext
    from repro.ntt.ntt import NegacyclicNtt
    from repro.ntt.rns import RnsBasis
    from repro.protocol.hybrid import HybridConvProtocol, HybridLinearProtocol
    from repro.sparse.plan import SparsePlan

    return [
        (HybridConvProtocol, "run_batch", _protocol_layer, None),
        (HybridLinearProtocol, "run", _protocol_layer, None),
        (BfvContext, "encrypt_symmetric", "he.encrypt_symmetric", None),
        (BfvContext, "decrypt", "he.decrypt", None),
        (BfvContext, "noise_budget", "he.noise_budget", None),
        (BfvContext, "add", "he.ct_arith", None),
        (BfvContext, "add_plain", "he.ct_arith", None),
        (BfvContext, "sub_plain", "he.ct_arith", None),
        (RnsBasis, "from_rns", "rns.from_rns", None),
        (RnsBasis, "to_rns", "rns.to_rns", None),
        (Conv2dEncoder, "encode_input", "encoding.encode_input", None),
        (Conv2dEncoder, "encode_weights", "encoding.encode_weights", None),
        (Conv2dEncoder, "extract_output", "encoding.extract_output", None),
        (SparsePlan, "__init__", "sparse.plan_compile", None),
        (NegacyclicNtt, "forward_batch", "kernel.ntt.forward_batch",
         _batch_kernel),
        (NegacyclicNtt, "inverse_batch", "kernel.ntt.inverse_batch",
         _batch_kernel),
        (ApproxNegacyclic, "weight_forward", "kernel.fft.weight_forward",
         _batch_kernel),
        (ApproxNegacyclic, "activation_forward_batch",
         "kernel.fft.activation_forward_batch", _batch_kernel),
        (ApproxNegacyclic, "multiply_spectra_batch",
         "kernel.fft.multiply_spectra_batch", _spectra_kernel),
        (SparsePlan, "execute", "kernel.sparse.execute", _batch_kernel),
        (ClusterExecutor, "conv2d_batch", "cluster.call", None),
    ]


def _wrap(fn, name, attrs_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = obs_trace.tracer  # module attribute: rebound in workers
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span_name = name(args) if callable(name) else name
        with tracer.span(span_name) as span:
            out = fn(*args, **kwargs)
            if attrs_fn is not None:
                span.set(**attrs_fn(args, out))
            return out

    return wrapper


@contextlib.contextmanager
def traced_run():
    """Install the wrappers and record spans; yields the record list.

    The list is filled when the block exits; the wrappers are removed and
    the tracer is disabled again whatever happens inside the block.
    """
    originals = []
    records: List[dict] = []
    tracer = obs_trace.tracer
    try:
        for owner, attr, name, attrs_fn in _targets():
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(fn, name, attrs_fn))
        tracer.enable(capacity=TRACE_CAPACITY)
        tracer.clear()
        yield records
    finally:
        records.extend(tracer.drain())
        tracer.disable()
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# Reading the records
# ---------------------------------------------------------------------------


class Spans:
    """Index over one traced run's span records."""

    def __init__(self, records: Iterable[dict]):
        self.spans = [r for r in records if r.get("kind", "span") == "span"]
        self.by_id: Dict[object, dict] = {r["span"]: r for r in self.spans}

    def _ancestors(self, record: dict):
        parent = record.get("parent")
        for _ in range(256):  # bounded walk; spans never nest this deep
            node = self.by_id.get(parent)
            if node is None:
                return
            yield node
            parent = node.get("parent")

    def select(
        self,
        name: str,
        under: Optional[str] = None,
        not_under: Sequence[str] = (),
    ) -> List[dict]:
        """Spans called ``name``, optionally with (without) an ancestor."""
        out = []
        for r in self.spans:
            if r["name"] != name:
                continue
            names = [a["name"] for a in self._ancestors(r)]
            if under is not None and under not in names:
                continue
            if any(n in names for n in not_under):
                continue
            out.append(r)
        return out

    def total_ms(self, name: str, **filters) -> float:
        return 1e3 * sum(r["dur"] for r in self.select(name, **filters))

    def count(self, name: str, **filters) -> int:
        return len(self.select(name, **filters))

    def kernel(self, name: str) -> Tuple[float, float]:
        """``(us per row, computed bytes per row)`` of one wrapped kernel."""
        rows = self.select(name)
        n_rows = sum(int(r["attrs"].get("rows", 1)) for r in rows)
        if not n_rows:
            return 0.0, 0.0
        dur = sum(r["dur"] for r in rows)
        moved = sum(int(r["attrs"].get("bytes", 0)) for r in rows)
        return 1e6 * dur / n_rows, moved / n_rows

    def unattributed_frac(self, root_name: str) -> float:
        """Share of the root span's time no named layer span covers.

        Layer spans from any thread or worker process count while they
        overlap the root interval (timestamps share one monotonic clock).
        """
        roots = [r for r in self.spans if r["name"] == root_name]
        if not roots:
            return 0.0
        root = roots[-1]
        start, end = root["ts"], root["ts"] + root["dur"]
        intervals = sorted(
            (max(start, r["ts"]), min(end, r["ts"] + r["dur"]))
            for r in self.spans
            if r["name"].startswith(LAYER_PREFIXES)
            and r["ts"] < end and r["ts"] + r["dur"] > start
        )
        covered = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return max(0.0, 1.0 - covered / root["dur"]) if root["dur"] else 0.0
