"""Sparse butterfly dataflow: the *skipping* and *merging* engine (Sec IV-B).

:class:`SparseFft` runs the one tag walk of :mod:`repro.sparse.walk` on
the plain (unscaled, unrounded) transform: ZERO nodes are skipped,
butterflies with a ZERO second operand degenerate to copies, and SCALED
chains merge their twiddles into one deferred multiplication by
``W^e``, computed directly from the summed exponent.  It

1. computes the same spectrum as a dense FFT (checked against the
   reference transform in tests), and
2. reports the walk's multiplication counts for the pattern.

Counting follows the paper's convention: every executed butterfly
occupies a BU multiplier (trivial twiddles included, matching the dense
count ``N/2 * log2 N`` of Example 4.1), and every distinct
``(source, +-coeff)`` output group of a deferred chain costs one
multiplication (Example 4.2: four multiplications for
``m'[0..3] = m_br[6] x W^j``, sign flips and duplicated halves free).
An *honest* count -- multiplications by {+-1, +-i} are free -- is
reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.sparse.walk import Reduction, TagWalk, evaluate, support, tag_walk


@dataclass
class SparseFftResult(Reduction):
    """Output of one sparse transform (``values`` is None for a count)."""

    values: Optional[np.ndarray]
    mults: int  # paper-convention multiplication count
    mults_nontrivial: int  # honest count ({+-1, +-i} free)
    dense_mults: int
    stage_mults: List[int] = field(default_factory=list)


class SparseFft:
    """Sparse FFT engine of length ``n``.

    Args:
        n: transform length (power of two).
        sign: twiddle sign convention (-1 forward / numpy, +1 conjugate;
            the folded negacyclic forward transform uses +1).
    """

    def __init__(self, n: int, sign: int = -1):
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        self.n = n
        self.sign = sign
        self.stages = n.bit_length() - 1
        self._tw = np.exp(sign * 2j * np.pi * np.arange(n) / n).tolist()

    @property
    def dense_mults(self) -> int:
        """Multiplications of the classical dense dataflow: n/2 * log2(n)."""
        return (self.n // 2) * self.stages

    def run(self, x, valid: Optional[Sequence[int]] = None) -> SparseFftResult:
        """Transform ``x`` (natural coefficient order) exploiting sparsity.

        Args:
            x: complex input vector of length n.
            valid: indices (natural order) that may be non-zero; inferred
                from the non-zeros of ``x`` if omitted.  Passing the
                layer's structural pattern models hardware, where the
                dataflow is configured once per layer.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        walk = tag_walk(self.n, support(x, valid, self.n))
        values = evaluate(
            walk, x, self._tw.__getitem__, [complex] * self.stages, 1.0
        )
        return self._result(walk, values)

    def count(self, valid: Sequence[int]) -> SparseFftResult:
        """Count multiplications for a structural pattern (no values)."""
        return self._result(tag_walk(self.n, valid), None)

    def _result(self, walk: TagWalk, values) -> SparseFftResult:
        return SparseFftResult(
            values=values,
            mults=walk.model_mults,
            mults_nontrivial=walk.mults_nontrivial,
            dense_mults=self.dense_mults,
            stage_mults=walk.stage_mults,
        )
