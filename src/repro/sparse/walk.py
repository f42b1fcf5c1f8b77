"""One symbolic walk of the sparse butterfly network (Sec IV-B, Fig 8).

FLASH's sparse dataflow tags every node of the radix-2 DIT network:

* ``ZERO``    -- the node is identically zero;
* ``SCALED``  -- the node is a deferred chain ``sign * W^e * x[src]`` of one
  valid input: merging folds each butterfly's twiddle exponent into ``e``,
  and the chain costs one multiplication by one ROM entry (addressed by the
  summed exponent) when it materializes;
* ``GENERAL`` -- an ordinary computed value.

The tags depend only on the structural pattern, never on values, so one
walk per ``(n, pattern)`` -- :func:`tag_walk` -- yields every op the
dataflow executes.  Per stage (:class:`StageOps`): halving copies (GENERAL
u, ZERO v: skipping with output duplication), twiddle flips (ZERO u,
GENERAL v) and full butterflies whose operands are network positions or
``(src, e, sign)`` chains; after the last stage, the chains left over.
Butterflies of one stage touch disjoint positions, so a stage's ops run in
any order.

Every consumer reads this one walk:
:class:`repro.sparse.plan.SparsePlan` freezes the ops into index arrays,
:meth:`repro.sparse.sparse_fxp.SparseFixedPointFft.run` evaluates them per
row in scalar fixed-point arithmetic, and
:class:`repro.sparse.dataflow.SparseFft` evaluates them with exact
twiddles.  The multiplication counts are read off the ops by three rules
(exponents reduced mod n):

* *realized* (:attr:`TagWalk.mults`, the fixed-point datapath): a flip or
  a full butterfly costs one multiplication; a u chain costs one more the
  first time its ``(src, e)`` materializes, unless ``e == 0``; a t chain's
  product rides on the butterfly multiply but enters the same memo; every
  final ``(src, e)`` group outside the memo costs one, ``e == 0`` included;
* *paper* (:attr:`TagWalk.model_mults`, Examples 4.1/4.2): a chain is
  known up to sign, so its group is ``(src, e mod n/2)``; a u chain of
  coefficient +-1 (``e = 0 mod n/2``) is free and enters no memo, t chains
  enter none either, and every final group outside the memo costs one;
* *honest* (:attr:`TagWalk.mults_nontrivial`): the paper rule with every
  multiplication by a twiddle in {+-1, +-i} (``e = 0 mod n/4``) free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.ntt.modmath import bit_reverse_indices


ZERO = ("zero",)
GENERAL = ("general",)


def scaled(src: int, exponent: int, sign: int) -> tuple:
    """SCALED tag: the node equals ``sign * W^exponent * x[src]`` (deferred)."""
    return ("scaled", int(src), int(exponent), int(sign))


def butterfly_tags(tag_u, tag_v, exponent: int) -> Tuple[tuple, tuple]:
    """Tag transition of one butterfly ``(u, v) -> (u + W^e v, u - W^e v)``.

    Exponents are kept unreduced; :func:`tag_walk` reduces them mod n.

    * ZERO absorbs: a ZERO second operand degenerates the butterfly to a
      copy (skipping), two ZEROs stay ZERO;
    * SCALED chains compose: merging adds the butterfly exponent to the
      chain exponent and flips the sign on the difference output;
    * GENERAL is terminal: once a node carries a computed value, every
      butterfly it feeds produces GENERAL outputs.
    """
    ku, kv = tag_u[0], tag_v[0]
    if kv == "zero":
        if ku == "zero":
            return ZERO, ZERO
        if ku == "scaled":
            return tag_u, tag_u
        return GENERAL, GENERAL
    if ku == "zero":
        if kv == "scaled":
            _, src, e, sgn = tag_v
            return (
                scaled(src, e + exponent, sgn),
                scaled(src, e + exponent, -sgn),
            )
        return GENERAL, GENERAL
    return GENERAL, GENERAL


class Reduction:
    """``reduction`` of a result or plan with ``mults`` and ``dense_mults``."""

    @property
    def reduction(self) -> float:
        """Fraction of dense multiplications eliminated."""
        if self.dense_mults == 0:
            return 0.0
        return 1.0 - self.mults / self.dense_mults


#: ``(src, e mod n, sign)``: the deferred value ``sign * W^e * x[src]``.
Chain = Tuple[int, int, int]
#: A network position holding a GENERAL value, or a chain.
Operand = Union[int, Chain]


@dataclass
class StageOps:
    """The ops of one butterfly stage, each group in network order.

    * ``halves``: ``(u, v)``; both outputs get ``u / 2``;
    * ``flips``: ``(u, v, e)``; ``t = W^e v / 2`` goes to u and ``-t`` to v;
    * ``full``: ``(a, t, e, u, v)``; u gets ``(a + t) / 2`` and v
      ``(a - t) / 2``.  ``a`` is position u or u's chain; ``t`` is
      position v, to be multiplied by ``W^e``, or v's chain with ``e``
      already folded into its exponent (the butterfly multiplier computes
      ``ROM[e_v + e] * x`` directly).
    * ``dense``: every input is GENERAL, so ``full`` holds all n/2
      butterflies and nothing else runs.
    """

    halves: List[Tuple[int, int]]
    flips: List[Tuple[int, int, int]]
    full: List[Tuple[Operand, Operand, int, int, int]]
    dense: bool


@dataclass
class TagWalk:
    """:func:`tag_walk` of one ``(n, pattern)``: ops, final chains ``(pos,
    chain)`` in position order, and the counts of the module docstring."""

    n: int
    stages: List[StageOps]
    finals: List[Tuple[int, Chain]]
    mults: int
    model_mults: int
    mults_nontrivial: int
    stage_mults: List[int]  # paper rule per stage, then the final groups


def _operand(tag: tuple, pos: int, exponent: int, n: int) -> Operand:
    if tag[0] == "scaled":
        return (tag[1], (tag[2] + exponent) % n, tag[3])
    return pos


def tag_walk(n: int, pattern: Iterable[int]) -> TagWalk:
    """Walk the ``n``-point network once for the valid indices ``pattern``
    (natural order, reduced mod n).  The walk is sign-independent: the
    twiddle sign only changes the value of ``W``."""
    valid = {int(v) % n for v in pattern}
    tags = [
        scaled(src, 0, 1) if src in valid else ZERO
        for src in bit_reverse_indices(n).tolist()
    ]
    stages: List[StageOps] = []
    butterfly = np.arange(n // 2)
    for s in range(1, n.bit_length()):
        half, step = 1 << (s - 1), n >> s
        j = butterfly & (half - 1)
        top = 2 * butterfly - j  # block start 2 * (butterfly - j), plus j
        pairs = zip(top.tolist(), (top + half).tolist(), (j * step).tolist())
        if all(tag[0] == "general" for tag in tags):
            stages.append(
                StageOps([], [], [(u, v, e, u, v) for u, v, e in pairs], True)
            )
            continue
        ops = StageOps([], [], [], False)
        for u, v, e in pairs:
            tu, tv = tags[u], tags[v]
            ku, kv = tu[0], tv[0]
            if ku == kv == "zero":
                continue
            tags[u], tags[v] = butterfly_tags(tu, tv, e)
            if kv == "zero":
                if ku == "general":
                    ops.halves.append((u, v))
            elif ku == "zero":
                if kv == "general":
                    ops.flips.append((u, v, e))
            else:
                ops.full.append(
                    (_operand(tu, u, 0, n), _operand(tv, v, e, n), e, u, v)
                )
        stages.append(ops)
    finals = [
        (pos, _operand(tag, pos, 0, n))
        for pos, tag in enumerate(tags)
        if tag[0] == "scaled"
    ]
    stage_mults, honest = _paper_counts(n, stages, finals)
    return TagWalk(
        n=n,
        stages=stages,
        finals=finals,
        mults=_realized_count(stages, finals),
        model_mults=sum(stage_mults),
        mults_nontrivial=honest,
        stage_mults=stage_mults,
    )


def _realized_count(stages: List[StageOps], finals) -> int:
    """The realized rule: memo ``(src, e mod n)``, t chains included."""
    memo: Set[Tuple[int, int]] = set()
    mults = 0
    for ops in stages:
        mults += len(ops.flips) + len(ops.full)
        for a, t, _, _, _ in ops.full:
            if isinstance(a, tuple) and a[:2] not in memo:
                memo.add(a[:2])
                mults += a[1] != 0
            if isinstance(t, tuple):
                memo.add(t[:2])
    return mults + len({chain[:2] for _, chain in finals} - memo)


def _paper_counts(n: int, stages: List[StageOps], finals):
    """The paper rule per stage (memo ``(src, e mod n/2)``, u chains only)
    and the honest total on the same memo."""
    sign_free = n // 2

    def nontrivial(e: int) -> bool:
        return 4 * e % n != 0

    memo: Set[Tuple[int, int]] = set()
    stage_mults: List[int] = []
    honest = 0
    for ops in stages:
        paper = len(ops.flips) + len(ops.full)
        honest += sum(nontrivial(e) for _, _, e in ops.flips)
        for a, t, e, _, _ in ops.full:
            if isinstance(a, tuple):
                key = (a[0], a[1] % sign_free)
                if key[1] and key not in memo:
                    memo.add(key)
                    paper += 1
                    honest += nontrivial(a[1])
            honest += nontrivial(t[1] if isinstance(t, tuple) else e)
        stage_mults.append(paper)
    groups = {(src, e % sign_free): e for _, (src, e, _) in finals}
    final = [e for key, e in groups.items() if key not in memo]
    stage_mults.append(len(final))
    return stage_mults, honest + sum(nontrivial(e) for e in final)


def support(x: np.ndarray, valid: Optional[Sequence[int]], n: int) -> Set[int]:
    """The structural pattern of one row: ``valid`` reduced mod n, checked
    to cover every non-zero of ``x``, or the non-zeros when omitted."""
    nonzero = set(np.nonzero(x)[0].tolist())
    if valid is None:
        return nonzero
    valid_set = {int(v) % n for v in valid}
    stray = nonzero - valid_set
    if stray:
        raise ValueError(
            "input has non-zeros outside the valid set: "
            f"{sorted(stray)[:5]}"
        )
    return valid_set


def evaluate(
    walk: TagWalk,
    x: np.ndarray,
    twiddle: Callable[[int], complex],
    rounders: Sequence[Callable[[complex], complex]],
    half: float,
) -> np.ndarray:
    """Values of ``walk``'s ops on one row ``x``, in scalar arithmetic.

    Args:
        walk: the row's :func:`tag_walk`.
        x: the row, natural order.
        twiddle: ``W^e`` of an exponent reduced mod n.
        rounders: stage ``s``'s output rounding at index ``s - 1``; a
            chain materializes at the scale of its stage's input and is
            rounded with that stage's rounder unless ``e == 0`` (a pure
            copy chain: exact shifts, no multiplier).
        half: the factor on every butterfly output (0.5 on the scaled
            fixed-point datapath, 1.0 for the plain transform).
    """
    vals: List[complex] = [0j] * walk.n

    def chain(c: Chain, stage: int, rnd) -> complex:
        src, e, sgn = c
        value = sgn * (twiddle(e) * x[src]) * half**stage
        return complex(value) if e == 0 else rnd(value)

    for s, (ops, rnd) in enumerate(zip(walk.stages, rounders)):
        for u, v in ops.halves:
            vals[u] = vals[v] = rnd(vals[u] * half)
        for u, v, e in ops.flips:
            t = rnd(twiddle(e) * vals[v] * half)
            vals[u], vals[v] = t, -t
        for a, t, e, u, v in ops.full:
            a = chain(a, s, rnd) if isinstance(a, tuple) else vals[a]
            t = chain(t, s, rnd) if isinstance(t, tuple) else twiddle(e) * vals[t]
            vals[u], vals[v] = rnd((a + t) * half), rnd((a - t) * half)
    for pos, c in walk.finals:
        vals[pos] = chain(c, len(walk.stages), rounders[-1])
    return np.array(vals, dtype=np.complex128)
