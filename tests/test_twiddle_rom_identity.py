"""Byte identity of the vectorized twiddle ROM with the scalar CSD build.

:class:`repro.fftcore.twiddle_quant.TwiddleRom` decomposes all n entries
in one :func:`csd_decompose_batch` pass, and :func:`csd_decompose` is a
batch of one of it.  The frozen copies below are the scalar greedy
decomposition and the per-entry ROM loop they replaced; every term,
value byte and statistic must match them.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.fftcore.twiddle_quant import (
    QuantizedTwiddle,
    RomStats,
    TwiddleRom,
    csd_decompose,
    csd_decompose_batch,
    csd_value,
)


def _frozen_csd_decompose(
    value: float, k: int, max_shift: int = 16
) -> List[Tuple[int, int]]:
    if abs(value) > 2:
        raise ValueError(f"|value| must be <= 2, got {value}")
    if k < 0:
        raise ValueError("k must be non-negative")
    terms: List[Tuple[int, int]] = []
    residual = float(value)
    for _ in range(k):
        if residual == 0.0:
            break
        sign = 1 if residual > 0 else -1
        mag = abs(residual)
        shift = int(np.clip(round(-np.log2(mag)), 0, max_shift))
        if 2.0**-shift > mag * np.sqrt(2) and shift < max_shift:
            shift += 1
        term = sign * 2.0**-shift
        if abs(residual - term) >= abs(residual):
            break
        terms.append((sign, shift))
        residual -= term
    return terms


class _FrozenTwiddleRom:
    """The per-entry scalar ROM build, with its lookups and statistics."""

    def __init__(self, n: int, k: int, max_shift: int, sign: int):
        self.n = n
        self.k = k
        self.max_shift = max_shift
        self._entries: List[QuantizedTwiddle] = []
        for e in range(n):
            exact = np.exp(sign * 2j * np.pi * e / n)
            self._entries.append(
                QuantizedTwiddle(
                    exponent=e,
                    exact=complex(exact),
                    real_terms=tuple(
                        _frozen_csd_decompose(exact.real, k, max_shift)
                    ),
                    imag_terms=tuple(
                        _frozen_csd_decompose(exact.imag, k, max_shift)
                    ),
                )
            )
        self._values = np.array(
            [entry.value for entry in self._entries], dtype=np.complex128
        )

    def lookup(self, exponents) -> np.ndarray:
        idx = np.asarray(exponents, dtype=np.int64) % self.n
        return self._values[idx]

    def stage_values(self, stage: int) -> np.ndarray:
        m = 1 << stage
        j = np.arange(m // 2)
        return self.lookup(j * (self.n // m))

    def stats(self) -> RomStats:
        errors = np.abs(
            self._values - np.array([e.exact for e in self._entries])
        )
        parts = 2 * self.n
        total_terms = sum(e.term_count for e in self._entries)
        position_shifts: Dict[int, set] = {}
        for entry in self._entries:
            for terms in (entry.real_terms, entry.imag_terms):
                for i, (_, shift) in enumerate(terms):
                    position_shifts.setdefault(i, set()).add(shift)
        mux_sizes = [len(position_shifts[i]) for i in sorted(position_shifts)]
        return RomStats(
            k=self.k,
            max_shift=self.max_shift,
            mean_terms_per_part=total_terms / parts,
            max_error=float(errors.max()),
            rms_error=float(np.sqrt(np.mean(errors**2))),
            mux_sizes=mux_sizes,
        )


#: (n, k, max_shift, sign): the paper datapath's ROM (k = 5, max shift 16)
#: both ways, the datapath table's (k, max shift) pairs at perfbench's core
#: size, and small cores.
ROM_GRID = [
    (2048, 5, 16, -1),
    (2048, 5, 16, +1),
    (2048, 24, 40, -1),
    (2048, 8, 20, +1),
    (2048, 12, 28, +1),
    (2048, 16, 32, +1),
    (2048, 20, 36, +1),
    (2048, 24, 40, +1),
    (16, 3, 16, -1),
    (16, 0, 16, +1),
    (32, 4, 16, +1),
    (64, 1, 8, -1),
    (64, 5, 16, -1),
]


@pytest.fixture(
    scope="module", params=ROM_GRID, ids=lambda c: "n%d-k%d-s%d-%+d" % c
)
def rom_pair(request):
    n, k, max_shift, sign = request.param
    return TwiddleRom(n, k, max_shift, sign), _FrozenTwiddleRom(
        n, k, max_shift, sign
    )


class TestRomIdentity:
    def test_terms_and_exact_values(self, rom_pair):
        rom, frozen = rom_pair
        for e in range(rom.n):
            assert rom.entry(e) == frozen._entries[e]
        # Exponents are taken mod n, negative ones too.
        assert rom.entry(-1) == frozen._entries[-1]
        assert rom.entry(rom.n + 3) == frozen._entries[3]

    def test_value_table_bytes(self, rom_pair):
        rom, frozen = rom_pair
        assert rom.values.dtype == np.complex128
        assert rom.values.tobytes() == frozen._values.tobytes()

    def test_lookup_and_stage_values(self, rom_pair):
        rom, frozen = rom_pair
        exps = np.random.default_rng(rom.n + rom.k).integers(
            -3 * rom.n, 3 * rom.n, size=257
        )
        assert rom.lookup(exps).tobytes() == frozen.lookup(exps).tobytes()
        for stage in range(1, rom.n.bit_length()):
            assert (
                rom.stage_values(stage).tobytes()
                == frozen.stage_values(stage).tobytes()
            )

    def test_stats(self, rom_pair):
        rom, frozen = rom_pair
        assert rom.stats() == frozen.stats()


def _edge_values(max_shift: int) -> List[float]:
    ulp = lambda x, d: float(np.nextafter(x, d))  # noqa: E731
    values = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0]
    # Every power of two down to 2**-(max_shift + 2): below 2**-max_shift
    # the clipped term overshoots, and at half of it exactly as far as the
    # residual, which must stop the decomposition.
    values += [2.0**-s for s in range(max_shift + 3)]
    below = 2.0**-max_shift / np.sqrt(2)
    values += [ulp(below, 0.0), below, ulp(ulp(below, 0.0), 0.0)]
    for s in range(0, max_shift + 2):
        # The geometric midpoint between 2**-s and 2**-(s+1) is
        # 2**-s / sqrt(2); the bump rule compares against 2**-s * sqrt(2).
        for centre in (2.0**-s * np.sqrt(2), 2.0**-s / np.sqrt(2)):
            if centre <= 2:
                values += [ulp(centre, 0.0), centre, ulp(centre, 3.0)]
    values += [2.0**-(max_shift + 20), 5e-324, ulp(2.0, 0.0), ulp(1.0, 2.0)]
    return values + [-v for v in values]


class TestCsdDecomposeIdentity:
    @pytest.mark.parametrize(
        "k,max_shift", [(1, 16), (5, 16), (8, 20), (24, 40), (3, 2), (4, 0)]
    )
    def test_edge_values(self, k, max_shift):
        values = _edge_values(max_shift)
        for value in values:
            assert csd_decompose(value, k, max_shift) == _frozen_csd_decompose(
                value, k, max_shift
            ), value

    @pytest.mark.parametrize("k,max_shift", [(2, 8), (5, 16), (24, 40)])
    def test_batch_matches_scalar_rows(self, k, max_shift):
        rng = np.random.default_rng(k)
        values = np.concatenate(
            [
                rng.uniform(-2, 2, 300),
                rng.uniform(-1, 1, 300) * 2.0 ** -rng.integers(0, 50, 300),
                _edge_values(max_shift),
            ]
        ).reshape(-1, 2)
        signs, shifts, counts = csd_decompose_batch(values, k, max_shift)
        assert signs.shape == shifts.shape == (k,) + values.shape
        for idx in np.ndindex(values.shape):
            terms = _frozen_csd_decompose(values[idx], k, max_shift)
            count = int(counts[idx])
            assert count == len(terms)
            got = list(
                zip(
                    signs[(slice(None),) + idx].tolist(),
                    shifts[(slice(None),) + idx].tolist(),
                )
            )
            assert got[:count] == terms
            assert got[count:] == [(0, 0)] * (k - count)
            assert csd_value(got) == csd_value(terms)

    def test_value_errors_kept(self):
        for bad in (2.5, -2.0000000000000004, float("nan"), float("inf")):
            for decompose in (csd_decompose, _frozen_csd_decompose):
                with pytest.raises(ValueError):
                    decompose(bad, 3)
        with pytest.raises(ValueError):
            csd_decompose(0.5, -1)
        with pytest.raises(ValueError):
            csd_decompose_batch(np.array([0.5, 3.0]), 3)
