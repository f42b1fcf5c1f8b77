"""Tests for CSD twiddle-factor quantization (Section IV-C1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fftcore import (
    ApproxFftConfig,
    FixedPointFft,
    QuantizedTwiddle,
    TwiddleRom,
    csd_decompose,
    csd_value,
    get_twiddle_rom,
    shift_add_count,
)
from repro.sparse.plan import SparsePlan
from repro.sparse.sparse_fxp import SparseFixedPointFft


class TestCsdDecompose:
    def test_paper_example_21_over_32(self):
        # omega = 21/32 = 2^-1 + 2^-3 + 2^-5 (the paper's shift-add example).
        terms = csd_decompose(21 / 32, k=3, max_shift=5)
        assert csd_value(terms) == pytest.approx(21 / 32)
        assert set(terms) == {(1, 1), (1, 3), (1, 5)}

    def test_exact_powers_need_one_term(self):
        for shift in range(6):
            terms = csd_decompose(2.0**-shift, k=5)
            assert terms == [(1, shift)]

    def test_zero_needs_no_terms(self):
        assert csd_decompose(0.0, k=5) == []

    def test_negative_value_exact_with_mixed_signs(self):
        # Canonical signed digits: -0.75 = -1 + 1/4 (two terms, mixed sign).
        terms = csd_decompose(-0.75, k=2)
        assert csd_value(terms) == pytest.approx(-0.75)
        assert terms[0] == (-1, 0)

    def test_error_decreases_with_k(self):
        value = float(np.cos(2 * np.pi / 4096 * 371))
        errors = [
            abs(csd_value(csd_decompose(value, k, max_shift=20)) - value)
            for k in range(1, 8)
        ]
        assert all(e2 <= e1 + 1e-15 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4

    def test_respects_term_budget(self):
        terms = csd_decompose(0.7071067811865476, k=3, max_shift=30)
        assert len(terms) <= 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            csd_decompose(2.5, k=3)
        with pytest.raises(ValueError):
            csd_decompose(0.5, k=-1)

    @given(
        value=st.floats(min_value=-1.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_error_bounded_by_coarsest_term(self, value, k):
        terms = csd_decompose(value, k, max_shift=24)
        err = abs(csd_value(terms) - value)
        # Greedy CSD halves the residual (at worst keeps it below the
        # smallest selected term); with k terms of max_shift 24 the error
        # is below the first term's half-step unless value is tiny.
        assert err <= max(abs(value) * 2.0 ** -(k - 1), 2.0**-24 + 1e-12)


class TestTwiddleRom:
    @pytest.fixture(scope="class")
    def rom(self):
        return TwiddleRom(n=64, k=5, max_shift=16)

    def test_unit_entries_exact(self, rom):
        # W^0 = 1 and W^(n/4) = -i are exactly representable.
        assert rom.entry(0).value == pytest.approx(1.0)
        assert rom.entry(16).value == pytest.approx(-1j)
        assert rom.entry(32).value == pytest.approx(-1.0)

    def test_exponent_wraps(self, rom):
        assert rom.entry(64).value == rom.entry(0).value
        assert rom.entry(-1).value == rom.entry(63).value

    def test_lookup_vectorized(self, rom):
        out = rom.lookup([0, 16, 32])
        np.testing.assert_allclose(out, [1.0, -1j, -1.0], atol=1e-12)

    def test_error_small_at_k5(self, rom):
        stats = rom.stats()
        assert stats.max_error < 0.03
        assert stats.rms_error < 0.01

    def test_error_shrinks_with_k(self):
        errs = [TwiddleRom(64, k).stats().rms_error for k in (1, 3, 5, 8)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < errs[0] / 10

    def test_stage_values_match_entries(self, rom):
        vals = rom.stage_values(3)  # block size 8 -> twiddles W64^(8j)
        expected = rom.lookup(np.arange(4) * 8)
        np.testing.assert_allclose(vals, expected)

    def test_stage_out_of_range(self, rom):
        with pytest.raises(ValueError):
            rom.stage_values(7)

    def test_conjugate_rom(self):
        fwd = TwiddleRom(32, k=4, sign=-1)
        inv = TwiddleRom(32, k=4, sign=+1)
        np.testing.assert_allclose(
            inv.lookup(np.arange(32)),
            np.conj(fwd.lookup(np.arange(32))),
            atol=1e-12,
        )

    def test_mean_terms_at_most_k(self, rom):
        assert rom.stats().mean_terms_per_part <= 5.0

    def test_mux_sizes_reported(self, rom):
        stats = rom.stats()
        assert len(stats.mux_sizes) >= 1
        assert stats.max_mux_size >= 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TwiddleRom(12, 3)
        with pytest.raises(ValueError):
            TwiddleRom(16, 3, sign=0)


class TestSharedRom:
    CFG = ApproxFftConfig(
        n=64, stage_widths=20, twiddle_k=5, twiddle_max_shift=16
    )

    def test_transforms_share_one_rom(self):
        dense = FixedPointFft(self.CFG, sign=+1)
        assert FixedPointFft(self.CFG, sign=+1).rom is dense.rom
        assert SparseFixedPointFft(self.CFG, sign=+1)._rom is dense.rom
        assert dense.rom is get_twiddle_rom(64, 5, 16, +1)
        assert FixedPointFft(self.CFG, sign=-1).rom is not dense.rom

    def test_value_table_is_read_only(self):
        rom = get_twiddle_rom(64, 5, 16, +1)
        before = rom.values.tobytes()
        with pytest.raises(ValueError):
            rom.values[0] = 0
        with pytest.raises(ValueError):
            rom.values.real[:] = 0
        assert rom.values.tobytes() == before
        # Lookups hand out copies, so callers may write into them.
        rom.stage_values(3)[0] = 0
        assert rom.values.tobytes() == before

    def test_sparse_plans_of_one_config_build_one_rom(self):
        get_twiddle_rom.cache_clear()
        dense = FixedPointFft(self.CFG, sign=+1)
        for pattern in ((0,), (0, 3, 5), range(0, 64, 2), range(64)):
            SparsePlan(self.CFG, pattern)
        info = get_twiddle_rom.cache_info()
        assert info.currsize == 1
        assert info.misses == 1
        assert get_twiddle_rom(64, 5, 16, +1) is dense.rom


class TestShiftAddCount:
    def test_counts_both_parts_twice(self):
        entry = QuantizedTwiddle(
            exponent=1,
            exact=0.6 + 0.8j,
            real_terms=((1, 1), (1, 3)),
            imag_terms=((1, 0),),
        )
        # 4 real products, each costing len(terms) of its twiddle part:
        # 2*(2 + 1) = 6 shifted adds.
        assert shift_add_count(entry) == 6
