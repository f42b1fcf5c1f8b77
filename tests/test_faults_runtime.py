"""Runtime fault handling: job errors propagate, plan-cache integrity."""

import itertools

import numpy as np
import pytest

from repro.he.backend import NttPolyMulBackend
from repro.he.params import toy_preset
from repro.he.poly import RingPoly
from repro.runtime import (
    BatchedHConvEngine,
    PlanCache,
    fan_out,
    value_digest,
)
from tests.test_exact_fft import SMALL_CONV, rejected_conv_inputs

BASIS = toy_preset(n=64).basis


def _random_products(seed, count=6):
    rng = np.random.default_rng(seed)
    polys, weights = [], []
    for _ in range(count):
        coeffs = rng.integers(0, 1 << 29, size=BASIS.n)
        polys.append(RingPoly(BASIS, BASIS.to_rns(coeffs)))
        weights.append(rng.integers(-5, 6, size=BASIS.n))
    return polys, weights


def _identical(outs, refs):
    return all(
        np.array_equal(a, b)
        for out, ref in zip(outs, refs)
        for a, b in zip(out.residues, ref.residues)
    )


class TestFanOutRecovery:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_without_recovery_failure_propagates(self, workers):
        def job(i):
            if i == 1:
                raise RuntimeError("boom")
            return i

        with pytest.raises(RuntimeError, match="boom"):
            fan_out(range(3), job, workers)


def _fail_first_call(fn):
    """``fn`` wrapped to raise on its first call only."""
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        if next(calls) == 0:
            raise RuntimeError("job failed once")
        return fn(*args, **kwargs)

    return wrapper


class TestJobErrorsPropagate:
    """A job error leaves the runtime even when a rerun would succeed."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ntt_limb_job(self, monkeypatch, workers):
        """The exact backend's limb job runs the certified FFT kernel."""
        import repro.he.backend as backend_module

        polys, weights = _random_products(0)
        monkeypatch.setattr(
            backend_module,
            "exact_fft_products",
            _fail_first_call(backend_module.exact_fft_products),
        )
        backend = NttPolyMulBackend(max_workers=workers)
        with pytest.raises(RuntimeError, match="job failed once"):
            backend.multiply_many(polys, weights)

    @pytest.mark.parametrize(
        "arm, workers",
        [
            # Ids 1/2 run one digit, the path small inputs take.
            pytest.param("certified", 1, id="1"),
            pytest.param("certified", 2, id="2"),
            pytest.param("digit-split", 1, id="digit-split-1"),
            pytest.param("digit-split", 2, id="digit-split-2"),
        ],
    )
    def test_engine_group_job(self, monkeypatch, arm, workers):
        """Mode "ntt" runs the float64 inverse of the tile sum, on one
        digit or on a digit split; either job's error propagates."""
        from repro.fftcore.negacyclic import NegacyclicFft

        if arm == "certified":
            rng = np.random.default_rng(3)
            xs = rng.integers(-7, 8, size=(2, 2, 6, 6))
            w = rng.integers(-3, 4, size=(3, 2, 3, 3))
            shape, n = SMALL_CONV, 64
        else:
            xs, w, shape, n = rejected_conv_inputs()
        monkeypatch.setattr(
            NegacyclicFft, "inverse_batch",
            _fail_first_call(NegacyclicFft.inverse_batch),
        )
        engine = BatchedHConvEngine(mode="ntt", max_workers=workers)
        with pytest.raises(RuntimeError, match="job failed once"):
            engine.conv2d_batch(xs, w, shape, n)


class TestPlanCacheIntegrity:
    def test_digest_covers_arrays_and_containers(self):
        a = np.arange(8, dtype=np.int64)
        assert value_digest(a) == value_digest(a.copy())
        assert value_digest(a) != value_digest(a + 1)
        assert value_digest([a, 2.5]) != value_digest([a, 3.5])
        assert value_digest(object()) is None  # opaque: skipped

    def test_digest_values_are_pinned(self):
        """Digests read arrays in place; the values are those of the
        earlier copy-to-bytes implementation, layout cases included."""
        a = np.arange(8, dtype=np.int64)
        cases = {
            "int": (a, 320436674),
            "complex": (np.arange(6, dtype=np.complex128) * (1 + 2j), 129943072),
            "strided": (
                np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2],
                4048826272,
            ),
            "fortran": (
                np.asfortranarray(np.arange(12.0).reshape(3, 4)), 3276254171,
            ),
            "bool": (np.array([True, False, True]), 2598823853),
            "0-d": (np.array(3.5), 704809210),
            "empty": (np.zeros((0, 4)), 3116124269),
            "nested": (
                [a, 2.5, b"xy", None, {"k": np.ones(3)}], 4083261626,
            ),
        }
        for name, (value, digest) in cases.items():
            assert value_digest(value) == digest, name

    def test_tampered_entry_evicted_and_rebuilt(self):
        cache = PlanCache(check_integrity=True)
        builds = []

        def build():
            builds.append(1)
            return np.arange(16, dtype=np.int64)

        first = cache.get_or_build("spec", build)
        first[3] = 999  # bit-rot / tamper in place
        again = cache.get_or_build("spec", build)
        assert cache.corruptions == 1
        assert len(builds) == 2
        assert again[3] == 3  # the rebuilt, clean value

    def test_tampered_entry_raises_keyerror_on_getitem(self):
        cache = PlanCache(check_integrity=True)
        value = np.ones(4)
        cache.put("k", value)
        value[0] = -1.0
        with pytest.raises(KeyError):
            cache["k"]
        assert "k" not in cache

    def test_get_returns_default_for_corrupt_entry(self):
        cache = PlanCache(check_integrity=True)
        value = np.ones(4)
        cache.put("k", value)
        value[0] = 7.0
        assert cache.get("k", "fallback") == "fallback"
        assert cache.stats()["corruptions"] == 1

    def test_integrity_off_by_default(self):
        cache = PlanCache()
        value = np.ones(4)
        cache.put("k", value)
        value[0] = 9.0
        assert cache.get("k") is value  # legacy behaviour preserved

    def test_backend_recomputes_tampered_spectrum_bit_identical(self):
        polys, weights = _random_products(4)
        backend = NttPolyMulBackend()
        reference = backend.multiply_many(polys, weights)
        # Corrupt every cached weight spectrum in place.
        for key in backend.plan_cache.keys():
            entry = backend.plan_cache._entries[key][0]
            if isinstance(entry, np.ndarray):
                entry += 1
        outs = backend.multiply_many(polys, weights)
        assert backend.plan_cache.corruptions > 0
        assert _identical(outs, reference)
