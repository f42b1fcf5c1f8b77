"""Byte identity of the int64 floor-division ring arithmetic with the
uint64 ``%`` kernels it replaced.

Every exact reduction of the RNS/BFV path now runs as ``x - (x // q) * q``
on int64 views (:func:`repro.ntt.modmath.floor_mod`); the FFT backends
round a whole product stack at once through an exact float hi/lo split.
The frozen copies below are the kernels as they were before: the uint64
``mulmod``/``addmod``/``submod``/``negmod``, the Garner digits and CRT of
:class:`repro.ntt.rns.RnsBasis`, the per-product ``round_to_ring`` and
:class:`repro.he.bfv.BfvContext`'s ``_encode``/``_decode``.  Every
residue, message and noise norm must match them byte for byte.
"""

import numpy as np
import pytest

from repro.he.backend import ring_residues, round_to_ring
from repro.he.bfv import BfvContext
from repro.he.params import BfvParameters
from repro.ntt import modmath
from repro.ntt.rns import RnsBasis

# ---------------------------------------------------------------------------
# Frozen copies
# ---------------------------------------------------------------------------

_U64 = np.uint64
_SPLIT_BITS = 20
_SPLIT_MASK = np.uint64((1 << _SPLIT_BITS) - 1)


def _frozen_mulmod(a, b, q: int):
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    b_hi = b >> _U64(_SPLIT_BITS)
    b_lo = b & _SPLIT_MASK
    hi = (a * b_hi) % qa
    return ((hi << _U64(_SPLIT_BITS)) + a * b_lo) % qa


def _frozen_addmod(a, b, q: int):
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    return np.where(s >= qa, s - qa, s)


def _frozen_submod(a, b, q: int):
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return np.where(a >= b, a - b, a + qa - b)


def _frozen_negmod(a, q: int):
    qa = _U64(q)
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == 0, a, qa - a)


def _frozen_garner_digits(basis: RnsBasis, residues) -> list:
    digits = []
    for i, (res, p) in enumerate(zip(residues, basis.primes)):
        v = np.asarray(res, dtype=np.uint64) % np.uint64(p)
        if i:
            acc = digits[i - 1] % np.uint64(p)
            for j in range(i - 2, -1, -1):
                acc = _frozen_addmod(
                    _frozen_mulmod(acc, basis.primes[j] % p, p),
                    digits[j] % np.uint64(p),
                    p,
                )
            v = _frozen_mulmod(
                _frozen_submod(v, acc, p), basis._garner_inv[i], p
            )
        digits.append(v)
    return digits


def _frozen_crt(basis: RnsBasis, residues, centered: bool) -> np.ndarray:
    digits = _frozen_garner_digits(basis, residues)
    q = basis.modulus
    dtype = np.int64 if q < 1 << 62 else object
    x = digits[-1].astype(dtype)
    for d, p in zip(digits[-2::-1], basis.primes[-2::-1]):
        x = x * p + d.astype(dtype)
    if centered:
        x = np.where(x > q // 2, x - q, x)
    return x


def _frozen_round_to_ring(basis: RnsBasis, product: np.ndarray) -> list:
    rounded = np.rint(product)
    if not np.all(np.isfinite(rounded)):
        raise OverflowError("non-finite FFT product cannot be rounded")
    return [np.mod(rounded, float(p)).astype(np.uint64) for p in basis.primes]


def _frozen_encode(ctx: BfvContext, plaintext) -> list:
    t = ctx.params.t
    m = np.asarray(plaintext)
    if m.shape != (ctx.params.n,):
        raise ValueError(f"expected {ctx.params.n} plaintext slots")
    if m.dtype not in (object, np.uint64):
        m = m.astype(np.int64)
    m = (m % t).astype(np.int64)
    delta = ctx.params.delta
    return [
        _frozen_mulmod((m % p).astype(np.uint64), delta % p, p)
        for p in ctx.basis.primes
    ]


def _frozen_decode(ctx: BfvContext, phase: np.ndarray):
    q, t, delta = ctx.params.q, ctx.params.t, ctx.params.delta
    rho = q % t
    x = np.asarray(phase).astype(np.int64 if ctx._int64_decode else object)
    magnitude = np.abs(x)
    k = magnitude // delta
    r = magnitude - delta * k
    carry = (2 * t * r + q - 2 * rho * k) // (2 * q)
    sign = np.where(x < 0, -1, 1)
    rounded = sign * (k + carry)
    message = rounded % t
    wraps = (rounded - message) // t
    residual = (sign * (r - delta * carry) - rho * wraps) % q
    residual = np.where(residual > q // 2, residual - q, residual)
    worst = [int(v) for v in np.max(np.abs(residual), axis=-1)]
    return message.astype(np.int64), worst


# ---------------------------------------------------------------------------
# Moduli and operands
# ---------------------------------------------------------------------------

#: Toy primes plus NTT primes of 30 to 40 bits; 31 and 32 bits straddle
#: the one-multiply bound of ``mulmod`` (``SINGLE_PRODUCT_BITS``).
MODULI = [97, 7681] + [
    modmath.find_ntt_primes(bits, 4096)[0]
    for bits in (30, 31, 32, 35, 39, 40)
]
MODULUS_IDS = [f"{q.bit_length()}b-{q}" for q in MODULI]


def _same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _operands(q: int, seed: int, size: int = 2000):
    """Residue pairs covering 0, 1, q-1 against each other (both at q-1
    too), the values next to them and q/2, then uniform residues."""
    edges = sorted({0, 1, 2, q // 2, q // 2 + 1, q - 2, q - 1})
    a_edge, b_edge = zip(*[(x, y) for x in edges for y in edges])
    rng = np.random.default_rng(seed)
    a = np.concatenate([
        np.array(a_edge, dtype=np.uint64),
        rng.integers(0, q, size=size, dtype=np.uint64),
    ])
    b = np.concatenate([
        np.array(b_edge, dtype=np.uint64),
        rng.integers(0, q, size=size, dtype=np.uint64),
    ])
    return a, b


@pytest.mark.parametrize("q", MODULI, ids=MODULUS_IDS)
class TestKernels:
    def test_mulmod(self, q):
        a, b = _operands(q, 1)
        _same(modmath.mulmod(a, b, q), _frozen_mulmod(a, b, q))
        # Scalar second operand, as the Garner and encode steps pass it.
        for scalar in (0, 1, q - 1, q // 3):
            _same(modmath.mulmod(a, scalar, q), _frozen_mulmod(a, scalar, q))

    def test_mulmod_stacks(self, q):
        a, b = _operands(q, 2)
        a, b = a[:1800].reshape(9, 200), b[:1800].reshape(9, 200)
        _same(modmath.mulmod(a, b, q), _frozen_mulmod(a, b, q))
        _same(modmath.mulmod(a, b[0], q), _frozen_mulmod(a, b[0], q))

    def test_addmod(self, q):
        a, b = _operands(q, 3)
        _same(modmath.addmod(a, b, q), _frozen_addmod(a, b, q))

    def test_submod(self, q):
        a, b = _operands(q, 4)
        _same(modmath.submod(a, b, q), _frozen_submod(a, b, q))
        _same(modmath.submod(b, a, q), _frozen_submod(b, a, q))

    def test_negmod(self, q):
        a, _ = _operands(q, 5)
        _same(modmath.negmod(a, q), _frozen_negmod(a, q))

    def test_zero_dimensional_operands(self, q):
        for x, y in ((0, 0), (q - 1, q - 1), (1, q - 1)):
            a = np.asarray(x, dtype=np.uint64)
            b = np.asarray(y, dtype=np.uint64)
            for new, old in (
                (modmath.mulmod, _frozen_mulmod),
                (modmath.addmod, _frozen_addmod),
                (modmath.submod, _frozen_submod),
            ):
                # The frozen kernels wrap numpy scalars on purpose.
                with np.errstate(over="ignore"):
                    assert int(new(a, b, q)) == int(old(a, b, q))
            assert int(modmath.negmod(a, q)) == int(_frozen_negmod(a, q))


class TestFloorMod:
    @pytest.mark.parametrize("q", MODULI + [1 << 21, (1 << 62) - 57],
                             ids=MODULUS_IDS + ["2^21", "62b"])
    def test_int64_extremes_and_uint64(self, q):
        x = np.array(
            [-(1 << 63), -(1 << 63) + 1, -q, -1, 0, 1, q - 1, q,
             (1 << 61) + 3, (1 << 63) - 1],
            dtype=np.int64,
        )
        assert modmath.floor_mod(x, q).tolist() == [int(v) % q for v in x]
        u = np.array([0, 1, q, (1 << 63) + 5, (1 << 64) - 1], dtype=np.uint64)
        assert modmath.floor_mod(u, q).tolist() == [int(v) % q for v in u]

    def test_out_and_object(self):
        x = np.array([-7, 7, -(1 << 40)], dtype=np.int64)
        out = np.empty_like(x)
        assert modmath.floor_mod(x, 97, out=out) is out
        assert out.tolist() == [int(v) % 97 for v in x]
        big = np.array([-(1 << 100), 5, (1 << 90) + 1], dtype=object)
        assert modmath.floor_mod(big, 97).tolist() == [
            int(v) % 97 for v in big
        ]


# ---------------------------------------------------------------------------
# Garner digits and CRT
# ---------------------------------------------------------------------------

#: (bit widths) of RNS bases: the int64 CRT path below 2**62, the object
#: path above it, and mixed widths (digits reduced mod a smaller prime).
BASES = {
    "q30": (30,),
    "q60": (30, 30),
    "q39": (39,),
    "q35-40": (35, 40),
    "q40-30": (40, 30),
    "q32-31": (32, 31),
    "q90": (30, 30, 30),
    "q40-39-35": (40, 39, 35),
}


@pytest.fixture(scope="module", params=list(BASES), ids=list(BASES))
def basis(request):
    return RnsBasis.generate(64, BASES[request.param])


def _residue_sets(basis: RnsBasis, seed: int):
    rng = np.random.default_rng(seed)
    n = basis.n
    yield [np.zeros(n, dtype=np.uint64) for _ in basis.primes]
    yield [np.ones(n, dtype=np.uint64) for _ in basis.primes]
    yield [np.full(n, p - 1, dtype=np.uint64) for p in basis.primes]
    mixed = []
    for p in basis.primes:
        row = rng.integers(0, p, size=n, dtype=np.uint64)
        row[:6] = [0, 1, p - 1, p - 2, p // 2, p // 2 + 1]
        mixed.append(row)
    yield mixed
    # Unreduced residues (any uint64 value) are reduced first.
    yield [rng.integers(0, 1 << 64, size=n, dtype=np.uint64, endpoint=False)
           for _ in basis.primes]
    # A (k, n) stack, as decryption passes it.
    yield [rng.integers(0, p, size=(5, n), dtype=np.uint64)
           for p in basis.primes]


class TestCrt:
    def test_garner_digits(self, basis):
        for residues in _residue_sets(basis, 10):
            got = basis._garner_digits(residues)
            want = _frozen_garner_digits(basis, residues)
            for g, w in zip(got, want):
                _same(g, w)

    @pytest.mark.parametrize("centered", [False, True],
                             ids=["unsigned", "centered"])
    def test_crt(self, basis, centered):
        for residues in _residue_sets(basis, 11):
            got = basis._crt(residues, centered=centered)
            want = _frozen_crt(basis, residues, centered)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()

    def test_crt_leaves_inputs_alone(self, basis):
        residues = list(_residue_sets(basis, 12))[3]
        before = [r.copy() for r in residues]
        basis._crt(residues, centered=True)
        basis.from_rns(residues)
        for r, b in zip(residues, before):
            _same(r, b)

    def test_to_rns(self, basis):
        rng = np.random.default_rng(13)
        coeffs = rng.integers(-(1 << 63), 1 << 63, size=basis.n,
                              dtype=np.int64)
        coeffs[:4] = [-(1 << 63), -1, 0, (1 << 63) - 1]
        for p, res in zip(basis.primes, basis.to_rns(coeffs)):
            _same(res, (coeffs % np.int64(p)).astype(np.uint64))


# ---------------------------------------------------------------------------
# Rounding FFT products into the ring
# ---------------------------------------------------------------------------

_ROUNDING_EDGES = [
    0.5, -0.5, 1.5, -1.5, 2.5, -2.5, -0.0, 0.0, 0.49999999999999994,
    2.0 ** 53, -(2.0 ** 53), 2.0 ** 53 + 2, 2.0 ** 62, -(2.0 ** 62),
    2.0 ** 63, -(2.0 ** 63), 2.0 ** 64 - 2048, 2.0 ** 80, -(2.0 ** 80),
    2.0 ** 94 - 2.0 ** 41, -(2.0 ** 94), 2.0 ** 100, -(2.0 ** 100),
    2.0 ** 32, -(2.0 ** 32), 2.0 ** 32 - 0.5, -(2.0 ** 32) + 0.5,
    4294967295.5, -4294967296.5, 5e-324, -5e-324,
]


def _products(n: int, seed: int, scale: float, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, scale, size=(count, n))


class TestRounding:
    @pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** 50, 2.0 ** 66,
                                       2.0 ** 92, 2.0 ** 120])
    def test_stack_matches_per_product(self, basis, scale):
        products = _products(basis.n, 20, scale, 7)
        stacked = ring_residues(basis, products)
        for i, row in enumerate(products):
            want = _frozen_round_to_ring(basis, row)
            got = round_to_ring(basis, row).residues
            for s, g, w in zip(stacked, got, want):
                _same(s[i], w)
                _same(g, w)

    def test_edges(self, basis):
        edges = np.array(_ROUNDING_EDGES)
        # Edge values alone (below the split limit, then with 2**100 in
        # the stack, which sends all of it down the float np.mod path).
        small = edges[np.abs(edges) < 2.0 ** 94]
        for values in (small, edges):
            product = np.resize(values, basis.n)
            for g, w in zip(round_to_ring(basis, product).residues,
                            _frozen_round_to_ring(basis, product)):
                _same(g, w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, basis, bad):
        product = np.resize(np.array(_ROUNDING_EDGES), (3, basis.n))
        product[1, 5] = bad
        with pytest.raises(OverflowError):
            _frozen_round_to_ring(basis, product[1])
        with pytest.raises(OverflowError):
            ring_residues(basis, product)
        with pytest.raises(OverflowError):
            round_to_ring(basis, product[1])


# ---------------------------------------------------------------------------
# BFV encode and decode
# ---------------------------------------------------------------------------

#: (q bit widths, t): int64 decode below q = 2**61, object decode above,
#: power-of-two and odd plaintext moduli.
CONTEXTS = {
    "q60-t2^21": ((30, 30), 1 << 21),
    "q60-t2^10": ((30, 30), 1 << 10),
    "q60-t1023": ((30, 30), 1023),
    "q60-t2^31": ((30, 30), 1 << 31),  # t above each prime
    "q39-t2^12": ((39,), 1 << 12),
    "q79-t2^16": ((40, 39), 1 << 16),
    "q90-t2^20": ((30, 30, 30), 1 << 20),
    "q90-t65537": ((30, 30, 30), 65537),
}


@pytest.fixture(scope="module", params=list(CONTEXTS), ids=list(CONTEXTS))
def ctx(request):
    q_bits, t = CONTEXTS[request.param]
    return BfvContext(BfvParameters(n=64, plain_modulus=t, q_bits=q_bits))


def _phases(ctx: BfvContext, seed: int) -> np.ndarray:
    """A (6, n) stack of centered phases: uniform, near each Delta*m
    (exact and off by a few), near the rounding ties between them, fixed
    edges (0, +-1, +-q/2, +-Delta, +-Delta/2), small, and noisy."""
    q, t, delta = ctx.params.q, ctx.params.t, ctx.params.delta
    n = ctx.params.n
    rng = np.random.default_rng(seed)

    def big(bound):  # n uniform Python ints in [0, bound)
        return [int.from_bytes(rng.bytes(16), "little") % bound
                for _ in range(n)]

    def centered(values):
        return [((int(v) + q // 2) % q) - q // 2 for v in values]

    m = [int(v) - t // 2 for v in big(t + 1)]
    offsets = [int(v) - 3 for v in big(7)]
    ties = [(-1) ** i * (delta // 2 + i % 3 - 1) for i in range(n)]
    edges = [0, 1, -1, q // 2, -(q // 2), q // 2 - 1, -(q // 2) + 1,
             delta, -delta, delta // 2, -(delta // 2), delta // 2 + 1]
    rows = [
        big(q),
        [a * delta + b for a, b in zip(m, offsets)],
        [a * delta + b for a, b in zip(m, ties)],
        (edges * n)[:n],
        [v - 1000 for v in big(2000)],
        [a * delta + b - delta // 3 for a, b in zip(m, big(2 * (delta // 3)))],
    ]
    dtype = np.int64 if q < 1 << 62 else object
    return np.array([centered(row) for row in rows], dtype=object).astype(dtype)


class TestBfv:
    def test_decode(self, ctx):
        phase = _phases(ctx, 30)
        got_m, got_noise = ctx._decode(phase)
        want_m, want_noise = _frozen_decode(ctx, phase)
        _same(got_m, want_m)
        assert got_noise == want_noise
        # Row by row, as single decryptions decode.
        for row in phase:
            got_m, got_noise = ctx._decode(row[None])
            want_m, want_noise = _frozen_decode(ctx, row[None])
            _same(got_m, want_m)
            assert got_noise == want_noise

    def test_decode_paths(self):
        assert BfvContext(BfvParameters(
            n=64, plain_modulus=1 << 21, q_bits=(30, 30)))._int64_decode
        assert not BfvContext(BfvParameters(
            n=64, plain_modulus=1 << 20, q_bits=(30, 30, 30)))._int64_decode

    def test_encode(self, ctx):
        n, t = ctx.params.n, ctx.params.t
        rng = np.random.default_rng(31)
        cases = [
            rng.integers(-(1 << 62), 1 << 62, size=n),
            rng.integers(0, t, size=n),
            np.resize(np.array([0, 1, -1, t - 1, t, -t, t // 2,
                                -(1 << 63), (1 << 63) - 1], dtype=np.int64),
                      n),
            rng.integers(0, 1 << 64, size=n, dtype=np.uint64),
            np.array([(-1) ** i * (1 << 90) + i for i in range(n)],
                     dtype=object),
            rng.integers(-100, 100, size=n).astype(np.int32),
        ]
        for m in cases:
            got = ctx._encode(m).residues
            for g, w in zip(got, _frozen_encode(ctx, m)):
                _same(g, w)

    def test_encode_decode_roundtrip(self, ctx):
        n, t = ctx.params.n, ctx.params.t
        m = np.random.default_rng(32).integers(0, t, size=n)
        phase = ctx.basis._crt(ctx._encode(m).residues, centered=True)
        got, noise = ctx._decode(phase[None])
        assert got[0].tolist() == m.tolist()
        assert noise == _frozen_decode(ctx, phase[None])[1]
