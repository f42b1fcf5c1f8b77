"""One product path per backend: a single product is a batch of one.

For each of the three transforms, ``multiply(p, w)`` must equal
``multiply_many([p], [w])[0]`` (and every row of a larger batch) bit for
bit, on dense and on sparse weights; ``BfvContext.multiply_plain`` runs
its c0/c1 products through the same path and decrypts to the plaintext
convolution.  The products and work counters of every backend, the
float64 ``fp_fft_backend()`` included, are pinned to digests.

A polynomial object shared by several products (a private round passes
each ciphertext component once per output channel) is lifted and
forward-transformed once: the products equal those of unshared copies
byte for byte, and the forward transforms see one row per distinct
object.
"""

import hashlib

import numpy as np
import pytest

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.fftcore.approx_pipeline import ApproxNegacyclic
from repro.fftcore.exact import get_exact_negacyclic
from repro.he import BfvContext, cham_preset, toy_preset
from repro.he.backend import (
    FftPolyMulBackend,
    NttPolyMulBackend,
    SparseFftPolyMulBackend,
    fp_fft_backend,
)
from repro.he.poly import RingPoly
from repro.ntt import negacyclic_convolution_naive

PARAMS = toy_preset()


def _config(twiddle_k: int, n: int = PARAMS.n) -> ApproxFftConfig:
    return ApproxFftConfig(
        n=n // 2, stage_widths=27, twiddle_k=twiddle_k,
        twiddle_max_shift=24,
    )


BACKENDS = {
    "ntt": lambda k, n=PARAMS.n: NttPolyMulBackend(),
    "flash": lambda k, n=PARAMS.n: FftPolyMulBackend(
        weight_config=_config(k, n)
    ),
    "sparse": lambda k, n=PARAMS.n: SparseFftPolyMulBackend(
        weight_config=_config(k, n)
    ),
}


def _weights(rng, sparse: bool) -> np.ndarray:
    w = rng.integers(-8, 9, size=PARAMS.n)
    if sparse:
        w[rng.random(PARAMS.n) < 0.85] = 0
        w[rng.integers(PARAMS.n)] = 3  # never all-zero
    return w


def _same(a: RingPoly, b: RingPoly) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.residues, b.residues))


@pytest.mark.parametrize("twiddle_k", [5, 18])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_multiply_is_a_batch_of_one(kind, sparse, twiddle_k):
    basis = PARAMS.basis
    rng = np.random.default_rng(twiddle_k)
    polys = [
        RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 60, basis.n)))
        for _ in range(6)
    ]
    weights = [_weights(rng, sparse) for _ in polys]
    backend = BACKENDS[kind](twiddle_k)
    singles = [backend.multiply(p, w) for p, w in zip(polys, weights)]
    for p, w, single in zip(polys, weights, singles):
        assert _same(single, backend.multiply_many([p], [w])[0])
    for single, row in zip(singles, backend.multiply_many(polys, weights)):
        assert _same(single, row)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_multiply_plain_round_trip(kind, sparse):
    ctx = BfvContext(PARAMS)
    rng = np.random.default_rng(7)
    sk, pk = ctx.keygen(rng)
    t = PARAMS.t
    m = rng.integers(0, 1 << 8, size=PARAMS.n)
    w = _weights(rng, sparse)
    ct = ctx.encrypt(pk, m, rng)
    backend = BACKENDS[kind](18)
    prod = ctx.multiply_plain(ct, w, backend)
    assert _same(prod.c0, backend.multiply(ct.c0, w))
    assert _same(prod.c1, backend.multiply(ct.c1, w))
    out = ctx.decrypt(sk, prod).astype(np.int64)
    expected = negacyclic_convolution_naive(m, w, modulus=t).astype(np.int64)
    assert np.array_equal(out, expected)


#: sha256 prefixes of two ``multiply_many`` calls on one backend (cold, then
#: warm cache; products, then ``last_stats.work()``) per backend, weights
#: and twiddle level.  Recorded before the FFT backends' caches merged into
#: one ``plan_cache``, which changes no product and no counter.
DIGESTS = {
    ("flash", "dense", 5): "429c3fc44d372bf3",
    ("flash", "dense", 18): "6a00b07e017819a9",
    ("flash", "sparse", 5): "37be3d8fdd44be33",
    ("flash", "sparse", 18): "b02256333be9035f",
    ("fp", "dense", 5): "35fb1f7403c3e380",
    ("fp", "dense", 18): "75a1a9fc0596b594",
    ("fp", "sparse", 5): "e9c7d03719ed4828",
    ("fp", "sparse", 18): "26c844908a558855",
    ("ntt", "dense", 5): "8ec40482d378285b",
    ("ntt", "dense", 18): "7936e867802cb415",
    ("ntt", "sparse", 5): "73f110dbaf4fd05f",
    ("ntt", "sparse", 18): "6086bbad7b57cbc6",
    ("sparse", "dense", 5): "3ff2cbe1561e9730",
    ("sparse", "dense", 18): "88d9798f523bd139",
    ("sparse", "sparse", 5): "0d8412fe637b9894",
    ("sparse", "sparse", 18): "d0a3595ca3e3a431",
}
DIGEST_BACKENDS = dict(BACKENDS, fp=lambda k: fp_fft_backend())


@pytest.mark.parametrize("twiddle_k", [5, 18])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", sorted(DIGEST_BACKENDS))
def test_products_and_counters_are_pinned(kind, sparse, twiddle_k):
    """Three weights, each shared by two products (c0/c1-style repeats),
    run twice on one backend: a cold and a warm cache."""
    basis = PARAMS.basis
    rng = np.random.default_rng(100 + twiddle_k)
    polys = [
        RingPoly(basis, basis.to_rns(rng.integers(0, 1 << 60, basis.n)))
        for _ in range(6)
    ]
    weights = [_weights(rng, sparse) for _ in range(3)]
    weights = weights + weights[::-1]
    backend = DIGEST_BACKENDS[kind](twiddle_k)
    digest = hashlib.sha256()
    for _ in range(2):
        for out in backend.multiply_many(polys, weights):
            for residues in out.residues:
                digest.update(np.ascontiguousarray(residues).tobytes())
        work = sorted(backend.last_stats.work().items())
        digest.update(repr(work).encode())
    label = "sparse" if sparse else "dense"
    assert digest.hexdigest()[:16] == DIGESTS[(kind, label, twiddle_k)]


#: Ring parameters of the sharing tests: two 30-bit primes, and CHAM's one
#: 39-bit prime, where a 4-bit weight needs D = 2 digits.
SHARING_PARAMS = {"toy": toy_preset(), "cham": cham_preset(n=1024)}


def _round_products(params, mixed_digits: bool):
    """A private round's call: two ciphertext components, each multiplied
    by every weight as one shared object.  ``mixed_digits`` picks weights
    whose exact products need different digit counts (two monomials, two
    dense 4-bit weights and a dense 20-bit one); otherwise all are 4-bit."""
    basis = params.basis
    n = basis.n
    rng = np.random.default_rng(11)
    c0, c1 = (
        RingPoly(basis, basis.to_rns(rng.integers(0, params.q, n)))
        for _ in range(2)
    )
    if mixed_digits:
        monomials = np.zeros((2, n), dtype=np.int64)
        monomials[0, 5] = monomials[1, 9] = 1
        weights = [
            *monomials,
            rng.integers(-8, 9, size=n),
            rng.integers(-8, 9, size=n),
            rng.integers(-(1 << 20), 1 << 20, size=n),
        ]
    else:
        weights = [rng.integers(-8, 9, size=n) for _ in range(3)]
        for w in weights[1:]:
            w[rng.random(n) < 0.85] = 0  # sparse supports, as in a conv
    polys, weights_list = [], []
    for w in weights:
        polys.extend((c0, c1))
        weights_list.extend((w, w))
    return polys, weights_list


SHARING_CASES = [("toy", False), ("cham", False), ("cham", True)]
SHARING_IDS = ["toy", "cham", "cham-mixed-digits"]


@pytest.mark.parametrize("preset,mixed", SHARING_CASES, ids=SHARING_IDS)
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_shared_polynomials_match_unshared_copies(kind, preset, mixed):
    params = SHARING_PARAMS[preset]
    polys, weights = _round_products(params, mixed)
    backend = BACKENDS[kind](18, params.n)
    shared = backend.multiply_many(polys, weights)
    copies = backend.multiply_many([p.copy() for p in polys], weights)
    assert len(shared) == len(copies) == len(polys)
    for p, w, a, b in zip(polys, weights, shared, copies):
        assert _same(a, b)
        assert _same(a, backend.multiply(p, w))


@pytest.mark.parametrize("preset,mixed", SHARING_CASES, ids=SHARING_IDS)
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_forward_transform_runs_once_per_distinct_polynomial(
    kind, preset, mixed, monkeypatch
):
    """Warm cache, so the spied forward transforms are the activations'
    alone; copies are distinct objects and get a row each."""
    params = SHARING_PARAMS[preset]
    basis = params.basis
    polys, weights = _round_products(params, mixed)
    backend = BACKENDS[kind](18, params.n)
    backend.multiply_many(polys, weights)

    rows = []
    if kind == "ntt":
        kernel = get_exact_negacyclic(basis.n)
        digits = [kernel.certify(basis.primes, w)[1] for w in weights]
        # The cases cover what they name: D = 2 at CHAM, mixed counts.
        assert len(set(digits)) == (3 if mixed else 1)
        assert preset == "toy" or max(max(ds) for ds in digits) >= 2
        forward = kernel.fft.forward_batch
        monkeypatch.setattr(
            kernel.fft, "forward_batch",
            lambda stack: rows.append(len(stack)) or forward(stack),
        )

        # Per limb, each digit count's stack holds D digit rows for each
        # distinct polynomial among its products.
        def expected(polys):
            return sum(
                d * len({id(p) for p, ds in zip(polys, digits) if ds[l] == d})
                for l in range(len(basis.primes))
                for d in {ds[l] for ds in digits}
            )
    else:
        forward = ApproxNegacyclic.activation_forward_batch
        monkeypatch.setattr(
            ApproxNegacyclic, "activation_forward_batch",
            lambda self, acts: rows.append(len(acts)) or forward(self, acts),
        )

        def expected(polys):
            return len({id(p) for p in polys})

    copies = [p.copy() for p in polys]
    assert expected(polys) < expected(copies)
    backend.multiply_many(polys, weights)
    assert sum(rows) == expected(polys)
    rows.clear()
    backend.multiply_many(copies, weights)
    assert sum(rows) == expected(copies)
