"""BFV homomorphic encryption (Fan-Vercauteren) over power-of-two rings.

Implements the subset of BFV the hybrid HE/2PC protocol needs -- public /
secret-key encryption, decryption, ciphertext addition/subtraction,
plaintext addition and plaintext-ciphertext multiplication -- plus noise
budget measurement.  The secret key carries its cached spectrum -- one
folded-FFT spectrum for every limb the exact-FFT certificate admits, NTT
spectra for the rest -- and a stack of ciphertexts decrypts in one batched
phase against it.  Plaintext-ciphertext multiplication accepts pluggable
polynomial-multiplication backends (:mod:`repro.he.backend`): the exact
backend (certified folded FFT, NTT fallback) or the approximate FFT
pipeline (FLASH).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.exact import get_exact_negacyclic
from repro.he.backend import (
    NttPolyMulBackend,
    PolyMulBackend,
    exact_fft_products,
)
from repro.he.params import BfvParameters
from repro.he.poly import RingPoly, gaussian_poly, ternary_poly, uniform_poly
from repro.ntt.modmath import centered, floor_mod, mulmod, row_blocks
from repro.obs import trace as obs_trace
from repro.obs.trace import NOOP_SPAN


@dataclass(frozen=True)
class SecretKey:
    """Secret key ``s`` and the state its products run on.

    ``s`` must be one small integer polynomial: every limb's centered
    residues equal (ternary keys are); otherwise, or when no digit count
    certifies it, construction raises :class:`ValueError`.  ``spectrum``
    is the key's complex128 folded-FFT spectrum, shared by every limb;
    ``digits[l]`` and ``bounds[l]`` are the digit count and certificate
    bound of its products at prime ``l``
    (:meth:`repro.fftcore.exact.ExactNegacyclic.certify`).  All are derived
    from ``s`` at construction; the key is frozen so they cannot disagree.
    """

    s: RingPoly
    spectrum: np.ndarray = field(init=False, compare=False, repr=False)
    digits: Tuple[int, ...] = field(init=False, compare=False, repr=False)
    bounds: Tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        basis = self.s.basis
        lifts = [centered(r, p) for p, r in zip(basis.primes, self.s.residues)]
        if not all(np.array_equal(lift, lifts[0]) for lift in lifts):
            raise ValueError(
                "secret key limbs are not one small integer polynomial"
            )
        spectrum, digits, bounds = get_exact_negacyclic(basis.n).certify(
            basis.primes, lifts[0]
        )
        spectrum.setflags(write=False)
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "bounds", bounds)


def _times_secret(
    sk: SecretKey, polys: Sequence[RingPoly]
) -> Tuple[List[np.ndarray], float]:
    """Negacyclic products ``poly * s`` of a stack of ring polynomials.

    Returns one ``(k, n)`` residue stack per basis prime, plus the worst
    realized rounding distance.  Per limb, the certified FFT kernel runs
    against the key's cached spectrum at the limb's digit count --
    bit-identical to ``poly * sk.s`` row by row, without transforming
    ``s`` again.
    """
    basis = sk.s.basis
    kernel = get_exact_negacyclic(basis.n)
    out, worst = [], 0.0
    for i, (p, digits) in enumerate(zip(basis.primes, sk.digits)):
        rows = np.stack([poly.residues[i] for poly in polys])
        limb, limb_worst = exact_fft_products(
            kernel, rows, sk.spectrum, p, digits
        )
        out.append(limb)
        worst = max(worst, limb_worst)
    return out, worst


@dataclass
class PublicKey:
    p0: RingPoly  # -(a*s + e)
    p1: RingPoly  # a


@dataclass
class Ciphertext:
    """Degree-1 BFV ciphertext ``(c0, c1)`` decrypting via ``c0 + c1*s``."""

    c0: RingPoly
    c1: RingPoly

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy())


class BfvContext:
    """BFV operation set bound to one parameter set.

    Args:
        params: the :class:`repro.he.params.BfvParameters` to operate under.

    Attributes:
        backend: the exact :class:`NttPolyMulBackend` that
            :meth:`multiply_plain` uses when given none; one per context,
            so repeated weights hit its spectrum cache.
    """

    def __init__(self, params: BfvParameters):
        self.params = params
        self.basis = params.basis
        self.backend = NttPolyMulBackend()
        q, t = params.q, params.t
        # _decode in int64 keeps 2*t*r + q - 2*k*rho (r < Delta, k <= q/2
        # / Delta) and the noise residual below 2**63.
        k_max = (q // 2) // params.delta
        self._int64_decode = q < 1 << 61 and 2 * k_max * (q % t) < 1 << 61

    # ------------------------------------------------------------------
    # Key generation and encryption
    # ------------------------------------------------------------------

    def keygen(self, rng: np.random.Generator):
        """Sample a ternary secret key and a matching public key."""
        sk = SecretKey(ternary_poly(self.basis, rng))
        a = uniform_poly(self.basis, rng)
        e = gaussian_poly(self.basis, rng, self.params.error_std)
        p0 = -(self._one_times_secret(sk, a) + e)
        return sk, PublicKey(p0=p0, p1=a)

    def _one_times_secret(self, sk: SecretKey, a: RingPoly) -> RingPoly:
        return RingPoly(self.basis, [r[0] for r in _times_secret(sk, [a])[0]])

    def _encode(self, plaintext) -> RingPoly:
        """Lift a mod-t message vector to ``Delta * m`` in the ciphertext ring."""
        t = self.params.t
        m = np.asarray(plaintext)
        if m.shape != (self.params.n,):
            raise ValueError(f"expected {self.params.n} plaintext slots")
        if m.dtype not in (object, np.uint64):  # int64 would wrap uint64
            m = m.astype(np.int64, copy=False)
        m = floor_mod(m, t).astype(np.int64, copy=False)
        delta = self.params.delta
        residues = [
            # m < t: already reduced mod any prime p >= t
            mulmod(m if t <= p else floor_mod(m, p), delta % p, p)
            for p in self.basis.primes
        ]
        return RingPoly(self.basis, residues)

    def encrypt(
        self, pk: PublicKey, plaintext, rng: np.random.Generator
    ) -> Ciphertext:
        """Public-key encryption of a mod-t coefficient vector."""
        u = ternary_poly(self.basis, rng)
        e1 = gaussian_poly(self.basis, rng, self.params.error_std)
        e2 = gaussian_poly(self.basis, rng, self.params.error_std)
        dm = self._encode(plaintext)
        return Ciphertext(c0=pk.p0 * u + e1 + dm, c1=pk.p1 * u + e2)

    def encrypt_symmetric(
        self, sk: SecretKey, plaintext, rng: np.random.Generator
    ) -> Ciphertext:
        """Secret-key encryption (smaller noise; what Cheetah clients send)."""
        a = uniform_poly(self.basis, rng)
        e = gaussian_poly(self.basis, rng, self.params.error_std)
        dm = self._encode(plaintext)
        return Ciphertext(c0=-self._one_times_secret(sk, a) + e + dm, c1=a)

    # ------------------------------------------------------------------
    # Decryption and noise
    # ------------------------------------------------------------------

    def _decrypt_rows(
        self, sk: SecretKey, cts: Sequence[Ciphertext], span=NOOP_SPAN
    ) -> Tuple[np.ndarray, List[int]]:
        """Messages and noise infinity norms of ``k`` ciphertexts, from one
        stacked phase ``c0 + c1*s`` (centered, int64 below q = 2**62).

        The one decryption path: :meth:`decrypt_batch` and the single-
        ciphertext calls (batches of one) all decode through it.  The key
        product runs once over the stack; the phase sum, its CRT and the
        decoding run per row block (:func:`repro.ntt.modmath.row_blocks`).
        The key product's realized worst rounding distance, the largest
        certificate bound and the largest digit count of its limbs go on
        ``span``.
        """
        if not cts:
            return np.zeros((0, self.params.n), dtype=np.int64), []
        c0 = [
            np.stack([ct.c0.residues[i] for ct in cts])
            for i in range(len(self.basis))
        ]
        c1s, worst = _times_secret(sk, [ct.c1 for ct in cts])
        span.set(
            rounding_worst=worst,
            rounding_bound=max(sk.bounds),
            digits=max(sk.digits),
        )
        messages = np.empty((len(cts), self.params.n), dtype=np.int64)
        noise: List[int] = []
        for block in row_blocks(len(cts), self.params.n):
            phase = self.basis._crt(
                self.basis.add(
                    [r[block] for r in c0], [r[block] for r in c1s]
                ),
                centered=True,
            )
            messages[block], block_noise = self._decode(phase)
            noise += block_noise
        return messages, noise

    def _decode(self, phase: np.ndarray) -> Tuple[np.ndarray, List[int]]:
        """Messages ``round(t*x/q) mod t`` (ties away from zero) and the
        per-row infinity norm of the centered noise ``x - Delta*m`` of a
        ``(k, n)`` stack of phases.

        With ``|x| = k*Delta + r`` and ``rho = q mod t``, ``round(t*|x|/q)
        = k + floor((2*r*t + q - 2*k*rho) / 2q)``; for the signed rounding
        ``s`` and ``m = s - j*t``, ``x - Delta*m = x - Delta*s - j*rho``
        mod q (docs/algorithms.md, section 6).  Exact in int64 within the
        bounds checked in ``__init__``, on Python ints otherwise.
        """
        q, t, delta = self.params.q, self.params.t, self.params.delta
        rho = q % t
        x = np.asarray(phase).astype(
            np.int64 if self._int64_decode else object, copy=False
        )
        # In place on few arrays: at a stack's size, a fresh array costs
        # about as much as a pass of arithmetic over it.
        sign = np.sign(x)  # 0 at x = 0, where every term below is 0 too
        r = np.abs(x)
        k = r // delta
        carry = k * delta
        r -= carry
        np.multiply(r, 2 * t, out=carry)
        scratch = k * (2 * rho)
        carry -= scratch
        carry += q
        carry //= 2 * q
        k += carry
        k *= sign  # the signed rounding
        message = floor_mod(k, t)
        k //= t  # its wraps
        carry *= delta
        r -= carry
        r *= sign
        k *= rho
        r -= k  # the noise, up to a multiple of q
        # Centered: floor_mod of the noise shifted by q//2 - q + 1.
        low = q // 2 - q + 1
        r -= low
        residual = floor_mod(r, q, out=scratch)
        residual += low
        worst = [int(v) for v in np.max(np.abs(residual, out=r), axis=-1)]
        return message.astype(np.int64, copy=False), worst

    def _budget_bits(self, noise: int) -> float:
        ceiling = self.params.noise_ceiling
        if noise == 0:
            return float(math.log2(ceiling))
        return float(math.log2(ceiling) - math.log2(noise))

    def decrypt_batch(
        self, sk: SecretKey, cts: Sequence[Ciphertext]
    ) -> Tuple[np.ndarray, List[float]]:
        """Decrypt ``k`` ciphertexts and measure their noise budgets.

        Every phase ``c0 + c1*s`` comes from one stacked pass against the
        key's cached spectrum.  Returns ``(messages, budgets)``: a
        ``(k, n)`` int64 array of mod-t messages and one budget in bits
        per ciphertext, row ``i`` bit-identical to ``decrypt`` and
        ``noise_budget`` of ``cts[i]``.
        """
        with obs_trace.tracer.span("he.decrypt", ciphertexts=len(cts)) as span:
            messages, noise = self._decrypt_rows(sk, cts, span)
            return messages, [self._budget_bits(v) for v in noise]

    def decrypt(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the mod-t message vector (int64)."""
        return self._decrypt_rows(sk, [ct])[0][0]

    def decrypt_signed(self, sk: SecretKey, ct: Ciphertext) -> np.ndarray:
        """Decrypt and center the message into ``[-t/2, t/2)``."""
        t = self.params.t
        m = self.decrypt(sk, ct)
        return np.where(m >= t // 2, m - t, m)

    def noise_infinity(self, sk: SecretKey, ct: Ciphertext) -> int:
        """Infinity norm of the noise ``(c0 + c1*s) - Delta*m`` (centered)."""
        return self._decrypt_rows(sk, [ct])[1][0]

    def noise_budget(self, sk: SecretKey, ct: Ciphertext) -> float:
        """Remaining noise budget in bits: ``log2(q/(2t) / |noise|_inf)``.

        Decryption stays correct while the budget is positive (the
        kernel-level robustness bound of Section III-A).
        """
        return self._budget_bits(self.noise_infinity(sk, ct))

    # ------------------------------------------------------------------
    # Homomorphic evaluation
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(-a.c0, -a.c1)

    def add_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        """Homomorphic ``ct + Enc(0-noise-free plaintext)`` (Cheetah's boxplus)."""
        return Ciphertext(ct.c0 + self._encode(plaintext), ct.c1.copy())

    def sub_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        return Ciphertext(ct.c0 - self._encode(plaintext), ct.c1.copy())

    def multiply_plain(
        self, ct: Ciphertext, weights, backend: Optional[PolyMulBackend] = None
    ) -> Ciphertext:
        """Multiply by a plaintext polynomial with *signed small* coefficients.

        This is the HConv workhorse: weight polynomials produced by the
        coefficient encoding multiply both ciphertext components.  The
        polynomial product is delegated to ``backend`` (exact NTT by
        default; pass an FFT backend to model FLASH).

        Args:
            ct: input ciphertext.
            weights: signed integer coefficient vector of length n.
            backend: a :class:`repro.he.backend.PolyMulBackend`; defaults
                to the context's exact backend (:attr:`backend`).
        """
        if backend is None:
            backend = self.backend
        weights = np.asarray(weights)
        if weights.shape != (self.params.n,):
            raise ValueError(f"expected {self.params.n} weight coefficients")
        c0, c1 = backend.multiply_many([ct.c0, ct.c1], [weights, weights])
        return Ciphertext(c0, c1)

    def zero_ciphertext(self) -> Ciphertext:
        """The trivial encryption of zero (used as an accumulator seed)."""
        return Ciphertext(
            RingPoly.zero(self.basis), RingPoly.zero(self.basis)
        )
