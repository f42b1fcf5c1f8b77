"""Certified exact negacyclic products on the float64 folded FFT.

Klemsa's error-free negacyclic integer convolution, made a decision rather
than a hope: for a centered vector ``a`` with ``|a_j| <= A`` and a small
integer weight ``w``, the folded-FFT product ``a * w`` lands within 1/2 of
the exact integer in every coefficient whenever the a-priori bound
(:meth:`ExactNegacyclic.bound`) is below 1/2; ``np.rint`` then returns the
exact product.  The bound depends only on ``n``, ``A``, ``||w||_2`` and the
peak of the weight's cached spectrum -- never on ``a`` -- so callers decide
before running anything.

The bound is linear in ``A``.  Where it rejects ``A`` (a centered residue
mod a wide prime, ``A = floor(p/2)``, or a wide activation), the product
runs on digits: ``a = sum_d a_d 2**(b*d)`` with ``D`` centered digits of
magnitude at most ``2**(b-1)`` (:func:`digit_split`, :func:`split_digits`).
Each digit product is certified with the digit magnitude in place of ``A``
and the exact integer products are recombined; the smallest ``D`` that
certifies is used (:func:`certified_digits`), and ``D = 1`` is the plain
product.  A product that no digit count certifies raises
:class:`ValueError`; it never runs uncertified.

The analysis (docs/algorithms.md, "Exact products on the folded FFT"):

* Radix-2 FFT of length ``2**t`` with twiddles within ``mu`` of the exact
  roots (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
  Thm 24.2): ``||fl(Fx) - Fx||_2 <= rho ||Fx||_2`` with
  ``rho = t*eta / (1 - t*eta)``, ``eta = mu + gamma_4 (sqrt(2) + mu)``.
* One complex multiply: ``fl(xy) = xy (1 + d)``, ``|d| <= sqrt(2) gamma_2``
  (Higham Lemma 3.5); ``gamma_k = k u / (1 - k u)``.
* The fold/unfold twists and the pointwise product each add one complex
  multiply; division by ``n/2`` is exact.  Worst-case input
  ``||a||_2 = sqrt(n) A``.
* The weight spectrum is computed in long double and rounded to complex128
  once, so its own error is ``u * peak`` plus a long-double FFT term far
  below a float64 one (about ``1e-11`` for the ternary key at n = 4096,
  enough on its own to push the key's bound past 1/2).
  :meth:`ExactNegacyclic.float64_bound` covers a spectrum built in float64
  instead (the clear-domain engine's streamed weights), with the peak
  bounded a priori by ``||w||_1``, activations bounded by their known
  magnitude rather than a prime, and a sum of channel-tile products taken
  in the spectral domain before one inverse transform.

Table errors ``mu`` of the float64 twiddles and twists are measured once
per ``n`` against long-double tables, each of which lies within
``LONGDOUBLE_TABLE_EPS`` long-double epsilons of the exact root.  Unit
roundoffs come from ``np.finfo``: where ``longdouble`` is plain double the
spectra are only float64-accurate, the bounds grow accordingly and products
take more digits -- never a wrong answer.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.fftcore.negacyclic import NegacyclicFft
from repro.fftcore.reference import (
    PI_LONGDOUBLE,
    fft_dit_batch,
    stage_twiddles,
)

#: A product is exact when its certificate bound is below this: every
#: coefficient then rounds to its exact integer.
CERTIFIED_BELOW = 0.5

#: Every long-double twiddle or twist lies within this many long-double
#: epsilons of its exact root: angle rounding (about 4*pi*u) plus the
#: ``cos``/``sin`` error (about 1 ulp each) stay below 8 eps.
LONGDOUBLE_TABLE_EPS = 64

_SQRT2 = math.sqrt(2.0)


def _gamma(k: int, u: float) -> float:
    return k * u / (1 - k * u)


def _fft_relative_error(stages: int, mu: float, u: float) -> float:
    """Higham Thm 24.2: relative 2-norm error of a radix-2 FFT of length
    ``2**stages`` with twiddle errors ``<= mu`` and unit roundoff ``u``."""
    eta = mu + _gamma(4, u) * (_SQRT2 + mu)
    return stages * eta / (1 - stages * eta)


def _twist_error(u: float, mu: float) -> float:
    """Relative error of one multiply by a twist within ``mu`` of its root."""
    return mu + _SQRT2 * _gamma(2, u) * (1 + mu)


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a.astype(np.clongdouble) - b)))


class ExactNegacyclic:
    """The certified exact-product kernel of ring dimension ``n``.

    ``fft`` is the float64 :class:`NegacyclicFft` the products run on;
    :meth:`spectrum` builds a weight's cached spectrum in long double;
    :meth:`bound` is the a-priori certificate.

    Args:
        n: ring dimension (power of two, >= 4).
    """

    def __init__(self, n: int):
        self.fft = NegacyclicFft(n)
        self.n = n
        half = n // 2
        stages = half.bit_length() - 1
        j = np.arange(half)
        self._fold_twist_ld = np.exp(1j * PI_LONGDOUBLE * j / n)

        u = float(np.finfo(np.float64).eps) / 2
        eps_ld = float(np.finfo(np.longdouble).eps)
        u_ld = eps_ld / 2
        mu_ld = LONGDOUBLE_TABLE_EPS * eps_ld
        mu_twiddle = mu_ld + max(
            _max_abs_diff(
                stage_twiddles(half, s, sign),
                stage_twiddles(half, s, sign, np.clongdouble),
            )
            for s in range(1, stages + 1)
            for sign in (-1, 1)
        )
        mu_twist = mu_ld + max(
            _max_abs_diff(self.fft._fold_twist, self._fold_twist_ld),
            _max_abs_diff(
                self.fft._unfold_twist, np.conj(self._fold_twist_ld)
            ),
        )
        self._u = u
        self._rho = _fft_relative_error(stages, mu_twiddle, u)
        self._twist = _twist_error(u, mu_twist)
        self._mult = _SQRT2 * _gamma(2, u)
        twist_ld = _twist_error(u_ld, mu_ld)
        rho_ld = _fft_relative_error(stages, mu_ld, u_ld)
        # ||spectrum_ld - W||_2 <= this * ||w||_2 (||W||_2 = sqrt(n/2) ||w||_2).
        self._spectrum_rel = math.sqrt(half) * (
            twist_ld + rho_ld * (1 + twist_ld)
        )
        # The same for a spectrum built in float64 on ``fft`` itself.
        self._spectrum_rel64 = math.sqrt(half) * (
            self._twist + self._rho * (1 + self._twist)
        )

    def spectrum(self, weights) -> np.ndarray:
        """Folded spectrum of an integer weight vector: computed in long
        double, returned as a plain complex128 array of length ``n/2``."""
        x = np.asarray(weights).astype(np.longdouble)
        half = self.n // 2
        folded = (x[..., :half] + 1j * x[..., half:]) * self._fold_twist_ld
        return fft_dit_batch(folded, sign=+1).astype(np.complex128)

    def bound(
        self,
        prime: int,
        norm: float,
        peak: Optional[float] = None,
        digits: int = 1,
    ) -> float:
        """A-priori worst ``|computed - exact|`` over every coefficient of
        ``a_d * w`` and every digit ``a_d`` of every centered residue
        vector mod ``prime`` split into ``digits`` digits (one digit: the
        residues themselves, ``||a||_2 <= sqrt(n) floor(p/2)``).

        Args:
            prime: the limb's modulus.
            norm: an upper bound on ``||w||_2``.
            peak: ``max_k |spectrum_k|`` of the cached spectrum; omitted,
                the smallest possible peak ``norm`` (Parseval) gives a lower
                bound, so a weight failing it needs no spectrum at all.
            digits: the digit count ``D`` (:func:`digit_split`).
        """
        peak = norm if peak is None else peak
        # max_k |spectrum_k - W_k|: the long-double transform's error plus
        # the rounding to complex128.
        d = self._spectrum_rel * norm + self._u * peak / (1 - self._u)
        magnitude = digit_split(prime // 2, digits)[1]
        return self._bound(math.sqrt(self.n) * magnitude, peak, d)

    def float64_bound(
        self,
        norm: float,
        l1: int,
        activation_max: int,
        tiles: int = 1,
        digits: int = 1,
    ) -> float:
        """A-priori worst ``|computed - exact|`` over every coefficient of
        ``sum_t a_t * w_t``: ``tiles`` products of weight spectra built in
        float64 by ``fft.forward_batch``, summed in the spectral domain
        before one inverse transform, for every digit of activations split
        into ``digits`` digits (:func:`digit_split`).

        Every exact spectrum value has ``|W_k| <= ||w||_1``, so no
        spectrum is needed: the computed peak is at most ``l1 + d``.

        Args:
            norm: an upper bound on every ``||w_t||_2``.
            l1: an upper bound on every ``||w_t||_1``.
            activation_max: an upper bound on every ``|a_t[j]|``; a digit
                ``a_d`` then has ``||a_d||_2 <= sqrt(n) M`` with ``M`` its
                digit magnitude.
            tiles: the number of products summed.
            digits: the digit count ``D``.
        """
        # The float64 transform's error, as the activation's below.
        d = self._spectrum_rel64 * norm
        magnitude = digit_split(activation_max, digits)[1]
        a_norms = tiles * math.sqrt(self.n) * magnitude
        return self._bound(a_norms, l1 + d, d, tiles)

    def _bound(
        self, a_norms: float, peak: float, d: float, tiles: int = 1
    ) -> float:
        """The certificate for ``tiles`` activations with ``sum_t
        ||a_t||_2 <= a_norms`` against spectra of peak ``peak`` within
        ``d`` of the exact ones (docs/algorithms.md, section 7)."""
        u_twist, rho, mult = self._twist, self._rho, self._mult
        # Per unit ||a_t||_2: the forward transform's error, the pointwise
        # product's, then the tile sum's T - 1 complex additions, inverse
        # and unfold.
        forward = u_twist + rho * (1 + u_twist)
        pointwise = peak * forward + d + mult * peak * (1 + forward)
        exact_peak = peak + d
        pointwise += _gamma(tiles - 1, self._u) * (exact_peak + pointwise)
        per_unit = (1 + u_twist) * (
            pointwise + rho * (exact_peak + pointwise)
        ) + u_twist * exact_peak
        return a_norms * per_unit

    def certify(
        self,
        primes: Sequence[int],
        weights: np.ndarray,
        build: Optional[Callable[[], np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Tuple[int, ...], Tuple[float, ...]]:
        """A weight's spectrum and, at each prime, the digit count its
        products run on and their certificate bound (:func:`certified_digits`).

        ``build`` returns the spectrum (default :meth:`spectrum`; callers
        pass a cache lookup).  A weight that no digit count certifies
        raises :class:`ValueError`: before its spectrum is built when the
        lower bound already fails (one-bit digits have magnitude 1 at every
        prime, so the smallest prime decides), after it when the real peak
        fails at some prime.
        """
        norm = weight_norm(weights)
        low = min(primes)
        certified_digits(
            low // 2, lambda digits: self.bound(low, norm, None, digits)
        )
        spectrum = build() if build is not None else self.spectrum(weights)
        peak = float(np.max(np.abs(spectrum)))
        digits, bounds = zip(*(
            certified_digits(
                p // 2, lambda digits: self.bound(p, norm, peak, digits)
            )
            for p in primes
        ))
        return spectrum, digits, bounds


def digit_split(magnitude: int, digits: int) -> Tuple[int, int]:
    """``(b, M)`` of the split of integers ``|x| <= magnitude`` into
    ``digits`` centered base-``2**b`` digits (:func:`split_digits`).

    ``b = ceil((bit_length(magnitude) + 1) / digits)``, so ``magnitude <
    2**(b*digits - 1)`` and every digit, the top one included, has ``|x_d|
    <= M = min(magnitude, 2**(b-1))``.  One digit is ``x`` itself.
    """
    width = -(-(int(magnitude).bit_length() + 1) // digits)
    return width, min(int(magnitude), 1 << (width - 1))


def split_digits(values: np.ndarray, width: int, digits: int) -> np.ndarray:
    """The ``(digits,) + values.shape`` stack of centered base-``2**width``
    digits of integer-valued ``values`` (int64, or float64 below
    ``2**53``), least significant first, in ``values``' dtype: ``values
    == sum_d out[d] * 2**(width*d)``.  Every digit but the top one lies in
    ``[-2**(width-1), 2**(width-1))``; the top one within
    :func:`digit_split`'s ``M``.  One digit is a view of ``values``.
    """
    if digits == 1:
        return values[None]
    out = np.empty((digits,) + values.shape, dtype=np.int64)
    half, mask = 1 << (width - 1), (1 << width) - 1
    rest = values.astype(np.int64)  # exact: integers below 2**53
    for d in range(digits - 1):
        low = rest & mask  # in [0, 2**width); a carry centers it
        carry = low >= half
        out[d] = low - (carry.astype(np.int64) << width)
        rest = (rest >> width) + carry
    out[-1] = rest
    return out.astype(values.dtype, copy=False)


def certified_digits(
    magnitude: int, bound_of: Callable[[int], float]
) -> Tuple[int, float]:
    """The smallest digit count ``D`` whose certificate ``bound_of(D)`` is
    below :data:`CERTIFIED_BELOW`, and that bound.

    ``D`` runs up to one-bit digits (magnitude 1); a product they do not
    certify either raises :class:`ValueError`.
    """
    for digits in range(1, int(magnitude).bit_length() + 2):
        bound = bound_of(digits)
        if bound < CERTIFIED_BELOW:
            return digits, bound
    raise ValueError(
        f"no digit split certifies the product: one-bit digits bound "
        f"{bound:.3g} >= {CERTIFIED_BELOW}"
    )


def weight_norm(weights: np.ndarray) -> float:
    """An upper bound on ``||w||_2`` of an integer vector.

    The squares are summed in long double and rounded to float64; the
    factor covers those roundings and the square root's.
    """
    w = np.asarray(weights).astype(np.longdouble)
    u = float(np.finfo(np.float64).eps) / 2
    total = float(np.dot(w, w))
    return math.sqrt(total * (1 + (w.size + 3) * u))


_KERNELS: Dict[int, ExactNegacyclic] = {}


def get_exact_negacyclic(n: int) -> ExactNegacyclic:
    """The shared :class:`ExactNegacyclic` of ring dimension ``n``.

    Lock-free, so a forked cluster worker can never inherit a held lock:
    racing first calls may both build the (deterministic) kernel, and
    ``setdefault`` keeps one.
    """
    kernel = _KERNELS.get(n)
    if kernel is None:
        kernel = _KERNELS.setdefault(n, ExactNegacyclic(n))
    return kernel
