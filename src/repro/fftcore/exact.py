"""Certified exact negacyclic products on the float64 folded FFT.

Klemsa's error-free negacyclic integer convolution, made a decision rather
than a hope: for a centered residue vector ``a`` (``|a_j| <= floor(p/2)``)
and a small integer weight ``w``, the folded-FFT product ``a * w`` lands
within 1/2 of the exact integer in every coefficient whenever the a-priori
bound :meth:`ExactNegacyclic.bound` is below 1/2; ``np.rint`` then returns
the exact product.  The bound depends only on ``n``, ``p``, ``||w||_2`` and
the peak of the weight's cached spectrum -- never on ``a`` -- so callers
decide FFT or NTT per (weight, prime) before running anything.

The analysis (docs/algorithms.md, "Exact products on the folded FFT"):

* Radix-2 FFT of length ``2**t`` with twiddles within ``mu`` of the exact
  roots (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
  Thm 24.2): ``||fl(Fx) - Fx||_2 <= rho ||Fx||_2`` with
  ``rho = t*eta / (1 - t*eta)``, ``eta = mu + gamma_4 (sqrt(2) + mu)``.
* One complex multiply: ``fl(xy) = xy (1 + d)``, ``|d| <= sqrt(2) gamma_2``
  (Higham Lemma 3.5); ``gamma_k = k u / (1 - k u)``.
* The fold/unfold twists and the pointwise product each add one complex
  multiply; division by ``n/2`` is exact.  Worst-case input
  ``||a||_2 = sqrt(n) floor(p/2)``.
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
spectra are only float64-accurate, the bounds grow accordingly and more
products fall back to the NTT -- never to a wrong answer.
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

    def bound(self, prime: int, norm: float, peak: Optional[float] = None):
        """A-priori worst ``|computed - exact|`` over every coefficient of
        ``a * w`` and every centered residue vector ``a`` mod ``prime``.

        Args:
            prime: the limb's modulus; ``||a||_2 <= sqrt(n) floor(p/2)``.
            norm: an upper bound on ``||w||_2``.
            peak: ``max_k |spectrum_k|`` of the cached spectrum; omitted,
                the smallest possible peak ``norm`` (Parseval) gives a lower
                bound, so a weight failing it needs no spectrum at all.
        """
        peak = norm if peak is None else peak
        # max_k |spectrum_k - W_k|: the long-double transform's error plus
        # the rounding to complex128.
        d = self._spectrum_rel * norm + self._u * peak / (1 - self._u)
        return self._bound(math.sqrt(self.n) * (prime // 2), peak, d)

    def float64_bound(
        self, norm: float, l1: int, activation_max: int, tiles: int = 1
    ) -> float:
        """A-priori worst ``|computed - exact|`` over every coefficient of
        ``sum_t a_t * w_t``: ``tiles`` products of weight spectra built in
        float64 by ``fft.forward_batch``, summed in the spectral domain
        before one inverse transform.

        Every exact spectrum value has ``|W_k| <= ||w||_1``, so no
        spectrum is needed: the computed peak is at most ``l1 + d``.

        Args:
            norm: an upper bound on every ``||w_t||_2``.
            l1: an upper bound on every ``||w_t||_1``.
            activation_max: an upper bound on every ``|a_t[j]|``, so
                ``||a_t||_2 <= sqrt(n) activation_max``.
            tiles: the number of products summed.
        """
        # The float64 transform's error, as the activation's below.
        d = self._spectrum_rel64 * norm
        a_norms = tiles * math.sqrt(self.n) * activation_max
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
    ) -> Tuple[Optional[np.ndarray], Tuple[float, ...]]:
        """A weight's spectrum and its certificate bound at each prime.

        ``build`` returns the spectrum (default :meth:`spectrum`; callers
        pass a cache lookup).  A weight that fails the lower bound at every
        prime is not transformed: ``(None, (inf, ...))``.
        """
        norm = weight_norm(weights)
        if self.bound(min(primes), norm) >= CERTIFIED_BELOW:
            return None, (math.inf,) * len(primes)
        spectrum = build() if build is not None else self.spectrum(weights)
        peak = float(np.max(np.abs(spectrum)))
        return spectrum, tuple(self.bound(p, norm, peak) for p in primes)


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
