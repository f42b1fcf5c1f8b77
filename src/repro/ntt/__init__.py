"""Exact modular-arithmetic substrate: mulmod kernels, negacyclic NTT, RNS."""

from repro.ntt.modmath import (
    MAX_MODULUS_BITS,
    ModulusError,
    addmod,
    bit_reverse,
    bit_reverse_indices,
    centered,
    find_ntt_primes,
    from_centered,
    invmod,
    is_prime,
    mulmod,
    negmod,
    powmod,
    primitive_root,
    root_of_unity,
    submod,
)
from repro.ntt.ntt import (
    NegacyclicNtt,
    get_ntt,
    negacyclic_convolution_naive,
)
from repro.ntt.rns import RnsBasis

__all__ = [
    "MAX_MODULUS_BITS",
    "ModulusError",
    "NegacyclicNtt",
    "RnsBasis",
    "addmod",
    "bit_reverse",
    "bit_reverse_indices",
    "centered",
    "find_ntt_primes",
    "from_centered",
    "get_ntt",
    "invmod",
    "is_prime",
    "mulmod",
    "negacyclic_convolution_naive",
    "negmod",
    "powmod",
    "primitive_root",
    "root_of_unity",
    "submod",
]
