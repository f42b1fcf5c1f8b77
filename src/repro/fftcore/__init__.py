"""FFT substrate: reference DIT FFT, negacyclic pipelines, approximate FXP FFT."""

from repro.fftcore.approx_pipeline import (
    ApproxNegacyclic,
    ApproxSpectrum,
    quantize_weights_for_hardware,
    weight_spectrum_error,
)
from repro.fftcore.fixed_point import (
    ApproxFftConfig,
    FixedPointFft,
    FxpFormat,
    transform_error,
)
from repro.fftcore.negacyclic import (
    NegacyclicFft,
    negacyclic_multiply_folded,
    negacyclic_multiply_twisted,
    round_to_integers,
    twisted_forward,
    twisted_inverse,
)
from repro.fftcore.reference import (
    fft_dit,
    fft_multiplication_count,
    ifft_dit,
    stage_twiddles,
    twiddle_exponent,
)
from repro.fftcore.twiddle_quant import (
    QuantizedTwiddle,
    RomStats,
    TwiddleRom,
    csd_decompose,
    csd_decompose_batch,
    csd_value,
    get_twiddle_rom,
    shift_add_count,
)

__all__ = [
    "ApproxFftConfig",
    "ApproxNegacyclic",
    "ApproxSpectrum",
    "FixedPointFft",
    "FxpFormat",
    "NegacyclicFft",
    "QuantizedTwiddle",
    "RomStats",
    "TwiddleRom",
    "csd_decompose",
    "csd_decompose_batch",
    "csd_value",
    "fft_dit",
    "fft_multiplication_count",
    "get_twiddle_rom",
    "ifft_dit",
    "negacyclic_multiply_folded",
    "negacyclic_multiply_twisted",
    "quantize_weights_for_hardware",
    "round_to_integers",
    "shift_add_count",
    "stage_twiddles",
    "transform_error",
    "twiddle_exponent",
    "twisted_forward",
    "twisted_inverse",
    "weight_spectrum_error",
]
