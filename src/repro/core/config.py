"""Top-level FLASH configuration: HE parameters + datapath settings."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.fftcore.fixed_point import ApproxFftConfig
from repro.he.backend import (
    FftPolyMulBackend,
    NttPolyMulBackend,
    SparseFftPolyMulBackend,
)
from repro.he.params import BfvParameters, cheetah_preset
from repro.hw.accelerator import FlashDesign
from repro.hw.calibration import FLASH_DEFAULT_DW, FLASH_DEFAULT_K


@dataclass
class FlashConfig:
    """One coherent FLASH deployment configuration.

    Bundles the HE parameter set, the approximate-FFT datapath settings
    (per-stage widths + twiddle quantization, typically a DSE result), and
    the accelerator architecture parameters.

    Args:
        params: BFV parameters (ring degree, plaintext / ciphertext moduli).
        data_width: uniform datapath width when ``stage_widths`` is unset.
        twiddle_k: twiddle quantization level.
        stage_widths: optional per-stage widths from the DSE.
        design: accelerator architecture parameters; regenerated from the
            datapath settings when omitted.
    """

    params: BfvParameters = field(default_factory=cheetah_preset)
    data_width: int = FLASH_DEFAULT_DW
    twiddle_k: int = FLASH_DEFAULT_K
    twiddle_max_shift: int = 16
    stage_widths: Optional[List[int]] = None
    design: Optional[FlashDesign] = None

    def __post_init__(self):
        if self.design is None:
            self.design = FlashDesign(
                n=self.params.n,
                data_width=self.data_width,
                twiddle_k=self.twiddle_k,
                stage_widths=self.stage_widths,
            )

    @property
    def n(self) -> int:
        return self.params.n

    def weight_fft_config(self) -> ApproxFftConfig:
        """Fixed-point configuration of the weight-transform path."""
        widths = (
            self.stage_widths if self.stage_widths is not None else self.data_width
        )
        return ApproxFftConfig(
            n=self.n // 2,
            stage_widths=widths,
            twiddle_k=self.twiddle_k,
            twiddle_max_shift=self.twiddle_max_shift,
        )

    def batched_flash_backend(
        self, max_workers: Optional[int] = None, cluster=None
    ) -> FftPolyMulBackend:
        """The approximate polynomial-multiplication backend."""
        return FftPolyMulBackend(
            weight_config=self.weight_fft_config(),
            max_workers=max_workers,
            cluster=cluster,
        )

    def batched_exact_backend(
        self, max_workers: Optional[int] = None, cluster=None
    ) -> NttPolyMulBackend:
        """The exact backend: certified folded FFT, NTT fallback."""
        return NttPolyMulBackend(max_workers=max_workers, cluster=cluster)

    def batched_sparse_backend(
        self, max_workers: Optional[int] = None, cluster=None
    ) -> SparseFftPolyMulBackend:
        """Approximate backend running compiled sparse weight plans.

        Each weight's structural pattern is inferred from its support.
        """
        return SparseFftPolyMulBackend(
            weight_config=self.weight_fft_config(),
            max_workers=max_workers,
            cluster=cluster,
        )

    def describe(self) -> str:
        widths = self.stage_widths or [self.data_width]
        return (
            f"FlashConfig({self.params.describe()}, "
            f"dw={min(widths)}..{max(widths)}, k={self.twiddle_k}, "
            f"{self.design.approx_pes}x{self.design.bus_per_pe} approx BUs)"
        )
