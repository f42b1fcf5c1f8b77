"""Which FFT paths tolerate approximation, measured through real BFV.

FLASH runs only the *weight* transforms on approximate fixed-point units
and keeps activation transforms, point-wise products and inverse
transforms in floating point (Section V-B).  These tests measure the
per-path error sensitivity through actual encrypt-multiply-decrypt runs
and record the finding:

* at equal bit-width all three paths produce *comparable* message-domain
  errors (each path's quantization is relative to its local dynamic
  range, which divides back out at decryption); the weight path is in
  fact slightly the most sensitive because its spectrum error is
  amplified by the convolution;
* the architectural reason to approximate only weights is therefore
  workload share, not error physics: weight transforms are >95% of all
  transforms (see the workload model), so approximating them captures
  nearly all the energy while the few FP paths stay exact.
"""

from unittest import mock

import numpy as np
import pytest

import repro.he.backend as he_backend
from repro.fftcore import ApproxFftConfig, ApproxNegacyclic
from repro.he import BfvContext, FftPolyMulBackend, toy_preset
from repro.ntt import negacyclic_convolution_naive


@pytest.fixture(scope="module")
def bfv():
    params = toy_preset(n=64, share_bits=14)
    ctx = BfvContext(params)
    rng = np.random.default_rng(3)
    sk, pk = ctx.keygen(rng)
    m = rng.integers(0, 1 << 8, size=64)
    w = np.zeros(64, dtype=np.int64)
    w[:9] = rng.integers(-8, 8, size=9)
    ct = ctx.encrypt(pk, m, rng)
    expected = negacyclic_convolution_naive(m, w, modulus=params.t).astype(
        np.int64
    )
    return params, ctx, sk, ct, w, expected


def _decrypt_error(bfv, **pipe_kwargs):
    """Worst decrypted-message error with per-path FXP configurations."""
    params, ctx, sk, ct, w, expected = bfv

    pipe = ApproxNegacyclic(params.n, **pipe_kwargs)
    with mock.patch.object(he_backend, "fft_pipeline", lambda *_: pipe):
        prod = ctx.multiply_plain(ct, w, FftPolyMulBackend())
    out = ctx.decrypt(sk, prod).astype(np.int64)
    diff = np.abs(out - expected)
    t = params.t
    return int(np.minimum(diff, t - diff).max())


def _cfg(dw):
    return ApproxFftConfig(n=32, stage_widths=dw, twiddle_k=0)


class TestPerPathSensitivity:
    def test_all_paths_exact_at_27_bits(self, bfv):
        # Figure 5(b)'s operating point holds for every path.
        assert _decrypt_error(bfv, weight_config=_cfg(27)) == 0
        assert _decrypt_error(bfv, activation_config=_cfg(27)) == 0
        assert _decrypt_error(bfv, inverse_config=_cfg(27)) == 0

    @pytest.mark.parametrize(
        "path", ["weight_config", "activation_config", "inverse_config"]
    )
    def test_error_monotone_in_width(self, bfv, path):
        errs = [_decrypt_error(bfv, **{path: _cfg(dw)}) for dw in (24, 16, 12)]
        assert errs[0] <= errs[1] <= errs[2]
        assert errs[2] > 0

    def test_weight_path_is_most_sensitive(self, bfv):
        # The convolution amplifies weight-spectrum errors by ~||w||-ish
        # factors; the other paths inject their error once.
        dw = 14
        w_err = _decrypt_error(bfv, weight_config=_cfg(dw))
        a_err = _decrypt_error(bfv, activation_config=_cfg(dw))
        i_err = _decrypt_error(bfv, inverse_config=_cfg(dw))
        assert w_err >= a_err
        assert w_err >= i_err

    def test_sensitivities_are_same_order(self, bfv):
        # No path is categorically safer: all land within ~30x of each
        # other at equal width -- the reason the paper's choice is about
        # workload counts, not differential robustness.
        dw = 16
        errs = [
            _decrypt_error(bfv, weight_config=_cfg(dw)),
            _decrypt_error(bfv, activation_config=_cfg(dw)),
            _decrypt_error(bfv, inverse_config=_cfg(dw)),
        ]
        assert max(errs) <= 30 * max(min(errs), 1)

    def test_config_dimensions_validated(self):
        with pytest.raises(ValueError):
            ApproxNegacyclic(
                64, activation_config=ApproxFftConfig(n=64, stage_widths=20)
            )
        with pytest.raises(ValueError):
            ApproxNegacyclic(
                64, inverse_config=ApproxFftConfig(n=16, stage_widths=20)
            )


class TestWorkloadShareArgument:
    def test_weight_transforms_dominate_counts(self):
        # The actual reason approximate-weights-only wins: they are >95%
        # of all transforms for ResNet-50 HConvs.
        from repro.hw import aggregate, network_workload

        total = aggregate(network_workload("resnet50", 4096))
        share = total.weight_transforms / total.total_transforms
        assert share > 0.95

    def test_combined_pipeline_error_additive(self, bfv):
        # Approximating everything at once compounds errors roughly
        # additively -- strictly worse than the weight-only architecture.
        dw = 16
        w_only = _decrypt_error(bfv, weight_config=_cfg(dw))
        all_three = _decrypt_error(
            bfv,
            weight_config=_cfg(dw),
            activation_config=_cfg(dw),
            inverse_config=_cfg(dw),
        )
        assert all_three >= w_only
