import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import metrics
from podfcr.autodiff import ShapeError, Tensor
from podfcr.gradcheck import gradcheck
from podfcr.losses import (SSIM_C1, SSIM_C2, loss_global, loss_local, loss_ssim,
                           loss_total, ssim)


class TestLossGlobal:
    def test_zero_for_identical(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 4, 3, 3)))
        assert loss_global(x, x).item() == 0.0

    def test_hand_value(self):
        target = Tensor(np.ones((1, 4, 2, 2)))
        pred = Tensor(np.zeros((1, 4, 2, 2)))
        assert loss_global(pred, target).item() == 1.0

    def test_homogeneous(self, rng):
        target = Tensor(rng.uniform(0, 1, (1, 3, 4, 4)))
        err = Tensor(rng.normal(size=(1, 3, 4, 4)))
        one = loss_global(ad.add(target, err), target).item()
        two = loss_global(ad.add(target, ad.scale(err, 2.0)), target).item()
        assert abs(two - 2.0 * one) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_global(Tensor(np.zeros((1, 4, 2, 2))), Tensor(np.zeros((1, 4, 3, 3))))


class TestLossLocal:
    def test_zero_mask_means_zero_loss(self, rng):
        pred = Tensor(rng.uniform(0, 1, (1, 4, 4, 4)))
        target = Tensor(rng.uniform(0, 1, (1, 4, 4, 4)))
        mask = Tensor(np.zeros((1, 1, 4, 4)))
        assert loss_local(pred, target, mask).item() == 0.0

    def test_full_mask_equals_global(self, rng):
        pred = Tensor(rng.uniform(0, 1, (2, 4, 3, 3)))
        target = Tensor(rng.uniform(0, 1, (2, 4, 3, 3)))
        mask = Tensor(np.ones((2, 1, 3, 3)))
        assert abs(loss_local(pred, target, mask).item()
                   - loss_global(pred, target).item()) <= 1e-15

    def test_half_mask_halves_unit_error(self):
        target = Tensor(np.ones((1, 4, 2, 2)))
        pred = Tensor(np.zeros((1, 4, 2, 2)))
        mask = np.zeros((1, 1, 2, 2))
        mask[:, :, 0, :] = 1.0
        assert loss_local(pred, target, Tensor(mask)).item() == 0.5

    def test_local_not_above_global(self, rng):
        for _ in range(10):
            pred = Tensor(rng.uniform(0, 1, (1, 4, 5, 5)))
            target = Tensor(rng.uniform(0, 1, (1, 4, 5, 5)))
            mask = Tensor((rng.random((1, 1, 5, 5)) > 0.4).astype(float))
            assert loss_local(pred, target, mask).item() <= loss_global(pred, target).item() + 1e-15

    def test_nonbinary_mask_rejected(self, rng):
        with pytest.raises(ValueError, match="binary"):
            loss_local(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 2))),
                       Tensor(np.full((1, 1, 2, 2), 0.5)))


class TestSsim:
    def test_identical_images(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 4, 16, 16)))
        assert abs(ssim(x, x).item() - 1.0) <= 1e-9

    def test_zero_variance_closed_form(self):
        x = Tensor(np.zeros((1, 1, 16, 16)))
        y = Tensor(np.ones((1, 1, 16, 16)))
        expected = (SSIM_C1 * SSIM_C2) / ((1.0 + SSIM_C1) * SSIM_C2)
        assert abs(ssim(x, y).item() - expected) <= 1e-12

    def test_symmetric(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 3, 12, 12)))
        y = Tensor(rng.uniform(0, 1, (1, 3, 12, 12)))
        assert abs(ssim(x, y).item() - ssim(y, x).item()) <= 1e-12

    def test_bounded(self, rng):
        for _ in range(5):
            x = Tensor(rng.uniform(0, 1, (1, 2, 11, 11)))
            y = Tensor(rng.uniform(0, 1, (1, 2, 11, 11)))
            value = ssim(x, y).item()
            assert -1.0 <= value <= 1.0

    def test_window_shrinks_below_patch(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 2, 5, 5)))
        y = Tensor(rng.uniform(0, 1, (1, 2, 5, 5)))
        value = ssim(x, y).item()  # window shrinks from 11 to 5
        assert np.isfinite(value)


class TestLossTotal:
    def test_zero_for_identical(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        mask = Tensor(np.ones((1, 1, 8, 8)))
        assert loss_total(x, x, mask, 10.0, 1.0).item() == 0.0

    def test_zero_weights_reduce_to_global(self, rng):
        pred = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        target = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        mask = Tensor(np.ones((1, 1, 8, 8)))
        total = loss_total(pred, target, mask, lambda_local=0.0, lambda_ssim=0.0)
        assert abs(total.item() - loss_global(pred, target).item()) <= 1e-15

    def test_weighted_sum(self, rng):
        pred = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        target = Tensor(rng.uniform(0, 1, (1, 4, 8, 8)))
        mask = Tensor((rng.random((1, 1, 8, 8)) > 0.5).astype(float))
        total = loss_total(pred, target, mask, 10.0, 1.0).item()
        parts = (loss_global(pred, target).item()
                 + 10.0 * loss_local(pred, target, mask).item()
                 + loss_ssim(pred, target).item())
        assert abs(total - parts) <= 1e-12

    def test_gradient_vs_finite_differences(self, rng):
        pred = Tensor(rng.uniform(0.1, 0.9, (1, 3, 6, 6)), requires_grad=True)
        target = Tensor(rng.uniform(0.1, 0.9, (1, 3, 6, 6)))
        mask = Tensor((rng.random((1, 1, 6, 6)) > 0.5).astype(float))
        err = gradcheck(lambda: loss_total(pred, target, mask, 10.0, 1.0), [pred])
        assert err <= 1e-4


class TestMetrics:
    def test_identical_images(self, rng):
        x = rng.uniform(0, 1, (4, 8, 8))
        assert metrics.psnr(x, x) == float("inf")
        assert metrics.aggregate([metrics.evaluate_pair(x, x)])["psnr"] == 100.0
        assert abs(metrics.cc(x, x) - 1.0) <= 1e-12
        assert metrics.sam(x, x) <= 1e-9

    def test_psnr_analytic(self):
        target = np.ones((4, 8, 8))
        pred = np.full((4, 8, 8), 0.5)
        assert abs(metrics.psnr(pred, target) - 6.0206) <= 0.001

    def test_cc_shift_invariance(self, rng):
        x = rng.uniform(0, 1, (4, 6, 6))
        assert abs(metrics.cc(x + 0.1, x) - 1.0) <= 1e-9

    def test_sam_scale_invariance(self, rng):
        x = rng.uniform(0.1, 1.0, (4, 6, 6))
        assert metrics.sam(2.0 * x, x) <= 1e-9
        assert metrics.sam(x, 2.0 * x) <= 1e-9

    def test_sam_degrees_for_orthogonal_spectra(self):
        a = np.zeros((2, 1, 1))
        b = np.zeros((2, 1, 1))
        a[0] = 1.0
        b[1] = 1.0
        assert abs(metrics.sam(a, b) - 90.0) <= 1e-9

    def test_sam_of_a_nan_spectrum_is_nan_and_of_a_zero_spectrum_zero(self, rng):
        x = rng.uniform(0.1, 1.0, (4, 6, 6))
        y = x.copy()
        y[:, 2, 3] = 0.0
        assert metrics.sam(x, y) == 0.0  # the zero spectrum adds a zero angle
        y[1, 2, 3] = np.nan
        assert np.isnan(metrics.sam(x, y))
        assert np.isnan(metrics.sam(y, x))

    def test_cc_affine_invariance(self, rng):
        x = rng.uniform(0, 1, (4, 5, 5))
        assert abs(metrics.cc(3.0 * x + 0.2, x) - 1.0) <= 1e-9
        assert abs(metrics.cc(-2.0 * x + 1.0, x) + 1.0) <= 1e-9

    def test_aggregate_empty(self):
        agg = metrics.aggregate([])
        assert agg["count"] == 0 and np.isnan(agg["psnr"])
