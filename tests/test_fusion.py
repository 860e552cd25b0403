import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr.autodiff import ShapeError, Tensor
from podfcr.fusion import MMCF, MMRF, MWRU, SCRU


def copy_state(src, dst):
    dst.load_state_dict({k: v.copy() for k, v in src.state_dict().items()})


class TestMMCF:
    def test_zero_cross_weights_decouple_streams(self, rng):
        block = MMCF(rng, 3)
        for conv in block.cross_to_sar + block.cross_to_opt:
            conv.weight.data[...] = 0.0
            conv.bias.data[...] = 0.0
        plain = MMCF(np.random.default_rng(1), 3, cross=False)
        for a, b in zip(plain.opt_convs + plain.sar_convs,
                        block.opt_convs + block.sar_convs):
            copy_state(b, a)
        x_opt = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        x_sar = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        f_opt, f_sar, fused = block(x_opt, x_sar)
        g_opt, g_sar, g_fused = plain(x_opt, x_sar)
        assert np.max(np.abs(f_opt.data - g_opt.data)) <= 1e-12
        assert np.max(np.abs(f_sar.data - g_sar.data)) <= 1e-12
        assert np.max(np.abs(fused.data - g_fused.data)) <= 1e-12

    def test_mirrored_parameters_with_open_gates_are_symmetric(self, rng):
        block = MMCF(rng, 3)
        # force every optical gate wide open and mirror the stream parameters
        for gconv in block.opt_convs:
            gconv.gate.weight.data[...] = 0.0
            gconv.gate.bias.data[...] = 30.0
        for gconv, conv in zip(block.opt_convs, block.sar_convs):
            conv.weight.data = gconv.feat.weight.data.copy()
            conv.bias.data = gconv.feat.bias.data.copy()
        for to_opt, to_sar in zip(block.cross_to_opt, block.cross_to_sar):
            to_sar.weight.data = to_opt.weight.data.copy()
            to_sar.bias.data = to_opt.bias.data.copy()
        x = Tensor(rng.uniform(0, 1, (1, 3, 5, 5)))
        f_opt, f_sar, _ = block(x, x)
        assert np.max(np.abs(f_opt.data - f_sar.data)) <= 1e-9

    def test_gradient_reaches_both_modalities(self, rng):
        block = MMCF(rng, 4)
        x_opt = Tensor(rng.uniform(0, 1, (1, 4, 5, 5)), requires_grad=True)
        x_sar = Tensor(rng.uniform(0, 1, (1, 4, 5, 5)), requires_grad=True)
        _, _, fused = block(x_opt, x_sar)
        ad.tsum(ad.mul(fused, fused)).backward()
        assert x_opt.grad is not None and np.linalg.norm(x_opt.grad) > 0
        assert x_sar.grad is not None and np.linalg.norm(x_sar.grad) > 0

    def test_fused_output_doubles_channels(self, rng):
        block = MMCF(rng, 5)
        x = Tensor(rng.uniform(0, 1, (2, 5, 4, 4)))
        _, _, fused = block(x, x)
        assert fused.shape == (2, 10, 4, 4)

    def test_shape_mismatch_rejected(self, rng):
        block = MMCF(rng, 3)
        with pytest.raises(ShapeError, match="modality"):
            block(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 5, 5))))


class TestSCRU:
    def test_zero_input_zero_output(self, rng):
        block = SCRU(rng, 4)  # conv biases start at zero
        out = block(Tensor(np.zeros((1, 4, 3, 3))))
        assert np.max(np.abs(out.data)) == 0.0

    def test_identity_at_init(self, rng):
        block = SCRU(rng, 4)  # gammas start at zero
        x = Tensor(rng.uniform(0, 1, (1, 4, 4, 4)))
        assert np.array_equal(block(x).data, x.data)

    def test_single_pixel_spatial_branch_is_v_plus_input(self, rng):
        block = SCRU(rng, 6)
        for p in block.parameters():
            p.data = rng.normal(0, 0.5, p.data.shape)
        x = Tensor(rng.uniform(0, 1, (1, 6, 1, 1)))
        spatial = ad.add(block.spatial_attention(x), x)
        v = block.v_conv(x)
        assert np.max(np.abs(spatial.data - (v.data + x.data))) <= 1e-12

    def test_attention_rows_stochastic(self, rng):
        block = SCRU(rng, 8)
        for p in block.parameters():
            p.data = rng.normal(0, 0.5, p.data.shape)
        x = Tensor(rng.uniform(0, 1, (2, 8, 3, 3)))
        q = block.q_conv(x)
        k = block.k_conv(x)
        n, cq = q.shape[0], q.shape[1]
        qf = ad.transpose(ad.reshape(q, (n, cq, 9)), (0, 2, 1))
        kf = ad.reshape(k, (n, cq, 9))
        attn = ad.softmax(ad.matmul(qf, kf), axis=-1)
        assert np.max(np.abs(attn.data.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(attn.data >= 0.0)


class TestMWRU:
    def test_single_pixel_doubles_fusion(self, rng):
        block = MWRU(rng, 6)
        for p in block.parameters():
            p.data = rng.normal(0, 0.5, p.data.shape)
        f = Tensor(rng.uniform(0, 1, (1, 6, 1, 1)))
        out = block(f, f, f)
        assert np.max(np.abs(out.data - 2.0 * f.data)) <= 1e-12

    def test_output_shape_matches_fusion_input(self, rng):
        block = MWRU(rng, 8)
        a = Tensor(rng.uniform(0, 1, (2, 8, 4, 4)))
        out = block(a, a, a)
        assert out.shape == a.shape

    def test_shape_mismatch_rejected(self, rng):
        block = MWRU(rng, 4)
        with pytest.raises(ShapeError, match="branch shapes"):
            block(Tensor(np.zeros((1, 4, 2, 2))), Tensor(np.zeros((1, 4, 2, 2))),
                  Tensor(np.zeros((1, 4, 3, 3))))


class TestMMRF:
    def test_pipeline_shape(self, rng):
        block = MMRF(rng, 16)
        inputs = [Tensor(rng.uniform(0, 1, (1, 16, 4, 4))) for _ in range(3)]
        assert block(*inputs).shape == (1, 16, 4, 4)

    def test_gradient_reaches_all_three_inputs(self, rng):
        block = MMRF(rng, 4)
        for p in block.parameters():
            p.data = rng.normal(0, 0.3, p.data.shape)
        inputs = [Tensor(rng.uniform(0, 1, (1, 4, 3, 3)), requires_grad=True)
                  for _ in range(3)]
        out = block(*inputs)
        ad.tsum(ad.mul(out, out)).backward()
        for t in inputs:
            assert t.grad is not None and np.linalg.norm(t.grad) > 0
