import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import nn
from podfcr.autodiff import ShapeError, Tensor
from podfcr.nn import delta_kernel, scdf_apply

from conftest import naive_scdf_apply


def zero_params(module):
    for p in module.parameters():
        p.data[...] = 0.0


class TestGatedConv:
    def test_closed_gate_kills_output(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        wf = Tensor(rng.normal(size=(4, 3, 3, 3)))
        wg = Tensor(np.zeros((4, 3, 3, 3)))
        bf = Tensor(rng.normal(size=4))
        bg = Tensor(np.full(4, -30.0))
        out = nn.gated_conv(x, wf, wg, bf, bg)
        assert np.max(np.abs(out.data)) <= 1e-10

    def test_open_gate_is_plain_activated_conv(self, rng):
        x = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)))
        wf = Tensor(rng.normal(size=(4, 3, 3, 3)))
        wg = Tensor(np.zeros((4, 3, 3, 3)))
        bf = Tensor(rng.normal(size=4))
        bg = Tensor(np.full(4, 30.0))
        out = nn.gated_conv(x, wf, wg, bf, bg)
        plain = nn.act(ad.conv2d(x, wf, bf, padding=1))
        assert np.max(np.abs(out.data - plain.data)) <= 1e-9


class TestGatedResidualBlock:
    def test_zero_branch_is_identity(self, rng):
        block = nn.GatedResidualBlock(rng, 4)
        zero_params(block)
        x = Tensor(rng.normal(size=(1, 4, 6, 6)))
        out = block(x)
        assert np.array_equal(out.data, x.data)

    def test_shape_preserved(self, rng):
        block = nn.GatedResidualBlock(rng, 64)
        x = Tensor(rng.uniform(0, 1, (1, 64, 16, 16)))
        assert block(x).shape == (1, 64, 16, 16)

    def test_residual_scale_is_tenth(self, rng):
        block = nn.GatedResidualBlock(rng, 3)
        x = Tensor(rng.uniform(0, 1, (1, 3, 5, 5)))
        out = block(x)
        branch = block.convs[2](nn.act(block.convs[1](nn.act(block.convs[0](x)))))
        assert np.max(np.abs(out.data - x.data - 0.1 * branch.data)) <= 1e-12


class TestFilterNormalize:
    def test_standardizes(self):
        raw = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3))
        out = ad.filter_normalize(raw, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        assert abs(out.data.mean()) <= 1e-12
        assert abs(out.data.std() - 1.0) <= 1e-6

    def test_constant_kernel_collapses_to_beta(self):
        raw = Tensor(np.full((1, 3, 3), 7.0))
        out = ad.filter_normalize(raw, Tensor(np.ones(1)), Tensor(np.full(1, 0.25)))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_affine_rescale(self, rng):
        raw = Tensor(rng.normal(size=(2, 3, 3)))
        base = ad.filter_normalize(raw, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        scaled = ad.filter_normalize(raw, Tensor(np.full(1, 2.0)), Tensor(np.ones(1)))
        assert np.max(np.abs(scaled.data - (2.0 * base.data + 1.0))) <= 1e-12

    def test_per_kernel_statistics(self, rng):
        fn = nn.FilterNorm(channels=5)
        fn.alpha.data[...] = 1.0  # the scale starts at zero
        raw = Tensor(rng.normal(0, 3, (2, 5, 3, 3)))
        out = fn(raw)
        means = out.data.mean(axis=(-2, -1))
        stds = out.data.std(axis=(-2, -1))
        assert np.max(np.abs(means)) <= 1e-10
        assert np.max(np.abs(stds - 1.0)) <= 1e-4


class TestScdf:
    def test_delta_filters_are_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        delta = delta_kernel(3)
        spatial = Tensor(np.broadcast_to(delta[None, None, :, :, None, None],
                                         (2, 1, 3, 3, 5, 5)).copy())
        channel = Tensor(np.broadcast_to(delta, (3, 3, 3)).copy())
        out = scdf_apply(x, spatial, channel)
        assert np.array_equal(out.data, x.data)

    def test_center_pick_oracle(self, rng):
        # all-ones spatial kernels with a scaled delta channel kernel select
        # the center tap: elementwise kernel product per the operator formula
        x = rng.normal(size=(1, 2, 6, 6))
        spatial = Tensor(np.ones((1, 1, 3, 3, 6, 6)))
        channel = Tensor(np.stack([delta_kernel(3) * 2.0, delta_kernel(3) * 0.5]))
        out = scdf_apply(Tensor(x), spatial, channel)
        ref = x * np.array([2.0, 0.5])[None, :, None, None]
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_box_filter_oracle(self, rng):
        # all-ones spatial kernels with constant-c channel kernels sum the
        # 3x3 neighborhood scaled by c
        x = rng.normal(size=(1, 2, 6, 6))
        spatial = Tensor(np.ones((1, 1, 3, 3, 6, 6)))
        channel = Tensor(np.stack([np.full((3, 3), 2.0), np.full((3, 3), 0.5)]))
        out = scdf_apply(Tensor(x), spatial, channel)
        xp = np.zeros((1, 2, 8, 8))
        xp[:, :, 1:7, 1:7] = x
        box = np.zeros_like(x)
        for i in range(6):
            for j in range(6):
                box[:, :, i, j] = xp[:, :, i:i + 3, j:j + 3].sum(axis=(2, 3))
        assert np.max(np.abs(out.data - box * np.array([2.0, 0.5])[None, :, None, None])) <= 1e-12

    def test_matches_naive_loop(self, rng):
        for _ in range(20):
            x = rng.normal(size=(2, 3, 4, 4))
            spatial = rng.normal(size=(2, 1, 3, 3, 4, 4))
            channel = rng.normal(size=(2, 3, 3, 3))
            out = scdf_apply(Tensor(x), Tensor(spatial), Tensor(channel))
            assert np.max(np.abs(out.data - naive_scdf_apply(x, spatial, channel))) <= 1e-12

    def test_bank_shape_mismatch_rejected(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        with pytest.raises(ShapeError, match="spatial"):
            scdf_apply(x, Tensor(np.zeros((1, 1, 3, 3, 5, 5))), Tensor(np.zeros((3, 3, 3))))
        with pytest.raises(ShapeError, match="channel"):
            scdf_apply(x, Tensor(np.zeros((1, 1, 3, 3, 4, 4))), Tensor(np.zeros((2, 3, 3))))

    def test_predict_shapes(self, rng):
        block = nn.SCDF(rng, 8)
        x = Tensor(rng.uniform(0, 1, (2, 8, 6, 6)))
        spatial, channel = block.predict(x)
        assert spatial.shape == (2, 1, 3, 3, 6, 6)
        assert channel.shape[-3:] == (8, 3, 3)

    def test_constant_input_gives_uniform_spatial_kernels(self, rng):
        block = nn.SCDF(rng, 4)
        for p in block.parameters():
            p.data = rng.normal(0, 0.3, p.data.shape)
        x = Tensor(np.full((1, 4, 5, 5), 0.7))
        spatial, _ = block.predict(x)
        per_pixel = spatial.data.reshape(1, 1, 9, 25)
        assert np.max(np.abs(per_pixel - per_pixel[:, :, :, :1])) <= 1e-12

    def test_identity_at_default_init(self, rng):
        # zero affine scale in the normalization leaves exactly the added
        # delta kernels, so a fresh block is the identity map
        block = nn.SCDF(rng, 4)
        x = Tensor(rng.uniform(0, 1, (1, 4, 6, 6)))
        assert np.array_equal(block(x).data, x.data)


class TestDynamicFilterResidualBlock:
    def test_zero_branch_is_identity(self, rng):
        block = nn.DynamicFilterResidualBlock(rng, 4)
        for p in (p for conv in block.convs for p in conv.parameters()):
            p.data[...] = 0.0
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        assert np.array_equal(block(x).data, x.data)

    def test_shape_preserved(self, rng):
        block = nn.DynamicFilterResidualBlock(rng, 64)
        x = Tensor(rng.uniform(0, 1, (1, 64, 16, 16)))
        assert block(x).shape == (1, 64, 16, 16)

    def test_no_scdf_variant_runs(self, rng):
        block = nn.DynamicFilterResidualBlock(rng, 4, use_scdf=False)
        x = Tensor(rng.uniform(0, 1, (1, 4, 6, 6)))
        assert block(x).shape == x.shape
        assert not any("filters" in name for name, _ in block.named_parameters())


class TestResampling:
    def test_down_doubles_channels_halves_extent(self, rng):
        down = nn.Downsample(rng, 64)
        x = Tensor(rng.uniform(0, 1, (1, 64, 32, 32)))
        assert down(x, training=True).shape == (1, 128, 16, 16)

    def test_up_halves_channels_doubles_extent(self, rng):
        up = nn.Upsample(rng, 256)
        x = Tensor(rng.uniform(0, 1, (1, 256, 8, 8)))
        assert up(x, training=True).shape == (1, 128, 16, 16)

    def test_round_trip_shape(self, rng):
        down = nn.Downsample(rng, 8)
        up = nn.Upsample(rng, 16)
        x = Tensor(rng.uniform(0, 1, (2, 8, 16, 16)))
        assert up(down(x, True), True).shape == x.shape

    def test_odd_extent_rejected(self, rng):
        down = nn.Downsample(rng, 4)
        with pytest.raises(ShapeError, match="even"):
            down(Tensor(np.zeros((1, 4, 7, 8))), training=True)


class TestAspp:
    def test_full_scale_shape_contract(self, rng):
        block = nn.ASPP(rng, 256, rates=(6, 12, 18))
        x = Tensor(rng.uniform(0, 1, (1, 256, 64, 64)))
        assert block(x).shape == (1, 256, 64, 64)

    def test_constant_input_gives_constant_output(self, rng):
        block = nn.ASPP(rng, 3, rates=(2, 4, 6))
        x = Tensor(np.full((1, 3, 16, 16), 0.4))
        out = block(x)
        center = out.data[:, :, 8, 8]
        # interior pixels (away from zero padding) see identical receptive fields
        assert np.max(np.abs(out.data[:, :, 7:10, 7:10] - center[:, :, None, None])) <= 1e-12

    def test_tiny_input_rejected(self, rng):
        block = nn.ASPP(rng, 2, rates=(2, 4, 6))
        with pytest.raises(ShapeError, match="at least 2"):
            block(Tensor(np.zeros((1, 2, 1, 1))))


class TestModuleSystem:
    def test_named_parameters_are_stable(self, rng):
        block = nn.DynamicFilterResidualBlock(rng, 4)
        names = [name for name, _ in block.named_parameters()]
        assert names == [name for name, _ in block.named_parameters()]
        assert "convs.0.weight" in names
        assert "filters.0.fn_channel.alpha" in names

    def test_state_dict_round_trip(self, rng):
        block = nn.Downsample(rng, 4)
        state = {k: v.copy() for k, v in block.state_dict().items()}
        other = nn.Downsample(np.random.default_rng(99), 4)
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(block.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(block.bn.running_mean, other.bn.running_mean)

    def test_load_state_dict_rejects_missing_and_extra_keys(self, rng):
        block = nn.Downsample(rng, 4)
        state = {k: v.copy() for k, v in block.state_dict().items()}
        with pytest.raises(nn.StateDictError, match="1 unexpected"):
            block.load_state_dict(state | {"extra.weight": np.zeros(1)})
        del state["bn.running_var"]
        with pytest.raises(nn.StateDictError, match="1 missing"):
            block.load_state_dict(state)
