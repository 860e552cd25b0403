import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr.autodiff import Tensor
from podfcr.experiments import INPUT_VARIANTS, MODULE_VARIANTS
from podfcr.model import CloudRemovalNet, ModelConfig
from podfcr.synthetic import make_sample
from podfcr.training import make_batch

DESK = dict(base_channels=4, patch=16)
# the variants the ablation runner trains (its pfsar row reuses "full")
VARIANTS = [(name, overrides) for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS
            if overrides is not None]


def variant_params(variants):
    return pytest.mark.parametrize("overrides", [o for _, o in variants],
                                   ids=[name for name, _ in variants])


def desk_net(seed=0, **overrides):
    cfg = ModelConfig(**{**DESK, **overrides})
    return CloudRemovalNet(cfg, seed=seed)


def desk_inputs(rng, cfg):
    cloudy = Tensor(rng.uniform(0, 1, (1, 4, cfg.patch, cfg.patch)))
    sar = Tensor(rng.uniform(0, 1, (1, cfg.radar_channels, cfg.patch, cfg.patch)))
    return cloudy, sar


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = desk_net(seed=5)
        b = desk_net(seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = desk_net(seed=1)
        b = desk_net(seed=2)
        assert not np.array_equal(a.opt_stem.weight.data, b.opt_stem.weight.data)

    def test_param_count_positive_and_stable(self):
        assert desk_net().parameter_count() == desk_net().parameter_count() > 0

    def test_full_scale_param_count_logged(self, capsys):
        cfg = ModelConfig(base_channels=64, patch=256, sar_input="pfsar")
        net = CloudRemovalNet(cfg, seed=0)
        count = net.parameter_count()
        print(f"full-scale configuration: {count / 1e6:.2f} M parameters")
        assert count > 10_000_000  # tens of millions, no exact-match assertion

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="patch"):
            ModelConfig(base_channels=8, patch=10)
        with pytest.raises(ValueError, match="base_channels"):
            ModelConfig(base_channels=0, patch=16)

    def test_channel_schedule_doubles(self):
        cfg = ModelConfig(base_channels=64, patch=256)
        assert cfg.channel_schedule == (64, 128, 256)

    def test_aspp_rates_clip_on_small_patches(self):
        assert ModelConfig(base_channels=8, patch=32).aspp_rates == (2, 4, 6)
        assert ModelConfig(base_channels=8, patch=256).aspp_rates == (6, 12, 18)


class TestForward:
    def test_output_shape_matches_cloudy(self, rng):
        net = desk_net()
        cloudy, sar = desk_inputs(rng, net.config)
        out = net.forward(cloudy, sar, training=False)
        assert out.shape == cloudy.shape

    def test_zero_final_conv_is_long_skip_identity(self, rng):
        net = desk_net()
        net.out_conv.weight.data[...] = 0.0
        net.out_conv.bias.data[...] = 0.0
        cloudy, sar = desk_inputs(rng, net.config)
        out = net.forward(cloudy, sar, training=False)
        assert np.array_equal(out.data, cloudy.data)

    def test_eval_forward_deterministic(self, rng):
        net = desk_net()
        cloudy, sar = desk_inputs(rng, net.config)
        with ad.no_grad():
            a = net.forward(cloudy, sar, training=False)
            b = net.forward(cloudy, sar, training=False)
        assert np.array_equal(a.data, b.data)

    @variant_params(VARIANTS)
    def test_gradients_reach_every_parameter(self, rng, overrides):
        # generic parameter point: the zero-initialized gates (SCDF fc2,
        # SCRU gammas) legitimately block gradients only at exact zero
        net = desk_net(**overrides)
        for p in net.parameters():
            p.data = rng.normal(0.0, 0.2, p.data.shape)
        cloudy, sar = desk_inputs(rng, net.config)
        pred = net.forward(cloudy, sar if net.config.radar_channels else None, training=True)
        ad.tsum(ad.mul(pred, pred)).backward()
        dead = [name for name, p in net.named_parameters()
                if p.grad is None or not np.any(p.grad)]
        assert dead == []

    def test_gated_paths_come_alive_after_steps(self, rng):
        from podfcr.optim import Adam

        net = desk_net()
        optimizer = Adam(list(net.named_parameters()), lr=1e-3, beta1=0.5, beta2=0.999)
        cloudy, sar = desk_inputs(rng, net.config)
        # three steps: the filter-norm scale wakes first, then the kernel
        # predictors behind it, then their bottleneck layer
        for _ in range(3):
            pred = net.forward(cloudy, sar, training=True)
            optimizer.zero_grad()
            ad.tsum(ad.mul(pred, pred)).backward()
            optimizer.step()
        pred = net.forward(cloudy, sar, training=True)
        net.zero_grad()
        ad.tsum(ad.mul(pred, pred)).backward()
        dead = [name for name, p in net.named_parameters()
                if p.grad is None or not np.any(p.grad)]
        assert dead == []

    def test_spot_finite_difference_on_parameters(self, rng):
        net = desk_net()
        sample = make_sample(0, 0, net.config.patch)
        cloudy, clean, mask, sar = make_batch([sample], "pfsar")
        target_weights = Tensor(np.random.default_rng(3).normal(size=cloudy.shape))

        def loss_value():
            pred = net.forward(cloudy, sar, training=True)
            return ad.tsum(ad.mul(pred, target_weights))

        loss = loss_value()
        net.zero_grad()
        loss.backward()
        params = list(net.named_parameters())
        picker = np.random.default_rng(7)
        h = 1e-5
        for idx in picker.choice(len(params), size=3, replace=False):
            name, p = params[int(idx)]
            flat_idx = int(picker.integers(p.data.size))
            analytic = p.grad.reshape(-1)[flat_idx]
            orig = p.data.reshape(-1)[flat_idx]
            with ad.no_grad():
                p.data.reshape(-1)[flat_idx] = orig + h
                plus = loss_value().item()
                p.data.reshape(-1)[flat_idx] = orig - h
                minus = loss_value().item()
                p.data.reshape(-1)[flat_idx] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-3, name

    def test_range_violation_rejected(self, rng):
        net = desk_net()
        cloudy, sar = desk_inputs(rng, net.config)
        bad = Tensor(cloudy.data + 3.0)
        with pytest.raises(ValueError, match="normalized"):
            net.forward(bad, sar)

    def test_shape_violation_rejected(self, rng):
        net = desk_net()
        cloudy, sar = desk_inputs(rng, net.config)
        with pytest.raises(ad.ShapeError, match="radar"):
            net.forward(cloudy, Tensor(sar.data[:, :3]))


class TestAblations:
    @variant_params(VARIANTS)
    def test_each_variant_preserves_shape(self, rng, overrides):
        net = desk_net(**overrides)
        cloudy, sar = desk_inputs(rng, net.config)
        out = net.forward(cloudy, sar if net.config.radar_channels else None, training=False)
        assert out.shape == cloudy.shape

    def test_sar_input_none_ignores_radar(self, rng):
        net = desk_net(sar_input="none")
        cloudy, _ = desk_inputs(rng, net.config)
        sar = Tensor(rng.uniform(0, 1, (1, 9, 16, 16)), requires_grad=True)
        pred = net.forward(cloudy, sar, training=True)
        ad.tsum(ad.mul(pred, pred)).backward()
        assert sar.grad is None
        other = net.forward(cloudy, None, training=False)
        assert other.shape == cloudy.shape

    def test_variant_parameter_trees_differ(self):
        full = desk_net()
        names_full = {name for name, _ in full.named_parameters()}
        assert any("mmrf" in n for n in names_full)
        assert any("gate" in n for n in names_full)
        no_gc = desk_net(ablation="no_gc")
        assert not any("gate" in n for n, _ in no_gc.named_parameters())
        no_mmrf = desk_net(ablation="no_mmrf")
        assert not any("mmrf" in n for n, _ in no_mmrf.named_parameters())
        assert any("refine_concat" in n for n, _ in no_mmrf.named_parameters())
