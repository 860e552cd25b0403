import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import nn
from podfcr.autodiff import Tensor
from podfcr.experiments import INPUT_VARIANTS, MODULE_VARIANTS
from podfcr.model import CloudRemovalNet, ModelConfig
from podfcr.synthetic import make_sample
from podfcr.training import make_batch

DESK = dict(base_channels=4, patch=16)
# the variants the ablation runner trains (its pfsar row reuses "full")
VARIANTS = [(name, overrides) for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS
            if overrides is not None]


# sha256 over each seeded state dict's names, shapes and bytes, in order
STATE_DIGESTS = {
    "full": "2009098842e6d04db0638a00a2b3c8476a06b44d69018521263b05967dba3410",
    "no_scdf": "11f50b1d1b00210009978b356487cc344f31c17d0e51e3e3d3e065fd6f0d1455",
    "no_gc": "93856617ec01c3956279d5005d8af5639698e30bfb3cdfa9d415419daebb4e2f",
    "no_mmcf": "270828aae857d4ae01b9318f9da3d398916ba80a4113ac01a9b5fc63d52c29a1",
    "no_mmrf": "ca0780c5335c96da36e68ba889acf1884debad446fd8c8fc9592cd50a63fbcbf",
    "no_aspp": "50026f5f8ba1f33b30c2367d1e55fbd450e0a9b73de6749a3eae024282912e68",
    "input_none": "93dc2235649cc5b659eaefee15b9da0dc453fec0f50e345fc1443da39c2c417f",
    "input_both": "9ca64858e10e58b7e2f38e8920e8a3029e9f4142993b9bd6bb2525f3aa35f9a7",
    "input_bcfsar": "9b879423bd649914ee8b9f9cb3b6100bafa068204ebd5665d8efd3ca33bd34d8",
}


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

    @pytest.mark.parametrize("name,overrides", VARIANTS, ids=[name for name, _ in VARIANTS])
    def test_seeded_state_dict_is_pinned(self, name, overrides):
        # checkpoint names, shapes and the order of the initial draws: a
        # refactor that renames, reorders or redraws a tensor changes the digest
        digest = hashlib.sha256()
        for key, value in desk_net(seed=0, **overrides).state_dict().items():
            digest.update(key.encode())
            digest.update(repr(value.shape).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        assert digest.hexdigest() == STATE_DIGESTS[name]


def load_spans():
    """perfbench's tracer, loaded from its file (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_hooks_install_and_see_every_block(rng):
    """The benchmark's tracer wraps named functions and each block class's own
    ``__call__``; a refactor that removes one fails here, not in a bench run."""
    import podfcr.evaluation  # noqa: F401  the tracer wraps functions of both
    import podfcr.training  # noqa: F401

    spans = load_spans()
    originals = (ad.conv2d, nn.SCDF.__call__, CloudRemovalNet.forward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        net = desk_net()
        cloudy, sar = desk_inputs(rng, net.config)
        net.forward(cloudy, sar, training=True)
    finally:
        tracer.uninstall()
    assert {f"{mod}.{cls}" for mod, cls in spans.BLOCKS} <= set(tracer.names)
    assert (ad.conv2d, nn.SCDF.__call__, CloudRemovalNet.forward) == originals
