"""Fused tape ops against the op chains they replace (``conftest.chain_*``).

Each fused op records one node whose VJP replays its chain's VJPs in the
chain's order, so outputs, gradients and whole training steps must match the
chain bit for bit, not merely within a tolerance. The same holds for the conv
activation epilogue against ``leaky_relu(conv2d(...))`` and for the tap
product over ``unfold``'s patch view against the copied patches.
"""

import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr import losses, nn
from podfcr.autodiff import Tensor
from podfcr.config import RunConfig
from podfcr.synthetic import make_sample
from podfcr.training import build_net_and_optimizer, make_batch, train_step

from conftest import (chain_batch_norm, chain_conv2d, chain_filter_normalize, chain_linear,
                      chain_scdf_apply, copying_unfold)

SCDF_TO_KERNEL_LAST = (0, 1, 4, 5, 2, 3)   # nn.SCDF.predict's transpose, its own inverse


def op_nodes(root):
    return [t._op for t in ad._topo(root) if t._op != "leaf"]


def run(fn, arrays, grads=None, post=None):
    """Output, leaf gradients and op names of ``fn`` on fresh leaves of ``arrays``.

    ``grads`` says which leaves require a gradient (all by default); ``post``
    maps the output before the weighted-sum loss, so the op's output gradient
    can arrive in another memory layout, as it does inside the network.
    """
    grads = grads or [True] * len(arrays)
    leaves = [Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays, grads)]
    out = fn(*leaves)
    nodes = op_nodes(out)
    y = post(out) if post else out
    weights = np.random.default_rng(1).normal(size=y.shape)
    ad.tsum(ad.mul(y, Tensor(weights))).backward()
    return out.data, [t.grad for t in leaves], nodes


def assert_same(fused, chain):
    out, grads, _ = fused
    ref, ref_grads, _ = chain
    assert np.array_equal(out, ref)
    for g, r in zip(grads, ref_grads):
        assert (g is None) == (r is None)
        if g is not None:
            assert np.array_equal(g, r)


class TestFilterNormalize:
    @pytest.mark.parametrize("grads", [None, [False, True, True]], ids=["all", "no-raw"])
    def test_spatial_bank_with_scalar_alpha(self, rng, grads):
        # (N, 1, H, W, k, k) as nn.SCDF.predict builds it: transposed in and out
        raw = rng.normal(size=(2, 1, 3, 9, 9, 4)).transpose(SCDF_TO_KERNEL_LAST)
        arrays = [np.ascontiguousarray(raw), rng.normal(size=1), rng.normal(size=1)]

        def fn(op):
            return lambda r, a, b: op(ad.transpose(r, SCDF_TO_KERNEL_LAST), a, b)

        post = lambda y: ad.transpose(y, SCDF_TO_KERNEL_LAST)
        fused = run(fn(ad.filter_normalize), arrays, grads, post)
        assert_same(fused, run(fn(chain_filter_normalize), arrays, grads, post))
        assert fused[2] == ["transpose", "filter_normalize"]

    def test_channel_bank_with_per_channel_alpha(self, rng):
        arrays = [rng.normal(size=(2, 5, 3, 3)), rng.normal(size=(5, 1, 1)),
                  rng.normal(size=(5, 1, 1))]
        fused = run(ad.filter_normalize, arrays)
        assert_same(fused, run(chain_filter_normalize, arrays))
        assert fused[2] == ["filter_normalize"]


class TestScdfApply:
    @pytest.mark.parametrize("per_sample", [False, True], ids=["(C,k,k)", "(N,C,k,k)"])
    def test_tap_product(self, rng, per_sample):
        n, c, h, w = 2, 3, 5, 6
        channel = (n, c, 3, 3) if per_sample else (c, 3, 3)
        arrays = [rng.normal(size=(n, c, h, w)), rng.normal(size=(n, 1, 3, 3, h, w)),
                  rng.normal(size=channel)]
        fused = run(nn.scdf_apply, arrays)
        assert_same(fused, run(chain_scdf_apply, arrays))
        assert fused[2] == ["unfold", "reshape", "tap_sum"]


class TestConvEpilogue:
    """``conv2d`` with a slope against ``leaky_relu(conv2d(...))``."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("grads", [None, [False, True, True]], ids=["all", "no-x"])
    @pytest.mark.parametrize("stride,dilation", [(1, 1), (2, 1), (1, 2)],
                             ids=["stride1", "stride2", "dilation2"])
    def test_matches_the_chain(self, rng, n, grads, stride, dilation):
        arrays = [rng.normal(size=(n, 3, 9, 9)), rng.normal(size=(4, 3, 3, 3)),
                  rng.normal(size=4)]
        self.check(arrays, grads, stride=stride, padding=dilation, dilation=dilation)

    def test_deferred_weight_gradient(self, rng, monkeypatch):
        # an output gradient of CONV_OVERLAP_MIN elements: dW runs on the worker
        arrays = [rng.normal(size=(2, 4, 32, 32)), rng.normal(size=(8, 4, 3, 3)),
                  rng.normal(size=8)]
        assert 2 * 8 * 32 * 32 >= ad.CONV_OVERLAP_MIN
        deferred = []
        defer = ad._defer

        def recording_defer(t, result):
            deferred.append(t.shape)
            defer(t, result)

        monkeypatch.setattr(ad, "_defer", recording_defer)
        self.check(arrays, None, padding=1)
        assert deferred == [(8, 4, 3, 3), (8, 4, 3, 3)]  # once fused, once in the chain

    def test_bits_of_zeros_and_nans(self, rng):
        """An output of exactly zero takes the negative slope, and a NaN
        input gives NaN gradients with the chain's bits."""
        x = rng.normal(size=(1, 2, 6, 6))
        x[0, 1, 2, 3] = np.nan
        weight = rng.normal(size=(3, 2, 3, 3))
        weight[0] = 0.0   # channel 0 outputs its bias, 0, away from the NaN
        bias = np.array([0.0, -0.5, 0.5])
        fused = run(lambda *t: ad.conv2d(*t, padding=1, slope=0.2), [x, weight, bias])
        chain = run(lambda *t: chain_conv2d(*t, padding=1, slope=0.2), [x, weight, bias])
        for a, b in zip([fused[0], *fused[1]], [chain[0], *chain[1]]):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
        assert np.isnan(fused[1][1]).any()

    @pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan])
    def test_slope_outside_the_unit_interval_is_rejected(self, slope):
        with pytest.raises(ValueError, match="conv2d: slope"):
            ad.conv2d(Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros((1, 1, 1, 1))), slope=slope)

    @staticmethod
    def check(arrays, grads, **conv):
        fused = run(lambda *t: ad.conv2d(*t, slope=0.2, **conv), arrays, grads)
        assert_same(fused, run(lambda *t: chain_conv2d(*t, slope=0.2, **conv), arrays, grads))
        assert fused[2] == ["conv2d"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("grads", [None, [False, True, True]], ids=["all", "no-x"])
class TestBatchNorm:
    """One fused node in both modes; in eval mode the chain takes the buffers
    as constants."""

    def test_training_mode(self, rng, n, grads):
        self.check(rng, n, grads, training=True)

    def test_eval_mode(self, rng, n, grads):
        self.check(rng, n, grads, training=False)

    def check(self, rng, n, grads, training):
        arrays = [rng.normal(1.0, 2.0, size=(n, 3, 4, 5)), 1.0 + 0.1 * rng.normal(size=3),
                  rng.normal(size=3)]
        rm, rv = rng.normal(size=3), 1.0 + rng.uniform(size=3)
        buffers = {}

        def fn(op):
            buffers[op] = (rm.copy(), rv.copy())
            return lambda x, g, b: op(x, g, b, *buffers[op], training=training)

        fused = run(fn(ad.batch_norm), arrays, grads)
        assert_same(fused, run(fn(chain_batch_norm), arrays, grads))
        assert fused[2] == ["batch_norm"]
        for a, b in zip(buffers[ad.batch_norm], buffers[chain_batch_norm]):
            assert np.array_equal(a, b)


class TestLinear:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_matmul_transpose_add(self, rng, batch):
        arrays = [rng.normal(size=(batch, 6)), rng.normal(size=(4, 6)), rng.normal(size=4)]
        fused = run(ad.linear, arrays)
        assert_same(fused, run(chain_linear, arrays))
        assert fused[2] == ["linear"]

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 6)])
    def test_input_that_does_not_fit_the_weight_is_a_shape_error(self, shape):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros(shape)), Tensor(np.zeros((4, 6))), Tensor(np.zeros(4)))


def use_chains(monkeypatch):
    monkeypatch.setattr(ad, "conv2d", chain_conv2d)
    monkeypatch.setattr(ad, "unfold", copying_unfold)
    monkeypatch.setattr(ad, "filter_normalize", chain_filter_normalize)
    monkeypatch.setattr(nn, "scdf_apply", chain_scdf_apply)
    monkeypatch.setattr(ad, "linear", chain_linear)
    monkeypatch.setattr(ad, "batch_norm", chain_batch_norm)


@pytest.mark.parametrize("ablation", ["full", "no_gc"])
def test_training_steps_match_the_chains(monkeypatch, ablation):
    """Two optimizer steps of a dual model, fused and with every chain patched
    back in: a shift in the walk order would show here, not in one op."""
    cfg = RunConfig(seed=3, patch=16, base_channels=4, batch_size=2, ablation=ablation)
    batch = make_batch([make_sample(0, i, cfg.patch) for i in range(2)], cfg.sar_input)

    def states():
        net, optimizer = build_net_and_optimizer(cfg)
        for _ in range(2):
            train_step(net, optimizer, batch, cfg)
        return net.state_dict(), optimizer.state_dict()

    fused = states()
    with monkeypatch.context() as m:
        use_chains(m)
        chain = states()
    for got, ref in zip(fused, chain):
        assert got.keys() == ref.keys()
        for key in ref:
            assert np.array_equal(got[key], ref[key]), key


# Op nodes of one desk-shape (patch 32, width 8, batch 1) training forward and
# loss. Each fused op is one node where its chain was 2 to 11, so a fused op
# that falls back to its chain raises this count and with it the tape's RSS.
DESK_TAPE_OP_NODES = 532
# The bytes those nodes' outputs hold, each base buffer counted once: a view
# (a reshape's output, unfold's patches) costs nothing beyond its base. A
# pre-activation or a patch copy kept again would raise it.
DESK_TAPE_BYTES = 12_278_720


def desk_tape():
    cfg = RunConfig(seed=0, patch=32, base_channels=8, batch_size=1)
    net, _ = build_net_and_optimizer(cfg)
    cloudy, clean, mask, sar = make_batch([make_sample(0, 0, cfg.patch)], cfg.sar_input)
    pred = net.forward(cloudy, sar, training=True)
    return losses.loss_total(pred, clean, mask, cfg.lambda_local, cfg.lambda_ssim)


def test_desk_tape_op_node_count():
    assert len(op_nodes(desk_tape())) == DESK_TAPE_OP_NODES


def test_desk_tape_bytes():
    buffers = {}
    for t in ad._topo(desk_tape()):
        if t._op != "leaf":
            base = t.data
            while base.base is not None:  # as_strided's base is a wrapper with a .base
                base = base.base
            buffers[id(base)] = base.nbytes
    assert sum(buffers.values()) == DESK_TAPE_BYTES
