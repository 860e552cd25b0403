import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from podfcr import autodiff as ad, nn
from podfcr.autodiff import GraphError, ShapeError, Tensor
from podfcr.config import RunConfig
from podfcr.gradcheck import gradcheck
from podfcr.model import CloudRemovalNet
from podfcr.synthetic import make_sample
from podfcr.training import build_net_and_optimizer, make_batch, train_step

from conftest import (dilate_kernel, naive_conv2d, naive_matmul, tensordot_conv_dw,
                      tensordot_conv_dx, tensordot_conv_gemm)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.full((1, 1, 1, 1), 5.0))
        w = Tensor(np.ones((1, 1, 1, 1)))
        b = Tensor(np.zeros(1))
        out = ad.conv2d(x, w, b)
        assert out.data.reshape(()) == 5.0

    def test_box_sum(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = ad.conv2d(x, w, padding=0)
        assert out.shape == (1, 1, 1, 1)
        assert out.data.reshape(()) == 9.0

    def test_matches_naive_loop(self, rng):
        for _ in range(20):
            x = rng.normal(size=(2, 3, 8, 8))
            w = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            stride = int(rng.integers(1, 3))
            out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=1)
            ref = naive_conv2d(x, w, b, stride=stride, padding=1)
            assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_dilated_matches_zero_stuffed_kernel(self, rng):
        for _ in range(20):
            x = rng.normal(size=(1, 2, 9, 9))
            w = rng.normal(size=(3, 2, 3, 3))
            dilation = int(rng.integers(2, 4))
            out = ad.conv2d(Tensor(x), Tensor(w), padding=dilation, dilation=dilation)
            dense = naive_conv2d(x, dilate_kernel(w, dilation), padding=dilation)
            assert np.max(np.abs(out.data - dense)) <= 1e-12

    def test_output_extent_formula(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 11, 9)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        out = ad.conv2d(x, w, stride=2, padding=1, dilation=2)
        assert out.shape[2:] == (ad.conv_out_size(11, 3, 2, 1, 2),
                                 ad.conv_out_size(9, 3, 2, 1, 2))

    def test_shape_errors_name_operand(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)))
        with pytest.raises(ShapeError, match="channels"):
            ad.conv2d(x, w)
        with pytest.raises(ShapeError, match="bias"):
            ad.conv2d(Tensor(np.zeros((1, 2, 4, 4))), w, Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="rank 4"):
            ad.conv2d(Tensor(np.zeros((2, 4, 4))), w)


class TestConvTranspose2d:
    def test_adjoint_of_conv2d(self, rng):
        # <conv2d(x), y> == <x, conv_transpose2d(y)> with shared weights
        for stride, padding in ((1, 1), (2, 1), (2, 0)):
            x = rng.normal(size=(1, 2, 4, 4))
            w = rng.normal(size=(3, 2, 4, 4))
            fwd = ad.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            y = rng.normal(size=fwd.shape)
            lhs = float((fwd.data * y).sum())
            back = ad.conv_transpose2d(Tensor(y), Tensor(w), stride=stride, padding=padding)
            rhs = float((x * back.data).sum())
            assert abs(lhs - rhs) <= 1e-10

    def test_zero_input_gives_bias(self, rng):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(3, 2, 4, 4)))
        b = Tensor(np.array([1.5, -0.5]))
        out = ad.conv_transpose2d(x, w, b, stride=2, padding=1)
        assert np.array_equal(out.data[:, 0], np.full((1, 8, 8), 1.5))
        assert np.array_equal(out.data[:, 1], np.full((1, 8, 8), -0.5))

    def test_stride2_doubles_extent(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(1, 1, 4, 4)))
        out = ad.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (1, 1, 8, 8)


class TestMatmul:
    def test_identity(self, rng):
        a = rng.normal(size=(4, 4))
        out = ad.matmul(Tensor(np.eye(4)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_hand_case(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert np.array_equal(out.data, [[3.0], [7.0]])

    def test_matches_triple_loop(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 7))
            b = rng.normal(size=(7, 3))
            out = ad.matmul(Tensor(a), Tensor(b))
            assert np.max(np.abs(out.data - naive_matmul(a, b))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="inner extents"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor(np.full((1, 4), 3.0)))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax(Tensor([[0.0, np.log(3.0)]]))
        assert np.max(np.abs(out.data - [0.25, 0.75])) <= 1e-12

    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(0, 10, size=(6, 9)))
        out = ad.softmax(x, axis=-1)
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) <= 1e-12
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_global_avg_pool(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert ad.global_avg_pool(x).data.reshape(()) == 2.5

    def test_concat_channels(self, rng):
        a = Tensor(rng.normal(size=(1, 2, 4, 4)))
        b = Tensor(rng.normal(size=(1, 3, 4, 4)))
        out = ad.concat([a, b], axis=1)
        assert out.shape == (1, 5, 4, 4)
        assert np.array_equal(out.data[:, :2], a.data)
        assert np.array_equal(out.data[:, 2:], b.data)

    def test_leaky_relu_slope(self):
        out = ad.leaky_relu(Tensor([-1.0, 0.0, 2.0]), 0.2)
        assert np.array_equal(out.data, [-0.2, 0.0, 2.0])
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        ad.tsum(ad.leaky_relu(x, 0.2)).backward()
        # subgradient at 0 takes the negative-slope branch
        assert np.array_equal(x.grad, [0.2, 0.2, 1.0])

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 1e-300])
    def test_leaky_relu_has_the_bits_of_the_where_form(self, rng, alpha):
        tiny, big = np.finfo(np.float64).tiny, np.finfo(np.float64).max
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, -tiny,
                   big, -big, 1.0, -1.0]
        payload_nan = np.array([0x7FF8000000000123, 0xFFF800000000ABCD], dtype=np.uint64)
        scaled = rng.normal(size=4000) * 10.0 ** rng.integers(-320, 308, 4000)
        x = np.concatenate([special, payload_nan.view(np.float64), scaled, rng.normal(size=4000)])
        with np.errstate(under="ignore", over="ignore", invalid="ignore"):
            ref = np.where(x > 0.0, x, alpha * x)
            out = ad.leaky_relu(Tensor(x), alpha).data
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("alpha", [-0.1, 0.0, 1.5, np.nan])
    def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="slope"):
            ad.leaky_relu(Tensor([1.0, -1.0]), alpha)

    def test_avg_pool(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out = ad.avg_pool2d(Tensor(x), 2)
        ref = x.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))
        assert np.allclose(out.data, ref, atol=1e-15)

    def test_unfold_center_tap_is_input(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = ad.unfold(Tensor(x), kernel=3)
        assert out.shape == (2, 3, 3, 3, 5, 5)
        assert np.array_equal(out.data[:, :, 1, 1], x)
        assert not out.data.flags.writeable  # a view over the padded input
        assert out.data.base is not None


class TestBatchNorm:
    def test_train_mode_standardizes(self, rng):
        x = Tensor(rng.normal(3.0, 4.0, size=(4, 3, 6, 6)))
        gamma = Tensor(np.ones(3))
        beta = Tensor(np.zeros(3))
        out = ad.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
        means = out.data.mean(axis=(0, 2, 3))
        variances = out.data.var(axis=(0, 2, 3))
        assert np.max(np.abs(means)) <= 1e-10
        assert np.max(np.abs(variances - 1.0)) <= 1e-6

    def test_identity_on_standardized_input(self, rng):
        x = rng.normal(size=(2, 2, 8, 8))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                            np.zeros(2), np.ones(2), training=True)
        # the eps=1e-5 floor shrinks unit-variance data by ~5e-6 per unit
        assert np.max(np.abs(out.data - x)) <= 2e-5

    def test_gradient_vs_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(1.0 + 0.1 * rng.normal(size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        err = gradcheck(lambda: ad.batch_norm(x, gamma, beta, rm, rv, training=True),
                        [x, gamma, beta])
        assert err <= 1e-5

    def test_running_stats_update_and_eval(self, rng):
        x = rng.normal(2.0, 1.5, size=(4, 2, 8, 8))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                      training=True)
        assert np.allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)))
        out = ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                            training=False)
        ref = (x - rm[None, :, None, None]) / np.sqrt(rv[None, :, None, None] + 1e-5)
        assert np.allclose(out.data, ref, atol=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        ad.tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gradient(self, rng):
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        ad.tsum(ad.mul(x, x)).backward()
        assert np.allclose(x.grad, 2.0 * x.data, atol=1e-15)

    def test_grad_accumulates_across_uses(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))
        ad.tsum(y).backward()
        assert np.allclose(x.grad, 2.0 * x.data + 3.0, atol=1e-15)

    def test_non_scalar_root_rejected(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            ad.mul(x, x).backward()

    def test_double_backward_rejected(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = ad.tsum(ad.mul(x, x))
        loss.backward()
        with pytest.raises(GraphError, match="consumed"):
            loss.backward()

    def test_backward_frees_the_tape_as_it_goes(self, rng):
        x = Tensor(rng.normal(size=(1 << 17,)), requires_grad=True)  # 1 MiB
        out = x
        for _ in range(20):
            out = ad.sigmoid(out)
        loss = ad.tsum(out)
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding every intermediate gradient to the end peaks at about 22 MiB
        assert peak < 4 << 20
        assert out.grad is None
        outputs = [x.data]
        for _ in range(20):
            outputs.append(1.0 / (1.0 + np.exp(-outputs[-1])))
        want = np.prod([s * (1.0 - s) for s in outputs[1:]], axis=0)
        assert np.allclose(x.grad, want, rtol=1e-12, atol=0.0)

    def test_no_grad_suppresses_taping(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert y._parents == () and not y.requires_grad


class TestGradientRouting:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("small_shape", [(1, 3, 1, 1), (3, 1, 1), ()], ids=str)
    def test_broadcast_operands(self, rng, op, small_shape):
        # positive values keep div away from its pole; both operand orders
        big = Tensor(rng.uniform(0.5, 1.5, (2, 3, 4, 5)), requires_grad=True)
        small = Tensor(rng.uniform(0.5, 1.5, small_shape), requires_grad=True)
        assert gradcheck(lambda: op(big, small), [big, small]) <= 1e-6
        assert gradcheck(lambda: op(small, big), [big, small]) <= 1e-6

    def test_batch_broadcast_matmul(self, rng):
        a = Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        assert gradcheck(lambda: ad.matmul(a, b), [a, b]) <= 1e-6
        assert b.grad.shape == (6, 3)

    def test_input_vjp_skipped_without_input_grad(self, rng, monkeypatch):
        calls = []
        conv_dx, in_worker = ad._conv_dx, ad._in_worker

        def counting_conv_dx(*args):
            calls.append("dx")
            return conv_dx(*args)

        def counting_in_worker(*args):
            calls.append("worker")
            return in_worker(*args)

        monkeypatch.setattr(ad, "_conv_dx", counting_conv_dx)
        monkeypatch.setattr(ad, "_in_worker", counting_in_worker)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        # with a zero threshold the conv would use the worker, but not without an input VJP
        for x_needs_grad, overlap_min, expected in ((False, ad.CONV_OVERLAP_MIN, []),
                                                    (True, ad.CONV_OVERLAP_MIN, ["dx"]),
                                                    (False, 0, [])):
            monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", overlap_min)
            calls.clear()
            x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=x_needs_grad)
            ad.tsum(ad.conv2d(x, w, padding=1)).backward()
            assert calls == expected and (x.grad is not None) == x_needs_grad


def conv_grads(op, x, w, b, c, kwargs):
    """Gradients of sum(c * op(x, w, b)) for fresh leaves of the given arrays."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w) + ((b,) if b is not None else ())]
    out = op(*leaves[:2], leaves[2] if b is not None else None, **kwargs)
    ad.tsum(ad.mul(out, Tensor(c))).backward()
    return [t.grad for t in leaves]


# (op, input shape, weight shape, keyword arguments)
CONV_FORMS = {
    "3x3": (ad.conv2d, (2, 3, 9, 9), (4, 3, 3, 3), dict(padding=1)),
    "4x4_stride2": (ad.conv2d, (2, 3, 8, 8), (4, 3, 4, 4), dict(stride=2, padding=1)),
    "dilation2": (ad.conv2d, (2, 3, 9, 9), (4, 3, 3, 3), dict(padding=2, dilation=2)),
    "1x1": (ad.conv2d, (2, 3, 7, 7), (4, 3, 1, 1), {}),
    "transpose": (ad.conv_transpose2d, (2, 3, 5, 5), (3, 4, 4, 4), dict(stride=2, padding=1)),
}


class TestConvWorker:
    """The weight gradient of a large conv runs on a worker thread; the bits
    must be those of the inline path."""

    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("form", list(CONV_FORMS))
    def test_worker_matches_inline(self, rng, monkeypatch, form, bias):
        op, x_shape, w_shape, kwargs = CONV_FORMS[form]
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        c_out = w_shape[1] if op is ad.conv_transpose2d else w_shape[0]
        b = rng.normal(size=c_out) if bias else None
        c = rng.normal(size=op(Tensor(x), Tensor(w), None, **kwargs).shape)
        threads = []
        conv_dw = ad._conv_dw

        def recording_conv_dw(*args):
            threads.append(threading.current_thread())
            return conv_dw(*args)

        monkeypatch.setattr(ad, "_conv_dw", recording_conv_dw)
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        on_worker = conv_grads(op, x, w, b, c, kwargs)
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", c.size + 1)
        inline = conv_grads(op, x, w, b, c, kwargs)
        assert threads[0] is not threading.main_thread()
        assert threads[1] is threading.main_thread()
        for a, ref in zip(on_worker, inline):
            assert np.array_equal(a, ref)

    @pytest.mark.parametrize("overlap_min", [0, 10 ** 9], ids=["worker", "inline"])
    def test_floating_point_errors_cross_the_thread(self, rng, monkeypatch, overlap_min):
        # the forward stays finite; only the weight gradient (c times x) overflows
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", overlap_min)
        x = Tensor(1e200 * rng.random((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(1e-200 * rng.random((3, 2, 3, 3)), requires_grad=True)
        loss = ad.tsum(ad.mul(ad.conv2d(x, w, padding=1), Tensor(1e200 * rng.random((1, 3, 6, 6)))))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            loss.backward()

    def test_worker_exception_surfaces_and_worker_survives(self, rng, monkeypatch):
        class Boom(Exception):
            pass

        def failing_conv_dw(*args):
            raise Boom("weight gradient failed")

        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        x, w = rng.normal(size=(1, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3))
        c = rng.normal(size=(1, 4, 6, 6))
        with monkeypatch.context() as m:
            m.setattr(ad, "_conv_dw", failing_conv_dw)
            with pytest.raises(Boom):
                conv_grads(ad.conv2d, x, w, None, c, dict(padding=1))
        on_worker = conv_grads(ad.conv2d, x, w, None, c, dict(padding=1))
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 10 ** 9)
        for a, ref in zip(on_worker, conv_grads(ad.conv2d, x, w, None, c, dict(padding=1))):
            assert np.array_equal(a, ref)

    def test_shared_weight_sums_in_the_inline_order(self, rng, monkeypatch):
        # w also feeds a mul whose output is the first conv's input, so the walk
        # reaches the mul after both convs; its gradient must land after theirs
        w, cw = rng.normal(size=(4, 4, 3, 3)), rng.normal(size=(4, 4, 3, 3))
        c = rng.normal(size=(1, 4, 12, 3))
        deferred = []
        defer = ad._defer
        monkeypatch.setattr(ad, "_defer", lambda t, result: (deferred.append(t), defer(t, result)))

        def weight_grad():
            wt = Tensor(w, requires_grad=True)
            h = ad.reshape(ad.mul(wt, Tensor(cw)), (1, 4, 12, 3))
            y = ad.conv2d(ad.conv2d(h, wt, padding=1), wt, padding=1)
            ad.tsum(ad.mul(y, Tensor(c))).backward()
            return wt.grad

        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        on_worker = weight_grad()
        assert len(deferred) == 2
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", c.size + 1)
        assert np.array_equal(on_worker, weight_grad())
        assert len(deferred) == 2

    def test_computed_weight_is_whole_before_its_closure_runs(self, rng, monkeypatch):
        x, w = rng.normal(size=(1, 3, 6, 6)), rng.normal(size=(3, 3, 3, 3))
        c = rng.normal(size=(1, 3, 6, 6))

        def grads():
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            half = ad.scale(wt, 0.5)  # a non-leaf weight shared by two convs
            y = ad.conv2d(ad.conv2d(xt, half, padding=1), half, padding=1)
            ad.tsum(ad.mul(y, Tensor(c))).backward()
            assert half.grad is None
            return xt.grad, wt.grad

        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        on_worker = grads()
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", c.size + 1)
        for a, ref in zip(on_worker, grads()):
            assert np.array_equal(a, ref)

    def test_failed_walk_drops_its_pending_results(self, rng, monkeypatch):
        class Boom(Exception):
            pass

        queued = []

        def failing_closure(g):
            queued.append(id(conv.weight) in ad._PENDING)
            raise Boom("closure failed")

        conv = nn.Conv2d(rng, 3, 4)
        x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
        c = Tensor(rng.normal(size=(1, 4, 6, 6)))

        def loss(fail=False):
            h = ad.scale(x, 2.0)  # the walk reaches it after the conv
            if fail:
                h._backward = failing_closure
            return ad.tsum(ad.mul(conv(h), c))

        def grads():
            x.grad = None
            conv.zero_grad()
            loss().backward()
            return x.grad, conv.weight.grad, conv.bias.grad

        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        with pytest.raises(Boom):
            loss(fail=True).backward()
        assert queued == [True]
        assert ad._PENDING is None
        ad._in_worker(lambda: None).result()  # the failed walk's weight gradient is done
        assert conv.weight.grad is None
        on_worker = grads()
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 10 ** 9)
        for a, ref in zip(on_worker, grads()):
            assert np.array_equal(a, ref)

    def test_forked_child_starts_its_own_worker(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        x, w = rng.normal(size=(1, 3, 6, 6)), rng.normal(size=(4, 3, 3, 3))
        c = rng.normal(size=(1, 4, 6, 6))
        x_shape, w_shape, kwargs = SPLIT_FORMS["batch"]
        big_x, big_w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=w_shape))
        conv_grads(ad.conv2d, x, w, None, c, dict(padding=1))  # the parent's worker exists
        split = ad.conv2d(big_x, big_w, **kwargs).data
        pid = os.fork()
        if pid == 0:  # child: a stale pool would queue the task forever
            code = 1
            try:  # the child's first task is half of a split forward
                if np.array_equal(ad.conv2d(big_x, big_w, **kwargs).data, split):
                    conv_grads(ad.conv2d, x, w, None, c, dict(padding=1))
                    code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a split forward or a backward in a forked child did not finish")
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        assert os.waitstatus_to_exitcode(status) == 0


# (input shape, weight shape, keyword arguments) of conv2d forwards that split
# at a zero threshold: along the batch, and along a lone sample's output rows
SPLIT_FORMS = {
    "batch": ((2, 16, 24, 24), (16, 16, 3, 3), dict(padding=1)),
    "rows": ((1, 16, 24, 24), (32, 16, 3, 3), dict(padding=1)),
}


def worker_jobs(monkeypatch) -> list[str]:
    """The name of each function handed to the worker from now on."""
    jobs = []
    in_worker = ad._in_worker

    def recording_in_worker(fn, *args):
        jobs.append(fn.__name__)
        return in_worker(fn, *args)

    monkeypatch.setattr(ad, "_in_worker", recording_in_worker)
    return jobs


class TestConvSplit:
    """Outside a backward walk, a large conv forward computes half of its
    output on the worker thread; the bits must be those of one thread."""

    @pytest.mark.parametrize("overlap_min", [ad.CONV_OVERLAP_MIN, 0], ids=["default", "zero"])
    def test_network_conv_shapes_match_one_thread(self, monkeypatch, overlap_min):
        # every conv forward of a no-grad wide forward (patch 64, width 16) at batch 1 and 2
        cfg = RunConfig(seed=0, patch=64, base_channels=16)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        calls = []
        conv_fwd = ad._conv_fwd
        monkeypatch.setattr(ad, "_conv_fwd", lambda *args: (calls.append(args), conv_fwd(*args))[1])
        for n in (1, 2):
            cloudy, _, _, sar = make_batch([make_sample(0, i, cfg.patch) for i in range(n)],
                                           cfg.sar_input)
            with ad.no_grad():
                net.forward(cloudy, sar)
        monkeypatch.setattr(ad, "_conv_fwd", conv_fwd)
        jobs = worker_jobs(monkeypatch)
        split = set()
        for x, w, stride, pad, dilation in calls:
            monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 10 ** 12)
            one_thread = conv_fwd(x, w, stride, pad, dilation)
            monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", overlap_min)
            jobs.clear()
            assert np.array_equal(conv_fwd(x, w, stride, pad, dilation), one_thread)
            if jobs:
                split.add(("batch" if x.shape[0] > 1 else "rows", w.shape[2], stride, dilation))
        forms = {form[1:] for form in split}
        assert forms >= {(3, 1, 1), (4, 2, 1), (1, 1, 1), (3, 1, 6), (3, 1, 12), (3, 1, 18)}
        assert {form[0] for form in split} == {"batch", "rows"}

    @pytest.mark.parametrize("n", [1, 3])
    def test_desk_forward_stays_on_the_calling_thread(self, monkeypatch, n):
        # so each one-thread ablation worker process keeps to one thread
        cfg = RunConfig(seed=0, patch=32, base_channels=8)
        net = CloudRemovalNet(cfg.model_config(), seed=0)
        cloudy, _, _, sar = make_batch([make_sample(0, i, cfg.patch) for i in range(n)],
                                       cfg.sar_input)
        jobs = worker_jobs(monkeypatch)
        with ad.no_grad():
            net.forward(cloudy, sar)
        net.forward(cloudy, sar, training=True)
        assert jobs == []

    @pytest.mark.parametrize("transposed", [False, True], ids=["conv2d", "conv_transpose2d"])
    def test_backward_submits_only_weight_gradients(self, rng, monkeypatch, transposed):
        # each input VJP calls _conv_fwd at a size that splits outside a walk
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        if transposed:
            x, w = rng.normal(size=(2, 32, 16, 16)), rng.normal(size=(32, 32, 4, 4))
            op, kwargs = ad.conv_transpose2d, dict(stride=2, padding=1)
        else:
            x_shape, w_shape, kwargs = SPLIT_FORMS["batch"]
            x, w, op = rng.normal(size=x_shape), rng.normal(size=w_shape), ad.conv2d
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        jobs = worker_jobs(monkeypatch)
        y = op(xt, wt, **kwargs)
        c = rng.normal(size=y.shape)
        loss = ad.tsum(ad.mul(y, Tensor(c)))
        assert jobs == ([] if transposed else ["_conv_gemm"])
        jobs.clear()
        if transposed:
            ad._conv_fwd(c, w, 2, 1, 1)
        else:
            ad._conv_dx(c, w, x.shape[2], x.shape[3], 1, 1, 1)
        assert jobs == ["_conv_gemm"]
        jobs.clear()
        loss.backward()
        assert jobs == ["_conv_dw"]

    def test_lone_output_row_stays_inline(self, rng, monkeypatch):
        # large enough to split by every other measure, but one row has no two halves
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        jobs = worker_jobs(monkeypatch)
        w = rng.normal(size=(256, 256, 1, 1))
        for rows, expected in ((1, []), (2, ["_conv_gemm"])):
            x = rng.normal(size=(1, 256, rows, 64))
            jobs.clear()
            y = ad.conv2d(Tensor(x), Tensor(w)).data
            assert jobs == expected
            assert np.allclose(y, np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x))

    @pytest.mark.parametrize("form", list(SPLIT_FORMS))
    def test_worker_exception_surfaces_and_worker_survives(self, rng, monkeypatch, form):
        class Boom(Exception):
            pass

        conv_gemm = ad._conv_gemm

        def failing_on_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                raise Boom("worker half failed")
            conv_gemm(*args)

        x_shape, w_shape, kwargs = SPLIT_FORMS[form]
        x, w = Tensor(rng.normal(size=x_shape)), Tensor(rng.normal(size=w_shape))
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 0)
        with monkeypatch.context() as m:
            m.setattr(ad, "_conv_gemm", failing_on_worker)
            with pytest.raises(Boom):
                ad.conv2d(x, w, **kwargs)
        jobs = worker_jobs(monkeypatch)
        split = ad.conv2d(x, w, **kwargs).data
        assert jobs == ["_conv_gemm"]
        monkeypatch.setattr(ad, "CONV_OVERLAP_MIN", 10 ** 9)
        assert np.array_equal(split, ad.conv2d(x, w, **kwargs).data)


def check_conv_helpers(monkeypatch) -> list[tuple[str, bool, bool]]:
    """From now on, compare each call of the three conv GEMM helpers with its
    ``tensordot`` oracle. Each call appends (helper, whether its product is
    above the small-GEMM size, whether the bits matched) to the returned list;
    ``_conv_gemm`` and the stride-1 ``_conv_dx`` have no such choice and
    record ``False``."""
    calls = []
    conv_gemm, conv_dw, conv_dx = ad._conv_gemm, ad._conv_dw, ad._conv_dx

    def gemm(w, cols, out=None):
        y = conv_gemm(w, cols, out)
        calls.append(("gemm", False,
                      np.array_equal(y if out is None else out, tensordot_conv_gemm(w, cols))))
        return y

    def dw(x, dy, kernel, stride, pad, dilation):
        y = conv_dw(x, dy, kernel, stride, pad, dilation)
        m, k = dy.shape[0] * dy.shape[2] * dy.shape[3], x.shape[1] * kernel[0] * kernel[1]
        calls.append(("dw", ad._large_gemm(dy.shape[1], m, k),
                      np.array_equal(y, tensordot_conv_dw(x, dy, kernel, stride, pad, dilation))))
        return y

    def dx(dy, w, xh, xw, stride, pad, dilation):
        y = conv_dx(dy, w, xh, xw, stride, pad, dilation)
        m, k = dy.shape[0] * dy.shape[2] * dy.shape[3], w.size // w.shape[0]
        calls.append(("dx" if stride == 1 else "dx_strided",
                      stride != 1 and ad._large_gemm(k, w.shape[0], m),
                      np.array_equal(y, tensordot_conv_dx(dy, w, xh, xw, stride, pad, dilation))))
        return y

    monkeypatch.setattr(ad, "_conv_gemm", gemm)
    monkeypatch.setattr(ad, "_conv_dw", dw)
    monkeypatch.setattr(ad, "_conv_dx", dx)
    return calls


# (x shape, weight shape, stride, padding) of a conv2d, on both sides of the
# small-GEMM size for each helper
GEMM_FORMS = {
    "3x3_small": ((1, 8, 16, 16), (8, 8, 3, 3), 1, 1),
    "3x3_large": ((2, 16, 32, 32), (16, 16, 3, 3), 1, 1),
    "4x4_stride2_small": ((1, 8, 16, 16), (16, 8, 4, 4), 2, 1),
    "4x4_stride2_large": ((2, 16, 64, 64), (32, 16, 4, 4), 2, 1),
    # a lone sample's 1x1 patch matrix is a view of x: an F-ordered (M, K)
    # operand, which a C-ordered copy would hand to another BLAS path
    "1x1_n1_view": ((1, 8, 32, 32), (8, 8, 1, 1), 1, 0),
    "1x1_n1_large": ((1, 64, 32, 32), (64, 64, 1, 1), 1, 0),
    # one output channel: a one-row weight-gradient product above the size,
    # which numpy hands to a matrix-vector call, whose bits follow the layout
    "one_output_channel": ((2, 16, 64, 64), (1, 16, 3, 3), 1, 1),
}


class TestConvGemmLayouts:
    """The conv helpers build their GEMM operands in the layouts that suit
    them; every call must keep the bits of the ``tensordot`` forms."""

    @pytest.mark.parametrize("form", list(GEMM_FORMS))
    def test_helpers_match_tensordot(self, rng, form):
        x_shape, w_shape, stride, pad = GEMM_FORMS[form]
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        ho = ad.conv_out_size(x_shape[2], w_shape[2], stride, pad, 1)
        dy = rng.normal(size=(x_shape[0], w_shape[0], ho, ho))
        cols = ad._patch_view(ad._pad_hw(x, pad), w_shape[2], w_shape[3], stride, 1, ho, ho)
        assert np.array_equal(ad._conv_gemm(w, cols), tensordot_conv_gemm(w, cols))
        assert np.array_equal(ad._conv_dw(x, dy, w_shape[2:], stride, pad, 1),
                              tensordot_conv_dw(x, dy, w_shape[2:], stride, pad, 1))
        assert np.array_equal(ad._conv_dx(dy, w, x_shape[2], x_shape[3], stride, pad, 1),
                              tensordot_conv_dx(dy, w, x_shape[2], x_shape[3], stride, pad, 1))
        # the transposed conv's forward is the strided scatter, with x as the output gradient
        if stride == 2:
            wt = rng.normal(size=(x_shape[1], w_shape[0], 4, 4))
            hy = (x_shape[2] - 1) * 2 - 2 * pad + 4
            assert np.array_equal(ad._conv_dx(x, wt, hy, hy, 2, pad, 1),
                                  tensordot_conv_dx(x, wt, hy, hy, 2, pad, 1))

    @pytest.mark.parametrize("scale", [(32, 8, 1), (64, 16, 2)], ids=["desk", "wide"])
    def test_network_calls_match_tensordot(self, monkeypatch, scale):
        # a training step from step 2 on, so the gradients upstream of the
        # zero-init out_conv are not zero, then no-grad forwards at N = 1 and 2
        patch, width, batch_size = scale
        cfg = RunConfig(seed=0, patch=patch, base_channels=width, batch_size=batch_size)
        net, optimizer = build_net_and_optimizer(cfg)
        batches = {n: make_batch([make_sample(0, i, patch) for i in range(n)], cfg.sar_input)
                   for n in {1, 2, batch_size}}
        train_step(net, optimizer, batches[batch_size], cfg)
        calls = check_conv_helpers(monkeypatch)
        train_step(net, optimizer, batches[batch_size], cfg)
        for n in (1, 2):
            cloudy, _, _, sar = batches[n]
            with ad.no_grad():
                net.forward(cloudy, sar)
        assert [c for c in calls if not c[2]] == []
        forms = {c[:2] for c in calls}
        assert forms >= {("gemm", False), ("dx", False), ("dw", True), ("dw", False),
                         ("dx_strided", True)}


class TestDeterminism:
    def test_bit_identical_outputs(self):
        def run():
            r = np.random.default_rng(123)
            x = Tensor(r.normal(size=(1, 3, 8, 8)), requires_grad=True)
            w = Tensor(r.normal(size=(4, 3, 3, 3)), requires_grad=True)
            out = ad.tsum(ad.sigmoid(ad.conv2d(x, w, padding=1)))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_all_outputs_finite(self, rng):
        x = Tensor(rng.normal(0, 50, size=(2, 3, 6, 6)))
        for op in (ad.sigmoid, ad.tanh, lambda t: ad.softmax(t, axis=1),
                   lambda t: ad.leaky_relu(t, 0.2)):
            assert np.all(np.isfinite(op(x).data))
