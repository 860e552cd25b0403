import tracemalloc

import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr.autodiff import GraphError, ShapeError, Tensor
from podfcr.gradcheck import gradcheck

from conftest import dilate_kernel, naive_conv2d, naive_matmul


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

    def test_avg_pool(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out = ad.avg_pool2d(Tensor(x), 2)
        ref = x.reshape(1, 2, 3, 2, 3, 2).mean(axis=(3, 5))
        assert np.allclose(out.data, ref, atol=1e-15)

    def test_unfold_center_tap_is_input(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        out = ad.unfold(Tensor(x), kernel=3)
        assert out.shape == (2, 3, 9, 5, 5)
        assert np.array_equal(out.data[:, :, 4], x)


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
        conv_dx = ad._conv_dx

        def counting_conv_dx(*args):
            calls.append(1)
            return conv_dx(*args)

        monkeypatch.setattr(ad, "_conv_dx", counting_conv_dx)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        for x_needs_grad, expected in ((False, 0), (True, 1)):
            x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=x_needs_grad)
            ad.tsum(ad.conv2d(x, w, padding=1)).backward()
            assert len(calls) == expected and (x.grad is not None) == x_needs_grad


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
