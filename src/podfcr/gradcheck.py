"""Central finite-difference verification of every differentiable operator.

Each named check builds a small instance of an operator (shapes at most
1x8x8x8), projects its output onto fixed random weights to get a scalar,
and compares the tape gradient of every input and parameter against central
differences (h = 1e-5, float64). Errors are norm-relative:
||analytic - numeric|| / max(||analytic||, ||numeric||).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import fusion, losses, nn
from .autodiff import Tensor

DEFAULT_H = 1e-5
TOLERANCE = 1e-4


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def gradcheck(fn, tensors: list[Tensor], h: float = DEFAULT_H, seed: int = 0) -> float:
    """Norm-relative error between the tape gradient and central differences.

    ``fn`` rebuilds its forward pass from the given tensors on every call;
    the checker perturbs each element of each tensor in place. The two full
    gradient vectors (all inputs concatenated) are compared, so components
    whose true gradient is zero (e.g. attention key biases, which a row
    softmax cancels) measure against the overall gradient scale instead of
    against rounding noise.
    """
    out = fn()
    rng = np.random.default_rng(seed)
    weights = rng.normal(0.0, 1.0, out.shape)
    loss = ad.tsum(ad.mul(out, Tensor(weights)))
    for t in tensors:
        t.grad = None
    loss.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    def value() -> float:
        with ad.no_grad():
            return float((fn().data * weights).sum())

    numeric = []
    for t in tensors:
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = value()
            flat[i] = orig - h
            minus = value()
            flat[i] = orig
            nflat[i] = (plus - minus) / (2.0 * h)
        numeric.append(num)
    cat_a = np.concatenate([a.ravel() for a in analytic])
    cat_n = np.concatenate([n.ravel() for n in numeric])
    return rel_error(cat_a, cat_n)


def _rand(rng, *shape) -> Tensor:
    return Tensor(rng.normal(0.0, 0.5, shape), requires_grad=True)


def _randomize(module: nn.Module, rng, scale: float = 0.3) -> list[Tensor]:
    params = list(module.parameters())
    for p in params:
        p.data = rng.normal(0.0, scale, p.data.shape)
    return params


def check_conv2d() -> float:
    rng = np.random.default_rng(11)
    worst = 0.0
    for stride, padding, dilation in ((1, 1, 1), (2, 1, 1), (1, 2, 2)):
        x = _rand(rng, 1, 3, 6, 6)
        w = _rand(rng, 4, 3, 3, 3)
        b = _rand(rng, 4)
        fn = lambda: ad.conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation)
        worst = max(worst, gradcheck(fn, [x, w, b]))
    return worst


def check_conv_transpose2d() -> float:
    rng = np.random.default_rng(12)
    x = _rand(rng, 1, 4, 4, 4)
    w = _rand(rng, 4, 2, 4, 4)
    b = _rand(rng, 2)
    return gradcheck(lambda: ad.conv_transpose2d(x, w, b, stride=2, padding=1), [x, w, b])


def check_matmul() -> float:
    rng = np.random.default_rng(13)
    a = _rand(rng, 5, 7)
    b = _rand(rng, 7, 3)
    c = _rand(rng, 2, 4, 6)
    d = _rand(rng, 2, 6, 3)
    return max(gradcheck(lambda: ad.matmul(a, b), [a, b]),
               gradcheck(lambda: ad.matmul(c, d), [c, d]))


def check_softmax() -> float:
    rng = np.random.default_rng(14)
    x = _rand(rng, 3, 6)
    return gradcheck(lambda: ad.softmax(x, axis=-1), [x])


def check_elementwise() -> float:
    rng = np.random.default_rng(15)
    x = _rand(rng, 1, 2, 4, 4)
    y = _rand(rng, 1, 2, 4, 4)

    def fn():
        z = ad.mul(ad.leaky_relu(x, 0.2), ad.sigmoid(y))
        z = ad.add(z, ad.tanh(ad.scale(x, 0.5)))
        z = ad.concat([z, ad.relu(y)], axis=1)
        z = ad.avg_pool2d(z, 2)
        return ad.add(ad.global_avg_pool(z), ad.tmean(ad.absolute(x)))

    return gradcheck(fn, [x, y])


def check_batch_norm() -> float:
    rng = np.random.default_rng(16)
    bn = nn.BatchNorm2d(3)
    x = _rand(rng, 2, 3, 4, 4)
    params = _randomize(bn, rng)
    bn.gamma.data = 1.0 + 0.2 * rng.normal(size=3)
    worst = gradcheck(lambda: bn(x, training=True), [x] + params)
    bn.running_mean[:] = rng.normal(size=3)
    bn.running_var[:] = 1.0 + 0.1 * rng.random(3)
    return max(worst, gradcheck(lambda: bn(x, training=False), [x] + params))


def check_gated_conv() -> float:
    rng = np.random.default_rng(17)
    x = _rand(rng, 1, 3, 5, 5)
    wf = _rand(rng, 4, 3, 3, 3)
    wg = _rand(rng, 4, 3, 3, 3)
    bf = _rand(rng, 4)
    bg = _rand(rng, 4)
    return gradcheck(lambda: nn.gated_conv(x, wf, wg, bf, bg), [x, wf, wg, bf, bg])


def check_filter_normalize() -> float:
    rng = np.random.default_rng(21)
    raw = _rand(rng, 2, 5, 3, 3)
    alpha = _rand(rng, 5, 1, 1)
    beta = _rand(rng, 5, 1, 1)
    return gradcheck(lambda: nn.filter_normalize(raw, alpha, beta), [raw, alpha, beta])


def _module_check(seed: int, build, shapes, pick=lambda out: out):
    """Check for a block: build it from ``seed``, randomize its parameters,
    draw one input per shape, and compare gradients of ``pick(block(*inputs))``."""
    def check() -> float:
        rng = np.random.default_rng(seed)
        block = build(rng)
        params = _randomize(block, rng)
        inputs = [_rand(rng, *shape) for shape in shapes]
        return gradcheck(lambda: pick(block(*inputs)), inputs + params)
    return check


def check_loss_total() -> float:
    rng = np.random.default_rng(27)
    pred = Tensor(rng.uniform(0.05, 0.95, (1, 3, 5, 5)), requires_grad=True)
    target = Tensor(rng.uniform(0.05, 0.95, (1, 3, 5, 5)))
    mask = Tensor((rng.random((1, 1, 5, 5)) > 0.5).astype(np.float64))
    fn = lambda: losses.loss_total(pred, target, mask, lambda_local=10.0, lambda_ssim=1.0)
    return gradcheck(fn, [pred])


OP_CHECKS = {
    "conv2d": check_conv2d,
    "conv_transpose2d": check_conv_transpose2d,
    "matmul": check_matmul,
    "softmax": check_softmax,
    "elementwise": check_elementwise,
    "batch_norm": check_batch_norm,
    "gated_conv": check_gated_conv,
    "rb_gc": _module_check(18, lambda rng: nn.GatedResidualBlock(rng, 4), [(1, 4, 6, 6)]),
    "rb_df": _module_check(19, lambda rng: nn.DynamicFilterResidualBlock(rng, 4), [(1, 4, 5, 5)]),
    "scdf": _module_check(20, lambda rng: nn.SCDF(rng, 4), [(1, 4, 5, 5)]),
    "filter_normalize": check_filter_normalize,
    "aspp": _module_check(22, lambda rng: nn.ASPP(rng, 4, rates=(2, 4, 6)), [(1, 4, 6, 6)]),
    "mmcf": _module_check(23, lambda rng: fusion.MMCF(rng, 3), [(1, 3, 5, 5)] * 2,
                          pick=lambda out: out[2]),
    "scru": _module_check(24, lambda rng: fusion.SCRU(rng, 4), [(1, 4, 3, 3)]),
    "mwru": _module_check(25, lambda rng: fusion.MWRU(rng, 4), [(1, 4, 3, 3)] * 3),
    "mmrf": _module_check(26, lambda rng: fusion.MMRF(rng, 4), [(1, 4, 3, 3)] * 3),
    "loss_total": check_loss_total,
}


def run_suite(names=None, log=print) -> dict[str, float]:
    """Run the named checks (all by default); returns name -> max rel error."""
    names = list(OP_CHECKS) if names is None else list(names)
    results = {}
    for name in names:
        err = OP_CHECKS[name]()
        results[name] = err
        status = "pass" if err <= TOLERANCE else "FAIL"
        log(f"{name:<18} max_rel_err={err:.3e} {status}")
    return results
