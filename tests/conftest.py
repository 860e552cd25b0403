"""Shared oracles: naive reference implementations kept independent of the
library's vectorized code paths, the op chains that the fused tape ops
replace (``chain_*``), each recording one tape node per elementary op, the
copying ``unfold`` that the patch view replaced (``copying_unfold``), and the
``tensordot`` forms of the conv GEMM helpers (``tensordot_conv_*``), whose
bits the helpers must keep."""

# podfcr first: it sets one BLAS thread before numpy loads OpenBLAS, so the
# in-process tests run under the thread policy of ``podfcr train``
import podfcr  # noqa: F401
import numpy as np
import pytest

from podfcr import autodiff as ad
from podfcr.autodiff import BN_EPS, FILTER_NORM_EPS, Tensor


def naive_conv2d(x, w, b=None, stride=1, padding=1, dilation=1):
    """Quadruple-loop convolution; the definition the fast path must match."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    wo = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[co, ci, u, v] * xp[ni, ci, i * stride + u * dilation,
                                                            j * stride + v * dilation]
                    out[ni, co, i, j] = acc + (b[co] if b is not None else 0.0)
    return out


def naive_scdf_apply(x, spatial, channel):
    """Per-pixel loop over the dynamic-filter definition, k odd, same shape."""
    n, c, h, w = x.shape
    k = spatial.shape[2]
    pad = k // 2
    if channel.ndim == 3:
        channel = np.broadcast_to(channel, (n,) + channel.shape)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.zeros_like(x)
    for ni in range(n):
        for m in range(c):
            for i in range(h):
                for j in range(w):
                    acc = 0.0
                    for u in range(k):
                        for v in range(k):
                            acc += (spatial[ni, 0, u, v, i, j] * channel[ni, m, u, v]
                                    * xp[ni, m, i + u, j + v])
                    out[ni, m, i, j] = acc
    return out


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def chain_filter_normalize(raw, alpha, beta):
    """ad.filter_normalize as the chain of elementary ops it fuses."""
    m = ad.tmean(raw, axis=(-2, -1), keepdims=True)
    centered = ad.sub(raw, m)
    var = ad.tmean(ad.mul(centered, centered), axis=(-2, -1), keepdims=True)
    normed = ad.div(centered, ad.add(ad.sqrt(var), FILTER_NORM_EPS))
    return ad.add(ad.mul(alpha, normed), beta)


def chain_batch_norm(x, gamma, beta, running_mean, running_var, training):
    """ad.batch_norm as the chain of elementary ops it fuses."""
    x, gamma, beta = ad.as_tensor(x), ad.as_tensor(gamma), ad.as_tensor(beta)
    c = x.shape[1]
    g4 = ad.reshape(gamma, (1, c, 1, 1))
    b4 = ad.reshape(beta, (1, c, 1, 1))
    if training:
        m = ad.tmean(x, axis=(0, 2, 3), keepdims=True)
        centered = ad.sub(x, m)
        var = ad.tmean(ad.mul(centered, centered), axis=(0, 2, 3), keepdims=True)
        xhat = ad.div(centered, ad.sqrt(ad.add(var, BN_EPS)))
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbias = n / (n - 1) if n > 1 else 1.0
        running_mean *= 1.0 - ad.BN_MOMENTUM
        running_mean += ad.BN_MOMENTUM * m.data.reshape(c)
        running_var *= 1.0 - ad.BN_MOMENTUM
        running_var += ad.BN_MOMENTUM * unbias * var.data.reshape(c)
    else:
        rm = Tensor(running_mean.reshape(1, c, 1, 1).copy())
        rv = Tensor(running_var.reshape(1, c, 1, 1).copy())
        xhat = ad.div(ad.sub(x, rm), ad.sqrt(ad.add(rv, BN_EPS)))
    return ad.add(ad.mul(g4, xhat), b4)


_CONV2D = ad.conv2d   # the op itself, for chain_conv2d once a test patches it in


def chain_conv2d(x, weight, bias=None, stride=1, padding=0, dilation=1, slope=None):
    """ad.conv2d, with a ``slope`` as the conv and ``leaky_relu`` nodes its
    epilogue fuses."""
    y = _CONV2D(x, weight, bias, stride=stride, padding=padding, dilation=dilation)
    return y if slope is None else ad.leaky_relu(y, slope)


def copying_unfold(x, kernel=3):
    """ad.unfold as a contiguous (N, C, k*k, H, W) copy of the patches."""
    x = ad.as_tensor(x)
    k = kernel
    padding = k // 2
    cols = ad._patch_view(ad._pad_hw(x.data, padding), k, k, 1, 1, x.shape[2], x.shape[3])
    taps = cols.shape
    out = np.ascontiguousarray(cols).reshape(x.shape[0], x.shape[1], k * k, *x.shape[2:])
    return ad._node(out, (x,), lambda g: ad._give(
        x, lambda: ad._col2im(g.reshape(taps), x.shape[2], x.shape[3], 1, 1, padding)), "unfold")


def chain_scdf_apply(x, spatial, channel):
    """nn.scdf_apply over the copied patches, with its tap product as a chain
    over the merged tap axis (no shape checks)."""
    x = ad.as_tensor(x)
    spatial, channel = ad.as_tensor(spatial), ad.as_tensor(channel)
    n, c, h, w = x.shape
    k = spatial.shape[2]
    patches = copying_unfold(x, kernel=k)
    sp = ad.reshape(spatial, (n, 1, k * k, h, w))
    ch_shape = (1, c, k * k, 1, 1) if channel.ndim == 3 else (n, c, k * k, 1, 1)
    ch = ad.reshape(channel, ch_shape)
    return ad.tsum(ad.mul(ad.mul(patches, sp), ch), axis=2)


def chain_linear(x, weight, bias):
    """ad.linear as the chain of elementary ops it fuses."""
    return ad.add(ad.matmul(x, ad.transpose(weight, (1, 0))), bias)


def tensordot_conv_gemm(w, cols):
    """ad._conv_gemm as one ``tensordot`` over the (C, kh, kw) axes."""
    return np.ascontiguousarray(
        np.tensordot(w, cols, axes=([1, 2, 3], [1, 2, 3])).transpose(1, 0, 2, 3))


def tensordot_conv_dw(x, dy, kernel, stride, pad, dilation):
    """ad._conv_dw as one ``tensordot`` over the (N, Ho, Wo) axes."""
    cols = ad._patch_view(ad._pad_hw(x, pad), kernel[0], kernel[1], stride, dilation,
                          dy.shape[2], dy.shape[3])
    return np.tensordot(dy, cols, axes=([0, 2, 3], [0, 4, 5]))


def tensordot_conv_dx(dy, w, xh, xw, stride, pad, dilation):
    """ad._conv_dx with each GEMM as a ``tensordot``: at stride 1 the flipped
    correlation, otherwise the taps of every output position and their
    ``_col2im`` sum."""
    kh = w.shape[2]
    flip_pad = dilation * (kh - 1) - pad
    if stride == 1 and kh == w.shape[3] and flip_pad >= 0:
        w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        cols = ad._patch_view(ad._pad_hw(dy, flip_pad), kh, kh, 1, dilation, xh, xw)
        return tensordot_conv_gemm(w_flip, cols)
    tmp = np.tensordot(dy, w, axes=([1], [0]))  # (N, Ho, Wo, C, kh, kw)
    return ad._col2im(tmp.transpose(0, 3, 4, 5, 1, 2), xh, xw, stride, dilation, pad)


def dilate_kernel(w, dilation):
    """Zero-stuff a dense kernel so a dilated conv equals a dense conv."""
    cout, cin, kh, kw = w.shape
    dh = dilation * (kh - 1) + 1
    dw = dilation * (kw - 1) + 1
    out = np.zeros((cout, cin, dh, dw))
    out[:, :, ::dilation, ::dilation] = w
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(0)
