"""Reverse-mode autodiff over dense float64 numpy arrays.

Every operation records a closure on a single-use tape; ``Tensor.backward()``
walks the tape in reverse topological order and accumulates gradients into
the leaves that require them. Only leaves keep ``.grad``: after
``backward()`` a non-leaf tensor's ``.grad`` is ``None``. The walk frees the
tape as it goes, dropping each node's gradient, closure and saved inputs once
its own closure has run, so backward peaks near the size of the forward tape
rather than at twice it. Network tensors are NCHW rank-4, but the
engine itself is shape-agnostic so attention code can work on flattened
matrix views. Convolutions gather sliding patches with stride tricks and
reduce them with ``tensordot``; the quadruple-loop definition lives in the
test suite as the reference oracle.

Op contract: an op records one backward closure per tape node. It takes the
output gradient ``g`` and hands each parent its vector-Jacobian product as
``_give(parent, lambda: vjp)``, so an op body states only its VJPs; whether
a parent needs a gradient, the sum over broadcast axes and the accumulation
live in ``_give`` alone. The closure is one per node, not one per parent,
because each closure object and its captured cells are garbage-collector
work on every step. It accumulates rather than returning gradients, because
perfbench's tracer wraps a node's ``_backward`` as a one-argument callable
and discards its return value.

Only pure numpy work may leave the calling thread: a large convolution's
weight gradient runs on one worker thread while the calling thread computes
the input gradient (see ``CONV_OVERLAP_MIN``). ``_give`` never leaves it. The
closure waits for the worker's result and hands it to ``_give`` in the same
order as the inline path, so every gradient is accumulated in one fixed
order, only one thread ever writes a ``.grad``, and the tracer's spans, which
must close in stack order, all open and close on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import math
import os

import numpy as np

_GRAD_ENABLED = True
BN_MOMENTUM = 0.1   # weight of the batch statistics in each running-stat update
BN_EPS = 1e-5       # added to the variance before its square root
# A conv backward whose output gradient has at least this many elements
# computes its weight gradient on a worker thread while the calling thread
# computes the input gradient. The two read the same arrays and make the same
# BLAS calls, so the bits do not change. Small gradients lose more to the
# thread hand-off than the overlap gains. On 2 cores with one BLAS thread, a
# 3x3 conv's two gradients took 0.32 ms inline and 0.41 ms overlapped at
# (1,8,32,32), the largest at desk scale (8,192 elements), and a desk
# backward with every conv on the worker ran 17% slower. At (2,64,16,16), the
# smallest 3x3 conv at patch 64, width 16, batch 2 (32,768 elements), they
# took 3.4 ms inline and 2.1 ms overlapped. The threshold sits between.
CONV_OVERLAP_MIN = 16384


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class ShapeError(ValueError):
    """An operand's shape violates the operator contract."""


class GraphError(RuntimeError):
    """backward() called on a non-scalar root or an already-consumed graph."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def backward(self):
        """Backpropagate from a scalar loss; the graph is single-use.

        Fills ``.grad`` on the leaves that require it. Every non-leaf node is
        released as the walk passes it: its closure and parents are dropped
        and its ``.grad`` is ``None`` afterwards.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar root, got shape {self.shape}")
        if self._consumed:
            raise GraphError("graph already consumed; rerun the forward pass before calling backward() again")

        topo = _topo(self)
        self.grad = np.ones_like(self.data)
        self._consumed = True
        # reverse topological order: every consumer of a node ran before it
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()
            if node._op != "leaf":
                node.grad = None
                node._consumed = True
            elif not node.requires_grad:
                node.grad = None


def _topo(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root``, parents before children (iterative DFS)."""
    topo: list[Tensor] = []
    visited = {id(root)}
    stack: list[tuple[Tensor, iter]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        pushed = False
        for p in it:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            topo.append(node)
            stack.pop()
    return topo


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backward, op: str) -> Tensor:
    out = Tensor(data)
    out._op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _give(t: Tensor, vjp) -> None:
    """Route a gradient to parent ``t``; every op's backward goes through here.

    ``vjp`` is a thunk, called only when ``t`` requires a gradient. A
    broadcast result is summed back down to ``t``'s shape. The first gradient
    is stored as is when it is a float64 array that owns its buffer and copied
    otherwise, so a grad is never a view into another array; later gradients
    are added.
    """
    if not t.requires_grad:
        return
    g = vjp()
    shape = t.data.shape
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
        if axes:
            g = g.sum(axis=axes, keepdims=True)
    if t.grad is None:
        t.grad = g if g.base is None and g.dtype == np.float64 else np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        _give(a, lambda: g)
        _give(b, lambda: g)

    return _node(a.data + b.data, (a, b), bw, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        _give(a, lambda: g)
        _give(b, lambda: -g)

    return _node(a.data - b.data, (a, b), bw, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        _give(a, lambda: g * b.data)
        _give(b, lambda: g * a.data)

    return _node(a.data * b.data, (a, b), bw, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        _give(a, lambda: g / b.data)
        _give(b, lambda: -g * a.data / (b.data * b.data))

    return _node(a.data / b.data, (a, b), bw, "div")


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _node(a.data * c, (a,), lambda g: _give(a, lambda: g * c), "scale")


def absolute(a) -> Tensor:
    """|x|; the subgradient at 0 is taken as 0."""
    a = as_tensor(a)
    return _node(np.abs(a.data), (a,), lambda g: _give(a, lambda: g * np.sign(a.data)), "abs")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)
    return _node(out_data, (a,), lambda g: _give(a, lambda: g * (0.5 / out_data)), "sqrt")


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _node(np.maximum(a.data, 0.0), (a,), lambda g: _give(a, lambda: g * (a.data > 0.0)),
                 "relu")


def leaky_relu(a, alpha: float) -> Tensor:
    """LeakyReLU; the subgradient at 0 takes the negative-slope branch."""
    a = as_tensor(a)
    return _node(np.where(a.data > 0.0, a.data, alpha * a.data), (a,),
                 lambda g: _give(a, lambda: g * np.where(a.data > 0.0, 1.0, alpha)), "leaky_relu")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.data))
    return _node(s, (a,), lambda g: _give(a, lambda: g * s * (1.0 - s)), "sigmoid")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    t = np.tanh(a.data)
    return _node(t, (a,), lambda g: _give(a, lambda: g * (1.0 - t * t)), "tanh")


def _reduce(a, axis, keepdims: bool, mean: bool, op: str) -> Tensor:
    """Sum, or with ``mean`` average, over ``axis``. The backward spreads the
    output gradient (divided by the number of entries averaged) evenly back
    over the reduced axes."""
    a = as_tensor(a)
    ax = (axis,) if isinstance(axis, int) else axis
    count = 1
    if mean:
        count = a.data.size if ax is None else math.prod(a.data.shape[i] for i in ax)
    y = (a.data.mean if mean else a.data.sum)(axis=ax, keepdims=keepdims)

    def bw(g):
        if ax is not None and not keepdims:
            g = np.expand_dims(g, ax)
        # copy in C order: _give would copy the broadcast view in stride order
        _give(a, lambda: np.broadcast_to(g / count, a.shape).copy())

    return _node(y, (a,), bw, op)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    return _reduce(a, axis, keepdims, False, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    return _reduce(a, axis, keepdims, True, "mean")


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(a.data.reshape(tuple(shape)), (a,), lambda g: _give(a, lambda: g.reshape(a.shape)),
                 "reshape")


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(np.ascontiguousarray(a.data.transpose(axes)), (a,),
                 lambda g: _give(a, lambda: g.transpose(inv)), "transpose")


def concat(tensors, axis: int = 1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])

    def bw(g):
        idx = [slice(None)] * g.ndim
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx[axis] = slice(lo, hi)
            _give(t, lambda: np.ascontiguousarray(g[tuple(idx)]))

    return _node(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), bw, "concat")


def pad(a, widths) -> Tensor:
    """Zero padding; ``widths`` is a per-axis (before, after) sequence."""
    a = as_tensor(a)
    widths = tuple((int(lo), int(hi)) for lo, hi in widths)
    inner = tuple(slice(lo, lo + n) for (lo, _), n in zip(widths, a.shape))
    return _node(np.pad(a.data, widths), (a,),
                 lambda g: _give(a, lambda: np.ascontiguousarray(g[inner])), "pad")


def broadcast_to(a, shape) -> Tensor:
    a = as_tensor(a)
    return _node(np.broadcast_to(a.data, tuple(shape)).copy(), (a,), lambda g: _give(a, lambda: g),
                 "broadcast_to")


# ---------------------------------------------------------------------------
# matmul / softmax
# ---------------------------------------------------------------------------

def _swap_last(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a, b) -> Tensor:
    """Matrix product; leading axes broadcast (np.matmul semantics)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least rank 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")

    def bw(g):
        _give(a, lambda: np.matmul(g, _swap_last(b.data)))
        _give(b, lambda: np.matmul(_swap_last(a.data), g))

    return _node(np.matmul(a.data, b.data), (a, b), bw, "matmul")


def softmax(a, axis: int = -1) -> Tensor:
    """Row-stochastic softmax with max subtraction for stability."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _node(y, (a,), lambda g: _give(a, lambda: y * (g - (g * y).sum(axis=axis, keepdims=True))),
                 "softmax")


# ---------------------------------------------------------------------------
# convolution machinery
# ---------------------------------------------------------------------------

def conv_out_size(h: int, k: int, stride: int, pad: int, dilation: int) -> int:
    return (h + 2 * pad - dilation * (k - 1) - 1) // stride + 1


def _pad_hw(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * p, w + 2 * p))
    out[:, :, p:p + h, p:p + w] = x
    return out


def _patch_view(xp: np.ndarray, kh: int, kw: int, stride: int, dilation: int,
                ho: int, wo: int) -> np.ndarray:
    """Strided view (N, C, kh, kw, Ho, Wo) over a padded NCHW array."""
    n, c = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    shape = (n, c, kh, kw, ho, wo)
    strides = (s0, s1, s2 * dilation, s3 * dilation, s2 * stride, s3 * stride)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def _col2im(cols: np.ndarray, h: int, w: int, stride: int, dilation: int,
            pad: int = 0) -> np.ndarray:
    """Adjoint of _patch_view over an (N, C, h, w) input padded by ``pad``: add
    each tap of the (N, C, kh, kw, Ho, Wo) columns onto a zero array, taps in
    row-major order, then drop the padding."""
    n, c, kh, kw, ho, wo = cols.shape
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for u in range(kh):
        for v in range(kw):
            out[:, :, u * dilation:u * dilation + ho * stride:stride,
                v * dilation:v * dilation + wo * stride:stride] += cols[:, :, u, v]
    return out if pad == 0 else np.ascontiguousarray(out[:, :, pad:pad + h, pad:pad + w])


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, pad: int, dilation: int) -> np.ndarray:
    kh, kw = w.shape[2], w.shape[3]
    ho = conv_out_size(x.shape[2], kh, stride, pad, dilation)
    wo = conv_out_size(x.shape[3], kw, stride, pad, dilation)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv: kernel {kh}x{kw} (dilation {dilation}) does not fit input {x.shape}")
    cols = _patch_view(_pad_hw(x, pad), kh, kw, stride, dilation, ho, wo)
    y = np.tensordot(w, cols, axes=([1, 2, 3], [1, 2, 3]))  # (Co, N, Ho, Wo)
    return np.ascontiguousarray(y.transpose(1, 0, 2, 3))


def _conv_dw(x: np.ndarray, dy: np.ndarray, kernel: tuple, stride: int, pad: int,
             dilation: int) -> np.ndarray:
    ho, wo = dy.shape[2], dy.shape[3]
    cols = _patch_view(_pad_hw(x, pad), kernel[0], kernel[1], stride, dilation, ho, wo)
    return np.tensordot(dy, cols, axes=([0, 2, 3], [0, 4, 5]))  # (Co, C, kh, kw)


def _conv_dx(dy: np.ndarray, w: np.ndarray, xh: int, xw: int, stride: int,
             pad: int, dilation: int) -> np.ndarray:
    """Adjoint of _conv_fwd: scatter dy back through the kernel taps.

    For stride 1 the scatter collapses to one correlation with the kernel
    flipped and its channel axes swapped, which is a single GEMM.
    """
    kh, kw = w.shape[2], w.shape[3]
    flip_pad = dilation * (kh - 1) - pad
    if stride == 1 and kh == kw and flip_pad >= 0:
        w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        dx = _conv_fwd(dy, w_flip, 1, flip_pad, dilation)
        if dx.shape[2] != xh or dx.shape[3] != xw:
            raise ShapeError(f"conv backward: expected ({xh},{xw}), got {dx.shape}")
        return dx
    tmp = np.tensordot(dy, w, axes=([1], [0]))  # (N, Ho, Wo, C, kh, kw)
    return _col2im(tmp.transpose(0, 3, 4, 5, 1, 2), xh, xw, stride, dilation, pad)


_WORKER: concurrent.futures.ThreadPoolExecutor | None = None


def _in_worker(fn, *args) -> concurrent.futures.Future:
    """Start ``fn(*args)`` on the one worker thread, created on first use.

    ``fn`` runs in a copy of the caller's context, because numpy keeps its
    ``np.errstate`` there and a pool thread would otherwise run under the
    defaults. It must be pure numpy: perfbench's tracer closes its spans in
    stack order, so nothing it wraps (a public op, ``_node``, ``_give``) may
    run on the worker.
    """
    global _WORKER
    if _WORKER is None:
        _WORKER = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="podfcr-conv-dw")
    return _WORKER.submit(contextvars.copy_context().run, fn, *args)


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


# a forked child has no worker thread, only the parent's pool object
os.register_at_fork(after_in_child=_forget_worker)


def _conv(op: str, x, weight, bias, stride: int, padding: int, dilation: int,
          transposed: bool) -> Tensor:
    """conv2d, or with ``transposed`` its adjoint conv_transpose2d.

    The two swap which of _conv_fwd and _conv_dx is the forward and which the
    input VJP, and which side of _conv_dw the input and the output gradient
    take; they share the operand checks and the bias gradient.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4:
        raise ShapeError(f"{op}: input must be NCHW rank 4, got shape {x.shape}")
    layout = "(C_in, C_out, kh, kw)" if transposed else "(C_out, C_in, kh, kw)"
    if weight.ndim != 4:
        raise ShapeError(f"{op}: weight must be rank 4 {layout}, got {weight.shape}")
    c_in, c_out = weight.shape[:2] if transposed else weight.shape[1::-1]
    if x.shape[1] != c_in:
        raise ShapeError(f"{op}: input has {x.shape[1]} channels but weight expects {c_in}")
    bias = as_tensor(bias) if bias is not None else None
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"{op}: bias shape {bias.shape} does not match {c_out} output channels")

    if transposed:
        kh, kw = weight.shape[2], weight.shape[3]
        ho = (x.shape[2] - 1) * stride - 2 * padding + dilation * (kh - 1) + 1
        wo = (x.shape[3] - 1) * stride - 2 * padding + dilation * (kw - 1) + 1
        if ho <= 0 or wo <= 0:
            raise ShapeError(f"{op}: output extent {ho}x{wo} is not positive")
        y = _conv_dx(x.data, weight.data, ho, wo, stride, padding, dilation)
    else:
        y = _conv_fwd(x.data, weight.data, stride, padding, dilation)
    if bias is not None:
        y = y + bias.data[None, :, None, None]

    def bw(g):
        if transposed:
            dx = lambda: _conv_fwd(g, weight.data, stride, padding, dilation)
            dw_args = (g, x.data, weight.shape[2:], stride, padding, dilation)
        else:
            dx = lambda: _conv_dx(g, weight.data, x.shape[2], x.shape[3], stride, padding,
                                  dilation)
            dw_args = (x.data, g, weight.shape[2:], stride, padding, dilation)
        if x.requires_grad and weight.requires_grad and g.size >= CONV_OVERLAP_MIN:
            dw = _in_worker(_conv_dw, *dw_args).result
        else:
            dw = lambda: _conv_dw(*dw_args)
        _give(x, dx)
        _give(weight, dw)
        if bias is not None:
            _give(bias, lambda: g.sum(axis=(0, 2, 3)))

    return _node(y, (x, weight) if bias is None else (x, weight, bias), bw, op)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, dilation: int = 1) -> Tensor:
    """2-D cross-correlation of NCHW input with (C_out, C_in, kh, kw) weights."""
    return _conv("conv2d", x, weight, bias, stride, padding, dilation, False)


def conv_transpose2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution, the exact adjoint of undilated conv2d with shared
    weights (C_in, C_out, kh, kw); output extent is (H-1)*stride - 2*padding + kh.
    """
    return _conv("conv_transpose2d", x, weight, bias, stride, padding, 1, True)


def unfold(x, kernel: int = 3) -> Tensor:
    """Sliding k*k patches of an NCHW tensor, zero padded by k // 2, as (N, C, k*k, H, W)."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"unfold: input must be NCHW rank 4, got shape {x.shape}")
    k = int(kernel)
    padding = k // 2
    ho = conv_out_size(x.shape[2], k, 1, padding, 1)
    wo = conv_out_size(x.shape[3], k, 1, padding, 1)
    cols = _patch_view(_pad_hw(x.data, padding), k, k, 1, 1, ho, wo)
    taps = cols.shape
    out = np.ascontiguousarray(cols).reshape(x.shape[0], x.shape[1], k * k, ho, wo)
    return _node(out, (x,), lambda g: _give(
        x, lambda: _col2im(g.reshape(taps), x.shape[2], x.shape[3], 1, 1, padding)), "unfold")


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def avg_pool2d(x, kernel: int) -> Tensor:
    """Mean over non-overlapping k*k windows (the stride is the kernel)."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d: input must be NCHW rank 4, got shape {x.shape}")
    k = int(kernel)
    ho = conv_out_size(x.shape[2], k, k, 0, 1)
    wo = conv_out_size(x.shape[3], k, k, 0, 1)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"avg_pool2d: window {k} does not fit input {x.shape}")
    cols = _patch_view(x.data, k, k, k, 1, ho, wo)
    taps = cols.shape

    def bw(g):
        _give(x, lambda: _col2im(np.broadcast_to((g / (k * k))[:, :, None, None], taps),
                                 x.shape[2], x.shape[3], k, 1))

    return _node(cols.mean(axis=(2, 3)), (x,), bw, "avg_pool2d")


def global_avg_pool(x) -> Tensor:
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool: input must be NCHW rank 4, got shape {x.shape}")
    return _reduce(x, (2, 3), True, True, "global_avg_pool")


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch norm over (N, H, W); running stats update in place.

    Training mode normalizes with the biased batch variance and folds the
    batch statistics into the running buffers with weight ``BN_MOMENTUM``;
    eval mode uses the buffers. Both add ``BN_EPS`` to the variance.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm: input must be NCHW rank 4, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},)")
    g4 = reshape(gamma, (1, c, 1, 1))
    b4 = reshape(beta, (1, c, 1, 1))
    if training:
        m = tmean(x, axis=(0, 2, 3), keepdims=True)
        centered = sub(x, m)
        var = tmean(mul(centered, centered), axis=(0, 2, 3), keepdims=True)
        xhat = div(centered, sqrt(add(var, BN_EPS)))
        n = x.shape[0] * x.shape[2] * x.shape[3]
        unbias = n / (n - 1) if n > 1 else 1.0
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * m.data.reshape(c)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbias * var.data.reshape(c)
    else:
        rm = Tensor(running_mean.reshape(1, c, 1, 1).copy())
        rv = Tensor(running_var.reshape(1, c, 1, 1).copy())
        xhat = div(sub(x, rm), sqrt(add(rv, BN_EPS)))
    return add(mul(g4, xhat), b4)


def first_nonfinite_op(root: Tensor, named_parameters=()) -> str | None:
    """Name of the earliest op (forward order) whose output is non-finite.

    Given the ``(name, parameter)`` pairs of a module, the name also gives the
    parameter nearest to that op upstream on the tape, as in
    ``"sar_rb3.filters.0.fn_channel.alpha via div"``, or ``"leaf <name>"`` when
    that parameter itself is non-finite.
    """
    node = next((t for t in _topo(root) if not np.all(np.isfinite(t.data))), None)
    if node is None:
        return None
    names = {id(p): name for name, p in named_parameters}
    level, seen = [node], {id(node)}
    while level:  # breadth first, so the first named leaf met is the nearest
        for t in level:
            if id(t) in names:
                return f"leaf {names[id(t)]}" if t is node else f"{names[id(t)]} via {node._op}"
        upstream = []
        for t in level:
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    upstream.append(p)
        level = upstream
    return "leaf (parameter or input)" if node._op == "leaf" else node._op
