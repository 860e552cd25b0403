"""Reverse-mode autodiff over dense float64 numpy arrays.

Every operation records a closure on a single-use tape; ``Tensor.backward()``
walks the tape in reverse topological order and accumulates gradients into
the leaves that require them. Only leaves keep ``.grad``: after
``backward()`` a non-leaf tensor's ``.grad`` is ``None``. The walk frees the
tape as it goes, dropping each node's gradient, closure and saved inputs once
its own closure has run, so backward peaks near the size of the forward tape
rather than at twice it. Network tensors are NCHW rank-4, but the
engine itself is shape-agnostic so attention code can work on flattened
matrix views. A convolution is a GEMM over patches gathered with stride
tricks (im2col); each GEMM takes its operands in the memory layout the layout
rule at ``_SMALL_GEMM_MACS`` allows. The quadruple-loop definition and the
``tensordot`` forms of the GEMMs live in the test suite as reference oracles.

Op contract: an op records one backward closure per tape node. It takes the
output gradient ``g`` and hands each parent its vector-Jacobian product as
``_give(parent, lambda: vjp)``, so an op body states only its VJPs; whether
a parent needs a gradient, the sum over broadcast axes and the accumulation
live in ``_give`` alone. The closure is one per node, not one per parent,
because each closure object and its captured cells are garbage-collector
work on every step. It accumulates rather than returning gradients, because
perfbench's tracer wraps a node's ``_backward`` as a one-argument callable
and discards its return value.

A fused op (``batch_norm``, ``filter_normalize``, ``linear`` and
``tap_sum``) records one node for a chain of elementary ops and keeps only
the chain's inputs and output; its closure recomputes the intermediates it
needs. It replays the chain's VJP expressions exactly as the
chain writes them, in the chain's reverse topological order: a gradient that
passes between the chain's own steps is summed to that step's shape with
``_sum_to``, as ``_give`` would, a term the chain adds twice is added twice,
and an input the chain hands two gradients gets two ``_give`` calls in the
same order. So every gradient has the chain's bits. It never writes in place
into an array it has passed to ``_give``, because ``_give`` may keep that
array as a gradient, and ``add`` hands one array to both of its parents. The
chains stay in ``tests/conftest.py`` as the oracles of the fused ops.

The tape keeps what backward reads. ``conv2d`` with a ``slope`` ends in a
LeakyReLU epilogue: one node adds the bias, applies ``maximum(y, slope * y)``
and keeps the activated output, never the pre-activation. For a slope in
(0, 1] the output is positive exactly where its input is (NaN included), so
backward forms ``where(out > 0, g, slope * g)``, which has the bits of
``leaky_relu``'s ``g * where(a > 0, 1, slope)``, and goes on with the conv's
VJPs. The network fuses only a conv whose one consumer is its activation and
that ran right after it in the walk, so every gradient keeps its order.
``unfold`` returns a read-only strided view over its padded input in place of
a k*k-fold copy; ``tap_sum`` forms its products from it in C order, so its
sums keep the bits of the copy.

Only pure numpy work may leave the calling thread, for one worker thread
(see ``CONV_OVERLAP_MIN``), in two places. Outside a backward walk, a large
convolution forward computes one half of its output there (split along the
batch, or along a lone sample's output rows) while the calling thread
computes the other; each half gathers its own patches and makes its own GEMM,
and the calling thread waits for both. Each output element sums the same
products in the same order as in one GEMM (see ``_SMALL_GEMM_MACS``), so the
bits do not change. Inside a walk nothing splits: the stride-1 input gradient
calls the forward, and the worker's queue then holds weight gradients. A
large convolution's weight gradient runs on the worker, and the conv's
closure does not wait for it. It leaves the result in the walk's pending
table and returns, so the calling thread goes on with the input gradient and
the nodes after it. The order rule: a tensor's pending results are handed
over, oldest first, before anything else is added to its gradient
(``_give``), before its own closure reads that gradient, and at the end of
the walk. Each tensor therefore sums the same contributions in the same order
as the inline path, from the same BLAS calls, so the bits do not change.
``_give`` never leaves the calling thread, so only one thread ever writes a
``.grad``, and the tracer's spans, which must close in stack order, all open
and close on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import contextvars
import math
import os

import numpy as np

_GRAD_ENABLED = True
# During Tensor.backward: id(weight) -> (weight, [future.result, ...]) for the
# conv weight gradients still on the worker; None outside a walk.
_PENDING: dict | None = None
BN_MOMENTUM = 0.1   # weight of the batch statistics in each running-stat update
BN_EPS = 1e-5       # added to the variance before its square root
FILTER_NORM_EPS = 1e-6   # added to a kernel's std, which vanishes for a constant kernel
# A conv backward whose output gradient has at least this many elements
# computes its weight gradient on the worker thread, while the calling thread
# goes on with the input gradient and the nodes after it. The smallest 3x3
# conv output gradient at patch 64, width 16, batch 2 has 32,768 elements, the
# largest at desk scale 8,192. On 2 cores with one BLAS thread, a desk
# backward with every conv deferred (threshold 0) gained nothing: 48.1, 51.9
# and 58.7 ms against 46.6, 50.4 and 62.0 ms in three processes, faster in 27
# of 60 alternating steps. A lower threshold would also start a second thread
# in each ablation worker process, and the ablation runner already runs one
# such process per core. A conv forward outside a walk splits when each of
# its two halves has this many output elements, since each half pays the
# hand-off. With ``_SMALL_GEMM_MACS`` no desk forward splits at batch 1, 2 or
# 3 even at half this threshold. At patch 64, width 16, half of it would
# split 100 of the 147 convs of a batch-1 forward in place of 54, for a
# no-grad forward of 121.6 against 125.3 ms (faster in 16 of 20
# alternations); at batch 2 the same 128 convs split either way.
CONV_OVERLAP_MIN = 16384
# OpenBLAS hands a product of at most this many multiply-adds to its
# small-matrix kernel, whose rounding depends on the operands' memory layout
# and on the number of output positions, and numpy hands a product with one
# row or one column to a matrix-vector call, whose rounding depends on the
# layout. Above both, each output element sums its multiply-adds in one order
# whatever the layout and the number of positions. Two rules follow, both
# through ``_large_gemm``. A conv forward splits only above both, where each
# half's GEMM gives the bits of the whole one. And a GEMM helper may read its
# operands in the layout that is cheapest to gather, or write its product
# transposed, only above both; below, it keeps the layouts ``np.tensordot``
# builds, down to which operand is a view.
_SMALL_GEMM_MACS = 10 ** 6


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
        and its ``.grad`` is ``None`` afterwards. A weight gradient left on the
        worker lands when the walk ends, or earlier when another gradient for
        the same tensor arrives; if the walk fails, it is dropped.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar root, got shape {self.shape}")
        if self._consumed:
            raise GraphError("graph already consumed; rerun the forward pass before calling backward() again")

        global _PENDING
        topo = _topo(self)
        self.grad = np.ones_like(self.data)
        self._consumed = True
        _PENDING = pending = {}
        try:
            # reverse topological order: every consumer of a node ran before it
            while topo:
                node = topo.pop()
                if node._backward is not None:
                    if pending and id(node) in pending:  # a computed weight
                        _hand_over(node)
                    if node.grad is not None:
                        node._backward(node.grad)
                node._backward = None
                node._parents = ()
                if node._op != "leaf":
                    node.grad = None
                    node._consumed = True
                elif not node.requires_grad:
                    node.grad = None
            for t, _ in list(pending.values()):
                _hand_over(t)
        finally:
            _PENDING = None  # a failed walk's results never reach a later walk


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


def _sum_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient ``g`` back down to ``shape``: first the
    leading axes ``shape`` lacks, then its size-1 axes that ``g`` spreads."""
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
        if axes:
            g = g.sum(axis=axes, keepdims=True)
    return g


def _give(t: Tensor, vjp) -> None:
    """Route a gradient to parent ``t``; every op's backward goes through here.

    ``vjp`` is a thunk, called only when ``t`` requires a gradient. A
    broadcast result is summed back down to ``t``'s shape by ``_sum_to``. The
    first gradient is stored as is when it is a float64 array that owns its
    buffer and copied otherwise, so a grad is never a view into another array;
    later gradients are added. Deferred weight gradients of ``t`` are handed
    over first.
    """
    if not t.requires_grad:
        return
    if _PENDING and id(t) in _PENDING:
        _hand_over(t)
    g = _sum_to(vjp(), t.data.shape)
    if t.grad is None:
        t.grad = g if g.base is None and g.dtype == np.float64 else np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _defer(t: Tensor, result) -> None:
    """Queue a worker's ``result`` for ``t`` in the walk's pending table."""
    _PENDING.setdefault(id(t), (t, []))[1].append(result)


def _hand_over(t: Tensor) -> None:
    """Give ``t`` its pending weight gradients, oldest first, waiting for each."""
    for result in _PENDING.pop(id(t))[1]:
        _give(t, result)


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


def _check_slope(op: str, alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"{op}: slope {alpha} is outside (0, 1]")


def leaky_relu(a, alpha: float) -> Tensor:
    """LeakyReLU for a slope ``0 < alpha <= 1``; the subgradient at 0 takes the
    negative-slope branch.

    The forward ``maximum(a, alpha * a)`` has the bits of
    ``where(a > 0, a, alpha * a)`` in one pass: with ``alpha`` in that range,
    ``alpha * a`` lies between 0 and ``a`` and keeps the sign of a zero, and a
    quiet NaN passes through with its payload. A signalling NaN, which no
    arithmetic produces, passes through unquieted. At ``alpha = 0`` the two
    differ on +inf (``0 * inf`` is NaN), so the range excludes it.
    """
    _check_slope("leaky_relu", alpha)
    a = as_tensor(a)
    return _node(np.maximum(a.data, alpha * a.data), (a,),
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


def _conv_gemm(w: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None):
    """The correlation of the (N, C, kh, kw, Ho, Wo) patch view ``cols`` with
    ``w`` as a C-ordered (N, Co, Ho, Wo) array, or written into ``out``: one
    GEMM of the (Co, K) weight and the (K, N·Ho·Wo) patch gather."""
    co, n, ho, wo = w.shape[0], cols.shape[0], cols.shape[4], cols.shape[5]
    cols_km = cols.transpose(1, 2, 3, 0, 4, 5).reshape(w.size // co, n * ho * wo)
    y = np.dot(w.reshape(co, -1), cols_km).reshape(co, n, ho, wo).transpose(1, 0, 2, 3)
    if out is None:
        return np.ascontiguousarray(y)  # no copy at N = 1
    out[...] = y


def _large_gemm(rows: int, inner: int, cols: int) -> bool:
    """Whether a (rows, inner) @ (inner, cols) product has the same bits
    whatever its operands' layout and however its columns are split (see
    ``_SMALL_GEMM_MACS``)."""
    return rows >= 2 and cols >= 2 and rows * inner * cols > _SMALL_GEMM_MACS


def _conv_fwd(x: np.ndarray, w: np.ndarray, stride: int, pad: int, dilation: int) -> np.ndarray:
    """Correlate NCHW ``x`` with ``w``. Outside a backward walk, a conv whose
    two halves (of the batch, or of a lone sample's output rows) each have at
    least ``CONV_OVERLAP_MIN`` output elements, and a GEMM above the
    small-GEMM size (``_large_gemm``), computes one half on the worker."""
    kh, kw = w.shape[2], w.shape[3]
    ho = conv_out_size(x.shape[2], kh, stride, pad, dilation)
    wo = conv_out_size(x.shape[3], kw, stride, pad, dilation)
    if ho <= 0 or wo <= 0:
        raise ShapeError(f"conv: kernel {kh}x{kw} (dilation {dilation}) does not fit input {x.shape}")
    cols = _patch_view(_pad_hw(x, pad), kh, kw, stride, dilation, ho, wo)
    n, c_out = x.shape[0], w.shape[0]
    parts = n if n >= 2 else ho
    half = parts // 2
    half_size = n * c_out * ho * wo // parts * half
    if (_PENDING is None and half_size >= CONV_OVERLAP_MIN
            and _large_gemm(c_out, w.size // c_out, half_size // c_out)):
        y = np.empty((n, c_out, ho, wo))
        first = np.s_[:half] if n >= 2 else np.s_[..., :half, :]
        rest = np.s_[half:] if n >= 2 else np.s_[..., half:, :]
        job = _in_worker(_conv_gemm, w, cols[first], y[first])
        _conv_gemm(w, cols[rest], y[rest])
        job.result()
        return y
    return _conv_gemm(w, cols)


def _conv_dw(x: np.ndarray, dy: np.ndarray, kernel: tuple, stride: int, pad: int,
             dilation: int) -> np.ndarray:
    n, co, ho, wo = dy.shape
    cols = _patch_view(_pad_hw(x, pad), kernel[0], kernel[1], stride, dilation, ho, wo)
    c, m = cols.shape[1], n * ho * wo
    k = c * kernel[0] * kernel[1]
    dy_mat = dy.transpose(1, 0, 2, 3).reshape(co, m)
    if _large_gemm(co, m, k):  # the forward's (K, M) gather, read transposed
        cols_mk = cols.transpose(1, 2, 3, 0, 4, 5).reshape(k, m).T
    else:
        cols_mk = cols.transpose(0, 4, 5, 1, 2, 3).reshape(m, k)
    return np.dot(dy_mat, cols_mk).reshape(co, c, kernel[0], kernel[1])


def _conv_dx(dy: np.ndarray, w: np.ndarray, xh: int, xw: int, stride: int,
             pad: int, dilation: int) -> np.ndarray:
    """Adjoint of _conv_fwd: scatter dy back through the kernel taps.

    For stride 1 the scatter collapses to one correlation with the kernel
    flipped and its channel axes swapped, which is a single GEMM. Otherwise one
    GEMM gives every tap's contribution and ``_col2im`` adds them up; above the
    small-GEMM size it writes them tap-major, so each tap is a contiguous slice.
    """
    co, c, kh, kw = w.shape
    flip_pad = dilation * (kh - 1) - pad
    if stride == 1 and kh == kw and flip_pad >= 0:
        w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
        dx = _conv_fwd(dy, w_flip, 1, flip_pad, dilation)
        if dx.shape[2] != xh or dx.shape[3] != xw:
            raise ShapeError(f"conv backward: expected ({xh},{xw}), got {dx.shape}")
        return dx
    n, ho, wo = dy.shape[0], dy.shape[2], dy.shape[3]
    m, k = n * ho * wo, c * kh * kw
    if _large_gemm(k, co, m):
        taps = np.dot(w.reshape(co, k).T, dy.transpose(1, 0, 2, 3).reshape(co, m))
        cols = taps.reshape(c, kh, kw, n, ho, wo).transpose(3, 0, 1, 2, 4, 5)
    else:
        taps = np.dot(dy.transpose(0, 2, 3, 1).reshape(m, co), w.reshape(co, k))
        cols = taps.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    return _col2im(cols, xh, xw, stride, dilation, pad)


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
        _WORKER = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="podfcr-conv")
    return _WORKER.submit(contextvars.copy_context().run, fn, *args)


def _forget_worker() -> None:
    global _WORKER
    _WORKER = None


# a forked child has no worker thread, only the parent's pool object
os.register_at_fork(after_in_child=_forget_worker)


def _conv(op: str, x, weight, bias, stride: int, padding: int, dilation: int,
          transposed: bool, slope: float | None = None) -> Tensor:
    """conv2d, or with ``transposed`` its adjoint conv_transpose2d.

    The two swap which of _conv_fwd and _conv_dx is the forward and which the
    input VJP, and which side of _conv_dw the input and the output gradient
    take; they share the operand checks and the bias gradient. With a
    ``slope``, the node ends in the LeakyReLU epilogue (see ``conv2d``).
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
    if slope is not None:
        y = np.maximum(y, slope * y)  # leaky_relu's forward

    def bw(g):
        if slope is not None:  # leaky_relu's VJP, its mask read from the output
            g = np.where(y > 0.0, g, slope * g)
        if transposed:
            dx = lambda: _conv_fwd(g, weight.data, stride, padding, dilation)
            dw_args = (g, x.data, weight.shape[2:], stride, padding, dilation)
        else:
            dx = lambda: _conv_dx(g, weight.data, x.shape[2], x.shape[3], stride, padding,
                                  dilation)
            dw_args = (x.data, g, weight.shape[2:], stride, padding, dilation)
        if x.requires_grad and weight.requires_grad and g.size >= CONV_OVERLAP_MIN:
            dw, give_w = _in_worker(_conv_dw, *dw_args).result, _defer
        else:
            dw, give_w = (lambda: _conv_dw(*dw_args)), _give
        _give(x, dx)
        give_w(weight, dw)
        if bias is not None:
            _give(bias, lambda: g.sum(axis=(0, 2, 3)))

    return _node(y, (x, weight) if bias is None else (x, weight, bias), bw, op)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, dilation: int = 1,
           slope: float | None = None) -> Tensor:
    """2-D cross-correlation of NCHW input with (C_out, C_in, kh, kw) weights;
    with a ``slope`` in (0, 1], one node with the bits of
    ``leaky_relu(conv2d(...), slope)`` (the epilogue of the module docstring)."""
    if slope is not None:
        _check_slope("conv2d", slope)
    return _conv("conv2d", x, weight, bias, stride, padding, dilation, False, slope)


def conv_transpose2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution, the exact adjoint of undilated conv2d with shared
    weights (C_in, C_out, kh, kw); output extent is (H-1)*stride - 2*padding + kh.
    """
    return _conv("conv_transpose2d", x, weight, bias, stride, padding, 1, True)


def unfold(x, kernel: int = 3) -> Tensor:
    """Sliding k*k patches of an NCHW tensor, zero padded by k // 2, as a
    read-only (N, C, k, k, H, W) strided view over the padded input, which
    holds the patches in 1x the input's memory in place of a k*k-fold copy."""
    x = as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"unfold: input must be NCHW rank 4, got shape {x.shape}")
    k = int(kernel)
    padding = k // 2
    ho = conv_out_size(x.shape[2], k, 1, padding, 1)
    wo = conv_out_size(x.shape[3], k, 1, padding, 1)
    cols = _patch_view(_pad_hw(x.data, padding), k, k, 1, 1, ho, wo)
    cols.flags.writeable = False
    return _node(cols, (x,), lambda g: _give(
        x, lambda: _col2im(g, x.shape[2], x.shape[3], 1, 1, padding)), "unfold")


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
# normalization
# ---------------------------------------------------------------------------

def _normalize_vjp(t: Tensor, g_n: np.ndarray, centered: np.ndarray, sd: np.ndarray,
                   den: np.ndarray, count: int) -> None:
    """Give ``t`` the gradient of ``n = c / den`` from ``g_n``, replaying the
    VJPs of ``c = sub(t, tmean(t))``, ``sd = sqrt(tmean(mul(c, c)))`` and
    ``div(c, den)``, where ``den`` is ``sd`` plus a constant, before or after
    the square root; ``count`` entries share each of ``den``'s statistics."""
    g_c = g_n / den
    g_var = _sum_to(-g_n * centered / (den * den), den.shape) * (0.5 / sd)
    g_sq = np.broadcast_to(g_var / count, t.shape).copy()
    g_c = g_c + g_sq * centered  # mul(c, c) hands c two equal terms
    g_c = g_c + g_sq * centered
    _give(t, lambda: g_c)
    g_m = _sum_to(-g_c, den.shape)
    _give(t, lambda: np.broadcast_to(g_m / count, t.shape).copy())


def batch_norm(x, gamma, beta, running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch norm over (N, H, W); running stats update in place.

    Training mode normalizes with the biased batch variance and folds the
    batch statistics into the running buffers with weight ``BN_MOMENTUM``;
    eval mode uses copies of the buffers, taken when the op runs. Both add
    ``BN_EPS`` to the variance and record one fused node (see the op
    contract) replaying the VJPs of the chain
    ``add(mul(g4, div(sub(x, m), sqrt(add(v, eps)))), b4)``, where ``m`` and
    ``v`` are ``tmean(x)`` and ``tmean(mul(c, c))`` with ``c = sub(x, m)`` in
    training mode, and the buffer copies, as constants, in eval mode.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ShapeError(f"batch_norm: input must be NCHW rank 4, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must have shape ({c},)")
    shape4 = (1, c, 1, 1)
    axes = (0, 2, 3)
    n = x.shape[0] * x.shape[2] * x.shape[3]
    frozen = None if training else (running_mean.reshape(shape4).copy(),
                                    running_var.reshape(shape4).copy())

    def stats():
        m = frozen[0] if frozen else x.data.mean(axis=axes, keepdims=True)
        centered = x.data - m
        var = frozen[1] if frozen else (centered * centered).mean(axis=axes, keepdims=True)
        return m, centered, var, np.sqrt(var + BN_EPS)

    m, centered, var, sd = stats()
    y = gamma.data.reshape(shape4) * (centered / sd) + beta.data.reshape(shape4)
    if training:
        unbias = n / (n - 1) if n > 1 else 1.0
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * m.reshape(c)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbias * var.reshape(c)

    def bw(g):
        _, centered, _, sd = stats()
        _give(beta, lambda: _sum_to(g, shape4).reshape(c))
        _give(gamma, lambda: _sum_to(g * (centered / sd), shape4).reshape(c))
        if frozen:  # constant statistics: x's gradient ends at sub(x, m)
            _give(x, lambda: g * gamma.data.reshape(shape4) / sd)
        elif x.requires_grad:
            _normalize_vjp(x, g * gamma.data.reshape(shape4), centered, sd, sd, n)

    return _node(y, (x, gamma, beta), bw, "batch_norm")


def filter_normalize(raw, alpha, beta) -> Tensor:
    """``alpha * c / (sd + FILTER_NORM_EPS) + beta`` over the trailing two
    (kernel) axes, with ``c`` the centred ``raw`` and ``sd`` its biased
    standard deviation.

    One fused node replaying the VJPs of the chain
    ``add(mul(alpha, div(c, add(sqrt(tmean(mul(c, c))), FILTER_NORM_EPS))), beta)``
    with ``c = sub(raw, tmean(raw))``.
    """
    raw, alpha, beta = as_tensor(raw), as_tensor(alpha), as_tensor(beta)
    axes = (-2, -1)
    count = raw.shape[-2] * raw.shape[-1]

    def normalize():
        centered = raw.data - raw.data.mean(axis=axes, keepdims=True)
        sd = np.sqrt((centered * centered).mean(axis=axes, keepdims=True))
        den = sd + FILTER_NORM_EPS
        return centered, sd, den, centered / den

    def bw(g):
        centered, sd, den, normed = normalize()
        _give(beta, lambda: g)
        _give(alpha, lambda: g * normed)
        if raw.requires_grad:
            _normalize_vjp(raw, _sum_to(g * alpha.data, raw.shape), centered, sd, den, count)

    normed = normalize()[3]
    return _node(alpha.data * normed + beta.data, (raw, alpha, beta), bw, "filter_normalize")


# ---------------------------------------------------------------------------
# fused products
# ---------------------------------------------------------------------------

def linear(x, weight, bias) -> Tensor:
    """``x @ weight.T + bias`` for ``x`` of shape (B, in_features), as one
    fused node replaying ``add(matmul(x, transpose(weight, (1, 0))), bias)``."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {weight.shape}")

    def transposed():  # transpose's output, so each GEMM sees the chain's layout
        return np.ascontiguousarray(weight.data.transpose((1, 0)))

    def bw(g):
        _give(bias, lambda: g)
        _give(x, lambda: np.matmul(g, _swap_last(transposed())))
        _give(weight, lambda: np.matmul(_swap_last(x.data), g).transpose((1, 0)))

    return _node(np.matmul(x.data, transposed()) + bias.data, (x, weight, bias), bw, "linear")


def tap_sum(patches, spatial, channel) -> Tensor:
    """``sum_uv patches[:, :, u, v] * spatial[:, :, u, v] * channel[:, :, u, v]``
    over the tap axes 2 and 3, the three (N, C, k, k, H, W) operands
    broadcasting against each other; one fused node replaying
    ``tsum(mul(mul(patches, spatial), channel), axis=2)`` over the taps merged
    into one axis of k*k, as ``unfold`` once copied them.

    ``patches`` may be ``unfold``'s strided view. Every product with it is
    formed in C order, so the sums over the taps and over broadcast axes run
    in the order they ran on the merged, contiguous copy and keep its bits.
    """
    patches, spatial, channel = as_tensor(patches), as_tensor(spatial), as_tensor(channel)

    def bw(g):
        g = g[:, :, None, None]  # tsum's broadcast copy left as a broadcast: same values
        g_ps = g * channel.data
        _give(channel, lambda: g * np.multiply(patches.data, spatial.data, order="C"))
        _give(patches, lambda: g_ps * spatial.data)
        _give(spatial, lambda: np.multiply(g_ps, patches.data, order="C"))

    prod = np.multiply(patches.data, spatial.data, order="C")
    prod *= channel.data
    n, c, k, _, h, w = prod.shape
    out = prod.reshape(n, c, k * k, h, w).sum(axis=2)
    return _node(out, (patches, spatial, channel), bw, "tap_sum")


def first_nonfinite_op(root: Tensor, named_parameters=()) -> str | None:
    """Name of the earliest op (forward order) whose output is non-finite.

    Given the ``(name, parameter)`` pairs of a module, the name also gives the
    parameter nearest to that op upstream on the tape, as in
    ``"sar_rb3.filters.0.fn_channel.alpha via filter_normalize"``, or
    ``"leaf <name>"`` when that parameter itself is non-finite.
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
