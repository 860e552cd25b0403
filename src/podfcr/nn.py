"""Layers and building blocks: gated convolution, residual blocks, the
spatial/channel dynamic filter (SCDF) with filter normalization, the
down/upsampling blocks and the atrous pyramid (ASPP).

Modules own their parameters as ``Tensor`` leaves created from an explicit
``numpy.random.Generator`` so a seed reproduces the parameter tree bit for
bit. Built without one (``rng=None``), a module's weights start at zero, for a
caller that loads a state dict over every parameter. ``named_parameters``
walks attributes in definition order, which keeps checkpoint layouts stable.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

LEAKY_SLOPE = 0.2
RESIDUAL_SCALE = 0.1
SCDF_K = 3               # side of every predicted dynamic-filter kernel


def act(x: Tensor) -> Tensor:
    return ad.leaky_relu(x, LEAKY_SLOPE)


def identity(x: Tensor) -> Tensor:
    """An ablation's stand-in for a module it removes; it holds no parameters."""
    return x


def kaiming(rng: np.random.Generator | None, shape: tuple, fan_in: int) -> Tensor:
    """He-normal weight of ``shape``: one draw with std sqrt(2 / fan_in), or
    zeros without a generator."""
    if rng is None:
        return zeros_param(*shape)
    return Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in), shape), requires_grad=True)


def zeros_param(*shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


class StateDictError(ValueError):
    """A state dict has missing, unexpected or misshapen entries for a module."""


def check_state_dict(own: dict, state: dict, owner: str) -> None:
    """Raise StateDictError unless ``state`` has exactly the keys of ``own``,
    each with the same shape."""
    missing = sorted(own.keys() - state.keys())
    extra = sorted(state.keys() - own.keys())
    if missing or extra:
        raise StateDictError(f"state does not match the {owner}: {len(missing)} missing "
                             f"{missing[:3]}, {len(extra)} unexpected {extra[:3]}")
    for name, arr in own.items():
        if np.shape(state[name]) != np.shape(arr):
            raise StateDictError(f"'{name}': stored shape {np.shape(state[name])} != {np.shape(arr)}")


class Module:
    """Minimal parameter container with stable, dotted state names."""

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_parameters(self, prefix: str = ""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, p in self.named_parameters():
            yield p

    def named_buffers(self, prefix: str = ""):
        for name in getattr(self, "_buffers", ()):
            yield prefix + name, getattr(self, name)
        for name, child in self._children():
            yield from child.named_buffers(prefix + name + ".")

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update({name: b for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]):
        check_state_dict(self.state_dict(), state, "module")
        for name, p in self.named_parameters():
            p.data = np.array(state[name], dtype=np.float64)
        for name, buf in self.named_buffers():
            buf[...] = state[name]

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


class Conv2d(Module):
    def __init__(self, rng, c_in: int, c_out: int, kernel: int = 3, stride: int = 1,
                 padding: int = 1, dilation: int = 1):
        self.stride, self.padding, self.dilation = stride, padding, dilation
        self.weight = kaiming(rng, (c_out, c_in, kernel, kernel), c_in * kernel * kernel)
        self.bias = zeros_param(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding, dilation=self.dilation)

    def activated(self, x: Tensor) -> Tensor:
        """``act(self(x))`` as one node: the conv with its activation epilogue."""
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding, dilation=self.dilation, slope=LEAKY_SLOPE)


class ConvTranspose2d(Module):
    """4x4 transposed convolution, stride 2, padding 1: doubles H and W."""

    def __init__(self, rng, c_in: int, c_out: int):
        self.weight = kaiming(rng, (c_in, c_out, 4, 4), c_in * 4 * 4)
        self.bias = zeros_param(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv_transpose2d(x, self.weight, self.bias, stride=2, padding=1)


class Linear(Module):
    def __init__(self, rng, c_in: int, c_out: int):
        self.weight = kaiming(rng, (c_out, c_in), c_in)
        self.bias = zeros_param(c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    _buffers = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = zeros_param(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return ad.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training)


class GatedConv2d(Module):
    """Convolution modulated by a learned sigmoid gate.

    output = LeakyReLU(conv_feat(x)) * sigmoid(conv_gate(x)) with 3x3 kernels,
    stride 1 and padding 1; the gate lets the layer suppress contributions
    from invalid (cloud) positions.
    """

    def __init__(self, rng, c_in: int, c_out: int):
        self.feat = Conv2d(rng, c_in, c_out)
        self.gate = Conv2d(rng, c_in, c_out)

    def __call__(self, x: Tensor) -> Tensor:
        return gated_conv(x, self.feat.weight, self.gate.weight, self.feat.bias, self.gate.bias)

    def activated(self, x: Tensor) -> Tensor:
        """``act(self(x))``; the gate product is no conv, so the activation is a node."""
        return act(self(x))


def gated_conv(x: Tensor, feat_weight: Tensor, gate_weight: Tensor,
               feat_bias: Tensor, gate_bias: Tensor) -> Tensor:
    """Functional gated convolution: two parallel 3x3 kernels, stride 1, padding 1."""
    feat = ad.conv2d(x, feat_weight, feat_bias, padding=1, slope=LEAKY_SLOPE)
    gate = ad.conv2d(x, gate_weight, gate_bias, padding=1)
    return ad.mul(feat, ad.sigmoid(gate))


class FilterNorm(Module):
    """Standardize each k*k kernel to zero mean / unit std, then rescale.

    ``channels`` given keeps one (alpha, beta) pair per channel for the
    channel-filter branch; otherwise a single scalar pair is shared. Both
    start at zero (see SCDF), so the output starts at zero.
    """

    def __init__(self, channels: int | None = None):
        shape = (1,) if channels is None else (channels, 1, 1)
        self.alpha = zeros_param(*shape)
        self.beta = zeros_param(*shape)

    def __call__(self, raw: Tensor) -> Tensor:
        return ad.filter_normalize(raw, self.alpha, self.beta)


def delta_kernel(k: int) -> np.ndarray:
    d = np.zeros((k, k))
    d[k // 2, k // 2] = 1.0
    return d


class SCDF(Module):
    """Spatial + channel dynamic filtering with filter normalization.

    A 1x1 convolution predicts one k*k kernel per pixel; a squeeze branch
    (global average pool -> bottleneck FC -> FC) predicts one k*k kernel per
    channel. Both raw kernels pass through filter normalization and a fixed
    delta kernel is added afterwards. A delta pattern cannot survive the
    normalization itself, so the normalization's affine scale starts at zero:
    the effective kernels are then exactly delta and the block is the
    identity map at initialization, waking up as the scale trains. The
    effective kernel at pixel i, channel m is the elementwise product of the
    two.
    """

    def __init__(self, rng, channels: int):
        k = SCDF_K
        # spatial branch: zero weights, delta bias -> raw kernels start as delta
        self.spatial_conv = Conv2d(rng, channels, k * k, kernel=1, padding=0)
        self.spatial_conv.weight.data[...] = 0.0
        self.spatial_conv.bias.data[...] = delta_kernel(k).reshape(-1)
        hidden = max(4, channels // 4)
        self.fc1 = Linear(rng, channels, hidden)
        self.fc2 = Linear(rng, hidden, channels * k * k)
        self.fc2.weight.data[...] = 0.0
        self.fc2.bias.data[...] = np.tile(delta_kernel(k).reshape(-1), channels)
        self.fn_spatial = FilterNorm()
        self.fn_channel = FilterNorm(channels=channels)
        self._delta = delta_kernel(k)

    def predict(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """Filter bank for ``x``: spatial (N,1,k,k,H,W), channel (N,C,k,k)."""
        n, c, h, w = x.shape
        k = SCDF_K
        raw_sp = self.spatial_conv(x)                              # (N, k*k, H, W)
        raw_sp = ad.reshape(raw_sp, (n, 1, k, k, h, w))
        sp = ad.transpose(raw_sp, (0, 1, 4, 5, 2, 3))              # kernel axes last for FN
        sp = self.fn_spatial(sp)
        sp = ad.add(sp, Tensor(self._delta))
        sp = ad.transpose(sp, (0, 1, 4, 5, 2, 3))                  # back to (N,1,k,k,H,W)

        pooled = ad.reshape(ad.global_avg_pool(x), (n, c))
        hid = act(self.fc1(pooled))
        raw_ch = ad.reshape(self.fc2(hid), (n, c, k, k))
        ch = self.fn_channel(raw_ch)
        ch = ad.add(ch, Tensor(self._delta))
        return sp, ch

    def __call__(self, x: Tensor) -> Tensor:
        sp, ch = self.predict(x)
        return scdf_apply(x, sp, ch)


def scdf_apply(x: Tensor, spatial: Tensor, channel: Tensor) -> Tensor:
    """Apply a predicted filter bank: out(i,m) = sum_j Dsp_i[j] Dch_m[j] x(j,m).

    ``spatial`` is (N,1,k,k,H,W); ``channel`` is (C,k,k) or (N,C,k,k) and
    broadcasts over pixels. k must be odd; padding keeps the shape. The tap
    product is one fused node, ``ad.tap_sum``, over ``unfold``'s patch view.
    ``unfold`` stays its own node: folded in, it would hand x its gradient at
    another point of the walk, and x's sum would change its rounding.
    """
    x = ad.as_tensor(x)
    spatial, channel = ad.as_tensor(spatial), ad.as_tensor(channel)
    n, c, h, w = x.shape
    k = spatial.shape[2]
    if spatial.shape != (n, 1, k, k, h, w):
        raise ShapeError(f"scdf_apply: spatial bank {spatial.shape} does not match input {x.shape}")
    if channel.shape not in ((c, k, k), (n, c, k, k)):
        raise ShapeError(f"scdf_apply: channel bank {channel.shape} does not match {c} channels")
    patches = ad.unfold(x, kernel=k)                               # (N, C, k, k, H, W)
    ch_shape = (1, c, k, k, 1, 1) if channel.ndim == 3 else (n, c, k, k, 1, 1)
    return ad.tap_sum(patches, spatial, ad.reshape(channel, ch_shape))


def _residual_call(block: Module, x: Tensor) -> Tensor:
    """y = x + 0.1 * B(x), B = conv -> act -> conv -> act -> conv over ``block.convs``."""
    b = block.convs[1].activated(block.convs[0].activated(x))
    return ad.add(x, ad.scale(block.convs[2](b), RESIDUAL_SCALE))


class GatedResidualBlock(Module):
    """Three gated convolutions with activations between, scaled residual.

    y = x + 0.1 * B(x), B = gconv -> act -> gconv -> act -> gconv. The 0.1
    residual scale stabilizes training without extra parameters.
    """

    def __init__(self, rng, channels: int):
        self.convs = [GatedConv2d(rng, channels, channels) for _ in range(3)]

    # bound per class, not inherited: perfbench wraps each class's own __dict__["__call__"]
    __call__ = _residual_call


class PlainResidualBlock(Module):
    """Decoder residual block: conv -> act -> conv -> act -> conv, x + 0.1*B."""

    def __init__(self, rng, channels: int):
        self.convs = [Conv2d(rng, channels, channels) for _ in range(3)]

    __call__ = _residual_call


class DynamicFilterResidualBlock(Module):
    """Residual block for the speckled radar branch.

    B = conv -> act -> SCDF -> conv -> act -> SCDF -> conv -> act (this block
    carries a third activation), y = x + 0.1 * B(x). ``use_scdf=False`` builds
    identities in place of the two SCDFs, for the ablation.
    """

    def __init__(self, rng, channels: int, use_scdf: bool = True):
        self.convs = [Conv2d(rng, channels, channels) for _ in range(3)]
        self.filters = [SCDF(rng, channels) if use_scdf else identity for _ in range(2)]

    def __call__(self, x: Tensor) -> Tensor:
        b = self.filters[0](self.convs[0].activated(x))
        b = self.filters[1](self.convs[1].activated(b))
        return ad.add(x, ad.scale(self.convs[2].activated(b), RESIDUAL_SCALE))


class Downsample(Module):
    """4x4 stride-2 conv (C -> 2C) + BN + act; halves H and W."""

    def __init__(self, rng, c_in: int):
        self.conv = Conv2d(rng, c_in, 2 * c_in, kernel=4, stride=2, padding=1)
        self.bn = BatchNorm2d(2 * c_in)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.shape[2] % 2 or x.shape[3] % 2:
            raise ShapeError(f"Downsample: spatial extents must be even, got {x.shape}")
        return act(self.bn(self.conv(x), training))


class Upsample(Module):
    """4x4 stride-2 transposed conv (C -> C/2) + BN + act; doubles H and W."""

    def __init__(self, rng, c_in: int):
        self.conv = ConvTranspose2d(rng, c_in, c_in // 2)
        self.bn = BatchNorm2d(c_in // 2)

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        return act(self.bn(self.conv(x), training))


class ASPP(Module):
    """Atrous spatial pyramid pooling.

    Five parallel branches (1x1 conv, three dilated 3x3 convs, global pool +
    1x1 conv broadcast back) concatenated and fused by a 1x1 conv back to C.
    """

    def __init__(self, rng, channels: int, rates: tuple[int, int, int]):
        self.rates = tuple(rates)
        self.point = Conv2d(rng, channels, channels, kernel=1, padding=0)
        self.atrous = [Conv2d(rng, channels, channels, kernel=3, padding=r, dilation=r)
                       for r in self.rates]
        self.pool_conv = Conv2d(rng, channels, channels, kernel=1, padding=0)
        self.fuse = Conv2d(rng, 5 * channels, channels, kernel=1, padding=0)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeError(f"ASPP: spatial extents must be at least 2, got {x.shape}")
        branches = [self.point(x)]
        branches += [conv(x) for conv in self.atrous]
        pooled = self.pool_conv(ad.global_avg_pool(x))
        branches.append(ad.broadcast_to(pooled, x.shape))
        return self.fuse.activated(ad.concat(branches, axis=1))
