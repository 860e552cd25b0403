"""Cross-modal fusion blocks.

MMCF runs two parallel conv streams (gated convs on the optical side, plain
convs on the radar side) with dense cross-connections realized as 1x1 convs:
every earlier feature of one stream feeds every later stage of the other.
MMRF refines the three encoder branches with per-branch spatial+channel
self-attention (SCRU) and then re-weights the fusion features with the
product of a cross-modal and a fusion-internal attention map (MWRU).
"""

from __future__ import annotations

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tensor


class MMCF(nn.Module):
    """Dual-stream block with dense cross-modal skip connections.

    Per stream: three conv stages; the optical stream uses gated convs (their
    internal activation mirrors the radar stream's LeakyReLU-after-conv so
    mirrored parameters with open gates make the streams identical), or with
    ``gated=False`` plain convs, each ending in the LeakyReLU that a gated
    conv applies itself. Stage 2 adds the 1x1-projected stage-1 feature of
    the other stream; stage 3 adds both earlier cross terms. The fused output
    is the channel concat of the two stage-3 features (2C channels).
    ``cross=False`` drops every cross connection, leaving two independent
    stacks; it is read per call, as no build-time form would be shorter.
    """

    def __init__(self, rng, channels: int, gated: bool = True, cross: bool = True):
        self.cross = cross
        conv = nn.GatedConv2d if gated else nn.Conv2d
        # a gated conv applies its activation inside, a plain one as its epilogue
        self.opt_stage = nn.GatedConv2d.__call__ if gated else nn.Conv2d.activated
        self.opt_convs = [conv(rng, channels, channels) for _ in range(3)]
        self.sar_convs = [nn.Conv2d(rng, channels, channels) for _ in range(3)]
        if cross:
            # cross_to_sar[i][j]: optical stage i feeding radar stage j (and vice versa)
            self.cross_to_sar = [nn.Conv2d(rng, channels, channels, kernel=1, padding=0)
                                 for _ in range(3)]   # (1,2), (1,3), (2,3)
            self.cross_to_opt = [nn.Conv2d(rng, channels, channels, kernel=1, padding=0)
                                 for _ in range(3)]

    def __call__(self, f_opt: Tensor, f_sar: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        if f_opt.shape != f_sar.shape:
            raise ShapeError(f"MMCF: modality shapes differ, {f_opt.shape} vs {f_sar.shape}")
        f1o = self.opt_stage(self.opt_convs[0], f_opt)
        f1s = self.sar_convs[0].activated(f_sar)

        in2o, in2s = f1o, f1s
        if self.cross:
            in2o = ad.add(f1o, self.cross_to_opt[0](f1s))
            in2s = ad.add(f1s, self.cross_to_sar[0](f1o))
        f2o = self.opt_stage(self.opt_convs[1], in2o)
        f2s = self.sar_convs[1].activated(in2s)

        in3o, in3s = f2o, f2s
        if self.cross:
            in3o = ad.add(f2o, ad.add(self.cross_to_opt[1](f1s), self.cross_to_opt[2](f2s)))
            in3s = ad.add(f2s, ad.add(self.cross_to_sar[1](f1o), self.cross_to_sar[2](f2o)))
        f3o = self.opt_stage(self.opt_convs[2], in3o)
        f3s = self.sar_convs[2].activated(in3s)

        return f3o, f3s, ad.concat([f3o, f3s], axis=1)


def _flat_lc(x: Tensor) -> Tensor:
    """(N, C, H, W) -> (N, H*W, C)."""
    n, c, h, w = x.shape
    return ad.transpose(ad.reshape(x, (n, c, h * w)), (0, 2, 1))


def _affinity(a: Tensor, b: Tensor) -> Tensor:
    """Row-softmax attention map softmax(a b^T) of (N, R, D) and (N, S, D): (N, R, S)."""
    return ad.softmax(ad.matmul(a, ad.transpose(b, (0, 2, 1))), axis=-1)


class SCRU(nn.Module):
    """Spatial + channel self-attention refinement for one branch.

    Spatial branch: Q, K from 1x1 convs (C -> C/8), V from a 1x1 conv (C -> C);
    softmax(Q K^T) V is added back residually. Channel branch: Q, K, V are
    reshapes of the input, attention over C x C. Each attention term is
    scaled by a learnable gamma starting at 0, and their sum is added to the
    input once, so the unit is the identity at initialization.
    """

    def __init__(self, rng, channels: int):
        cq = max(1, channels // 8)
        self.q_conv = nn.Conv2d(rng, channels, cq, kernel=1, padding=0)
        self.k_conv = nn.Conv2d(rng, channels, cq, kernel=1, padding=0)
        self.v_conv = nn.Conv2d(rng, channels, channels, kernel=1, padding=0)
        self.gamma_spatial = nn.zeros_param(1)
        self.gamma_channel = nn.zeros_param(1)

    def spatial_attention(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        attn = _affinity(_flat_lc(self.q_conv(x)), _flat_lc(self.k_conv(x)))  # (N, L, L)
        v = _flat_lc(self.v_conv(x))                      # (N, L, C)
        out = ad.matmul(attn, v)                          # (N, L, C)
        return ad.reshape(ad.transpose(out, (0, 2, 1)), (n, c, h, w))

    def channel_attention(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        flat = ad.reshape(x, (n, c, h * w))               # (N, C, L)
        attn = _affinity(flat, flat)                      # (N, C, C)
        out = ad.matmul(attn, flat)
        return ad.reshape(out, (n, c, h, w))

    def __call__(self, x: Tensor) -> Tensor:
        att_sp = self.spatial_attention(x)
        att_ch = self.channel_attention(x)
        return ad.add(x, ad.add(ad.mul(self.gamma_spatial, att_sp),
                                ad.mul(self.gamma_channel, att_ch)))


class MWRU(nn.Module):
    """Cross-modal global re-weighting of the fusion features.

    Four 1x1 convs (C -> C/2) embed the three refined branches; the
    optical/radar correlation map and the fusion self-correlation map
    (both HW x HW, row softmax) are multiplied, passed through one more
    softmax, and applied to the flattened fusion features with a residual.
    """

    def __init__(self, rng, channels: int):
        ck = max(1, channels // 2)
        self.theta = nn.Conv2d(rng, channels, ck, kernel=1, padding=0)
        self.sigma = nn.Conv2d(rng, channels, ck, kernel=1, padding=0)
        self.phi = nn.Conv2d(rng, channels, ck, kernel=1, padding=0)
        self.omega = nn.Conv2d(rng, channels, ck, kernel=1, padding=0)

    def __call__(self, f_opt: Tensor, f_sar: Tensor, f_fus: Tensor) -> Tensor:
        if not (f_opt.shape == f_sar.shape == f_fus.shape):
            raise ShapeError(
                f"MWRU: branch shapes differ: {f_opt.shape}, {f_sar.shape}, {f_fus.shape}")
        n, c, h, w = f_fus.shape
        m_cross = _affinity(_flat_lc(self.theta(f_opt)), _flat_lc(self.sigma(f_sar)))  # (N, L, L)
        m_fus = _affinity(_flat_lc(self.phi(f_fus)), _flat_lc(self.omega(f_fus)))
        weights = ad.softmax(ad.matmul(m_cross, m_fus), axis=-1)                 # (N, L, L)
        flat = ad.reshape(f_fus, (n, c, h * w))           # (N, C, L)
        out = ad.reshape(ad.matmul(flat, weights), (n, c, h, w))
        return ad.add(out, f_fus)


class MMRF(nn.Module):
    """Refinement fusion: per-branch SCRU, then MWRU over the three branches."""

    def __init__(self, rng, channels: int):
        self.scru_opt = SCRU(rng, channels)
        self.scru_sar = SCRU(rng, channels)
        self.scru_fus = SCRU(rng, channels)
        self.mwru = MWRU(rng, channels)

    def __call__(self, f_opt: Tensor, f_sar: Tensor, f_fus: Tensor) -> Tensor:
        return self.mwru(self.scru_opt(f_opt), self.scru_sar(f_sar), self.scru_fus(f_fus))
