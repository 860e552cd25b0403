"""Full cloud-removal network.

Dual multi-scale encoder (gated-conv residual blocks on the optical branch,
dynamic-filter residual blocks on the radar branch) interleaved with four
cross-fusion blocks, a fusion branch that pools the per-scale fused maps to
the deepest scale, attention refinement over the three deepest-scale
branches, and an ASPP decoder with skip connections plus a long additive
skip from the cloudy input to the output. The network is built from a
``ModelConfig``, whose schema lives in ``config``, and the build makes
every choice the config holds. ``ablation`` picks modules: ``no_gc`` builds
plain optical residual blocks and MMCF convs, ``no_scdf`` radar blocks with
identities for their dynamic filters, ``no_mmcf`` MMCFs without cross
connections, ``no_mmrf`` a 1x1 conv over the concatenated branches in MMRF's
place, and ``no_aspp`` an identity in ASPP's place. A stand-in holds no
parameters, so it adds no state names. The optical-only model
(``sar_input = none``) has no radar branch, fusion or refinement; ``forward``
picks its encoder or the dual one, and the decoder after them is shared.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tensor
from .config import ModelConfig
from .fusion import MMCF, MMRF
from .synthetic import OPTICAL_CHANNELS


class CloudRemovalNet(nn.Module):
    def __init__(self, config: ModelConfig, seed: int | None):
        """Draw the initial weights from ``seed``; with ``seed=None`` they
        start at zero, for a network whose parameters a checkpoint overwrites."""
        self.config = config
        rng = None if seed is None else np.random.default_rng(seed)
        c1, c2, c3 = config.channel_schedule
        gated = config.ablation != "no_gc"
        cross = config.ablation != "no_mmcf"
        dual = config.radar_channels > 0
        opt_block = nn.GatedResidualBlock if gated else nn.PlainResidualBlock

        self.opt_stem = nn.Conv2d(rng, OPTICAL_CHANNELS, c1)
        self.opt_rb1 = opt_block(rng, c1)
        self.opt_down1 = nn.Downsample(rng, c1)
        self.opt_rb2 = opt_block(rng, c2)
        self.opt_down2 = nn.Downsample(rng, c2)
        self.opt_rb3 = opt_block(rng, c3)
        self.opt_rb4 = opt_block(rng, c3)
        self.opt_exit = nn.Conv2d(rng, c3, c3)

        if dual:
            scdf = config.ablation != "no_scdf"
            self.sar_stem = nn.Conv2d(rng, config.radar_channels, c1)
            self.sar_rb1 = nn.DynamicFilterResidualBlock(rng, c1, use_scdf=scdf)
            self.sar_down1 = nn.Downsample(rng, c1)
            self.sar_rb2 = nn.DynamicFilterResidualBlock(rng, c2, use_scdf=scdf)
            self.sar_down2 = nn.Downsample(rng, c2)
            self.sar_rb3 = nn.DynamicFilterResidualBlock(rng, c3, use_scdf=scdf)
            self.sar_rb4 = nn.DynamicFilterResidualBlock(rng, c3, use_scdf=scdf)
            self.sar_exit = nn.Conv2d(rng, c3, c3)
            self.mmcf1 = MMCF(rng, c1, gated=gated, cross=cross)
            self.mmcf2 = MMCF(rng, c2, gated=gated, cross=cross)
            self.mmcf3 = MMCF(rng, c3, gated=gated, cross=cross)
            self.mmcf4 = MMCF(rng, c3, gated=gated, cross=cross)
            fused_width = 2 * c1 + 2 * c2 + 2 * c3 + 2 * c3
            self.fus_exit = nn.Conv2d(rng, fused_width, c3)
            if config.ablation == "no_mmrf":
                self.refine_concat = nn.Conv2d(rng, 3 * c3, c3, kernel=1, padding=0)
                self.mmrf = functools.partial(_concat_refine, self.refine_concat)
            else:
                self.mmrf = MMRF(rng, c3)

        self.aspp = (nn.identity if config.ablation == "no_aspp"
                     else nn.ASPP(rng, c3, rates=config.aspp_rates))
        self.up1 = nn.Upsample(rng, c3)
        self.merge1 = nn.Conv2d(rng, 2 * c2, c2, kernel=1, padding=0)
        self.dec_rb1 = [nn.PlainResidualBlock(rng, c2) for _ in range(2)]
        self.up2 = nn.Upsample(rng, c2)
        self.merge2 = nn.Conv2d(rng, 2 * c1, c1, kernel=1, padding=0)
        self.dec_rb2 = [nn.PlainResidualBlock(rng, c1) for _ in range(2)]
        self.out_conv = nn.Conv2d(rng, c1, OPTICAL_CHANNELS)
        # zero-init the final conv so the network starts as the identity on
        # the cloudy input (long-skip residual form)
        self.out_conv.weight.data[...] = 0.0

    def _check_inputs(self, cloudy: Tensor, sar: Tensor | None):
        cfg = self.config
        if cloudy.ndim != 4 or cloudy.shape[1] != OPTICAL_CHANNELS:
            raise ShapeError(
                f"forward: cloudy input must be (N,{OPTICAL_CHANNELS},P,P), got {cloudy.shape}")
        if cloudy.shape[2] != cfg.patch or cloudy.shape[3] != cfg.patch:
            raise ShapeError(f"forward: expected patch {cfg.patch}, got {cloudy.shape}")
        _check_range("cloudy", cloudy)
        if cfg.radar_channels:
            if sar is None:
                raise ShapeError("forward: the dual-stream model needs a radar input")
            if sar.ndim != 4 or sar.shape[1] != cfg.radar_channels:
                raise ShapeError(
                    f"forward: radar input must be (N,{cfg.radar_channels},P,P), got {sar.shape}")
            if sar.shape[0] != cloudy.shape[0] or sar.shape[2:] != cloudy.shape[2:]:
                raise ShapeError(
                    f"forward: radar shape {sar.shape} does not match optical {cloudy.shape}")
            _check_range("radar", sar)

    def forward(self, cloudy: Tensor, sar: Tensor | None, training: bool = False) -> Tensor:
        cloudy = ad.as_tensor(cloudy)
        sar = ad.as_tensor(sar) if sar is not None else None
        self._check_inputs(cloudy, sar)
        encode = self._encode_dual if self.config.radar_channels else self._encode_optical
        refined, skip1, skip2 = encode(cloudy, sar, training)
        x = self.aspp(refined)
        x = self.merge1(ad.concat([self.up1(x, training), skip2], axis=1))
        x = self.dec_rb1[1](self.dec_rb1[0](x))
        x = self.merge2(ad.concat([self.up2(x, training), skip1], axis=1))
        x = self.dec_rb2[1](self.dec_rb2[0](x))
        return ad.add(self.out_conv(x), cloudy)

    __call__ = forward

    def _encode_optical(self, cloudy: Tensor, sar: Tensor | None, training: bool):
        """Deepest feature and the two skips of the optical branch alone."""
        o1 = self.opt_rb1(self.opt_stem.activated(cloudy))
        o2 = self.opt_rb2(self.opt_down1(o1, training))
        o4 = self.opt_rb4(self.opt_rb3(self.opt_down2(o2, training)))
        return self.opt_exit.activated(o4), o1, o2

    def _encode_dual(self, cloudy: Tensor, sar: Tensor, training: bool):
        """Refined deepest feature and the two (optical) skips, both branches fused."""
        o1, s1, fused1 = self.mmcf1(self.opt_rb1(self.opt_stem.activated(cloudy)),
                                    self.sar_rb1(self.sar_stem.activated(sar)))
        o2, s2, fused2 = self.mmcf2(self.opt_rb2(self.opt_down1(o1, training)),
                                    self.sar_rb2(self.sar_down1(s1, training)))
        o3, s3, fused3 = self.mmcf3(self.opt_rb3(self.opt_down2(o2, training)),
                                    self.sar_rb3(self.sar_down2(s2, training)))
        o4, s4, fused4 = self.mmcf4(self.opt_rb4(o3), self.sar_rb4(s3))
        opt_feat = self.opt_exit.activated(o4)
        sar_feat = self.sar_exit.activated(s4)
        f1 = ad.avg_pool2d(ad.avg_pool2d(fused1, 2), 2)
        f2 = ad.avg_pool2d(fused2, 2)
        fus_feat = self.fus_exit.activated(ad.concat([f1, f2, fused3, fused4], axis=1))
        return self.mmrf(opt_feat, sar_feat, fus_feat), o1, o2


def _check_range(name: str, x: Tensor) -> None:
    """Reject an input that is not finite or not normalized to [0, 1]; a NaN
    passes any comparison with the range, so finiteness is tested first."""
    if not np.isfinite(x.data).all():
        raise ValueError(f"forward: {name} input holds non-finite values")
    if x.data.min() < -1e-9 or x.data.max() > 1.0 + 1e-9:
        raise ValueError(f"forward: {name} input must be normalized to [0, 1]")


def _concat_refine(conv: nn.Conv2d, *branches: Tensor) -> Tensor:
    """MMRF's stand-in under no_mmrf: ``conv`` over the concatenated branches."""
    return conv(ad.concat(list(branches), axis=1))
