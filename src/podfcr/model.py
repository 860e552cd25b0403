"""Full cloud-removal network.

Dual multi-scale encoder (gated-conv residual blocks on the optical branch,
dynamic-filter residual blocks on the radar branch) interleaved with four
cross-fusion blocks, a fusion branch that pools the per-scale fused maps to
the deepest scale, attention refinement over the three deepest-scale
branches, and an ASPP decoder with skip connections plus a long additive
skip from the cloudy input to the output. Ablation flags are applied at
build time and swap blocks for their plain counterparts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tensor
from .fusion import MMCF, MMRF


@dataclass
class ModelConfig:
    base_channels: int = 8          # 64 at full scale, 8 at desk scale
    opt_in_channels: int = 4
    sar_in_channels: int = 9        # 9 PFSAR, 3 BCFSAR, 12 combined
    patch: int = 32                 # 256 at full scale
    no_scdf: bool = False
    no_gc: bool = False
    no_mmcf: bool = False
    no_mmrf: bool = False
    no_aspp: bool = False
    no_polsar: bool = False
    scru_literal: bool = False

    def __post_init__(self):
        if self.patch % 4 != 0 or self.patch < 8:
            raise ValueError(f"patch must be a multiple of 4 and at least 8, got {self.patch}")
        if self.base_channels < 1:
            raise ValueError(f"base_channels must be positive, got {self.base_channels}")
        if not self.no_polsar and self.sar_in_channels < 1:
            raise ValueError("sar_in_channels must be positive for the dual-stream model")

    @property
    def channel_schedule(self) -> tuple[int, int, int]:
        return self.base_channels, 2 * self.base_channels, 4 * self.base_channels

    @property
    def aspp_rates(self) -> tuple[int, int, int]:
        # full rates need patch >= 2 * max rate; otherwise use the reduced set
        return (6, 12, 18) if self.patch >= 36 else (2, 4, 6)


class CloudRemovalNet(nn.Module):
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c1, c2, c3 = config.channel_schedule
        gated = not config.no_gc
        cross = not config.no_mmcf
        dual = not config.no_polsar

        self.opt_stem = nn.Conv2d(rng, config.opt_in_channels, c1)
        self.opt_rb1 = nn.GatedResidualBlock(rng, c1, gated=gated)
        self.opt_down1 = nn.Downsample(rng, c1)
        self.opt_rb2 = nn.GatedResidualBlock(rng, c2, gated=gated)
        self.opt_down2 = nn.Downsample(rng, c2)
        self.opt_rb3 = nn.GatedResidualBlock(rng, c3, gated=gated)
        self.opt_rb4 = nn.GatedResidualBlock(rng, c3, gated=gated)
        self.opt_exit = nn.Conv2d(rng, c3, c3)

        if dual:
            scdf = not config.no_scdf
            self.sar_stem = nn.Conv2d(rng, config.sar_in_channels, c1)
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
            if config.no_mmrf:
                self.refine_concat = nn.Conv2d(rng, 3 * c3, c3, kernel=1, padding=0)
            else:
                self.mmrf = MMRF(rng, c3, literal_scru=config.scru_literal)

        if not config.no_aspp:
            self.aspp = nn.ASPP(rng, c3, rates=config.aspp_rates)
        self.up1 = nn.Upsample(rng, c3)
        self.merge1 = nn.Conv2d(rng, 2 * c2, c2, kernel=1, padding=0)
        self.dec_rb1 = [nn.PlainResidualBlock(rng, c2) for _ in range(2)]
        self.up2 = nn.Upsample(rng, c2)
        self.merge2 = nn.Conv2d(rng, 2 * c1, c1, kernel=1, padding=0)
        self.dec_rb2 = [nn.PlainResidualBlock(rng, c1) for _ in range(2)]
        self.out_conv = nn.Conv2d(rng, c1, config.opt_in_channels)
        # zero-init the final conv so the network starts as the identity on
        # the cloudy input (long-skip residual form)
        self.out_conv.weight.data[...] = 0.0

    def _check_inputs(self, cloudy: Tensor, sar: Tensor | None):
        cfg = self.config
        if cloudy.ndim != 4 or cloudy.shape[1] != cfg.opt_in_channels:
            raise ShapeError(
                f"forward: cloudy input must be (N,{cfg.opt_in_channels},P,P), got {cloudy.shape}")
        if cloudy.shape[2] != cfg.patch or cloudy.shape[3] != cfg.patch:
            raise ShapeError(f"forward: expected patch {cfg.patch}, got {cloudy.shape}")
        if cloudy.data.min() < -1e-9 or cloudy.data.max() > 1.0 + 1e-9:
            raise ValueError("forward: cloudy input must be normalized to [0, 1]")
        if not cfg.no_polsar:
            if sar is None:
                raise ShapeError("forward: the dual-stream model needs a radar input")
            if sar.ndim != 4 or sar.shape[1] != cfg.sar_in_channels:
                raise ShapeError(
                    f"forward: radar input must be (N,{cfg.sar_in_channels},P,P), got {sar.shape}")
            if sar.shape[0] != cloudy.shape[0] or sar.shape[2:] != cloudy.shape[2:]:
                raise ShapeError(
                    f"forward: radar shape {sar.shape} does not match optical {cloudy.shape}")
            if sar.data.min() < -1e-9 or sar.data.max() > 1.0 + 1e-9:
                raise ValueError("forward: radar input must be normalized to [0, 1]")

    def forward(self, cloudy: Tensor, sar: Tensor | None, training: bool = False) -> Tensor:
        cloudy = ad.as_tensor(cloudy)
        sar = ad.as_tensor(sar) if sar is not None else None
        self._check_inputs(cloudy, sar)
        cfg = self.config
        dual = not cfg.no_polsar

        x_o = self.opt_rb1(nn.act(self.opt_stem(cloudy)))
        if dual:
            x_s = self.sar_rb1(nn.act(self.sar_stem(sar)))
            o1, s1, fused1 = self.mmcf1(x_o, x_s)
        else:
            o1 = x_o
        skip1 = o1

        x_o = self.opt_rb2(self.opt_down1(o1, training))
        if dual:
            x_s = self.sar_rb2(self.sar_down1(s1, training))
            o2, s2, fused2 = self.mmcf2(x_o, x_s)
        else:
            o2 = x_o
        skip2 = o2

        x_o = self.opt_rb3(self.opt_down2(o2, training))
        if dual:
            x_s = self.sar_rb3(self.sar_down2(s2, training))
            o3, s3, fused3 = self.mmcf3(x_o, x_s)
            o4, s4, fused4 = self.mmcf4(self.opt_rb4(o3), self.sar_rb4(s3))
        else:
            o4 = self.opt_rb4(x_o)

        opt_feat = nn.act(self.opt_exit(o4))
        if dual:
            sar_feat = nn.act(self.sar_exit(s4))
            f1 = ad.avg_pool2d(ad.avg_pool2d(fused1, 2), 2)
            f2 = ad.avg_pool2d(fused2, 2)
            fus_feat = nn.act(self.fus_exit(ad.concat([f1, f2, fused3, fused4], axis=1)))
            if cfg.no_mmrf:
                refined = self.refine_concat(ad.concat([opt_feat, sar_feat, fus_feat], axis=1))
            else:
                refined = self.mmrf(opt_feat, sar_feat, fus_feat)
        else:
            refined = opt_feat

        x = refined if cfg.no_aspp else self.aspp(refined)
        x = self.merge1(ad.concat([self.up1(x, training), skip2], axis=1))
        x = self.dec_rb1[1](self.dec_rb1[0](x))
        x = self.merge2(ad.concat([self.up2(x, training), skip1], axis=1))
        x = self.dec_rb2[1](self.dec_rb2[0](x))
        return ad.add(self.out_conv(x), cloudy)

    __call__ = forward
