"""Composite training loss: global L1, mask-restricted local L1, and an SSIM
term, combined as L = L_g + lambda1 * L_l + lambda2 * (1 - SSIM).

The local term keeps the global element count in its denominator (the mask
only removes summands), so L_l <= L_g for binary masks. SSIM uses an 11x11
Gaussian window (sigma 1.5) with C1 = 0.01^2 and C2 = 0.03^2 on data in
[0, 1]; the window shrinks with renormalized weights when the image is
smaller than 11 pixels.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def loss_global(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over every element of every band."""
    pred, target = ad.as_tensor(pred), ad.as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss_global: shapes differ, {pred.shape} vs {target.shape}")
    return ad.tmean(ad.absolute(ad.sub(target, pred)))


def loss_local(pred: Tensor, target: Tensor, mask: Tensor) -> Tensor:
    """Masked L1, normalized by the same global element count as loss_global.

    ``mask`` is {0,1} with a singleton channel axis; 1 marks cloud pixels.
    """
    pred, target, mask = ad.as_tensor(pred), ad.as_tensor(target), ad.as_tensor(mask)
    if pred.shape != target.shape:
        raise ShapeError(f"loss_local: shapes differ, {pred.shape} vs {target.shape}")
    mdata = mask.data
    if not np.all((mdata == 0.0) | (mdata == 1.0)):
        raise ValueError("loss_local: mask must be binary {0,1}")
    diff = ad.mul(mask, ad.sub(target, pred))
    return ad.tmean(ad.absolute(diff))


def gaussian_window(size: int) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords ** 2) / (2.0 * SSIM_SIGMA ** 2))
    g2 = np.outer(g, g)
    return g2 / g2.sum()


def ssim(x: Tensor, y: Tensor) -> Tensor:
    """Mean structural similarity over windows and channels, in [-1, 1].

    Differentiable; statistics come from a valid-mode Gaussian-window
    convolution applied per channel.
    """
    x, y = ad.as_tensor(x), ad.as_tensor(y)
    if x.shape != y.shape:
        raise ShapeError(f"ssim: shapes differ, {x.shape} vs {y.shape}")
    if x.ndim != 4:
        raise ShapeError(f"ssim: input must be NCHW rank 4, got {x.shape}")
    n, c, h, w = x.shape
    win = min(SSIM_WINDOW, h, w)
    kernel = Tensor(gaussian_window(win).reshape(1, 1, win, win))

    def blur(t: Tensor) -> Tensor:
        flat = ad.reshape(t, (n * c, 1, h, w))
        return ad.conv2d(flat, kernel)

    mu_x = blur(x)
    mu_y = blur(y)
    mu_xx = ad.mul(mu_x, mu_x)
    mu_yy = ad.mul(mu_y, mu_y)
    mu_xy = ad.mul(mu_x, mu_y)
    var_x = ad.sub(blur(ad.mul(x, x)), mu_xx)
    var_y = ad.sub(blur(ad.mul(y, y)), mu_yy)
    cov = ad.sub(blur(ad.mul(x, y)), mu_xy)

    num = ad.mul(ad.add(ad.scale(mu_xy, 2.0), SSIM_C1), ad.add(ad.scale(cov, 2.0), SSIM_C2))
    den = ad.mul(ad.add(ad.add(mu_xx, mu_yy), SSIM_C1), ad.add(ad.add(var_x, var_y), SSIM_C2))
    return ad.tmean(ad.div(num, den))


def loss_ssim(pred: Tensor, target: Tensor) -> Tensor:
    return ad.sub(1.0, ssim(target, pred))


def loss_components(pred: Tensor, target: Tensor, mask: Tensor, lambda_local: float,
                    lambda_ssim: float) -> tuple[Tensor, float, float, float]:
    """L_g + (lambda1 * L_l + lambda2 * L_ssim) as a tensor, plus the three
    terms as scalars for logging."""
    lg = loss_global(pred, target)
    ll = loss_local(pred, target, mask)
    ls = loss_ssim(pred, target)
    total = ad.add(lg, ad.add(ad.scale(ll, lambda_local), ad.scale(ls, lambda_ssim)))
    return total, lg.item(), ll.item(), ls.item()


def loss_total(pred: Tensor, target: Tensor, mask: Tensor, lambda_local: float,
               lambda_ssim: float) -> Tensor:
    """The composite loss tensor alone, differentiable end to end."""
    return loss_components(pred, target, mask, lambda_local, lambda_ssim)[0]
