"""Evaluation metrics on normalized [0, 1] images: PSNR, SSIM, Pearson
correlation, and the spectral angle mapper.

These operate on raw numpy arrays (no gradients). PSNR of identical images
is reported as inf and capped at 100 dB inside aggregates. SAM uses the
chord formulation 2*arcsin(||x_hat - y_hat|| / 2), which is exact for
proportional spectra where the arccos form loses ~1e-6 degrees to rounding.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import losses

PSNR_CAP_DB = 100.0


def psnr(pred: np.ndarray, target: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(pred, dtype=np.float64) - target) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def cc(pred: np.ndarray, target: np.ndarray) -> float:
    """Pearson correlation over all elements."""
    a = np.asarray(pred, dtype=np.float64).ravel()
    b = np.asarray(target, dtype=np.float64).ravel()
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum()) * np.sqrt((db * db).sum())
    if denom == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float((da * db).sum() / denom)


def sam(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean per-pixel spectral angle in degrees.

    Inputs are (C, H, W) or (N, C, H, W); the angle is taken between the
    C-vectors at each pixel. Pixels where either spectrum is all zero
    contribute zero angle; a non-finite spectrum gives NaN.
    """
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.ndim == 3:
        a, b = a[None], b[None]
    vecs_a = a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])
    vecs_b = b.transpose(0, 2, 3, 1).reshape(-1, b.shape[1])
    na = np.linalg.norm(vecs_a, axis=1)
    nb = np.linalg.norm(vecs_b, axis=1)
    ok = (na != 0.0) & (nb != 0.0)  # a NaN norm is not zero, so its angle is NaN
    angles = np.zeros(len(vecs_a))
    if np.any(ok):
        ua = vecs_a[ok] / na[ok, None]
        ub = vecs_b[ok] / nb[ok, None]
        chord = np.linalg.norm(ua - ub, axis=1)
        angles[ok] = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
    return float(np.degrees(angles.mean()))


def ssim_metric(pred: np.ndarray, target: np.ndarray) -> float:
    """Scalar SSIM of two images, sharing the loss module's definition."""
    a = np.asarray(pred, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    if a.ndim == 3:
        a, b = a[None], b[None]
    with ad.no_grad():
        return losses.ssim(ad.Tensor(a), ad.Tensor(b)).item()


_METRIC_FNS = {"psnr": psnr, "ssim": ssim_metric, "cc": cc, "sam": sam}
METRICS = tuple(_METRIC_FNS)  # the report's metric columns, in order


def evaluate_pair(pred: np.ndarray, target: np.ndarray) -> dict[str, float]:
    return {name: fn(pred, target) for name, fn in _METRIC_FNS.items()}


def aggregate(rows: list[dict[str, float]]) -> dict[str, float]:
    """Mean metrics over samples; infinite PSNR enters as the 100 dB cap."""
    means = {"count": len(rows)}
    for name in METRICS:
        values = [min(r[name], PSNR_CAP_DB) if name == "psnr" else r[name] for r in rows]
        means[name] = float(np.mean(values)) if rows else float("nan")
    return means
