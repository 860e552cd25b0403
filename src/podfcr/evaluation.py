"""Test-split evaluation and the structured-text metrics report.

Report layout (tab-separated, deterministic formatting):
    scope  coverage_bin  class  count  psnr  ssim  cc  sam
with one ``cell`` row per (bin, class) combination (5 x 7 = 35 rows, empty
cells included with count 0), then per-bin, per-class, and overall summary
rows. PSNR enters aggregates capped at 100 dB.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import metrics
from .config import RunConfig
from .model import CloudRemovalNet
from .synthetic import CLASS_LABELS, COVERAGE_BINS, SamplePair
from .training import load_dataset, make_batch

REPORT_HEADER = "# scope\tcoverage_bin\tclass\tcount\tpsnr\tssim\tcc\tsam"
METRICS = ("psnr", "ssim", "cc", "sam")


def predict(net: CloudRemovalNet, samples: list[SamplePair], sar_input: str,
            batch_size: int = 4) -> list[np.ndarray]:
    preds = []
    with ad.no_grad():
        for lo in range(0, len(samples), batch_size):
            chunk = samples[lo:lo + batch_size]
            cloudy, _, _, sar = make_batch(chunk, sar_input)
            out = net.forward(cloudy, sar, training=False)
            preds.extend(np.clip(out.data[i], 0.0, 1.0) for i in range(len(chunk)))
    return preds


def evaluate_samples(net: CloudRemovalNet, samples: list[SamplePair],
                     sar_input: str) -> list[dict]:
    preds = predict(net, samples, sar_input)
    rows = []
    for sample, pred in zip(samples, preds):
        row = metrics.evaluate_pair(pred, sample.clean)
        row["coverage_bin"] = sample.coverage_bin
        row["class_label"] = sample.class_label
        rows.append(row)
    return rows


def metric_columns(agg: dict) -> str:
    """The count and the four metrics of an aggregate as tab-separated columns."""
    return "\t".join([str(agg["count"])] + [f"{agg[k]:.6f}" for k in METRICS])


def _row(scope: str, bin_label: str, class_label: str, agg: dict) -> str:
    return f"{scope}\t{bin_label}\t{class_label}\t{metric_columns(agg)}"


def render_report(rows: list[dict]) -> str:
    lines = [REPORT_HEADER]
    for bin_label in COVERAGE_BINS:
        for class_label in CLASS_LABELS:
            cell = [r for r in rows
                    if r["coverage_bin"] == bin_label and r["class_label"] == class_label]
            lines.append(_row("cell", bin_label, class_label, metrics.aggregate(cell)))
    for bin_label in COVERAGE_BINS:
        group = [r for r in rows if r["coverage_bin"] == bin_label]
        lines.append(_row("bin", bin_label, "-", metrics.aggregate(group)))
    for class_label in CLASS_LABELS:
        group = [r for r in rows if r["class_label"] == class_label]
        lines.append(_row("class", "-", class_label, metrics.aggregate(group)))
    lines.append(_row("overall", "-", "-", metrics.aggregate(rows)))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> dict[tuple[str, str, str], dict]:
    """Inverse of render_report: (scope, bin, class) -> metric dict."""
    table = {}
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        scope, bin_label, class_label, count, *values = line.split("\t")
        table[(scope, bin_label, class_label)] = {
            "count": int(count), **{k: float(v) for k, v in zip(METRICS, values, strict=True)}}
    return table


def evaluate(config: RunConfig, net: CloudRemovalNet, report_path=None) -> str:
    dataset = load_dataset(config.data_dir)
    rows = evaluate_samples(net, dataset.test, config.sar_input)
    report = render_report(rows)
    target = Path(report_path if report_path is not None else config.report_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(report)
    return report
