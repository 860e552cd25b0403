"""End-to-end walkthrough: generate a small dataset, train the full model
briefly, evaluate per coverage bin, and run inference on one sample.

Uses a reduced configuration so the whole script finishes in a few seconds;
its files live in a temporary directory that is removed at the end.
"""

import tempfile
from pathlib import Path

import numpy as np

from podfcr import autodiff as ad
from podfcr.config import RunConfig
from podfcr.evaluation import evaluate, parse_report
from podfcr.synthetic import build_dataset
from podfcr.training import load_split, make_batch, train

with tempfile.TemporaryDirectory(prefix="cloudrm_") as tmp:
    workdir = Path(tmp)
    data_dir = workdir / "data"
    build_dataset(seed=0, count=12, size=16, out_dir=data_dir)

    config = RunConfig(
        seed=0, patch=16, base_channels=4, epochs=6, batch_size=2,
        learning_rate=5e-4,            # faster than the reference recipe, demo only
        data_dir=str(data_dir),
        checkpoint_dir=str(workdir / "ckpt"),
        report_path=str(workdir / "report.txt"),
    )

    net = train(config)

    report = evaluate(config, net)
    table = parse_report(report)
    print("\nper-bin PSNR (dB):")
    for (scope, bin_label, _), row in table.items():
        if scope == "bin" and row["count"]:
            print(f"  {bin_label:>7}: {row['psnr']:.2f}  (n={row['count']})")
    print("overall:", {k: round(v, 4) for k, v in table[("overall", "-", "-")].items()})

    # single-sample inference, eval mode
    cloudy, clean, mask, sar = make_batch(load_split(config.data_dir, "test")[:1],
                                          config.sar_input)
    with ad.no_grad():
        pred = net.forward(cloudy, sar, training=False)
    restored = np.clip(pred.data[0], 0, 1)
    err_before = np.abs(cloudy.data[0] - clean.data[0]).mean()
    err_after = np.abs(restored - clean.data[0]).mean()
    print(f"\ntest sample mean abs error: cloudy {err_before:.4f} -> restored {err_after:.4f}")
