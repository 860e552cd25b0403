"""Ablation study runner.

Trains the full model, the five module ablations (dynamic filters, gating,
cross fusion, refinement fusion, ASPP), and the input ablations (no radar,
both radar stacks, backscatter-only), then evaluates each on the shared test
split and renders one comparative report. The polarization-feature-only
input row reuses the full baseline, which already trains on that input.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import evaluation, metrics
from .config import RunConfig
from .training import train

MODULE_VARIANTS = (
    ("full", {}),
    ("no_scdf", {"no_scdf": True}),
    ("no_gc", {"no_gc": True}),
    ("no_mmcf", {"no_mmcf": True}),
    ("no_mmrf", {"no_mmrf": True}),
    ("no_aspp", {"no_aspp": True}),
)
INPUT_VARIANTS = (
    ("input_none", {"sar_input": "none"}),
    ("input_both", {"sar_input": "both"}),
    ("input_bcfsar", {"sar_input": "bcfsar"}),
    ("input_pfsar", None),  # alias of the full baseline
)

ABLATION_HEADER = "# variant\tcount\tpsnr\tssim\tcc\tsam"


def variant_config(config: RunConfig, name: str, overrides: dict) -> RunConfig:
    ckpt = str(Path(config.checkpoint_dir) / name)
    return replace(config, checkpoint_dir=ckpt, **overrides)


def run_ablation(config: RunConfig, log=print) -> dict[str, dict]:
    """Train and evaluate every variant; returns name -> aggregate metrics."""
    results: dict[str, dict] = {}
    for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS:
        if overrides is None:
            results[name] = dict(results["full"])
            continue
        cfg = variant_config(config, name, overrides)
        log(f"[{name}] training for {cfg.epochs} epochs")
        net = train(cfg, log=lambda msg: log(f"[{name}] {msg}"))
        rows = evaluation.evaluate_samples(
            net, evaluation.load_dataset(cfg.data_dir).test, cfg.sar_input)
        results[name] = metrics.aggregate(rows)
        log(f"[{name}] test psnr={results[name]['psnr']:.4f} ssim={results[name]['ssim']:.4f}")
    return results


def render_ablation_report(results: dict[str, dict]) -> str:
    lines = [ABLATION_HEADER]
    lines += [f"{name}\t{evaluation.metric_columns(agg)}" for name, agg in results.items()]
    return "\n".join(lines) + "\n"
