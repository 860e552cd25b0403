"""Ablation study runner.

Trains the full model, the five module ablations of ``config.ABLATIONS``
(dynamic filters, gating, cross fusion, refinement fusion, ASPP) on the
polarization-feature input, and the full model on the other radar inputs
(none, both stacks, backscatter only), then evaluates each on the shared test
split and renders one comparative report. Each variant sets its own
``ablation`` and ``sar_input``; the base config gives the rest. The
polarization-feature input row reuses the full baseline.

Each variant trains in its own spawned process with one BLAS thread, so the
variants run side by side on separate cores, and the results are the same
for any worker count and any core count (the BLAS thread count changes the
rounding of a GEMM).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import BLAS_THREAD_VARS, evaluation, metrics
from .config import ABLATIONS, RunConfig
from .training import load_split, train

MODULE_VARIANTS = tuple((name, {"ablation": name, "sar_input": "pfsar"}) for name in ABLATIONS)
INPUT_VARIANTS = (
    ("input_none", {"ablation": "full", "sar_input": "none"}),
    ("input_both", {"ablation": "full", "sar_input": "both"}),
    ("input_bcfsar", {"ablation": "full", "sar_input": "bcfsar"}),
    ("input_pfsar", None),  # alias of the full baseline
)

ABLATION_HEADER = "\t".join(("# variant", "count") + metrics.METRICS)
# variants trained at once: one per usable core, at most this many
MAX_WORKERS = 4


def variant_config(config: RunConfig, name: str, overrides: dict) -> RunConfig:
    ckpt = str(Path(config.checkpoint_dir) / name)
    return replace(config, checkpoint_dir=ckpt, **overrides)


def train_variant(cfg: RunConfig) -> tuple[dict, list[str]]:
    """Train one variant and score it on the test split; returns the
    aggregate metrics and the training log lines."""
    lines: list[str] = []
    net = train(cfg, log=lines.append)
    rows = evaluation.evaluate_samples(net, load_split(cfg.data_dir, "test"))
    return metrics.aggregate(rows), lines


@contextmanager
def _one_blas_thread():
    saved = {key: os.environ.get(key) for key in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_ablation(config: RunConfig, log=print) -> dict[str, dict]:
    """Train and evaluate every variant; returns name -> aggregate metrics.
    Each variant's log is passed to ``log`` when the variant is done, in
    variant order. The workers are spawned, so a script that calls this
    needs the ``if __name__ == "__main__":`` guard."""
    jobs = [(name, variant_config(config, name, overrides))
            for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS if overrides is not None]
    workers = min(len(os.sched_getaffinity(0)), MAX_WORKERS, len(jobs))
    scored: dict[str, dict] = {}
    with _one_blas_thread(), ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [(name, cfg, pool.submit(train_variant, cfg)) for name, cfg in jobs]
        try:
            for name, cfg, future in futures:
                scored[name], lines = future.result()
                log(f"[{name}] training for {cfg.epochs} epochs")
                for line in lines:
                    log(f"[{name}] {line}")
                log(f"[{name}] test psnr={scored[name]['psnr']:.4f} "
                    f"ssim={scored[name]['ssim']:.4f}")
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return {name: dict(scored["full"] if overrides is None else scored[name])
            for name, overrides in MODULE_VARIANTS + INPUT_VARIANTS}


def render_ablation_report(results: dict[str, dict]) -> str:
    lines = [ABLATION_HEADER]
    lines += [f"{name}\t{evaluation.metric_columns(agg)}" for name, agg in results.items()]
    return "\n".join(lines) + "\n"
