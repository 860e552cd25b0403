"""Command line interface.

Subcommands: gen-data, train, eval, ablate, infer, gradcheck. Every command
is deterministic under a fixed seed and config; failures exit nonzero with a
single machine-parsable ``error:<category>: message`` line on stderr, whose
category ``main`` takes from ``FAILURE_CATEGORIES``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import evaluation, experiments, gradcheck, synthetic, tensorfile
from .config import ConfigError, load_config, patch_problem
from .model import CloudRemovalNet
from .nn import StateDictError
from .training import (CheckpointError, MissingCheckpoint, MissingData, TrainingDiverged,
                       load_checkpoint, model_config_from_meta, read_meta, train)


class CliError(Exception):
    """A failure a command detects itself, with the category it reports."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def cmd_gen_data(args) -> int:
    if args.count < 2:
        raise CliError("usage", f"--count must be at least 2, one train and one test sample; "
                                f"got {args.count}")
    if problem := patch_problem(args.patch):
        raise CliError("usage", f"--patch: {problem}")
    out = Path(args.out)
    n_train, n_test = synthetic.build_dataset(args.seed, args.count, args.patch, out)
    records = synthetic.read_manifest(out / "train.manifest")
    records += synthetic.read_manifest(out / "test.manifest")
    histogram = Counter(rec.coverage_bin for rec in records)
    print(f"wrote {args.count} samples ({n_train} train / {n_test} test) to {out}")
    for bin_label in synthetic.COVERAGE_BINS:
        print(f"bin {bin_label:>7}: {histogram.get(bin_label, 0)}")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    saved = []  # train logs each epoch once its checkpoint is written
    # a resumed run appends, so the log of the run it continues is kept
    with open(config.log_path or os.devnull, "a" if args.resume else "w") as log_file:
        def log(msg):
            print(msg)
            log_file.write(msg + "\n")
            log_file.flush()  # a crashed or killed run keeps its log
            if msg.startswith("epoch="):
                saved.append(msg)

        train(config, log=log, resume=args.resume)
    if saved:  # a resume of a finished run trains and writes nothing
        print(f"checkpoint written to {config.checkpoint_dir}")
    return 0


def _restore(checkpoint: str) -> CloudRemovalNet:
    net = CloudRemovalNet(model_config_from_meta(read_meta(checkpoint)), seed=None)
    load_checkpoint(checkpoint, net)
    return net


def cmd_eval(args) -> int:
    config = load_config(args.config)
    net = _restore(args.checkpoint or config.checkpoint_dir)
    report = evaluation.evaluate(config, net, report_path=args.out)
    print(report, end="")
    print(f"report written to {args.out or config.report_path}")
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    report = experiments.render_ablation_report(experiments.run_ablation(config))
    out = Path(args.out) if args.out else Path(config.report_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report)
    print(report, end="")
    print(f"ablation report written to {out}")
    return 0


def cmd_infer(args) -> int:
    net = _restore(args.checkpoint)
    paths = args.inputs
    needs_sar = net.config.radar_channels > 0
    if needs_sar and len(paths) != 2:
        raise CliError("usage", "this checkpoint needs two inputs: cloudy and radar tensors")
    if not needs_sar and len(paths) not in (1, 2):
        raise CliError("usage", "expected the cloudy tensor (radar input is ignored)")
    cloudy = tensorfile.read_tensor(paths[0])
    sar = tensorfile.read_tensor(paths[1]) if needs_sar else None
    single = cloudy.ndim == 3   # one (C, P, P) tile in, one tile out
    if single:
        cloudy = cloudy[None]
    if sar is not None and sar.ndim == 3:
        sar = sar[None]
    with ad.no_grad():
        pred = net.forward(ad.Tensor(cloudy), ad.Tensor(sar) if sar is not None else None,
                           training=False)
    out = np.clip(pred.data[0] if single else pred.data, 0.0, 1.0)
    tensorfile.write_tensor(args.out, out)
    print(f"prediction {out.shape} written to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    names = None
    if args.op is not None:
        if args.op not in gradcheck.OP_CHECKS:
            valid = ", ".join(sorted(gradcheck.OP_CHECKS))
            raise CliError("usage", f"unknown op {args.op!r}; valid ops: {valid}")
        names = [args.op]
    results = gradcheck.run_suite(names)
    worst = max(results.values())
    if worst > gradcheck.TOLERANCE:
        raise CliError("gradcheck-failed",
                       f"max relative error {worst:.3e} exceeds {gradcheck.TOLERANCE:.0e}")
    print(f"all {len(results)} checks passed (worst {worst:.3e})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="podfcr",
        description="Cloud removal from optical imagery with PolSAR fusion: "
                    "synthetic data, training, evaluation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--patch", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare ablated variants")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("infer", help="run a checkpoint on tensor files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="inputs", nargs="+", required=True,
                   metavar="TENSOR", help="cloudy tensor, then the radar tensor")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference check of every operator")
    p.add_argument("--op", default=None, help="check a single operator by name")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


# The category of each failure other than a CliError, by exception type, most
# specific first: the first row that matches names the category. An exception
# outside the table is a fault of the program and keeps its traceback.
FAILURE_CATEGORIES = (
    ((ConfigError,), "config"),
    ((StateDictError, CheckpointError), "checkpoint"),
    ((tensorfile.TensorFileError,), "bad-tensorfile"),
    ((MissingCheckpoint,), "missing-checkpoint"),
    ((MissingData,), "missing-data"),
    ((TrainingDiverged,), "diverged"),
    ((ValueError, OSError), "runtime"),
)
_CATEGORIZED = tuple(t for types, _ in FAILURE_CATEGORIES for t in types)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, *_CATEGORIZED) as exc:
        category = exc.category if isinstance(exc, CliError) else next(
            category for types, category in FAILURE_CATEGORIES if isinstance(exc, types))
        print(f"error:{category}: {exc}", file=sys.stderr)
        return 2 if category == "usage" else 1


if __name__ == "__main__":
    raise SystemExit(main())
