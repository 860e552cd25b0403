"""The benchmark's workloads: set-up, timed rounds and the checks after them.

A workload builds a seeded synthetic dataset (set-up), then runs whole
rounds until the run length has passed. A round trains from scratch to an
epoch boundary, resumes with ``resume=True`` to the last epoch, evaluates the
test split and runs every test tile once through ``podfcr infer``. Every
round repeats the same operations on the same inputs, so its counts never
vary. An untraced run repeats the set-up a few times after every round, so
that the median set-up time samples the whole run, as the round medians do.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from podfcr import autodiff as ad
from podfcr import cli, evaluation, losses, synthetic, tensorfile, training
from podfcr.config import RunConfig
from podfcr.model import CloudRemovalNet
from podfcr.optim import Adam

import checks

# parameter entries of the gradient check are drawn from these blocks, in order
GRAD_BLOCKS = ("out_conv.", "dec_rb2.", "opt_rb1.", "sar_rb2.filters.", "mmcf3.",
               "mmrf.", "aspp.", "up1.")
# extra set-ups after each round of an untraced run; setup_s is the median of all
SETUPS_PER_ROUND = 4


@dataclass(frozen=True)
class Workload:
    name: str
    patch: int
    width: int
    batch: int
    samples: int            # dataset size; the last 20% are the test split
    epochs: int             # training rounds train this many epochs in total ...
    interrupt: int          # ... stopping after this epoch and resuming from it
    grad_entries: int = 8   # parameter entries in the gradient check

    @property
    def n_train(self) -> int:
        return int(self.samples * 0.8)

    @property
    def n_test(self) -> int:
        return self.samples - self.n_train

    @property
    def steps_per_epoch(self) -> int:
        return -(-self.n_train // self.batch)

    @property
    def round_ops(self) -> int:
        """Operations in one round: training steps, evaluated samples, infer calls."""
        return self.epochs * self.steps_per_epoch + 2 * self.n_test


WORKLOADS = {
    "desk_train": Workload("desk_train", patch=32, width=8, batch=1, samples=11,
                           epochs=3, interrupt=2),
    "wide_train": Workload("wide_train", patch=64, width=16, batch=2, samples=6,
                           epochs=2, interrupt=1, grad_entries=4),
}


class NullTracer:
    """Stands in for ``Tracer`` when tracing is off: phase spans cost nothing."""

    def span(self, *args, **kwargs):
        return contextlib.nullcontext()


def run_config(w: Workload, seed: int, root: Path, **overrides) -> RunConfig:
    base = dict(seed=seed, patch=w.patch, base_channels=w.width, batch_size=w.batch,
                sar_input="pfsar", data_dir=str(root / "data"),
                checkpoint_dir=str(root / "ckpt"), report_path=str(root / "report.txt"))
    base.update(overrides)
    return RunConfig(**base)


@dataclass
class Setup:
    root: Path
    dataset: training.LoadedDataset
    tiles: list[tuple[str, str]]          # (cloudy, radar) tensor files per test tile


def set_up(w: Workload, seed: int, root: Path) -> Setup:
    """Dataset generation, load_dataset, net build and the infer tiles."""
    if root.exists():
        shutil.rmtree(root)
    data = root / "data"
    synthetic.build_dataset(seed, w.samples, w.patch, data)
    dataset = training.load_dataset(data)
    CloudRemovalNet(run_config(w, seed, root).model_config(), seed=seed)
    tiles = []
    (root / "tiles").mkdir()
    for i, sample in enumerate(dataset.test):
        pair = (str(root / "tiles" / f"{i}_cloudy.ptf"), str(root / "tiles" / f"{i}_sar.ptf"))
        tensorfile.write_tensor(pair[0], sample.cloudy)
        tensorfile.write_tensor(pair[1], sample.pfsar)
        tiles.append(pair)
    return Setup(root=root, dataset=dataset, tiles=tiles)


@dataclass
class Round:
    root: Path
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    train_seconds: float = 0.0
    eval_seconds: float = 0.0
    infer_ms: list[float] = field(default_factory=list)
    logs: list[str] = field(default_factory=list)
    net: CloudRemovalNet | None = None
    report: str = ""
    outputs: list[str] = field(default_factory=list)


def infer(tracer, checkpoint: str, tile: tuple[str, str], out: str) -> tuple[int, str]:
    err = io.StringIO()
    with tracer.span("phase.infer"), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["infer", "--checkpoint", checkpoint, "--in", *tile, "--out", out])
    return code, err.getvalue().strip()


def run_round(w: Workload, seed: int, setup: Setup, root: Path, tracer) -> Round:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    r = Round(root=root)
    cfg = run_config(w, seed, setup.root, checkpoint_dir=str(root / "ckpt"),
                     report_path=str(root / "report.txt"), epochs=w.epochs)
    net = None
    t0 = time.perf_counter()
    try:
        with tracer.span("phase.train"):
            training.train(replace(cfg, epochs=w.interrupt), log=r.logs.append)
        with tracer.span("phase.train"):
            net = training.train(cfg, log=r.logs.append, resume=True)
    except training.TrainingDiverged as exc:
        r.errors.append(f"TrainingDiverged: {exc}")
    except Exception as exc:  # counted as failed operations, reported below
        r.errors.append(f"train: {type(exc).__name__}: {exc}")
    r.train_seconds = time.perf_counter() - t0
    if net is None:
        r.failed = w.round_ops
        return r
    r.net = net
    t0 = time.perf_counter()
    try:
        with tracer.span("phase.eval"):
            r.report = evaluation.evaluate(cfg, net)
    except Exception as exc:  # counted as failed operations, reported below
        r.errors.append(f"evaluate: {type(exc).__name__}: {exc}")
        r.failed += w.n_test
    r.eval_seconds = time.perf_counter() - t0
    for i, tile in enumerate(setup.tiles):
        out = str(root / f"infer_{i}.ptf")
        t0 = time.perf_counter()
        code, err = infer(tracer, cfg.checkpoint_dir, tile, out)
        r.infer_ms.append(1e3 * (time.perf_counter() - t0))
        r.outputs.append(out)
        if code != 0:
            r.failed += 1
            r.errors.append(f"infer tile {i}: exit {code}: {err}")
    return r


# -- checks after the timed part ---------------------------------------------

def buffer_snapshot(net: CloudRemovalNet) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(buf, buf.copy()) for _, buf in net.named_buffers()]


def restore_buffers(snapshot) -> None:
    for buf, saved in snapshot:
        buf[...] = saved


def batch_loss(net: CloudRemovalNet, cfg: RunConfig, batch, snapshot) -> ad.Tensor:
    """Training-mode loss on one batch; batch-norm buffers are put back after."""
    cloudy, clean, mask, sar = batch
    pred = net.forward(cloudy, sar, training=True)
    loss = losses.loss_total(pred, clean, mask, cfg.lambda_local, cfg.lambda_ssim)
    restore_buffers(snapshot)
    return loss


def grad_entries(net: CloudRemovalNet, seed: int, count: int) -> list[tuple[str, tuple]]:
    """One entry in each of the first ``count`` blocks: a seeded parameter, at its
    largest gradient, among those whose largest gradient reaches GRAD_FLOOR.

    Below the floor, central differences measure the loss's rounding more
    than its slope (about 1e-15 / step).
    """
    rng = np.random.default_rng([seed, 17])
    params = dict(net.named_parameters())
    entries = []
    for prefix in GRAD_BLOCKS[:count]:
        names = sorted(n for n, p in params.items()
                       if n.startswith(prefix) and np.abs(p.grad).max() >= checks.GRAD_FLOOR)
        if names:
            name = names[rng.integers(len(names))]
            grad = params[name].grad
            idx = np.unravel_index(int(np.argmax(np.abs(grad))), grad.shape)
            entries.append((name, tuple(int(i) for i in idx)))
    return entries


def training_checks(w: Workload, seed: int, setup: Setup, r: Round) -> list[str]:
    cfg = run_config(w, seed, setup.root, checkpoint_dir=str(r.root / "ckpt"), epochs=w.epochs)
    # the final checkpoint, loaded into a fresh net, is the returned net
    fresh = CloudRemovalNet(cfg.model_config(), seed=seed)
    opt = Adam(list(fresh.named_parameters()), lr=cfg.learning_rate, beta1=cfg.adam_beta1,
               beta2=cfg.adam_beta2, grad_clip=cfg.grad_clip)
    training.load_checkpoint(cfg.checkpoint_dir, fresh, opt)
    failures = checks.check_state_equal(
        dict((n, p.data) for n, p in r.net.named_parameters()),
        dict((n, p.data) for n, p in fresh.named_parameters()), "parameter")
    failures += checks.check_state_equal(
        dict(r.net.named_buffers()), dict(fresh.named_buffers()), "buffer")
    failures += checks.check_meta_step(training.read_meta(cfg.checkpoint_dir),
                                       w.epochs * w.steps_per_epoch)
    # tape gradient against central differences on the trained copy
    params = dict(fresh.named_parameters())
    batch = training.make_batch(setup.dataset.train[:w.batch], cfg.sar_input)
    snapshot = buffer_snapshot(fresh)
    fresh.zero_grad()
    batch_loss(fresh, cfg, batch, snapshot).backward()
    entries = grad_entries(fresh, seed, w.grad_entries)
    tape = {(name, idx): float(params[name].grad[idx]) for name, idx in entries}

    def central(key, step):
        name, idx = key
        p = params[name].data
        orig = p[idx]
        with ad.no_grad():
            p[idx] = orig + step
            plus = batch_loss(fresh, cfg, batch, snapshot).item()
            p[idx] = orig - step
            minus = batch_loss(fresh, cfg, batch, snapshot).item()
        p[idx] = orig
        return (plus - minus) / (2 * step)

    if len(entries) < 2:
        failures.append(f"only {len(entries)} parameter entries have a gradient to check")
    failures += checks.check_gradients(tape, central)
    # one Adam step against the plain-numpy update
    expected = {name: checks.adam_reference(
        p.data, p.grad, opt.m[name], opt.v[name], opt.step_count + 1,
        opt.lr, opt.beta1, opt.beta2, opt.eps) for name, p in params.items() if p.grad is not None}
    opt.step()
    actual = {name: (params[name].data, opt.m[name], opt.v[name]) for name in expected}
    failures += checks.check_adam(expected, actual)
    return failures


def eval_checks(w: Workload, seed: int, setup: Setup, r: Round) -> list[str]:
    test = setup.dataset.test
    preds = evaluation.predict(r.net, test, "pfsar", batch_size=4)
    failures = checks.check_report_layout(r.report, len(test))
    failures += checks.check_report_values(r.report, preds, [s.clean for s in test])
    failures += checks.check_infer_matches(
        [tensorfile.read_tensor(path) for path in r.outputs], preds)
    fresh = CloudRemovalNet(run_config(w, seed, setup.root).model_config(), seed=seed)
    cloudy, _, _, sar = training.make_batch(test[:4], "pfsar")
    with ad.no_grad():
        out = fresh.forward(cloudy, sar, training=False)
    failures += checks.check_identity(out.data, cloudy.data)
    return failures


# -- a whole pass --------------------------------------------------------------

@dataclass
class Pass:
    setup_seconds: list[float]
    setup: Setup
    rounds: list[Round]

    def train_rate(self, w: Workload) -> float:
        """Median samples/s over the rounds' train() calls."""
        return statistics.median(w.epochs * w.n_train / r.train_seconds for r in self.rounds)

    def eval_rate(self, w: Workload) -> float:
        return statistics.median(w.n_test / r.eval_seconds for r in self.rounds)

    def infer_ms(self) -> list[float]:
        return [ms for r in self.rounds for ms in r.infer_ms]


def timed_setup(w: Workload, seed: int, root: Path, tracer) -> tuple[Setup, float]:
    t0 = time.perf_counter()
    with tracer.span("phase.setup"):
        setup = set_up(w, seed, root)
    return setup, time.perf_counter() - t0


def run_pass(w: Workload, seed: int, seconds: float, work: Path, setups_per_round: int,
             tracer=None) -> Pass:
    """One set-up whose files the rounds use, then rounds for ``seconds``, each
    followed by ``setups_per_round`` more set-ups that are timed and deleted."""
    tracer = tracer or NullTracer()
    setup, first = timed_setup(w, seed, work / "setup", tracer)
    setup_seconds = [first]
    rounds: list[Round] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        if rounds:   # keep only the last round's files and net, so memory stays flat
            shutil.rmtree(rounds[-1].root)
            rounds[-1].net = None
        with tracer.span("phase.round"):
            rounds.append(run_round(w, seed, setup, work / f"round{len(rounds)}", tracer))
        for _ in range(setups_per_round):
            extra, seconds_taken = timed_setup(w, seed, work / "setup_extra", tracer)
            shutil.rmtree(extra.root)
            setup_seconds.append(seconds_taken)
    return Pass(setup_seconds, setup, rounds)


def check_pass(w: Workload, seed: int, p: Pass) -> list[str]:
    failures = []
    for i, r in enumerate(p.rounds):
        failures += [f"round {i}: {e}" for e in r.errors if e.startswith("TrainingDiverged")]
        if not r.errors:
            failures += [f"round {i}: {f}" for f in checks.check_loss_decreases(r.logs, w.epochs)]
    last = p.rounds[-1]
    if last.errors:   # only the last round's files and net are kept
        return failures + ["the last round has a failed operation; its outputs are not checked"]
    return failures + training_checks(w, seed, p.setup, last) + eval_checks(w, seed, p.setup, last)
