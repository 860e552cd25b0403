"""Training loop with resumable, bit-exact checkpoints.

A checkpoint is a directory of tensor containers (one per named parameter,
batch-norm buffer, and Adam moment) plus a manifest mapping name -> shape
and a meta file with the epoch/step counters, the seed and every
``ModelConfig`` field. The per-epoch sample order is derived statelessly
from (seed, epoch) and the step count fixes the epoch and batch to resume
at, so a resumed run replays exactly the order an uninterrupted run would
have used, also after a stop partway through an epoch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses, metrics
from .config import RunConfig, field_types, read_key_values, write_key_values
from .model import CloudRemovalNet, ModelConfig
from .optim import Adam
from .synthetic import SamplePair, load_sample, read_manifest, seed_for
from .tensorfile import TensorFileError, read_tensor, write_tensor


META_TYPES = {"epoch": "int", "step": "int", "seed": "int"} | field_types(ModelConfig)


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(ValueError):
    """A checkpoint whose meta file or stored tensors cannot be read back."""


class MissingCheckpoint(FileNotFoundError):
    """No checkpoint manifest or meta file where one was expected."""


@dataclass
class LoadedDataset:
    train: list[SamplePair]
    test: list[SamplePair]


def load_dataset(data_dir) -> LoadedDataset:
    data_dir = Path(data_dir)
    if not (data_dir / "train.manifest").exists():
        raise FileNotFoundError(f"no train.manifest under {data_dir}")
    train = [load_sample(data_dir, rec) for rec in read_manifest(data_dir / "train.manifest")]
    test = [load_sample(data_dir, rec) for rec in read_manifest(data_dir / "test.manifest")]
    return LoadedDataset(train=train, test=test)


def sar_stack(sample: SamplePair, sar_input: str) -> np.ndarray | None:
    if sar_input == "pfsar":
        return sample.pfsar
    if sar_input == "bcfsar":
        return sample.bcfsar
    if sar_input == "both":
        return np.concatenate([sample.pfsar, sample.bcfsar], axis=0)
    return None


def make_batch(samples: list[SamplePair], sar_input: str):
    cloudy = ad.Tensor(np.stack([s.cloudy for s in samples]))
    clean = ad.Tensor(np.stack([s.clean for s in samples]))
    mask = ad.Tensor(np.stack([s.mask for s in samples]))
    if sar_input == "none":
        return cloudy, clean, mask, None
    sar = ad.Tensor(np.stack([sar_stack(s, sar_input) for s in samples]))
    return cloudy, clean, mask, sar


# -- checkpoint I/O ---------------------------------------------------------

def save_checkpoint(ckpt_dir, net: CloudRemovalNet, optimizer: Adam,
                    epoch: int, config: RunConfig) -> None:
    ckpt_dir = Path(ckpt_dir)
    tensors_dir = ckpt_dir / "tensors"
    tensors_dir.mkdir(parents=True, exist_ok=True)
    entries: list[tuple[str, np.ndarray]] = []
    entries += [(f"param.{name}", p.data) for name, p in net.named_parameters()]
    entries += [(f"buffer.{name}", b) for name, b in net.named_buffers()]
    for key, value in optimizer.state_dict().items():
        if key == "step":
            continue
        entries.append((f"adam.{key}", value))
    manifest_lines = []
    for name, arr in entries:
        write_tensor(tensors_dir / f"{name}.ptf", arr)
        shape = "x".join(str(s) for s in arr.shape) if arr.ndim else "scalar"
        manifest_lines.append(f"{name}\t{shape}")
    (ckpt_dir / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    counters = {"epoch": epoch, "step": optimizer.step_count, "seed": config.seed}
    write_key_values(ckpt_dir / "meta.txt", counters | asdict(net.config))


def _checkpoint_file(ckpt_dir, name: str) -> Path:
    path = Path(ckpt_dir) / name
    if not path.is_file():
        raise MissingCheckpoint(f"no checkpoint in {ckpt_dir}: {path} does not exist")
    return path


def read_meta(ckpt_dir) -> dict:
    path = _checkpoint_file(ckpt_dir, "meta.txt")
    try:
        meta = read_key_values(path, META_TYPES)
    except ValueError as exc:  # ConfigError, or a malformed number
        raise CheckpointError(str(exc)) from exc
    missing = sorted(META_TYPES.keys() - meta.keys())
    if missing:
        raise CheckpointError(f"{path}: missing keys {missing}")
    return meta


def model_config_from_meta(meta: dict) -> ModelConfig:
    return ModelConfig(**{name: meta[name] for name in field_types(ModelConfig)})


def load_checkpoint(ckpt_dir, net: CloudRemovalNet, optimizer: Adam | None = None) -> int:
    """Restore parameters and buffers, and the optimizer state when given
    (the Adam moments are read only then); returns the epoch."""
    ckpt_dir = Path(ckpt_dir)
    kinds = ("param.", "buffer.") if optimizer is None else ("param.", "buffer.", "adam.")
    names = [line.split("\t")[0] for line in
             _checkpoint_file(ckpt_dir, "manifest.txt").read_text().splitlines()
             if line.startswith(kinds)]
    try:
        stored = {name: read_tensor(ckpt_dir / "tensors" / f"{name}.ptf") for name in names}
    except (TensorFileError, FileNotFoundError) as exc:
        raise CheckpointError(str(exc)) from exc
    net.load_state_dict({name.split(".", 1)[1]: arr for name, arr in stored.items()
                         if not name.startswith("adam.")})
    meta = read_meta(ckpt_dir)
    if optimizer is not None:
        optimizer.load_state_dict({"step": meta["step"]} |
                                  {name[len("adam."):]: arr for name, arr in stored.items()
                                   if name.startswith("adam.")})
    return meta["epoch"]


# -- the loop ---------------------------------------------------------------

def build_net_and_optimizer(config: RunConfig) -> tuple[CloudRemovalNet, Adam]:
    net = CloudRemovalNet(config.model_config(), seed=config.seed)
    optimizer = Adam(list(net.named_parameters()), lr=config.learning_rate,
                     beta1=config.adam_beta1, beta2=config.adam_beta2,
                     grad_clip=config.grad_clip)
    return net, optimizer


def train_step(net: CloudRemovalNet, optimizer: Adam, batch, config: RunConfig
               ) -> tuple[ad.Tensor, tuple[float, float, float, float]]:
    """One optimizer step on a ``make_batch`` tuple; returns the prediction
    and the loss total with its three terms."""
    cloudy, clean, mask, sar = batch
    pred = net.forward(cloudy, sar, training=True)
    total, lg, ll, ls = losses.loss_components(
        pred, clean, mask, config.lambda_local, config.lambda_ssim)
    value = total.item()
    if not np.isfinite(value):
        culprit = ad.first_nonfinite_op(total) or "loss"
        raise TrainingDiverged(f"non-finite loss at step {optimizer.step_count + 1}; "
                               f"first non-finite tensor from op '{culprit}'")
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    return pred, (value, lg, ll, ls)


def train(config: RunConfig, log=print, resume: bool = False) -> CloudRemovalNet:
    dataset = load_dataset(config.data_dir)
    if not dataset.train:
        raise FileNotFoundError(f"no training samples under {config.data_dir}")
    net, optimizer = build_net_and_optimizer(config)
    ckpt_dir = Path(config.checkpoint_dir)
    if resume:
        load_checkpoint(ckpt_dir, net, optimizer)
    n = len(dataset.train)
    per_epoch = -(-n // config.batch_size)
    start_epoch, done_batches = divmod(optimizer.step_count, per_epoch)
    if resume:
        log(f"resumed from {ckpt_dir} at epoch {start_epoch} step {optimizer.step_count}")

    done = False
    for epoch in range(start_epoch, config.epochs):
        order = seed_for(config.seed, "shuffle", epoch).permutation(n)
        first = done_batches * config.batch_size if epoch == start_epoch else 0
        sums = np.zeros(5)
        batches = 0
        for lo in range(first, n, config.batch_size):
            batch = make_batch([dataset.train[i] for i in order[lo:lo + config.batch_size]],
                               config.sar_input)
            pred, terms = train_step(net, optimizer, batch, config)
            batch_psnr = min(metrics.psnr(np.clip(pred.data, 0.0, 1.0), batch[1].data),
                             metrics.PSNR_CAP_DB)
            sums += (*terms, batch_psnr)
            batches += 1
            if config.max_steps and optimizer.step_count >= config.max_steps:
                done = True
                break
        step = optimizer.step_count
        mean = sums / max(batches, 1)
        log(f"epoch={epoch + 1} step={step} loss_total={mean[0]:.6f} "
            f"loss_global={mean[1]:.6f} loss_local={mean[2]:.6f} loss_ssim={mean[3]:.6f} "
            f"train_psnr={mean[4]:.4f}")
        save_checkpoint(ckpt_dir, net, optimizer, step // per_epoch, config)
        if done:
            break
    return net


def overfit_single_sample(config: RunConfig, sample: SamplePair, steps: int = 200,
                          log=None) -> tuple[float, float]:
    """Train on one sample for a fixed number of steps.

    Returns (initial_loss, final_loss); used by the overfit verification.
    """
    net, optimizer = build_net_and_optimizer(config)
    batch = make_batch([sample], config.sar_input)
    initial = None
    for i in range(steps):
        value = train_step(net, optimizer, batch, config)[1][0]
        if initial is None:
            initial = value
        if log is not None and (i + 1) % 50 == 0:
            log(f"step={i + 1} loss={value:.6f}")
    cloudy, clean, mask, sar = batch
    with ad.no_grad():
        pred = net.forward(cloudy, sar, training=True)
        final = losses.loss_total(pred, clean, mask,
                                  config.lambda_local, config.lambda_ssim).item()
    return float(initial), float(final)
