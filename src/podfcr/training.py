"""Training loop with resumable, bit-exact checkpoints.

A checkpoint is one file, ``<checkpoint_dir>/checkpoint.ptc``:

    # podfcr checkpoint, format 1       magic line
    epoch = 2                           meta (``META_TYPES``), ``key = value`` lines:
    ...                                 counters, seed, batch_size, ModelConfig fields
    (blank line)
    param.out_conv.bias<TAB>offset<TAB>crc
    ...                                 index: one line per tensor, its record's
                                        offset from the first record (12 digits)
                                        and the CRC-32 of the record (8 hex digits)
    end<TAB>crc                         CRC-32 of every header byte before this line
    records                             one ``tensorfile`` record per index line, in
                                        index order: parameters, batch-norm
                                        buffers, Adam moments

A save writes and fsyncs ``checkpoint.ptc.tmp``, moves it into place with
``os.replace`` and then fsyncs the directory, so a crash or kill during a save
leaves the previous checkpoint whole and a power loss after it cannot undo the
rename. A parameter-only load reads the header and the parameter and buffer
records, never the Adam moments. The per-epoch sample order is derived
statelessly from (seed, epoch) and the step count fixes the epoch and batch to
resume at (under the stored ``batch_size``), so a resumed run replays exactly
the order an uninterrupted run would have used, also after a stop partway
through an epoch.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import losses, metrics
from .config import (ConfigError, ModelConfig, RunConfig, field_types, format_key_values,
                     parse_key_values)
from .model import CloudRemovalNet
from .optim import Adam
from .synthetic import SAR_INPUT_ROLES, SamplePair, load_sample, read_manifest, seed_for
from .tensorfile import TensorFileError, read_tensor, write_tensor


META_TYPES = {"epoch": "int", "step": "int", "seed": "int", "batch_size": "int"} | \
    field_types(ModelConfig)
CHECKPOINT_FILE = "checkpoint.ptc"
_MAGIC_LINE = b"# podfcr checkpoint, format 1\n"


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(ValueError):
    """A checkpoint whose header or stored tensors cannot be read back."""


class MissingCheckpoint(FileNotFoundError):
    """No checkpoint file where one was expected."""


class MissingData(FileNotFoundError):
    """A dataset manifest, or a sample file it lists, that does not exist, or
    an empty training split."""


@dataclass
class LoadedDataset:
    train: list[SamplePair]
    test: list[SamplePair]


def load_split(data_dir, split: str) -> list[SamplePair]:
    """The samples listed in ``<data_dir>/<split>.manifest`` ("train" or "test")."""
    manifest = Path(data_dir) / f"{split}.manifest"
    if not manifest.exists():
        raise MissingData(f"no {manifest.name} under {data_dir}")
    try:
        return [load_sample(data_dir, rec) for rec in read_manifest(manifest)]
    except FileNotFoundError as exc:  # a sample file the manifest lists
        raise MissingData(exc.errno, exc.strerror, exc.filename) from exc


def load_dataset(data_dir) -> LoadedDataset:
    return LoadedDataset(train=load_split(data_dir, "train"), test=load_split(data_dir, "test"))


def make_batch(samples: list[SamplePair], sar_input: str):
    cloudy = ad.Tensor(np.stack([s.cloudy for s in samples]))
    clean = ad.Tensor(np.stack([s.clean for s in samples]))
    mask = ad.Tensor(np.stack([s.mask for s in samples]))
    roles = SAR_INPUT_ROLES[sar_input]
    if not roles:
        return cloudy, clean, mask, None
    sar = ad.Tensor(np.stack([np.concatenate([getattr(s, r) for r in roles]) for s in samples]))
    return cloudy, clean, mask, sar


# -- checkpoint I/O ---------------------------------------------------------

class _CrcWriter:
    """Binary file proxy that keeps the CRC-32 of the bytes written through it."""

    def __init__(self, file):
        self.file, self.crc = file, 0

    def write(self, data):
        self.crc = zlib.crc32(data, self.crc)
        return self.file.write(data)


def _header(meta: dict, index: list[tuple[str, int, int]]) -> bytes:
    """Magic line, meta, index and the closing CRC line; its length depends
    only on the meta and the tensor names."""
    text = _MAGIC_LINE + (format_key_values(meta) + "\n" + "".join(
        f"{name}\t{offset:012d}\t{crc:08x}\n" for name, offset, crc in index)).encode()
    return text + b"end\t%08x\n" % zlib.crc32(text)


def save_checkpoint(ckpt_dir, net: CloudRemovalNet, optimizer: Adam,
                    epoch: int, config: RunConfig) -> None:
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    entries = [(f"param.{name}", p.data) for name, p in net.named_parameters()]
    entries += [(f"buffer.{name}", b) for name, b in net.named_buffers()]
    entries += [(f"adam.{key}", value) for key, value in optimizer.state_dict().items()
                if key != "step"]
    meta = {"epoch": epoch, "step": optimizer.step_count, "seed": config.seed,
            "batch_size": config.batch_size} | asdict(net.config)
    # the records go after a header of known length, which is written last
    # because it holds their CRCs
    data_start = len(_header(meta, [(name, 0, 0) for name, _ in entries]))
    tmp = ckpt_dir / f"{CHECKPOINT_FILE}.tmp"
    index = []
    with open(tmp, "wb") as file:
        file.seek(data_start)
        out = _CrcWriter(file)
        for name, arr in entries:
            offset, out.crc = file.tell() - data_start, 0
            write_tensor(out, arr)
            index.append((name, offset, out.crc))
        file.seek(0)
        file.write(_header(meta, index))
        file.flush()
        os.fsync(file.fileno())
    os.replace(tmp, ckpt_dir / CHECKPOINT_FILE)
    fd = os.open(ckpt_dir, os.O_RDONLY)
    try:
        os.fsync(fd)  # make the rename itself durable
    finally:
        os.close(fd)


def _checkpoint_path(ckpt_dir) -> Path:
    ckpt_dir = Path(ckpt_dir)
    path = ckpt_dir / CHECKPOINT_FILE
    if path.is_file():
        return path
    if (ckpt_dir / "manifest.txt").is_file():
        raise CheckpointError(f"{ckpt_dir} holds a checkpoint in the directory layout of "
                              "earlier versions (manifest.txt, tensors/), which this version "
                              f"no longer reads; train it again to get {CHECKPOINT_FILE}")
    raise MissingCheckpoint(f"no checkpoint in {ckpt_dir}: {path} does not exist")


def _read_header(file, path) -> tuple[dict, list[tuple[str, int, int]]]:
    """Meta and index of an open checkpoint; leaves ``file`` at the first record."""
    if file.readline() != _MAGIC_LINE:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic line)")
    lines = [_MAGIC_LINE]
    while not (line := file.readline()).startswith(b"end\t"):
        if not line:
            raise CheckpointError(f"{path}: header truncated (no end line)")
        lines.append(line)
    text = b"".join(lines)
    if line != b"end\t%08x\n" % zlib.crc32(text):
        raise CheckpointError(f"{path}: header CRC mismatch")
    meta_text, _, index_text = text.decode(errors="replace").partition("\n\n")
    try:
        meta = parse_key_values(meta_text, META_TYPES, path)
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from exc
    missing = sorted(META_TYPES.keys() - meta.keys())
    if missing:
        raise CheckpointError(f"{path}: missing keys {missing}")
    try:
        model_config_from_meta(meta)
    except ConfigError as exc:  # parses, but holds a value ModelConfig rejects
        raise CheckpointError(f"{path}: {exc}") from exc
    index = []
    for line in index_text.splitlines():
        try:
            name, offset, crc = line.split("\t")
            index.append((name, int(offset), int(crc, 16)))
        except ValueError:
            raise CheckpointError(f"{path}: bad index line {line!r}") from None
    return meta, index


def read_meta(ckpt_dir) -> dict:
    path = _checkpoint_path(ckpt_dir)
    with open(path, "rb") as file:
        return _read_header(file, path)[0]


def model_config_from_meta(meta: dict) -> ModelConfig:
    return ModelConfig(**{name: meta[name] for name in field_types(ModelConfig)})


def check_resume_config(meta: dict, config: RunConfig) -> None:
    """Reject a resume whose seed, batch size or model fields differ from the
    checkpoint's, before any tensor loads, so the error names the field (``patch``,
    the seed and the batch size change no tensor name or shape; the step count
    fixes the resume position only under the batch size it was counted with)."""
    differing = [f"{key} = {meta[key]} (run config: {getattr(config, key)})"
                 for key in ("seed", "batch_size", *field_types(ModelConfig))
                 if meta[key] != getattr(config, key)]
    if differing:
        raise CheckpointError(f"{config.checkpoint_dir} was written with another config: "
                              + ", ".join(differing))


def load_checkpoint(ckpt_dir, net: CloudRemovalNet, optimizer: Adam | None = None) -> int:
    """Restore parameters and buffers, and the optimizer state when given
    (the Adam moments are read only then); returns the epoch."""
    path = _checkpoint_path(ckpt_dir)
    kinds = ("param.", "buffer.") if optimizer is None else ("param.", "buffer.", "adam.")
    stored = {}
    with open(path, "rb") as file:
        meta, index = _read_header(file, path)
        data_start = file.tell()
        size = os.fstat(file.fileno()).st_size - data_start
        # records lie back to back, so each one ends where the next begins
        ends = [offset for _, offset, _ in index[1:]] + [size]
        for (name, offset, crc), end in zip(index, ends):
            if not name.startswith(kinds):
                continue
            if not 0 <= offset <= end:
                raise CheckpointError(f"{path}: {name}: index offsets out of order")
            if end > size:
                raise CheckpointError(f"{path}: {name}: the file is truncated inside this record")
            file.seek(data_start + offset)
            record = file.read(end - offset)
            if zlib.crc32(record) != crc:
                raise CheckpointError(f"{path}: {name}: CRC mismatch, the record is damaged")
            try:
                stored[name] = read_tensor(record)
            except TensorFileError as exc:
                raise CheckpointError(f"{path}: {name}: {exc}") from exc
    net.load_state_dict({name.split(".", 1)[1]: arr for name, arr in stored.items()
                         if not name.startswith("adam.")})
    if optimizer is not None:
        optimizer.load_state_dict({"step": meta["step"]} |
                                  {name[len("adam."):]: arr for name, arr in stored.items()
                                   if name.startswith("adam.")})
    return meta["epoch"]


# -- the loop ---------------------------------------------------------------

def build_net_and_optimizer(config: RunConfig, restore: bool = False
                            ) -> tuple[CloudRemovalNet, Adam]:
    """The network and its optimizer. With ``restore`` the network skips its
    initial draws, because ``load_checkpoint`` overwrites every parameter."""
    net = CloudRemovalNet(config.model_config(), seed=None if restore else config.seed)
    optimizer = Adam(list(net.named_parameters()), lr=config.learning_rate,
                     beta1=config.adam_beta1, beta2=config.adam_beta2,
                     grad_clip=config.grad_clip)
    return net, optimizer


def train_step(net: CloudRemovalNet, optimizer: Adam, batch, config: RunConfig
               ) -> tuple[ad.Tensor, tuple[float, float, float, float]]:
    """One optimizer step on a ``make_batch`` tuple; returns the prediction
    and the loss total with its three terms.

    The forward and the loss run without numpy's floating-point warnings: a
    non-finite value they make reaches the loss, which the divergence check
    reports as one ``TrainingDiverged``.
    """
    cloudy, clean, mask, sar = batch
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pred = net.forward(cloudy, sar, training=True)
        total, lg, ll, ls = losses.loss_components(
            pred, clean, mask, config.lambda_local, config.lambda_ssim)
    value = total.item()
    if not np.isfinite(value):
        culprit = ad.first_nonfinite_op(total, net.named_parameters()) or "loss"
        raise TrainingDiverged(f"non-finite loss at step {optimizer.step_count + 1}; "
                               f"first non-finite tensor: {culprit}")
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    return pred, (value, lg, ll, ls)


def train(config: RunConfig, log=print, resume: bool = False) -> CloudRemovalNet:
    samples = load_split(config.data_dir, "train")
    if not samples:
        raise MissingData(f"no training samples under {config.data_dir}")
    net, optimizer = build_net_and_optimizer(config, restore=resume)
    ckpt_dir = Path(config.checkpoint_dir)
    if resume:
        check_resume_config(read_meta(ckpt_dir), config)
        load_checkpoint(ckpt_dir, net, optimizer)
    n = len(samples)
    per_epoch = -(-n // config.batch_size)
    if resume:
        log(f"resumed from {ckpt_dir} at epoch {optimizer.step_count // per_epoch} "
            f"step {optimizer.step_count}")

    last_step = config.epochs * per_epoch
    if config.max_steps:
        last_step = min(last_step, config.max_steps)
    while optimizer.step_count < last_step:
        epoch, first = divmod(optimizer.step_count, per_epoch)
        stop = min(per_epoch, last_step - epoch * per_epoch)
        order = seed_for(config.seed, "shuffle", epoch).permutation(n)
        sums = np.zeros(5)
        for lo in range(first * config.batch_size, stop * config.batch_size, config.batch_size):
            batch = make_batch([samples[i] for i in order[lo:lo + config.batch_size]],
                               config.sar_input)
            pred, terms = train_step(net, optimizer, batch, config)
            batch_psnr = min(metrics.psnr(np.clip(pred.data, 0.0, 1.0), batch[1].data),
                             metrics.PSNR_CAP_DB)
            sums += (*terms, batch_psnr)
        step = optimizer.step_count
        mean = sums / (stop - first)
        # save first, so the log never reports an epoch whose checkpoint is missing
        save_checkpoint(ckpt_dir, net, optimizer, step // per_epoch, config)
        log(f"epoch={epoch + 1} step={step} loss_total={mean[0]:.6f} "
            f"loss_global={mean[1]:.6f} loss_local={mean[2]:.6f} loss_ssim={mean[3]:.6f} "
            f"train_psnr={mean[4]:.4f}")
    return net


def overfit_single_sample(config: RunConfig, sample: SamplePair, steps: int,
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
