"""Deterministic synthetic stand-in for the airborne optical/PolSAR pairs.

Clean optical fields are multi-octave value noise with correlated channels;
radar-like inputs are a seeded sigmoid channel mix of the clean image
multiplied by Gamma-distributed speckle; cloud masks come from thresholding
single-octave value noise at an empirical quantile so the achieved coverage
tracks the target. Every sample derives its own seed from
(master seed, index), so generation order and parallelism cannot change the
output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensorfile import read_tensor, write_tensor

COVERAGE_BINS = ("0-20", "20-40", "40-60", "60-80", "80-100")
BIN_RANGES = {
    "0-20": (0.0, 0.2),
    "20-40": (0.2, 0.4),
    "40-60": (0.4, 0.6),
    "60-80": (0.6, 0.8),
    "80-100": (0.8, 1.0),
}
CLASS_LABELS = (
    "barren_sparse_vegetation",
    "building",
    "cropland",
    "tree_cover",
    "grassland",
    "traffic_route",
    "water",
)
SAMPLE_ROLES = ("cloudy", "clean", "mask", "pfsar", "bcfsar")
PFSAR_CHANNELS = 9
BCFSAR_CHANNELS = 3
OPTICAL_CHANNELS = 4
# radar input of the input ablation -> the sample roles stacked, in order, into it
SAR_INPUT_ROLES = {"pfsar": ("pfsar",), "bcfsar": ("bcfsar",),
                   "both": ("pfsar", "bcfsar"), "none": ()}
SAR_ROLE_CHANNELS = {"pfsar": PFSAR_CHANNELS, "bcfsar": BCFSAR_CHANNELS}

NOISE_GRIDS = (4, 8, 16)
NOISE_WEIGHTS = (1.0, 0.5, 0.25)
CHANNEL_CORRELATION = 0.6
SPECKLE_LOOKS = 4.0


def seed_for(master_seed: int, *tags) -> np.random.Generator:
    """Generator derived stably from a master seed and a tag tuple."""
    parts = [int(master_seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            digest = hashlib.sha256(tag.encode("utf-8")).digest()
            parts.append(int.from_bytes(digest[:4], "little"))
        else:
            parts.append(int(tag) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(parts))


def value_noise(rng: np.random.Generator, size: int, grid: int,
                channels: int = 1) -> np.ndarray:
    """Bilinear value noise: random lattice values upsampled to size x size.

    Returns (channels, size, size); lattice values are standard normal.
    """
    lattice = rng.normal(0.0, 1.0, (channels, grid + 1, grid + 1))
    coords = np.arange(size) * (grid / size)
    i0 = np.floor(coords).astype(int)
    frac = coords - i0
    y0, x0 = np.meshgrid(i0, i0, indexing="ij")
    fy, fx = np.meshgrid(frac, frac, indexing="ij")
    v00 = lattice[:, y0, x0]
    v01 = lattice[:, y0, x0 + 1]
    v10 = lattice[:, y0 + 1, x0]
    v11 = lattice[:, y0 + 1, x0 + 1]
    top = v00 + fx * (v01 - v00)
    bot = v10 + fx * (v11 - v10)
    return top + fy * (bot - top)


def gen_clean_optical(seed: int, size: int) -> np.ndarray:
    """Cloud-free 4-channel field in [0, 1].

    Three octaves (grids 4/8/16, weights 1/0.5/0.25) per channel; channels
    share a common component so their correlation is about 0.6; the summed
    field is min-max normalized globally.
    """
    rng = seed_for(seed, "clean")
    field = np.zeros((OPTICAL_CHANNELS, size, size))
    rho = CHANNEL_CORRELATION
    for grid, weight in zip(NOISE_GRIDS, NOISE_WEIGHTS):
        common = value_noise(rng, size, grid, channels=1)
        indep = value_noise(rng, size, grid, channels=OPTICAL_CHANNELS)
        field += weight * (np.sqrt(rho) * common + np.sqrt(1.0 - rho) * indep)
    lo, hi = field.min(), field.max()
    return (field - lo) / (hi - lo)


def gen_polsar(clean: np.ndarray, seed: int, channels: int,
               looks: float = SPECKLE_LOOKS, mix_seed: int | None = None) -> np.ndarray:
    """Radar-like derivative of a clean optical field.

    signal = sigmoid(W (clean - 0.5) + b) with a (mix_seed, channels)-derived
    mixing map; multiplied by per-channel Gamma(looks, mean 1) speckle and
    clipped to [0, 1]. The mix plays the role of the sensor's fixed response,
    so dataset builders pass one mix_seed for every sample while the speckle
    varies per acquisition (per ``seed``). The speckle stack is drawn once at
    the widest channel count and sliced, so the radar variants of one scene
    differ only in their mixing maps. Large ``looks`` suppresses the speckle
    (test mode for the no-noise limit).
    """
    size = clean.shape[-1]
    mix_rng = seed_for(seed if mix_seed is None else mix_seed, "mix", channels)
    weight = mix_rng.normal(0.0, 2.0, (channels, OPTICAL_CHANNELS))
    bias = mix_rng.normal(0.0, 0.3, (channels, 1, 1))
    mixed = np.tensordot(weight, clean - 0.5, axes=([1], [0])) + bias
    signal = 1.0 / (1.0 + np.exp(-mixed))
    speckle_rng = seed_for(seed, "speckle")
    speckle = speckle_rng.gamma(looks, 1.0 / looks,
                                (max(channels, PFSAR_CHANNELS), size, size))
    return np.clip(signal * speckle[:channels], 0.0, 1.0)


def gen_cloud_mask(seed: int, size: int, target_coverage: float) -> np.ndarray:
    """Binary (1, P, P) mask with mean within about 2% of the target.

    Single-octave value noise (grid 8) thresholded at the empirical
    (1 - coverage) quantile; 1 marks cloud-contaminated pixels.
    """
    if target_coverage <= 0.0:
        return np.zeros((1, size, size))
    if target_coverage >= 1.0:
        return np.ones((1, size, size))
    rng = seed_for(seed, "mask")
    field = value_noise(rng, size, 8, channels=1)[0]
    threshold = np.quantile(field, 1.0 - target_coverage)
    return (field >= threshold).astype(np.float64)[None]


def apply_cloud(clean: np.ndarray, mask: np.ndarray, seed: int) -> np.ndarray:
    """Near-white cloud fill: cloudy = (1-M) * clean + M * (0.9 + 0.1 u)."""
    rng = seed_for(seed, "fill")
    size = clean.shape[-1]
    fill = 0.9 + 0.1 * rng.uniform(0.0, 1.0, (1, size, size))
    return (1.0 - mask) * clean + mask * fill


@dataclass
class SamplePair:
    """One training item; arrays follow Table-style channel counts (4/4/3/9)."""

    cloudy: np.ndarray     # (4, P, P) in [0, 1]
    clean: np.ndarray      # (4, P, P) in [0, 1]
    mask: np.ndarray       # (1, P, P) in {0, 1}
    pfsar: np.ndarray      # (9, P, P) in [0, 1]
    bcfsar: np.ndarray     # (3, P, P) in [0, 1]
    coverage_bin: str
    class_label: str


def make_sample(master_seed: int, index: int, size: int) -> SamplePair:
    bin_label = COVERAGE_BINS[index % len(COVERAGE_BINS)]
    lo, hi = BIN_RANGES[bin_label]
    rng = seed_for(master_seed, "coverage", index)
    target = rng.uniform(lo, hi)
    sample_seed = int(seed_for(master_seed, "sample", index).integers(0, 2 ** 31))
    clean = gen_clean_optical(sample_seed, size)
    mask = gen_cloud_mask(sample_seed, size, target)
    cloudy = apply_cloud(clean, mask, sample_seed)
    # one sensor response (mix) per dataset; speckle varies per sample
    pfsar = gen_polsar(clean, sample_seed, PFSAR_CHANNELS, mix_seed=master_seed)
    bcfsar = gen_polsar(clean, sample_seed, BCFSAR_CHANNELS, mix_seed=master_seed)
    return SamplePair(cloudy=cloudy, clean=clean, mask=mask, pfsar=pfsar,
                      bcfsar=bcfsar, coverage_bin=bin_label,
                      class_label=CLASS_LABELS[index % len(CLASS_LABELS)])


@dataclass
class ManifestRecord:
    sample: str
    coverage_bin: str
    class_label: str
    paths: dict[str, str]


def _write_manifest(path: Path, records: list[ManifestRecord]):
    lines = []
    for rec in records:
        for role in SAMPLE_ROLES:
            lines.append(f"{rec.paths[role]}\t{role}\t{rec.coverage_bin}\t{rec.class_label}")
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list[ManifestRecord]:
    grouped: dict[str, ManifestRecord] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rel, role, bin_label, class_label = line.split("\t")
        sample = rel.split("/")[0]
        rec = grouped.setdefault(
            sample, ManifestRecord(sample, bin_label, class_label, {}))
        rec.paths[role] = rel
    return list(grouped.values())


def load_sample(data_dir, record: ManifestRecord) -> SamplePair:
    data_dir = Path(data_dir)
    arrays = {role: read_tensor(data_dir / record.paths[role]) for role in SAMPLE_ROLES}
    return SamplePair(coverage_bin=record.coverage_bin,
                      class_label=record.class_label, **arrays)


def build_dataset(seed: int, count: int, size: int, out_dir) -> tuple[int, int]:
    """Generate ``count`` samples and write train/test manifests (80/20 tail
    split). Returns (train_count, test_count)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records: list[ManifestRecord] = []
    for i in range(count):
        pair = make_sample(seed, i, size)
        name = f"sample_{i:04d}"
        sample_dir = out_dir / name
        sample_dir.mkdir(exist_ok=True)
        paths = {}
        for role in SAMPLE_ROLES:
            rel = f"{name}/{role}.ptf"
            write_tensor(out_dir / rel, getattr(pair, role))
            paths[role] = rel
        records.append(ManifestRecord(name, pair.coverage_bin, pair.class_label, paths))
    n_train = int(count * 0.8)
    _write_manifest(out_dir / "train.manifest", records[:n_train])
    _write_manifest(out_dir / "test.manifest", records[n_train:])
    return n_train, count - n_train
