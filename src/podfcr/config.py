"""The config schema: ``ModelConfig`` holds the fields that fix the network
(and that a checkpoint's header stores), ``RunConfig`` extends it with
the training, loss and path fields. Each key is declared once, here.

Defaults follow the training recipe (Adam with beta1=0.5, beta2=0.999,
learning rate 7e-5, loss weights 10 and 1, 200 training iterations read as
epochs). Configs serialize as ``key = value`` lines; unknown keys are
rejected so a typo cannot silently fall back to a default, and invalid
values fail when the config is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .synthetic import SAR_INPUT_ROLES, SAR_ROLE_CHANNELS


# the one module an ablation removes (model.py says how), or none for "full"
ABLATIONS = ("full", "no_scdf", "no_gc", "no_mmcf", "no_mmrf", "no_aspp")
_RADAR_ABLATIONS = ("no_scdf", "no_mmcf", "no_mmrf")   # modules the optical-only model lacks


class ConfigError(ValueError):
    pass


def patch_problem(patch: int) -> str:
    """Why ``patch`` is not a usable patch size, or "" when it is."""
    if patch % 4 != 0 or patch < 8:
        return f"patch must be a multiple of 4 and at least 8, got {patch}"
    return ""


@dataclass
class ModelConfig:
    """The fields that fix the network; checkpoints store them in their header."""

    base_channels: int = 8          # 64 at full scale, 8 at desk scale
    patch: int = 32                 # 256 at full scale
    sar_input: str = "pfsar"        # a key of synthetic.SAR_INPUT_ROLES; "none" = optical only
    ablation: str = "full"          # one of ABLATIONS

    def __post_init__(self):
        if self.sar_input not in SAR_INPUT_ROLES:
            raise ConfigError(f"sar_input must be one of {tuple(SAR_INPUT_ROLES)}, "
                              f"got {self.sar_input!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.ablation in _RADAR_ABLATIONS and not self.radar_channels:
            raise ConfigError(f"ablation {self.ablation} removes a radar-branch module, and "
                              "the optical-only model (sar_input = none) has none")
        if problem := patch_problem(self.patch):
            raise ConfigError(problem)
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be positive, got {self.base_channels}")

    @property
    def radar_channels(self) -> int:
        """Width of the stacked radar input; 0 builds the optical-only model."""
        return sum(SAR_ROLE_CHANNELS[role] for role in SAR_INPUT_ROLES[self.sar_input])

    @property
    def channel_schedule(self) -> tuple[int, int, int]:
        return self.base_channels, 2 * self.base_channels, 4 * self.base_channels

    @property
    def aspp_rates(self) -> tuple[int, int, int]:
        # full rates need patch >= 2 * max rate; otherwise use the reduced set
        return (6, 12, 18) if self.patch >= 36 else (2, 4, 6)


@dataclass
class RunConfig(ModelConfig):
    """A ``ModelConfig`` plus the training, loss and path fields of a run."""

    seed: int = 0
    epochs: int = 200
    max_steps: int = 0              # 0 = train for the full epoch budget
    batch_size: int = 1
    learning_rate: float = 7e-5
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    lambda_local: float = 10.0
    lambda_ssim: float = 1.0
    grad_clip: float = 0.0          # 0 disables; >0 clips the global grad norm
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoint"
    report_path: str = "report.txt"
    log_path: str = ""              # empty = log to stdout only

    def __post_init__(self):
        super().__post_init__()
        for name, ok, bound in (
                ("seed", self.seed >= 0, "non-negative"),
                ("lambda_local", self.lambda_local >= 0, "non-negative"),
                ("lambda_ssim", self.lambda_ssim >= 0, "non-negative"),
                ("batch_size", self.batch_size >= 1, "at least 1"),
                ("epochs", self.epochs >= 1, "at least 1"),
                ("max_steps", self.max_steps >= 0, "non-negative"),
                ("learning_rate", self.learning_rate > 0, "positive"),
                ("adam_beta1", 0 <= self.adam_beta1 < 1, "in [0, 1)"),
                ("adam_beta2", 0 <= self.adam_beta2 < 1, "in [0, 1)"),
                ("grad_clip", self.grad_clip >= 0, "non-negative")):
            if not ok:  # each test is written so that NaN fails it
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)!r}")

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{name: getattr(self, name) for name in field_types(ModelConfig)})


def field_types(cls) -> dict[str, str]:
    """Field name -> type name of a dataclass, the schema ``parse_key_values`` takes."""
    return {f.name: f.type for f in fields(cls)}


_FIELDS = field_types(RunConfig)
_PARSERS = {"int": int, "float": float, "str": str}


def parse_key_values(text: str, types: dict[str, str], source) -> dict:
    """Parse ``key = value`` lines into typed values; keys outside ``types``,
    repeated keys and values that do not parse as their type are errors,
    reported as ``source:line``."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[types[key]](raw)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: {key}: expected {types[key]}, got {raw!r}") from None
    return values


def format_key_values(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def load_config(path) -> RunConfig:
    return RunConfig(**parse_key_values(Path(path).read_text(), _FIELDS, path))


def save_config(config: RunConfig, path) -> None:
    """Write ``config`` as ``key = value`` lines. A value that would not read
    back as written (one holding ``#``, a line break, or leading or trailing
    spaces) is a ConfigError, and nothing is written."""
    values = {name: getattr(config, name) for name in _FIELDS}
    text = format_key_values(values)
    read_back = parse_key_values(text, _FIELDS, path)
    changed = [name for name, value in values.items() if str(read_back[name]) != str(value)]
    if changed:
        raise ConfigError(f"{path}: {', '.join(changed)} would not read back as saved")
    Path(path).write_text(text)
