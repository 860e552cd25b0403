"""Run configuration: defaults follow the training recipe (Adam with
beta1=0.5, beta2=0.999, learning rate 7e-5, loss weights 10 and 1, 200
training iterations read as epochs).

Configs serialize as ``key = value`` lines; unknown keys are rejected so a
typo cannot silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .model import ModelConfig

SAR_INPUTS = ("pfsar", "bcfsar", "both", "none")
_SAR_CHANNELS = {"pfsar": 9, "bcfsar": 3, "both": 12, "none": 0}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int = 0
    patch: int = 32
    base_channels: int = 8
    epochs: int = 200
    max_steps: int = 0              # 0 = train for the full epoch budget
    batch_size: int = 1
    learning_rate: float = 7e-5
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    lambda_local: float = 10.0
    lambda_ssim: float = 1.0
    grad_clip: float = 0.0          # 0 disables; >0 clips the global grad norm
    sar_input: str = "pfsar"
    no_scdf: bool = False
    no_gc: bool = False
    no_mmcf: bool = False
    no_mmrf: bool = False
    no_aspp: bool = False
    no_polsar: bool = False
    scru_literal: bool = False
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoint"
    report_path: str = "report.txt"
    log_path: str = ""              # empty = log to stdout only

    def __post_init__(self):
        if self.sar_input not in SAR_INPUTS:
            raise ConfigError(f"sar_input must be one of {SAR_INPUTS}, got {self.sar_input!r}")
        if self.sar_input == "none":
            self.no_polsar = True
        if self.no_polsar:
            self.sar_input = "none"
        if self.lambda_local < 0 or self.lambda_ssim < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")

    @property
    def sar_channels(self) -> int:
        return _SAR_CHANNELS[self.sar_input]

    def model_config(self) -> ModelConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name in _FIELDS}
        return ModelConfig(sar_in_channels=max(self.sar_channels, 1), **shared)


def field_types(cls) -> dict[str, str]:
    """Field name -> type name of a dataclass, the schema ``read_key_values`` takes."""
    return {f.name: f.type for f in fields(cls)}


_FIELDS = field_types(RunConfig)
_BOOL_TRUE = {"true", "1", "yes", "on"}
_BOOL_FALSE = {"false", "0", "no", "off"}


def _parse_value(key: str, kind: str, raw: str):
    if kind == "bool":
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def read_key_values(path, types: dict[str, str]) -> dict:
    """Parse ``key = value`` lines into typed values; keys outside ``types``
    and repeated keys are errors."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, types[key], raw)
    return values


def write_key_values(path, values: dict) -> None:
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def load_config(path) -> RunConfig:
    return RunConfig(**read_key_values(path, _FIELDS))


def save_config(config: RunConfig, path) -> None:
    write_key_values(path, {name: getattr(config, name) for name in _FIELDS})
