"""Flat sectioned run configuration with typed defaults and presets.

Config files are UTF-8 ``key=value`` lines under ``[section]`` headers.
Command-line flags override individual keys as ``--section.key=value``.
Unknown sections or keys are rejected; the fully resolved config is echoed
into every output directory so a run can be reproduced from it alone.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .encoder import ConformerConfig, parse_field
from .errors import ConfigError
from .features import MAX_CLASSES, MAX_VALUES
from .masking import MaskConfig
from .training import TrainConfig, parse_depth  # noqa: F401 (re-exported with the schema)

SECTIONS = ("data", "mask", "model", "train", "diag")


@dataclass
class DataSection:
    seed: int = 7
    num_utts: int = 300
    t_min: int = 40
    t_max: int = 100
    dim: int = 16
    num_classes: int = 4
    noise_sigma: float = 0.1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_utts < 1:
            raise ConfigError(f"num_utts must be >= 1, got {self.num_utts}")
        if self.t_max * self.dim > MAX_VALUES:
            raise ConfigError(f"t_max * dim must be <= {MAX_VALUES}, the largest utterance "
                              f"a feature file holds, got {self.t_max} * {self.dim}")
        if self.num_classes > MAX_CLASSES:
            raise ConfigError(f"num_classes must be <= {MAX_CLASSES}, got {self.num_classes}")
        if not 0.0 <= self.noise_sigma < float("inf"):
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass
class DiagSection:
    frame_start: int = 0
    frame_end: int = 50
    utterance: int = 0
    grad_depth: int = 8
    flop_frames: int = 100

    def __post_init__(self):
        if self.utterance < 0:
            raise ConfigError(f"utterance must be >= 0, got {self.utterance}")
        if self.frame_start < 0:
            raise ConfigError(f"frame_start must be >= 0, got {self.frame_start}")
        if self.flop_frames < 1:
            raise ConfigError(f"flop_frames must be >= 1, got {self.flop_frames}")
        if self.grad_depth < 1:
            raise ConfigError(f"grad_depth must be >= 1, got {self.grad_depth}")


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    mask: MaskConfig = field(default_factory=MaskConfig)
    model: ConformerConfig = field(default_factory=ConformerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    diag: DiagSection = field(default_factory=DiagSection)

    def set_key(self, section: str, key: str, raw: str) -> None:
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        obj = getattr(self, section)
        match = {f.name: f for f in fields(obj)}
        if key not in match:
            raise ConfigError(f"unknown config key {section}.{key}")
        setattr(obj, key, parse_field(match[key], raw, f"{section}.{key}"))

    def validate(self) -> None:
        """Check each section; depth-against-model checks run where a depth is used.

        Keys are set one at a time, so each section's own checks run again
        here, once the config file, preset and overrides are all applied.
        """
        for name in SECTIONS:
            replace(getattr(self, name))  # re-runs the section's __post_init__

    def echo(self) -> str:
        lines = []
        for name in SECTIONS:
            lines.append(f"[{name}]")
            obj = getattr(self, name)
            for f in fields(obj):
                lines.append(f"{f.name}={getattr(obj, f.name)}")
            lines.append("")
        return "\n".join(lines)

    def write_echo(self, out_dir: str | Path) -> None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "resolved_config.ini").write_text(self.echo(), encoding="utf-8")


def load_config(path: str | Path) -> RunConfig:
    # values are literal ('%' is text), and no header can name the default
    # section, so a [DEFAULT] section is rejected as unknown, not copied into
    # every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(f"malformed config file {path}: {e}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    for section in parser.sections():
        for key, value in parser.items(section):
            cfg.set_key(section, key, value)
    return cfg


PRESETS = {
    # desk-scale defaults with depth sampling and sharing on
    "desk-shared-u28": {"model.share_params": "true", "train.depth": "uniform:2:8"},
    # desk-scale baseline: independent layers, fixed full depth
    "desk-unshared-8": {"model.share_params": "false", "train.depth": "fixed:8"},
    # the paper's full-scale shape, reported by `--preset paper diagnose
    # --which flops`; too large for desk training
    "paper": {
        "model.input_dim": "80", "model.model_dim": "512", "model.num_heads": "4",
        "model.ff_dim": "2048", "model.conv_kernel": "15", "model.max_layers": "8",
        "model.share_params": "true", "model.dropout": "0.1",
        "train.warmup_steps": "8000", "train.batch_size": "8", "train.depth": "uniform:2:8",
    },
}


def apply_preset(cfg: RunConfig, name: str) -> None:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    for dotted, value in PRESETS[name].items():
        section, _, key = dotted.partition(".")
        cfg.set_key(section, key, value)


def apply_override(cfg: RunConfig, dotted: str, value: str) -> None:
    section, sep, key = dotted.partition(".")
    if not sep:
        raise ConfigError(f"override must look like section.key=value, got {dotted!r}")
    cfg.set_key(section, key, value)
