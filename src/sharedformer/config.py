"""Flat sectioned run configuration with typed defaults and presets.

Config files are UTF-8 ``key=value`` lines under ``[section]`` headers.
Command-line flags override individual keys as ``--section.key=value``.
Unknown sections or keys are rejected; the fully resolved config is echoed
into every output directory so a run can be reproduced from it alone.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .encoder import ConformerConfig, parse_field
from .errors import ConfigError
from .masking import MaskConfig, MaskPolicy
from .training import TrainConfig


@dataclass
class DataSection:
    seed: int = 7
    num_utts: int = 300
    t_min: int = 40
    t_max: int = 100
    dim: int = 16
    num_classes: int = 4
    noise_sigma: float = 0.1


@dataclass
class MaskSection:
    block_len: int = 7
    ratio: float = 0.15
    policy: str = "zero"  # "zero" | "tera"
    p_zero: float = 0.8
    p_random: float = 0.1


@dataclass
class TrainSection:
    batch_size: int = 8
    max_steps: int = 2000
    warmup_steps: int = 200
    peak_scale: float = 0.5
    validation_every: int = 100
    seed: int = 0
    depth: str = "uniform:2:8"  # "fixed:N" | "uniform:L:H"
    loss_mode: str = "all-frames"
    val_fraction: float = 0.1
    grad_clip: float = 0.0
    precision: str = "float32"


@dataclass
class DiagSection:
    frame_start: int = 0
    frame_end: int = 50
    utterance: int = 0
    grad_depth: int = 8
    flop_frames: int = 100


@dataclass
class RunConfig:
    data: DataSection = field(default_factory=DataSection)
    mask: MaskSection = field(default_factory=MaskSection)
    model: ConformerConfig = field(default_factory=ConformerConfig)
    train: TrainSection = field(default_factory=TrainSection)
    diag: DiagSection = field(default_factory=DiagSection)

    def section(self, name: str):
        if name not in ("data", "mask", "model", "train", "diag"):
            raise ConfigError(f"unknown config section {name!r}")
        return getattr(self, name)

    def set_key(self, section: str, key: str, raw: str) -> None:
        obj = self.section(section)
        match = {f.name: f for f in fields(obj)}
        if key not in match:
            raise ConfigError(f"unknown config key {section}.{key}")
        setattr(obj, key, parse_field(match[key], raw, f"{section}.{key}"))

    # ---- resolution ---------------------------------------------------------

    def model_config(self) -> ConformerConfig:
        # keys are set one at a time, so validation waits for a complete section
        return replace(self.model)

    def train_config(self) -> TrainConfig:
        values = asdict(self.train)
        mode, fixed, low, high = parse_depth(values.pop("depth"))
        return TrainConfig(depth_mode=mode, depth_fixed=fixed, depth_low=low,
                           depth_high=high, **values)

    def mask_config(self) -> MaskConfig:
        values = asdict(self.mask)
        policy = MaskPolicy(kind=values.pop("policy"),
                            **{f.name: values.pop(f.name) for f in fields(MaskPolicy)
                               if f.name in values})
        return MaskConfig(policy=policy, **values)

    def echo(self) -> str:
        lines = []
        for name in ("data", "mask", "model", "train", "diag"):
            lines.append(f"[{name}]")
            obj = getattr(self, name)
            for f in fields(obj):
                lines.append(f"{f.name}={getattr(obj, f.name)}")
            lines.append("")
        return "\n".join(lines)

    def write_echo(self, out_dir: str | Path) -> None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "resolved_config.ini").write_text(self.echo(), encoding="utf-8")


def parse_depth(spec: str) -> tuple[str, int, int, int]:
    parts = spec.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            n = int(parts[1])
            return "fixed", n, n, n
        if parts[0] == "uniform" and len(parts) == 3:
            return "uniform", 0, int(parts[1]), int(parts[2])
    except ValueError:
        pass
    raise ConfigError(f"depth must be 'fixed:N' or 'uniform:L:H', got {spec!r}")


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    read = parser.read(path, encoding="utf-8")
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
    # full-scale architecture constants; emitted for reporting, not desk training
    "paper": {
        "model.input_dim": "80", "model.model_dim": "512", "model.num_heads": "4",
        "model.ff_dim": "2048", "model.conv_kernel": "15", "model.max_layers": "8",
        "model.min_layers": "2", "model.share_params": "true", "model.dropout": "0.1",
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
