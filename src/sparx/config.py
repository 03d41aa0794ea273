"""Model configuration: named variants, JSON schema, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields, replace
from numbers import Integral

from .blocks import MIXERS
from .dmca import DMCA_MODES
from .topology import Mode

STAGE4_POLICIES = ("all_ganglion", "last_only")


class ConfigError(ValueError):
    """Invalid model or run configuration."""


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    name: str
    channels: tuple[int, int, int, int]
    blocks: tuple[int, int, int, int]
    stride: int
    window: int
    mixer: str = "ss2d"
    stage4_policy: str = "all_ganglion"
    num_classes: int = 1000
    input_size: int = 224
    topology_mode: str = "sparx"
    dmca_mode: str = "full"
    groups: int = 4
    state_dim: int = 4
    head_dim: int = 32
    ffn_ratio: int = 4
    window_size: int = 7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            if f.type == "int" and not _is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if f.type.startswith("tuple") and (not isinstance(value, (list, tuple))
                                               or not all(_is_int(v) for v in value)):
                raise ConfigError(f"{f.name} must be a list of integers, got {value!r}")
        self.channels = tuple(int(c) for c in self.channels)
        self.blocks = tuple(int(b) for b in self.blocks)
        if len(self.channels) != 4 or len(self.blocks) != 4:
            raise ConfigError("channels and blocks must each have 4 entries")
        if any(c <= 0 for c in self.channels) or any(b <= 0 for b in self.blocks):
            raise ConfigError("channels and blocks must be positive")
        small = [f.name for f in fields(self) if f.type == "int" and getattr(self, f.name) < 1]
        if small:
            raise ConfigError(f"{', '.join(small)} must be >= 1")
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size {self.input_size} must be a positive multiple of 32")
        if self.mixer not in MIXERS:
            raise ConfigError(f"unknown mixer {self.mixer!r}; expected one of {MIXERS}")
        if self.stage4_policy not in STAGE4_POLICIES:
            raise ConfigError(f"unknown stage4_policy {self.stage4_policy!r}")
        if self.topology_mode not in [m.value for m in Mode]:
            raise ConfigError(f"unknown topology_mode {self.topology_mode!r}")
        if self.dmca_mode not in DMCA_MODES:
            raise ConfigError(f"unknown dmca_mode {self.dmca_mode!r}")
        if any(c % self.groups for c in self.channels):
            raise ConfigError(f"channels {self.channels} must be divisible by groups={self.groups}")
        if self.mixer == "window_attn" and any(c % self.head_dim for c in self.channels):
            raise ConfigError(f"channels {self.channels} must be divisible by head_dim={self.head_dim}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object of fields")
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        missing = {"name", "channels", "blocks", "stride", "window"} - set(raw)
        if missing:
            raise ConfigError(f"missing config fields: {sorted(missing)}")
        return cls(**raw)


_VARIANTS = {
    "tiny": ModelConfig("tiny", (96, 192, 320, 512), (2, 2, 7, 2), stride=2, window=3,
                        stage4_policy="all_ganglion"),
    "small": ModelConfig("small", (96, 192, 328, 544), (2, 2, 17, 2), stride=3, window=3,
                         stage4_policy="all_ganglion"),
    "base": ModelConfig("base", (120, 240, 396, 636), (2, 2, 21, 3), stride=3, window=3,
                        stage4_policy="last_only"),
    "tiny-reduced": ModelConfig("tiny-reduced", (8, 16, 24, 32), (1, 1, 3, 1), stride=2, window=3,
                                stage4_policy="all_ganglion", num_classes=2, input_size=32,
                                head_dim=4, window_size=4),
}

VARIANT_NAMES = tuple(_VARIANTS)


def get_variant(name: str, **overrides) -> ModelConfig:
    """A fresh copy of a named variant, optionally overriding fields."""
    if name not in _VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; expected one of {VARIANT_NAMES}")
    unknown = set(overrides) - set(ModelConfig.__dataclass_fields__)  # type: ignore[attr-defined]
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return replace(_VARIANTS[name], **overrides)
