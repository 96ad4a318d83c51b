"""Run configuration: one YAML file per run, hashed for reproducibility."""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .execution import FrictionModel, Instrument
from .validation import GateThresholds


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "instrument": {"name": "MNQ", "tick_size": 0.25, "friction_points": 2.0},
    "data": {"rth": None, "asia": None, "london": None, "events": None},
    "gate": {"t_min": 2.0, "n_min": 30, "p_max": 0.05},
    "permutation": {"iterations": 1000, "families": ["CONFLUENCE_RTH", "LONDON_B"]},
    "kalman": {"q": 1e-3, "r": 1.0, "zscored": False},
    "seed": 0,
    "output_dir": "runs",
    "families": {},
}


@dataclass(frozen=True)
class RunConfig:
    raw: dict

    @property
    def instrument(self) -> Instrument:
        ins = self.raw["instrument"]
        return Instrument(ins["name"], float(ins["tick_size"]))

    @property
    def friction(self) -> FrictionModel:
        return FrictionModel(float(self.raw["instrument"]["friction_points"]))

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def output_dir(self) -> Path:
        return Path(self.raw["output_dir"])

    @property
    def permutation_iterations(self) -> int:
        return int(self.raw["permutation"]["iterations"])

    @property
    def permutation_families(self) -> set[str]:
        return set(self.raw["permutation"]["families"])

    def gate(self, family: str) -> GateThresholds:
        g = self.raw["gate"]
        return GateThresholds(
            t_min=float(g["t_min"]), n_min=int(g["n_min"]), p_max=float(g["p_max"]),
            permutation_required=family in self.permutation_families,
        )

    def data_path(self, key: str) -> Optional[Path]:
        p = self.raw["data"].get(key)
        return Path(p) if p else None

    def family_overrides(self, family: str) -> dict:
        return dict(self.raw["families"].get(family, {}))

    @property
    def hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | Path, seed_override: Optional[int] = None) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw, seed_override)


def config_from_dict(raw: dict, seed_override: Optional[int] = None) -> RunConfig:
    """Merge ``raw`` over DEFAULTS; unknown keys, bad shapes and negative friction fail."""
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section in ("instrument", "data", "gate", "permutation", "kalman"):
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {section} must be a mapping")
        unknown = set(given) - set(DEFAULTS[section])
        if unknown:
            raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    families = raw.get("families", {})
    if not isinstance(families, dict) or not all(isinstance(v, dict) for v in families.values()):
        raise ConfigError("families must map each family name to a mapping of parameters")
    if not isinstance(raw.get("permutation", {}).get("families", []), list):
        raise ConfigError("permutation families must be a list")
    merged = _merge(DEFAULTS, raw)
    if seed_override is not None:
        merged["seed"] = seed_override
    if merged["instrument"]["friction_points"] < 0:
        raise ConfigError("friction must be non-negative")
    return RunConfig(merged)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.raw, sort_keys=True)
