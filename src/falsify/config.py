"""Run configuration: one YAML file per run, hashed for reproducibility."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Optional

import yaml

from .execution import LOG_GRID, MNQ, Instrument
from .validation import GateThresholds


class ConfigError(ValueError):
    pass


DEFAULTS: dict = {
    "instrument": {"name": MNQ.name, "tick_size": MNQ.tick_size,
                   "friction_points": MNQ.round_trip},
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
        return Instrument(ins["name"], ins["tick_size"], ins["friction_points"])

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def output_dir(self) -> Path:
        return Path(self.raw["output_dir"])

    @property
    def permutation_iterations(self) -> int:
        return self.raw["permutation"]["iterations"]

    @property
    def permutation_families(self) -> set[str]:
        return set(self.raw["permutation"]["families"])

    def gate(self, family: str) -> GateThresholds:
        g = self.raw["gate"]
        return GateThresholds(
            t_min=float(g["t_min"]), n_min=g["n_min"], p_max=float(g["p_max"]),
            permutation_required=family in self.permutation_families,
        )

    def data_path(self, key: str) -> Optional[Path]:
        p = self.raw["data"].get(key)
        return None if p is None else Path(p)

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
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw, seed_override)


def config_from_dict(raw: dict, seed_override: Optional[int] = None) -> RunConfig:
    """Merge ``raw`` over DEFAULTS; unknown keys, bad shapes and bad numbers fail."""
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
    perm_families = raw.get("permutation", {}).get("families", [])
    if not (isinstance(perm_families, list) and all(isinstance(f, str) for f in perm_families)):
        raise ConfigError("permutation families must be a list of family names")
    merged = _merge(DEFAULTS, raw)
    if seed_override is not None:
        merged["seed"] = seed_override
    # numbers that would be divided by zero, rounded or truncated fail here
    tick, friction = (merged["instrument"][k] for k in ("tick_size", "friction_points"))
    number = lambda x: type(x) in (int, float) and math.isfinite(x)
    if not (number(tick) and tick >= LOG_GRID.tick_size and not LOG_GRID.off_grid(tick)):
        raise ConfigError(f"tick_size must be a positive whole number of cents, got {tick!r}")
    if not (number(friction) and friction >= 0
            and not Instrument("", tick).off_grid(friction)):
        raise ConfigError(f"friction must be a non-negative whole number of {tick}-point "
                          f"ticks, got {friction!r}")
    # the rest are read later as numbers, flags or paths: none is truncated or taken as truthy
    integer = lambda least: (lambda x: type(x) is int and x >= least, f"an integer >= {least}")
    positive = (lambda x: number(x) and x > 0, "a positive finite number")
    string = (lambda x: isinstance(x, str), "a string")
    rules = {("seed",): integer(0), ("output_dir",): string, ("instrument", "name"): string,
             ("permutation", "iterations"): integer(1),
             ("gate", "t_min"): (number, "a finite number"), ("gate", "n_min"): integer(0),
             ("gate", "p_max"): (lambda x: number(x) and 0 < x <= 1, "a number in (0, 1]"),
             ("kalman", "q"): positive, ("kalman", "r"): positive,
             ("kalman", "zscored"): (lambda x: type(x) is bool, "true or false"),
             **{("data", k): (lambda x: x is None or isinstance(x, str) and x != "",
                              "a path or null")
                for k in DEFAULTS["data"]}}
    for path, (ok, want) in rules.items():
        value = reduce(dict.__getitem__, path, merged)
        if not ok(value):
            raise ConfigError(f"{' '.join(path)} must be {want}, got {value!r}")
    # one spelling per meaning, so configs that run alike hash alike
    merged["instrument"] = {**merged["instrument"], "tick_size": float(tick),
                            "friction_points": float(friction)}
    merged["permutation"] = {**merged["permutation"],
                             "families": sorted(set(merged["permutation"]["families"]))}
    return RunConfig(merged)


def dump_config(config: RunConfig) -> str:
    return yaml.safe_dump(config.raw, sort_keys=True)
