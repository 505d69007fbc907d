"""Run configuration: named presets plus an INI-style override file.

The file format is flat key = value lines under sections mirroring the
settings dataclasses:

    [model]        cutoff_high, cutoff_low, highhigh_gap,
                   balance_threshold, imputations
    [filters]      max_child_age, first_born_only
    [matching]     caliper_width, caliper_penalty
    [scenario]     any ScenarioConfig field (flat ones), plus the true
                   coefficients k0..k3, sigma0 and beta (comma list)
    [sensitivity]  enabled, grid (semicolon-separated "p1,p2" points)
    [inputs]       clusters, prevalence, births (paths; default: the
                   simulate artifacts inside the output directory)

Presets: primary (all defaults, M=500), sa1/sa2 (row filters), sa3/sa4
(shifted prevalence cutoffs), quickstart (primary with M=50).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ._util import optional
from .errors import ConfigError
from .geomatch import CaliperSpec
from .model import ModelSpec
from .synth import DEFAULT_COEFFICIENTS, ScenarioConfig


@dataclass(frozen=True)
class RowFilters:
    """Record filters applied before the imputation model is refitted."""

    max_child_age: Optional[int] = None
    first_born_only: bool = False

    def keep(self, record) -> bool:
        if self.max_child_age is not None and record.child_age_years > self.max_child_age:
            return False
        if self.first_born_only and record.birth_order_code != 1:
            return False
        return True


@dataclass(frozen=True)
class SensitivitySettings:
    enabled: bool = True
    grid: Optional[Tuple[Tuple[float, float], ...]] = None   # None = default 32


@dataclass(frozen=True)
class InputPaths:
    clusters: Optional[str] = None
    prevalence: Optional[str] = None
    births: Optional[str] = None


@dataclass(frozen=True)
class MatchingSettings:
    caliper_width: Optional[float] = None
    caliper_penalty: Optional[float] = None

    def caliper(self) -> CaliperSpec:
        return CaliperSpec(width=self.caliper_width, penalty=self.caliper_penalty)


@dataclass(frozen=True)
class RunConfig:
    preset: str
    model: ModelSpec = ModelSpec()
    filters: RowFilters = RowFilters()
    matching: MatchingSettings = MatchingSettings()
    scenario: ScenarioConfig = ScenarioConfig()
    sensitivity: SensitivitySettings = SensitivitySettings()
    inputs: InputPaths = InputPaths()


PRESETS: Dict[str, RunConfig] = {
    "primary": RunConfig(preset="primary"),
    "quickstart": RunConfig(preset="quickstart",
                            model=ModelSpec(imputations=50)),
    "sa1": RunConfig(preset="sa1", filters=RowFilters(max_child_age=1)),
    "sa2": RunConfig(preset="sa2", filters=RowFilters(first_born_only=True)),
    "sa3": RunConfig(preset="sa3",
                     model=ModelSpec(cutoff_high=0.45, cutoff_low=0.15)),
    "sa4": RunConfig(preset="sa4",
                     model=ModelSpec(cutoff_high=0.5, cutoff_low=0.1)),
}


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _parse_grid(text: str) -> Tuple[Tuple[float, float], ...]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"grid point must be 'p1,p2': {chunk!r}")
        points.append((float(parts[0]), float(parts[1])))
    if not points:
        raise ConfigError("sensitivity grid is empty")
    return tuple(points)


def _parse_beta(text: str) -> Tuple[float, ...]:
    beta = tuple(float(v) for v in text.split(","))
    if len(beta) != len(DEFAULT_COEFFICIENTS.beta):
        raise ConfigError(
            f"beta needs {len(DEFAULT_COEFFICIENTS.beta)} entries")
    return beta


def load_config(path: Optional[str] = None, preset: str = "primary") -> RunConfig:
    """Start from a preset and apply overrides from an INI file."""
    try:
        cfg = PRESETS[preset]
    except KeyError:
        raise ConfigError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    if path is None:
        return cfg

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")

    try:
        cfg = _apply_overrides(cfg, parser)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad config value in {path}: {exc}") from exc
    return cfg


# the keys of each section and the parser of each key's value; a section
# other than [scenario] overrides the RunConfig field of its name
_KEYS = {
    "model": {"imputations": int,
              **dict.fromkeys(["cutoff_high", "cutoff_low", "highhigh_gap",
                               "balance_threshold"], float)},
    "filters": {"max_child_age": optional(int),
                "first_born_only": _parse_bool},
    "matching": dict.fromkeys(["caliper_width", "caliper_penalty"],
                              optional(float)),
    "sensitivity": {"enabled": _parse_bool, "grid": _parse_grid},
    "inputs": dict.fromkeys(["clusters", "prevalence", "births"], str),
}
# [scenario] keys of the true coefficients
_COEFFICIENT_KEYS = {
    **dict.fromkeys(["k0", "k1", "k2", "k3", "sigma0"], float),
    "beta": _parse_beta,
}
_SCENARIO_KEYS = {
    **dict.fromkeys(["n_countries", "regions_per_country",
                     "births_per_cluster", "early_year", "late_year"], int),
    **dict.fromkeys(["decline_fraction", "stable_high_fraction",
                     "zero_late_fraction", "covariate_imbalance",
                     "late_ses_drift", "missing_rate", "missing_size_rate",
                     "multiple_birth_rate"], float),
    "missingness": str.strip,
    **_COEFFICIENT_KEYS,
}


def _parse(section: str, keys, items) -> Dict:
    kwargs = {}
    for key, value in items:
        if key not in keys:
            raise ConfigError(f"unknown [{section}] key: {key}")
        kwargs[key] = keys[key](value)
    return kwargs


def _apply_overrides(cfg: RunConfig, parser: configparser.ConfigParser) -> RunConfig:
    unknown = set(parser.sections()) - {*_KEYS, "scenario"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for section, keys in _KEYS.items():
        if parser.has_section(section):
            kwargs = _parse(section, keys, parser.items(section))
            cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                                   **kwargs)})
    if parser.has_section("scenario"):
        kwargs = _parse("scenario", _SCENARIO_KEYS, parser.items("scenario"))
        coeffs = {key: kwargs.pop(key) for key in _COEFFICIENT_KEYS
                  if key in kwargs}
        cfg = replace(cfg, scenario=replace(
            cfg.scenario, **kwargs,
            coefficients=replace(cfg.scenario.coefficients, **coeffs)))
    return cfg
