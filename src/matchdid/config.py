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
import dataclasses
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

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

    def snapshot(self) -> Dict:
        d = dataclasses.asdict(self)
        return d


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


def _apply_overrides(cfg: RunConfig, parser: configparser.ConfigParser) -> RunConfig:
    known = {"model", "filters", "matching", "scenario", "sensitivity", "inputs"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    if parser.has_section("model"):
        kwargs = {}
        for key, value in parser.items("model"):
            if key == "imputations":
                kwargs[key] = int(value)
            elif key in ("cutoff_high", "cutoff_low", "highhigh_gap",
                         "balance_threshold"):
                kwargs[key] = float(value)
            else:
                raise ConfigError(f"unknown [model] key: {key}")
        cfg = replace(cfg, model=replace(cfg.model, **kwargs))

    if parser.has_section("filters"):
        kwargs = {}
        for key, value in parser.items("filters"):
            if key == "max_child_age":
                kwargs[key] = None if value.strip() == "" else int(value)
            elif key == "first_born_only":
                kwargs[key] = _parse_bool(value)
            else:
                raise ConfigError(f"unknown [filters] key: {key}")
        cfg = replace(cfg, filters=replace(cfg.filters, **kwargs))

    if parser.has_section("matching"):
        kwargs = {}
        for key, value in parser.items("matching"):
            if key in ("caliper_width", "caliper_penalty"):
                kwargs[key] = None if value.strip() == "" else float(value)
            else:
                raise ConfigError(f"unknown [matching] key: {key}")
        cfg = replace(cfg, matching=replace(cfg.matching, **kwargs))

    if parser.has_section("scenario"):
        cfg = replace(cfg, scenario=_scenario_overrides(cfg.scenario, parser))

    if parser.has_section("sensitivity"):
        kwargs = {}
        for key, value in parser.items("sensitivity"):
            if key == "enabled":
                kwargs[key] = _parse_bool(value)
            elif key == "grid":
                kwargs[key] = _parse_grid(value)
            else:
                raise ConfigError(f"unknown [sensitivity] key: {key}")
        cfg = replace(cfg, sensitivity=replace(cfg.sensitivity, **kwargs))

    if parser.has_section("inputs"):
        kwargs = {}
        for key, value in parser.items("inputs"):
            if key in ("clusters", "prevalence", "births"):
                kwargs[key] = value
            else:
                raise ConfigError(f"unknown [inputs] key: {key}")
        cfg = replace(cfg, inputs=replace(cfg.inputs, **kwargs))

    return cfg


def _scenario_overrides(base: ScenarioConfig,
                        parser: configparser.ConfigParser) -> ScenarioConfig:
    int_keys = {"n_countries", "regions_per_country", "births_per_cluster",
                "early_year", "late_year"}
    float_keys = {"decline_fraction", "stable_high_fraction",
                  "zero_late_fraction", "covariate_imbalance",
                  "late_ses_drift", "missing_rate", "missing_size_rate",
                  "multiple_birth_rate"}
    coeff_keys = {"k0", "k1", "k2", "k3", "sigma0"}
    kwargs = {}
    coeffs = base.coefficients
    for key, value in parser.items("scenario"):
        if key in int_keys:
            kwargs[key] = int(value)
        elif key in float_keys:
            kwargs[key] = float(value)
        elif key == "missingness":
            kwargs[key] = value.strip()
        elif key in coeff_keys:
            coeffs = replace(coeffs, **{key: float(value)})
        elif key == "beta":
            beta = tuple(float(v) for v in value.split(","))
            if len(beta) != len(DEFAULT_COEFFICIENTS.beta):
                raise ConfigError(
                    f"beta needs {len(DEFAULT_COEFFICIENTS.beta)} entries"
                )
            coeffs = replace(coeffs, beta=beta)
        else:
            raise ConfigError(f"unknown [scenario] key: {key}")
    return replace(base, coefficients=coeffs, **kwargs)
