"""Synthetic scenario generator.

Builds countries, regions, clusters, and births from a configurable
generative model that mirrors the outcome model: each region contributes
one early and one late cluster a small jitter apart, carries a prevalence
trajectory kind (declining, stayed high, medium, or a zero-prevalence
late cluster), and every birth's outcome is a Bernoulli draw of the linear
cell probability (clipped to [0.001, 0.999] during generation only).
Births are drawn a column at a time per cluster: each birth field of all of
a cluster's births is one ``Generator`` call. All draws run on
counter-based substreams keyed by (seed, role, indices), so the same
(config, seed) always produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._util import substream, write_json
from .errors import DataValidationError
from .model import (
    BirthRecord,
    BirthSize,
    ClusterRecord,
    Coefficients,
    GeoPoint,
    Role,
)
from .ingest import write_births_csv, write_clusters_csv, write_prevalence_csv

CLIP_BOUNDS = (0.001, 0.999)

# BirthRecord's fields in order, and the reported sizes by index (3 is a
# missing size)
_BIRTH_FIELDS = tuple(f.name for f in fields(BirthRecord))
_SIZES = np.array([*BirthSize, None], dtype=object)

DEFAULT_COEFFICIENTS = Coefficients(
    k0=0.20, k1=-0.03, k2=-0.01, k3=0.01,
    # order: mother_age, mother_age_sq, birth_order, birth_order_sq,
    # wealth_index, urban, mother_education, child_is_boy, married, antenatal
    beta=(-0.004, 0.00008, -0.03, 0.007, 0.002, 0.008, -0.012, -0.01,
          -0.008, -0.006),
    sigma0=0.02,
    sigma1=0.0,   # implied by the Bernoulli draw, kept for bookkeeping
)


@dataclass(frozen=True)
class UTrue:
    """Optional unobserved covariate in the generative model: U is drawn
    with a p1 shift on low-prevalence clusters and enters the outcome with
    coefficient lam; the U-outcome association that p2 describes is then
    induced through lam rather than set directly."""

    p1: float
    p2: float
    lam: float


@dataclass(frozen=True)
class ScenarioConfig:
    n_countries: int = 3
    regions_per_country: int = 8
    births_per_cluster: int = 25
    coefficients: Coefficients = DEFAULT_COEFFICIENTS
    decline_fraction: float = 0.45
    stable_high_fraction: float = 0.45
    zero_late_fraction: float = 0.0
    covariate_imbalance: float = 0.3
    late_ses_drift: float = 0.3
    missingness: str = "none"            # none | mcar | covariate
    missing_rate: float = 0.0
    missing_size_rate: float = 0.01
    multiple_birth_rate: float = 0.02
    # P(reported size = small/average/large | outcome); the outcome proxy
    # that makes imputation of heavy missingness informative
    size_given_lbw: Tuple[float, float, float] = (0.55, 0.40, 0.05)
    size_given_normal: Tuple[float, float, float] = (0.08, 0.52, 0.40)
    early_year: int = 2003
    late_year: int = 2012
    u_true: Optional[UTrue] = None

    def __post_init__(self):
        if self.n_countries < 1 or self.regions_per_country < 1:
            raise DataValidationError("need at least one country and region")
        if self.births_per_cluster < 1:
            raise DataValidationError("births_per_cluster must be positive")
        fractions = (self.decline_fraction, self.stable_high_fraction,
                     self.zero_late_fraction)
        if any(not 0.0 <= f <= 1.0 for f in fractions) or sum(fractions) > 1.0:
            raise DataValidationError("trajectory fractions must lie in [0, 1] "
                                      "and sum to at most 1")
        for name in ("covariate_imbalance", "late_ses_drift"):
            if not math.isfinite(getattr(self, name)):
                raise DataValidationError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.missingness not in ("none", "mcar", "covariate"):
            raise DataValidationError(f"unknown missingness: {self.missingness}")
        for probs in (self.size_given_lbw, self.size_given_normal):
            if len(probs) != 3 or any(p < 0 for p in probs) \
                    or abs(sum(probs) - 1.0) > 1e-9:
                raise DataValidationError(
                    f"size probabilities must be a 3-simplex, got {probs}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise DataValidationError("missing_rate must be in [0, 1)")
        for name in ("missing_size_rate", "multiple_birth_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DataValidationError(f"{name} must be in [0, 1]")
        if not 2000 <= self.early_year <= 2007:
            raise DataValidationError("early_year must lie in 2000..2007")
        if not 2008 <= self.late_year <= 2015:
            raise DataValidationError("late_year must lie in 2008..2015")


@dataclass
class ScenarioData:
    clusters: List[ClusterRecord]
    births: List[BirthRecord]
    truth: Dict


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _region_kind(u: float, cfg: ScenarioConfig) -> str:
    if u < cfg.decline_fraction:
        return "declining"
    if u < cfg.decline_fraction + cfg.stable_high_fraction:
        return "stable_high"
    if u < (cfg.decline_fraction + cfg.stable_high_fraction
            + cfg.zero_late_fraction):
        return "zero_late"
    return "medium"


def _trajectory(kind: str, rng, cfg: ScenarioConfig) -> Tuple[float, float]:
    """(early level, late level) of the region's parasite-rate path."""
    if kind == "declining":
        return rng.uniform(0.44, 0.58), rng.uniform(0.05, 0.17)
    if kind == "stable_high":
        e = rng.uniform(0.44, 0.58)
        return e, min(max(e + rng.uniform(-0.045, 0.045), 0.41), 0.62)
    if kind == "zero_late":
        return rng.uniform(0.44, 0.58), 0.0
    return rng.uniform(0.22, 0.38), rng.uniform(0.22, 0.38)


def _pfpr_by_year(
    kind: str, period: str, early_level: float, late_level: float,
    rng, cfg: ScenarioConfig,
) -> Dict[int, float]:
    """Yearly rates 2000..2015: flat at the early level, then a linear
    glide between the two survey years. The late cluster of a zero_late
    region is flat zero (the exclusion rule's target)."""
    if kind == "zero_late" and period == "late":
        return {year: 0.0 for year in range(2000, 2016)}
    out = {}
    for year in range(2000, 2016):
        if year <= cfg.early_year:
            level = early_level
        elif year >= cfg.late_year:
            level = late_level
        else:
            frac = (year - cfg.early_year) / (cfg.late_year - cfg.early_year)
            level = early_level + frac * (late_level - early_level)
        noise = rng.uniform(-0.003, 0.003)
        if year in (cfg.early_year, cfg.late_year):
            noise = 0.0   # keep category guarantees exact at the survey years
        out[year] = round(min(max(level + noise, 0.0), 0.995), 4)
    return out


def _cluster_covariates(ses: float, rng) -> Dict[str, float]:
    def unit(shift):
        return round(_sigmoid(0.8 * ses + shift + rng.normal(0.0, 0.25)), 6)

    return {
        "electricity": unit(-1.2),
        "floor": round(1.0 + 2.0 * _sigmoid(0.8 * ses + rng.normal(0.0, 0.25)), 6),
        "toilet": unit(0.6),
        "urban": unit(-1.0),
        "mother_education": round(
            2.0 * _sigmoid(0.7 * ses - 0.4 + rng.normal(0.0, 0.25)), 6),
        "contraception": unit(-1.5),
    }


def _calibrate_intercept(logits: np.ndarray, rate: float) -> float:
    lo, hi = -12.0, 12.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if np.mean(1.0 / (1.0 + np.exp(-(logits + mid)))) < rate:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def generate(cfg: ScenarioConfig, seed: int) -> ScenarioData:
    coeffs = cfg.coefficients
    clusters: List[ClusterRecord] = []
    birth_columns: List[Dict[str, np.ndarray]] = []
    cluster_truth: Dict[str, Dict] = {}
    kind_counts: Dict[str, int] = {}

    for ci in range(cfg.n_countries):
        country = f"C{ci:02d}"
        lat0 = -20.0 + 5.0 * (ci % 8)
        lon0 = 8.0 + 6.0 * (ci % 10)
        for ri in range(cfg.regions_per_country):
            rng_region = substream(seed, "region", ci, ri)
            kind = _region_kind(float(rng_region.random()), cfg)
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            early_level, late_level = _trajectory(kind, rng_region, cfg)
            treated_like = kind in ("declining", "zero_late")
            ses_base = float(rng_region.normal(0.0, 1.0))
            ses_base += cfg.covariate_imbalance if treated_like else 0.0
            grid = 1 + int(math.isqrt(max(cfg.regions_per_country - 1, 0)))
            center_lat = lat0 + 0.5 * (ri // grid) + float(rng_region.uniform(0, 0.1))
            center_lon = lon0 + 0.5 * (ri % grid) + float(rng_region.uniform(0, 0.1))

            for period, year in (("early", cfg.early_year), ("late", cfg.late_year)):
                rng_cluster = substream(seed, "cluster", ci, ri, period)
                role = Role.EARLY if period == "early" else Role.LATE
                cluster_id = f"{country}-R{ri:03d}-{'E' if period == 'early' else 'L'}"
                ses = ses_base + (cfg.late_ses_drift if period == "late" else 0.0)
                covs = _cluster_covariates(ses, rng_cluster)
                location = GeoPoint(
                    round(center_lat + float(rng_cluster.uniform(-0.02, 0.02)), 6),
                    round(center_lon + float(rng_cluster.uniform(-0.02, 0.02)), 6),
                )
                pfpr = _pfpr_by_year(kind, period, early_level, late_level,
                                     rng_cluster, cfg)
                record = ClusterRecord(
                    cluster_id=cluster_id, country=country, survey_year=year,
                    role=role, location=location, covariates=covs,
                    pfpr_by_year=pfpr,
                )
                clusters.append(record)

                low_prev = pfpr[record.prevalence_year] < 0.2
                late = period == "late"
                cluster_truth[cluster_id] = {
                    "kind": kind,
                    "low_prevalence": int(low_prev),
                    "late_period": int(late),
                    "treated_pair": int(treated_like),
                }
                alpha = float(rng_cluster.normal(0.0, coeffs.sigma0))
                birth_columns.append(_gen_births(
                    cfg, substream(seed, "births", ci, ri, period), cluster_id,
                    low_prev, late, treated_like, alpha, covs, ses))

    columns = {name: np.concatenate([c[name] for c in birth_columns])
               for name in _BIRTH_FIELDS}
    _apply_missingness(cfg, seed, columns)
    births = [BirthRecord(*row) for row in
              zip(*(columns[name].tolist() for name in _BIRTH_FIELDS))]

    # the record as truth.json holds it, tuples read back as lists
    truth = json.loads(json.dumps({
        "seed": seed,
        "config": asdict(cfg),
        "coefficients": asdict(coeffs),
        "clip_bounds": CLIP_BOUNDS,
        "outcome_noise": "bernoulli",
        "n_clusters": len(clusters),
        "n_births": len(births),
        "region_kind_counts": kind_counts,
        "clusters": cluster_truth,
    }))
    return ScenarioData(clusters=clusters, births=births, truth=truth)


def _gen_births(
    cfg, rng, cluster_id, low_prev, late, treated, alpha, covs, ses,
) -> Dict[str, np.ndarray]:
    """The cluster's births as ``BirthRecord`` field columns, each field
    drawn for all of them in one ``rng`` call; the records are built once
    the missingness draw has settled each outcome."""
    coeffs, n = cfg.coefficients, cfg.births_per_cluster

    def flag(p):
        return (rng.random(n) < p).astype(np.int64)

    age = rng.integers(15, 45, n)
    order = rng.choice((1, 2, 3), n, p=(0.25, 0.45, 0.30))
    wealth = 1 + rng.binomial(4, _sigmoid(0.5 * ses), n)
    urban = flag(covs["urban"])
    educ = rng.binomial(2, covs["mother_education"] / 2.0, n)
    boy = flag(0.5)
    married = flag(0.85)
    antenatal = flag(min(0.9, 0.35 + 0.3 * _sigmoid(ses)))
    child_age = rng.integers(0, 5, n)
    multiple = flag(cfg.multiple_birth_rate)

    x = np.column_stack([age, age * age, order, order * order, wealth,
                         urban, educ, boy, married, antenatal]).astype(float)
    p = (coeffs.k0 + coeffs.k1 * low_prev + coeffs.k2 * late
         + coeffs.k3 * treated + x @ np.array(coeffs.beta) + alpha)
    if cfg.u_true is not None:
        pu = 0.5 + cfg.u_true.p1 / 100.0 * low_prev
        p += cfg.u_true.lam * flag(pu)
    lbw = flag(np.clip(p, *CLIP_BOUNDS))

    # reported size is informative for the outcome
    size = np.empty(n, dtype=np.int64)
    for outcome, probs in ((1, cfg.size_given_lbw), (0, cfg.size_given_normal)):
        drawn = lbw == outcome
        size[drawn] = rng.choice(3, drawn.sum(), p=probs)
    size[rng.random(n) < cfg.missing_size_rate] = 3

    return dict(
        child_id=np.array([f"{cluster_id}-B{bi:04d}" for bi in range(n)]),
        cluster_id=np.full(n, cluster_id),
        mother_age_years=age, birth_order_code=order, wealth_index=wealth,
        urban=urban, mother_education=educ, child_is_boy=boy,
        married=married, antenatal=antenatal, reported_size=_SIZES[size],
        multiple_birth=multiple, child_age_years=child_age, lbw=lbw,
    )


def _apply_missingness(cfg, seed, columns: Dict[str, np.ndarray]) -> None:
    """Blank the outcome column (``lbw``) in place with the configured
    mechanism; neither mechanism looks at the outcome itself, so
    missingness is at random by design."""
    if cfg.missingness == "none" or cfg.missing_rate == 0.0:
        return
    rng = substream(seed, "missingness")
    n = len(columns["lbw"])
    if cfg.missingness == "mcar":
        miss = rng.random(n) < cfg.missing_rate
    else:
        logits = (-0.35 * (columns["wealth_index"] - 3) - 0.4 * columns["urban"]
                  - 0.3 * columns["mother_education"]
                  + 0.25 * (columns["birth_order_code"] - 2))
        intercept = _calibrate_intercept(logits, cfg.missing_rate)
        prob = 1.0 / (1.0 + np.exp(-(logits + intercept)))
        miss = rng.random(n) < prob
    columns["lbw"] = np.where(miss, None, columns["lbw"])


def gen_scenario(cfg: ScenarioConfig, seed: int, out_dir) -> Dict:
    """Write clusters.csv, prevalence.csv, births.csv, and truth.json into
    ``out_dir``; returns the truth record."""
    data = generate(cfg, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_clusters_csv(data.clusters, out / "clusters.csv")
    write_prevalence_csv(data.clusters, out / "prevalence.csv")
    write_births_csv(data.births, out / "births.csv")
    write_json(out / "truth.json", data.truth)
    return data.truth
