"""Domain types shared by every pipeline stage.

Clusters, births, pairs, quadruples and analysis settings are all
immutable after construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Tuple

from .errors import DataValidationError

# Canonical order of the six cluster-level covariate means. Every
# 12-covariate construction downstream is (early block, late block), each
# block in this order.
COVARIATE_NAMES: Tuple[str, ...] = (
    "electricity",
    "floor",
    "toilet",
    "urban",
    "mother_education",
    "contraception",
)

# Coded range of each cluster covariate mean.
COVARIATE_RANGES = {
    "electricity": (0.0, 1.0),
    "floor": (1.0, 3.0),
    "toilet": (0.0, 1.0),
    "urban": (0.0, 1.0),
    "mother_education": (0.0, 2.0),
    "contraception": (0.0, 1.0),
}

STUDY_YEARS = range(2000, 2016)


class Role(enum.Enum):
    EARLY = "early"
    LATE = "late"


class PairCategory(enum.Enum):
    HIGH_HIGH = "high_high"
    HIGH_LOW = "high_low"
    OTHER = "other"
    EXCLUDED = "excluded"


class PrevalenceLevel(enum.IntEnum):
    """Ordered so that monotonicity in the parasite rate can be asserted
    directly on the enum values."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2


class BirthSize(enum.Enum):
    SMALL = "Small"
    AVERAGE = "Average"
    LARGE = "Large"


@dataclass(frozen=True)
class GeoPoint:
    latitude_deg: float
    longitude_deg: float

    def __post_init__(self):
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise DataValidationError(f"latitude out of range: {self.latitude_deg}")
        if not -180.0 < self.longitude_deg <= 180.0:
            raise DataValidationError(f"longitude out of range: {self.longitude_deg}")


@dataclass(frozen=True)
class ClusterRecord:
    """One survey cluster with its location, covariate means, and the
    parasite-rate trajectory attached from the prevalence table.

    ``covariates`` maps each name in COVARIATE_NAMES to a mean, or to None
    when the covariate was missing for every individual in the cluster
    (an undefined mean disqualifies the cluster from balance matching but
    not from geographic pairing).
    """

    cluster_id: str
    country: str
    survey_year: int
    role: Role
    location: GeoPoint
    covariates: Mapping[str, Optional[float]]
    pfpr_by_year: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        missing = [n for n in COVARIATE_NAMES if n not in self.covariates]
        if missing:
            raise DataValidationError(
                f"cluster {self.cluster_id}: missing covariates {missing}"
            )
        for name, value in self.covariates.items():
            if value is None:
                continue
            lo, hi = COVARIATE_RANGES[name]
            if not (lo <= value <= hi) or math.isnan(value):
                raise DataValidationError(
                    f"cluster {self.cluster_id}: covariate {name}={value} "
                    f"outside [{lo}, {hi}]"
                )
        for year, rate in self.pfpr_by_year.items():
            if not 0.0 <= rate <= 1.0:
                raise DataValidationError(
                    f"cluster {self.cluster_id}: pfpr {rate} in {year} outside [0, 1]"
                )

    @property
    def prevalence_year(self) -> int:
        """Year whose parasite rate represents this cluster.

        Surveys from 1998/1999 use the first published estimate year, 2000;
        every other survey uses its own year.
        """
        return prevalence_year_for(self.survey_year)

    def pfpr_at(self, year: int) -> float:
        try:
            return self.pfpr_by_year[year]
        except KeyError:
            raise DataValidationError(
                f"cluster {self.cluster_id}: no parasite rate for year {year}"
            ) from None

    def covariates_defined(self) -> bool:
        return all(self.covariates[n] is not None for n in COVARIATE_NAMES)

    def covariate_vector(self) -> Tuple[float, ...]:
        if not self.covariates_defined():
            undef = [n for n in COVARIATE_NAMES if self.covariates[n] is None]
            raise DataValidationError(
                f"cluster {self.cluster_id}: undefined covariates {undef}"
            )
        return tuple(self.covariates[n] for n in COVARIATE_NAMES)


def prevalence_year_for(survey_year: int) -> int:
    return 2000 if survey_year <= 1999 else survey_year


@dataclass(frozen=True)
class BirthRecord:
    """One child record at the level used for imputation and estimation."""

    child_id: str
    cluster_id: str
    mother_age_years: int
    birth_order_code: int       # 1 first born, 2 = second..fourth, 3 = later
    wealth_index: int           # 1..5
    urban: int
    mother_education: int       # 0 none, 1 primary, 2 secondary+
    child_is_boy: int
    married: int
    antenatal: int
    reported_size: Optional[BirthSize]
    multiple_birth: int
    child_age_years: int
    lbw: Optional[int]          # None while birth weight is missing

    def __post_init__(self):
        checks = [
            ("mother_age_years", self.mother_age_years > 0),
            ("birth_order_code", self.birth_order_code in (1, 2, 3)),
            ("wealth_index", self.wealth_index in (1, 2, 3, 4, 5)),
            ("urban", self.urban in (0, 1)),
            ("mother_education", self.mother_education in (0, 1, 2)),
            ("child_is_boy", self.child_is_boy in (0, 1)),
            ("married", self.married in (0, 1)),
            ("antenatal", self.antenatal in (0, 1)),
            ("multiple_birth", self.multiple_birth in (0, 1)),
            ("child_age_years", self.child_age_years >= 0),
            ("lbw", self.lbw in (None, 0, 1)),
        ]
        for name, ok in checks:
            if not ok:
                raise DataValidationError(
                    f"birth {self.child_id}: invalid {name}={getattr(self, name)}"
                )


# The birth-level regressors that the outcome model and the imputation
# model adjust for, in the outcome model's column order; ``covariate_row``
# computes them.
COVARIATE_REGRESSORS: Tuple[str, ...] = (
    "mother_age", "mother_age_sq", "birth_order", "birth_order_sq",
    "wealth_index", "urban", "mother_education", "child_is_boy",
    "married", "antenatal",
)


def covariate_row(r: BirthRecord) -> List[float]:
    age = float(r.mother_age_years)
    order = float(r.birth_order_code)
    return [
        age, age * age, order, order * order, float(r.wealth_index),
        float(r.urban), float(r.mother_education), float(r.child_is_boy),
        float(r.married), float(r.antenatal),
    ]


@dataclass(frozen=True)
class ClusterPair:
    """A geographically matched early/late cluster pair within one country.

    ``rank_distance`` is the pair's entry in the distance matrix it was
    matched on (caliper penalty included), kept for pairs.csv; it does not
    take part in equality.
    """

    early: ClusterRecord
    late: ClusterRecord
    category: Optional[PairCategory] = None
    geo_distance_km: float = 0.0
    rank_distance: Optional[float] = field(default=None, compare=False)

    def __post_init__(self):
        if self.early.role is not Role.EARLY or self.late.role is not Role.LATE:
            raise DataValidationError(
                f"pair ({self.early.cluster_id}, {self.late.cluster_id}): "
                "roles must be early/late"
            )
        if self.early.country != self.late.country:
            raise DataValidationError(
                f"pair ({self.early.cluster_id}, {self.late.cluster_id}): "
                "clusters must share a country"
            )
        if self.geo_distance_km < 0:
            raise DataValidationError("geo_distance_km must be nonnegative")

    def with_category(self, category: PairCategory) -> "ClusterPair":
        return replace(self, category=category)

    @property
    def country(self) -> str:
        return self.early.country


@dataclass(frozen=True)
class Quadruple:
    """A treated (high-to-low) pair matched with a control (stayed-high)
    pair; the design unit of the final contrast."""

    treated: ClusterPair
    control: ClusterPair

    def __post_init__(self):
        if self.treated.category is not PairCategory.HIGH_LOW:
            raise DataValidationError("treated pair must be categorized high-low")
        if self.control.category is not PairCategory.HIGH_HIGH:
            raise DataValidationError("control pair must be categorized high-high")


@dataclass(frozen=True)
class Coefficients:
    """Fixed effects and variance components of the outcome model.

    Used to carry a generative truth: intercept k0, the low-prevalence,
    late-period, and treated-pair indicator coefficients k1..k3, the
    covariate coefficient vector beta (order given by
    COVARIATE_REGRESSORS above), the cluster random-intercept sd sigma0,
    and the residual sd sigma1.
    """

    k0: float
    k1: float
    k2: float
    k3: float
    beta: Tuple[float, ...]
    sigma0: float = 0.0
    sigma1: float = 0.0

    def __post_init__(self):
        fixed = (self.k0, self.k1, self.k2, self.k3, *self.beta)
        if not all(math.isfinite(v) for v in fixed):
            raise DataValidationError(
                f"coefficients k0..k3 and beta must be finite, got {fixed}")
        if not (0.0 <= self.sigma0 < math.inf and 0.0 <= self.sigma1 < math.inf):
            raise DataValidationError(
                "variance components must be finite and nonnegative, got "
                f"{self.sigma0} and {self.sigma1}")


@dataclass(frozen=True)
class ModelSpec:
    """Analysis settings: prevalence cutoffs, the stayed-high gap, the
    balance threshold, and the number of imputations M."""

    cutoff_high: float = 0.4
    cutoff_low: float = 0.2
    highhigh_gap: float = 0.1
    balance_threshold: float = 0.1
    imputations: int = 500
    coefficients: Optional[Coefficients] = None

    def __post_init__(self):
        if not 0.0 <= self.cutoff_low < self.cutoff_high <= 1.0:
            raise DataValidationError(
                f"cutoffs must satisfy 0 <= low < high <= 1, got "
                f"({self.cutoff_low}, {self.cutoff_high})"
            )
        if self.imputations < 2:
            raise DataValidationError("imputations M must be >= 2")
        if not (0.0 < self.highhigh_gap < math.inf
                and 0.0 < self.balance_threshold < math.inf):
            raise DataValidationError(
                "gap and balance threshold must be finite and positive, got "
                f"{self.highhigh_gap} and {self.balance_threshold}")


def validate_u_probabilities(p1: float, p2: float) -> None:
    """The percentage-point shifts p1 and p2 tie the hypothetical
    unobserved covariate U to the low-prevalence indicator and to the
    outcome (its coefficient lam is estimated, never set). Every attainable
    P(U=1) = 0.5 + a/100 + b/100 with a in {0, p1}, b in {0, p2} must be a
    probability."""
    for a in (0.0, p1):
        for b in (0.0, p2):
            prob = 0.5 + (a + b) / 100.0
            if not 0.0 <= prob <= 1.0:
                raise DataValidationError(
                    f"sensitivity parameters (p1={p1}, p2={p2}) give "
                    f"P(U=1)={prob:.4f} outside [0, 1]"
                )
