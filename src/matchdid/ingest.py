"""Input parsing and eligibility rules.

Reads the three input tables (clusters, prevalence, births), selects each
country's early/late study years, aggregates individual rows to cluster
covariate means, and applies the record exclusions used before imputation.

The file contracts are the column tables below (UTF-8, comma separated,
'.' decimal point, header row required; an empty cell means missing),
one parser per column. A file that is empty, has another header, is not
UTF-8 text or is not valid CSV is refused, and so is a cluster_id given
twice in clusters.csv (``DataValidationError``, exit code 2). A row with
a cell that fails to parse or with another cell count than the header is
skipped with a warning naming its physical line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ._util import fmt, optional, read_csv, write_csv
from .errors import DataValidationError
from .model import (
    COVARIATE_NAMES,
    BirthRecord,
    BirthSize,
    ClusterRecord,
    GeoPoint,
    Role,
    prevalence_year_for,
)

EARLY_WINDOW = (2000, 2007)
LATE_WINDOW = (2008, 2015)
FALLBACK_EARLY_YEARS = (1999, 1998)

CLUSTER_COLUMNS = {
    "cluster_id": str, "country": str, "survey_year": int, "role": Role,
    "lat": float, "lon": float,
    **dict.fromkeys(["urban", "electricity", "floor", "toilet",
                     "mother_education", "contraception"], optional(float)),
}
PREVALENCE_COLUMNS = {"cluster_id": str, "year": int, "pfpr": float}
# the names of BirthRecord's fields
BIRTH_COLUMNS = {
    "child_id": str, "cluster_id": str,
    **dict.fromkeys(["mother_age_years", "birth_order_code", "wealth_index",
                     "urban", "mother_education", "child_is_boy", "married",
                     "antenatal"], int),
    "reported_size": optional(BirthSize), "multiple_birth": int,
    "child_age_years": int, "lbw": optional(int),
}


@dataclass(frozen=True)
class CountryAvailability:
    """Years with a usable survey (incl. GPS) and years with prevalence
    estimates, for one country."""

    dhs_years: frozenset
    prevalence_years: frozenset

    def __post_init__(self):
        bad = [y for y in self.dhs_years | self.prevalence_years if y < 1998]
        if bad:
            raise DataValidationError(f"availability years before 1998: {sorted(bad)}")


@dataclass(frozen=True)
class AvailabilityTable:
    countries: Mapping[str, CountryAvailability]


@dataclass(frozen=True)
class StudySelection:
    early_year: int
    late_year: int
    prevalence_early_year: int
    prevalence_late_year: int


def select_study_years(
    avail: AvailabilityTable,
) -> Dict[str, Optional[StudySelection]]:
    """Pick each country's study years, or None when it is excluded.

    The earliest survey in 2000-2007 and the latest in 2008-2015 are chosen
    (1999, possibly coded 1998, substitutes for a missing early survey and
    borrows the 2000 prevalence estimate). A country must also have
    prevalence estimates for both selected prevalence years.
    """
    out: Dict[str, Optional[StudySelection]] = {}
    for country, ca in avail.countries.items():
        early_candidates = sorted(
            y for y in ca.dhs_years if EARLY_WINDOW[0] <= y <= EARLY_WINDOW[1]
        )
        late_candidates = sorted(
            y for y in ca.dhs_years if LATE_WINDOW[0] <= y <= LATE_WINDOW[1]
        )
        early: Optional[int] = early_candidates[0] if early_candidates else None
        if early is None:
            for fallback in FALLBACK_EARLY_YEARS:
                if fallback in ca.dhs_years:
                    early = fallback
                    break
        late = late_candidates[-1] if late_candidates else None

        if early is None or late is None:
            out[country] = None
            continue
        prev_early = prevalence_year_for(early)
        prev_late = prevalence_year_for(late)
        if prev_early not in ca.prevalence_years or prev_late not in ca.prevalence_years:
            out[country] = None
            continue
        out[country] = StudySelection(early, late, prev_early, prev_late)
    return out


def aggregate_cluster_covariates(
    rows: Sequence[Mapping[str, Optional[float]]],
) -> Dict[str, Optional[float]]:
    """Average the six covariates over individual rows, leaving out all
    missing values. A covariate missing in every row comes back as None."""
    if not rows:
        raise DataValidationError("cannot aggregate an empty cluster")
    means: Dict[str, Optional[float]] = {}
    for name in COVARIATE_NAMES:
        values = [r[name] for r in rows if r.get(name) is not None]
        means[name] = sum(values) / len(values) if values else None
    return means


@dataclass
class FilterCounts:
    total_in: int = 0
    multiple_births: int = 0
    missing_reported_size: int = 0
    remaining: int = 0


def filter_births(
    records: Sequence[BirthRecord],
) -> Tuple[List[BirthRecord], FilterCounts]:
    """Drop multiple births, then records with missing reported size.

    Order is preserved and per-rule exclusion counts are returned.
    """
    counts = FilterCounts(total_in=len(records))
    singletons = [r for r in records if r.multiple_birth == 0]
    counts.multiple_births = len(records) - len(singletons)
    kept = [r for r in singletons if r.reported_size is not None]
    counts.missing_reported_size = len(singletons) - len(kept)
    counts.remaining = len(kept)
    return kept, counts


# ---------------------------------------------------------------------------
# CSV reading


def _skipper(path, kind: str, warnings: List[str]):
    """The ``skip(line, reason)`` of one input table: a warning that its
    ``kind`` row on that line was left out."""
    def skip(line: int, reason) -> None:
        warnings.append(f"{path}:{line}: skipped {kind} row: {reason}")
    return skip


def read_prevalence(path) -> Tuple[Dict[str, Dict[int, float]], List[str]]:
    """Long-format prevalence table -> {cluster_id: {year: pfpr}}.

    A row that does not parse is reported and skipped. A second valid row
    for the same (cluster_id, year) raises ``DataValidationError``: either
    value could be the right one.
    """
    table: Dict[str, Dict[int, float]] = {}
    first_line: Dict[Tuple[str, int], int] = {}
    warnings: List[str] = []
    skip = _skipper(path, "prevalence", warnings)
    for lineno, row in read_csv(path, PREVALENCE_COLUMNS, skip):
        cluster_id, year, pfpr = row["cluster_id"], row["year"], row["pfpr"]
        if not 0.0 <= pfpr <= 1.0:
            skip(lineno, f"pfpr {pfpr} outside [0, 1]")
            continue
        first = first_line.setdefault((cluster_id, year), lineno)
        if first != lineno:
            raise DataValidationError(
                f"{path}:{lineno}: prevalence of cluster_id "
                f"{cluster_id!r} in {year} is also on line {first}")
        table.setdefault(cluster_id, {})[year] = pfpr
    return table, warnings


def read_clusters(
    clusters_path, prevalence_path
) -> Tuple[List[ClusterRecord], List[str]]:
    """Parse clusters and attach their prevalence trajectories.

    Row-level failures are reported and skipped; parsing continues. A
    cluster whose trajectory lacks its own prevalence year is kept but
    flagged, since downstream classification will need that year. A
    cluster_id given twice on rows that parse raises
    ``DataValidationError``: pairs and quadruples name clusters by id.
    """
    prevalence, warnings = read_prevalence(prevalence_path)
    skip = _skipper(clusters_path, "cluster", warnings)
    clusters: List[ClusterRecord] = []
    first_line: Dict[str, int] = {}
    for lineno, row in read_csv(clusters_path, CLUSTER_COLUMNS, skip):
        first = first_line.setdefault(row["cluster_id"], lineno)
        if first != lineno:
            raise DataValidationError(
                f"{clusters_path}:{lineno}: cluster_id {row['cluster_id']!r} "
                f"is also on line {first}")
        try:
            record = ClusterRecord(
                cluster_id=row["cluster_id"],
                country=row["country"],
                survey_year=row["survey_year"],
                role=row["role"],
                location=GeoPoint(row["lat"], row["lon"]),
                covariates={name: row[name] for name in COVARIATE_NAMES},
                pfpr_by_year=prevalence.get(row["cluster_id"], {}),
            )
        except DataValidationError as exc:
            skip(lineno, exc)
            continue
        if record.prevalence_year not in record.pfpr_by_year:
            warnings.append(
                f"{clusters_path}:{lineno}: cluster {record.cluster_id} has no "
                f"prevalence estimate for its assigned year {record.prevalence_year}"
            )
        clusters.append(record)
    return clusters, warnings


def read_births(path) -> Tuple[List[BirthRecord], List[str]]:
    births: List[BirthRecord] = []
    warnings: List[str] = []
    skip = _skipper(path, "birth", warnings)
    for lineno, row in read_csv(path, BIRTH_COLUMNS, skip):
        try:
            births.append(BirthRecord(**row))
        except DataValidationError as exc:
            skip(lineno, exc)
    return births, warnings


# ---------------------------------------------------------------------------
# CSV writing (the same schemas, so records round-trip losslessly)


def write_clusters_csv(clusters: Sequence[ClusterRecord], path) -> None:
    write_csv(path, CLUSTER_COLUMNS, ([
        c.cluster_id, c.country, c.survey_year, c.role.value,
        fmt(c.location.latitude_deg), fmt(c.location.longitude_deg),
        *(fmt(c.covariates[name]) for name in list(CLUSTER_COLUMNS)[6:]),
    ] for c in clusters))


def write_prevalence_csv(clusters: Sequence[ClusterRecord], path) -> None:
    write_csv(path, PREVALENCE_COLUMNS, (
        [c.cluster_id, year, fmt(c.pfpr_by_year[year])]
        for c in clusters for year in sorted(c.pfpr_by_year)))


def write_births_csv(births: Sequence[BirthRecord], path) -> None:
    write_csv(path, BIRTH_COLUMNS, ([
        b.child_id, b.cluster_id, b.mother_age_years, b.birth_order_code,
        b.wealth_index, b.urban, b.mother_education, b.child_is_boy,
        b.married, b.antenatal,
        "" if b.reported_size is None else b.reported_size.value,
        b.multiple_birth, b.child_age_years,
        "" if b.lbw is None else b.lbw,
    ] for b in births))
