"""Input parsing and eligibility rules.

Reads the three input tables (clusters, prevalence, births), selects each
country's early/late study years, and applies the record exclusions used
before imputation.

The file contracts are the column tables below (UTF-8, comma separated,
'.' decimal point, header row required; an empty cell means missing),
one parser per column. A file that is empty, has another header, is not
UTF-8 text or is not valid CSV is refused (``DataValidationError``, exit
code 2). So is a row that repeats the key of a row that parsed, in this
and every other keyed CSV: a cluster_id in clusters.csv, a
(cluster_id, year) in prevalence.csv. So is a cluster with a survey or
prevalence year before 1998. A row with a cell that fails to parse or
with another cell count than the header is skipped with a warning naming
its physical line.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
FIRST_YEAR = 1998       # no survey or prevalence year may precede it


def _rate(text: str) -> float:
    """Parser of a pfpr cell: a rate in [0, 1]."""
    rate = float(text)
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{rate} outside [0, 1]")
    return rate


CLUSTER_COLUMNS = {
    "cluster_id": str, "country": str, "survey_year": int, "role": Role,
    "lat": float, "lon": float,
    **dict.fromkeys(["urban", "electricity", "floor", "toilet",
                     "mother_education", "contraception"], optional(float)),
}
PREVALENCE_COLUMNS = {"cluster_id": str, "year": int, "pfpr": _rate}
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
class StudySelection:
    early_year: int
    late_year: int
    prevalence_early_year: int
    prevalence_late_year: int


def select_study_years(
    clusters: Iterable[ClusterRecord],
) -> Dict[str, Optional[StudySelection]]:
    """Pick each country's study years, or None when it is excluded.

    A country's surveys are its clusters' survey years. The earliest
    survey in 2000-2007 and the latest in 2008-2015 are chosen (1999,
    possibly coded 1998, substitutes for a missing early survey and borrows
    the 2000 prevalence estimate). A country must also have prevalence
    estimates, in its clusters' trajectories, for both selected prevalence
    years.
    """
    dhs_years: Dict[str, set] = defaultdict(set)
    prevalence_years: Dict[str, set] = defaultdict(set)
    for c in clusters:
        dhs_years[c.country].add(c.survey_year)
        prevalence_years[c.country].update(c.pfpr_by_year)
    out: Dict[str, Optional[StudySelection]] = {}
    for country in sorted(dhs_years):
        surveys = dhs_years[country]
        early_candidates = sorted(
            y for y in surveys if EARLY_WINDOW[0] <= y <= EARLY_WINDOW[1]
        )
        late_candidates = sorted(
            y for y in surveys if LATE_WINDOW[0] <= y <= LATE_WINDOW[1]
        )
        early: Optional[int] = early_candidates[0] if early_candidates else None
        if early is None:
            for fallback in FALLBACK_EARLY_YEARS:
                if fallback in surveys:
                    early = fallback
                    break
        late = late_candidates[-1] if late_candidates else None

        if early is None or late is None:
            out[country] = None
            continue
        prev_early = prevalence_year_for(early)
        prev_late = prevalence_year_for(late)
        if not {prev_early, prev_late} <= prevalence_years[country]:
            out[country] = None
            continue
        out[country] = StudySelection(early, late, prev_early, prev_late)
    return out


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

    A row that does not parse, a pfpr outside [0, 1] included, is reported
    and skipped. A second row that parses for the same (cluster_id, year)
    raises ``DataValidationError``: either value could be the right one.
    """
    table: Dict[str, Dict[int, float]] = {}
    warnings: List[str] = []
    for _, row in read_csv(path, PREVALENCE_COLUMNS,
                           _skipper(path, "prevalence", warnings),
                           unique=[("cluster_id", "year")]):
        table.setdefault(row["cluster_id"], {})[row["year"]] = row["pfpr"]
    return table, warnings


def read_clusters(
    clusters_path, prevalence_path
) -> Tuple[List[ClusterRecord], List[str]]:
    """Parse clusters and attach their prevalence trajectories.

    Row-level failures are reported and skipped; parsing continues. A
    cluster whose trajectory lacks its own prevalence year is kept but
    flagged, since downstream classification will need that year. A
    cluster_id given twice on rows that parse raises
    ``DataValidationError``: pairs and quadruples name clusters by id. So
    does a kept cluster with a survey or prevalence year before 1998.
    """
    prevalence, warnings = read_prevalence(prevalence_path)
    skip = _skipper(clusters_path, "cluster", warnings)
    clusters: List[ClusterRecord] = []
    for lineno, row in read_csv(clusters_path, CLUSTER_COLUMNS, skip,
                                unique=["cluster_id"]):
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
        early = sorted(y for y in (record.survey_year, *record.pfpr_by_year)
                       if y < FIRST_YEAR)
        if early:
            raise DataValidationError(
                f"{clusters_path}:{lineno}: cluster {record.cluster_id!r} "
                f"has years before {FIRST_YEAR}: {early}")
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
