"""Match-quality diagnostics: within-pair great-circle distances,
within-pair coordinate correlations, and mean parasite rates at the early
and late prevalence years, reported per pair category."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ._util import fmt, write_csv
from .model import ClusterPair, PairCategory

MATCH_DIAGNOSTICS_COLUMNS = [
    "category", "n_pairs", "mean_haversine_km",
    "corr_longitude", "corr_latitude",
    "early_mean_longitude", "early_mean_latitude",
    "early_mean_pfpr_early", "early_mean_pfpr_late",
    "late_mean_longitude", "late_mean_latitude",
    "late_mean_pfpr_early", "late_mean_pfpr_late",
]


@dataclass(frozen=True)
class MatchDiagnostics:
    category: str
    n_pairs: int
    mean_haversine_km: float
    corr_longitude: float
    corr_latitude: float
    early_mean_longitude: float
    early_mean_latitude: float
    early_mean_pfpr_early: float
    early_mean_pfpr_late: float
    late_mean_longitude: float
    late_mean_latitude: float
    late_mean_pfpr_early: float
    late_mean_pfpr_late: float


def _corr(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) < 2 or a.std() == 0 or b.std() == 0:
        return math.nan
    return float(np.corrcoef(a, b)[0, 1])


def _mean_pfpr(pairs: Sequence[ClusterPair], side: str, year_side: str) -> float:
    values = []
    for p in pairs:
        cluster = p.early if side == "early" else p.late
        year = (p.early if year_side == "early" else p.late).prevalence_year
        rate = cluster.pfpr_by_year.get(year)
        if rate is not None:
            values.append(rate)
    return float(np.mean(values)) if values else math.nan


def match_diagnostics(
    pairs: Sequence[ClusterPair],
    categories: Sequence[PairCategory] = (PairCategory.HIGH_LOW,
                                          PairCategory.HIGH_HIGH),
) -> List[MatchDiagnostics]:
    out = []
    for category in categories:
        group = [p for p in pairs if p.category is category]
        if not group:
            out.append(MatchDiagnostics(
                category=category.value, n_pairs=0,
                **{f: math.nan for f in MATCH_DIAGNOSTICS_COLUMNS[2:]},
            ))
            continue
        e_lon = np.array([p.early.location.longitude_deg for p in group])
        e_lat = np.array([p.early.location.latitude_deg for p in group])
        l_lon = np.array([p.late.location.longitude_deg for p in group])
        l_lat = np.array([p.late.location.latitude_deg for p in group])
        out.append(MatchDiagnostics(
            category=category.value,
            n_pairs=len(group),
            mean_haversine_km=float(np.mean([p.geo_distance_km for p in group])),
            corr_longitude=_corr(e_lon, l_lon),
            corr_latitude=_corr(e_lat, l_lat),
            early_mean_longitude=float(e_lon.mean()),
            early_mean_latitude=float(e_lat.mean()),
            early_mean_pfpr_early=_mean_pfpr(group, "early", "early"),
            early_mean_pfpr_late=_mean_pfpr(group, "early", "late"),
            late_mean_longitude=float(l_lon.mean()),
            late_mean_latitude=float(l_lat.mean()),
            late_mean_pfpr_early=_mean_pfpr(group, "late", "early"),
            late_mean_pfpr_late=_mean_pfpr(group, "late", "late"),
        ))
    return out


def write_match_diagnostics_csv(rows: Sequence[MatchDiagnostics], path) -> None:
    write_csv(path, MATCH_DIAGNOSTICS_COLUMNS, (
        [r.category, *(fmt(getattr(r, c)) for c in MATCH_DIAGNOSTICS_COLUMNS[1:])]
        for r in rows))
