"""Geographic pairing of early and late survey clusters within a country.

Distances are rank-based Mahalanobis distances on (latitude, longitude),
with a soft propensity-score caliper penalty. The propensity is a logistic
regression with Normal(0, 100) priors (standard deviation 100), fitted by
the imputation model's Newton (``impute.penalized_logistic_mode``). Pairs
are chosen by an exact minimum-cost assignment so the total distance over
min(n_early, n_late) disjoint pairs is as small as possible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._util import fmt, optional, read_csv, write_csv
from .errors import DataValidationError
from . import impute
from .model import ClusterPair, ClusterRecord, GeoPoint, PairCategory

EARTH_RADIUS_KM = 6371.0

_log = logging.getLogger(__name__)

PAIRS_COLUMNS = {"country": str, "early_id": str, "late_id": str,
                 "rank_distance": optional(float), "haversine_km": float,
                 "category": optional(PairCategory)}


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in kilometers."""
    lat1, lon1 = math.radians(a.latitude_deg), math.radians(a.longitude_deg)
    lat2, lon2 = math.radians(b.latitude_deg), math.radians(b.longitude_deg)
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


@dataclass(frozen=True)
class CaliperSpec:
    """Soft propensity caliper. None means: width = 0.2 x sd of the fitted
    propensities, penalty = 1000 x the largest base distance."""

    width: Optional[float] = None
    penalty: Optional[float] = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not 0.0 <= value < math.inf:
                raise DataValidationError(
                    f"caliper {name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class DistanceMatrix:
    """Rows are early clusters, columns late clusters. ``values`` carries
    the caliper penalty; ``base`` is the bare rank-Mahalanobis distance."""

    early_ids: Tuple[str, ...]
    late_ids: Tuple[str, ...]
    values: np.ndarray
    base: np.ndarray
    propensity_early: np.ndarray
    propensity_late: np.ndarray
    caliper_width: float
    caliper_penalty: float

    def __post_init__(self):
        if self.values.shape != (len(self.early_ids), len(self.late_ids)):
            raise DataValidationError("distance matrix shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise DataValidationError("distance matrix entries must be finite")


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``values``; tied values share the mean of their ranks.
    Each mean is a half-integer, so the ranks are exact in float64."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # run r of equal values holds the ranks edges[r] + 1 .. edges[r + 1]
    edges = np.flatnonzero(np.concatenate(
        [[True], ordered[1:] != ordered[:-1], [True]]))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((edges[:-1] + edges[1:] + 1) / 2.0, np.diff(edges))
    return ranks


def rank_mahalanobis(
    early: Sequence[ClusterRecord],
    late: Sequence[ClusterRecord],
    caliper: CaliperSpec = CaliperSpec(),
) -> DistanceMatrix:
    """Distance matrix between early and late clusters.

    Latitude and longitude are replaced by their average ranks over the
    pooled early+late set; the Mahalanobis form uses the covariance of
    those ranks (ridged by 1e-8 I when singular). Entries whose propensity
    scores differ by more than the caliper width get the penalty added.
    """
    if not early or not late:
        raise DataValidationError("need at least one cluster on each side")
    coords = np.array(
        [[c.location.latitude_deg, c.location.longitude_deg]
         for c in list(early) + list(late)]
    )
    n_early = len(early)
    ranks = np.column_stack([average_ranks(coords[:, j]) for j in range(2)])
    cov = np.cov(ranks, rowvar=False, ddof=1)
    # a singular covariance has an infinite condition number
    if np.linalg.cond(cov) > 1e12:
        cov = cov + 1e-8 * np.eye(2)
    cov_inv = np.linalg.inv(cov)

    diff = ranks[:n_early, None, :] - ranks[None, n_early:, :]
    base = np.sqrt(np.maximum(np.einsum("ijk,kl,ijl->ij", diff, cov_inv, diff), 0.0))

    # late-period membership on raw (lat, lon); the Normal(0, 100) priors
    # keep perfectly separated geographies finite
    X = np.column_stack([np.ones(len(coords)), coords])
    is_late = np.repeat([0.0, 1.0], [n_early, len(late)])
    fit = impute.penalized_logistic_mode(X, is_late, np.full(3, 100.0),
                                         impute.normal_prior, "propensity")
    if not fit.converged:
        _log.warning("propensity fit stopped at its cap of %d Newton steps "
                     "with max|gradient| %.3g", impute.MAX_NEWTON_ITER,
                     fit.max_gradient)
    propensity = impute._sigmoid(X @ fit.coefficients)
    p_early, p_late = propensity[:n_early], propensity[n_early:]

    width = caliper.width
    if width is None:
        width = 0.2 * float(np.std(propensity, ddof=1))
    penalty = caliper.penalty
    if penalty is None:
        penalty = 1000.0 * float(base.max())

    values = base.copy()
    violated = np.abs(p_early[:, None] - p_late[None, :]) > width
    values[violated] += penalty

    return DistanceMatrix(
        early_ids=tuple(c.cluster_id for c in early),
        late_ids=tuple(c.cluster_id for c in late),
        values=values,
        base=base,
        propensity_early=p_early,
        propensity_late=p_late,
        caliper_width=width,
        caliper_penalty=penalty,
    )


def assignment_indices(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Exact min-cost assignment of min(n, m) disjoint row/col pairs.

    The returned pair list (sorted by row) is the lexicographically
    smallest among all assignments whose cost is within
    1e-9 x max(1, |optimum|) of the optimum, so the result does not depend
    on solver internals when optima tie.

    One ``linear_sum_assignment`` call solves the matrix padded to square
    with zero-cost dummy rows and columns, placed after the real ones so a
    row goes unmatched only when no real column fits. The tie rule then
    follows from complementary slackness (Burkard, Dell'Amico & Martello,
    *Assignment Problems*, SIAM 2009, ch. 4): with dual potentials of the
    optimum, forcing row r onto column c costs the reduced cost of (r, c)
    plus the shortest reduced-cost alternating path from c's current row
    back to r's column. Rows are fixed in order. A row keeps its column
    unless a smaller column fits in the tolerance still unspent; then the
    assignment is re-augmented along that path and the potentials are
    shifted by the path distances. Rows with no smaller column whose
    reduced cost fits, which is almost every row of a tie-free matrix,
    cost no search at all.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise DataValidationError("cost matrix must be 2-D and nonempty")
    if not np.all(np.isfinite(cost)):
        raise DataValidationError("cost matrix entries must be finite")
    n, m = cost.shape
    size = max(n, m)
    square = np.zeros((size, size))
    square[:n, :m] = cost
    _, col_of = linear_sum_assignment(square)
    best = float(square[np.arange(size), col_of].sum())
    slack = 1e-9 * max(1.0, abs(best))
    row_of = np.argsort(col_of)
    u, v = _dual_potentials(square, col_of)
    open_rows = np.ones(size, dtype=bool)
    for r in range(n):
        open_rows[r] = False
        target = col_of[r]
        # smaller real columns of open rows; every dummy column means
        # "unmatched", so none of them is an alternative to another
        cols = np.arange(min(target, m))
        cols = cols[open_rows[row_of[cols]]]
        reduced = square[r, cols] - u[r] - v[cols]
        fits = reduced <= slack
        cols, reduced = cols[fits], reduced[fits]
        if not cols.size:
            continue
        dist, nxt = _distances_to(square, u, v, col_of, open_rows, target,
                                  slack - reduced.min())
        excess = reduced + dist[row_of[cols]]
        fits = np.flatnonzero(excess <= slack)
        if not fits.size:
            continue
        c = cols[fits[0]]
        slack -= float(excess[fits[0]])
        # shifting by the distances, capped at the chosen path's, keeps
        # every reduced cost nonnegative and the new assignment tight
        shift = np.minimum(dist, dist[row_of[c]])[open_rows]
        u[open_rows] += shift
        v[col_of[open_rows]] -= shift
        x = row_of[c]
        col_of[r], row_of[c] = c, r
        while True:
            y = nxt[x]
            owner = row_of[y]
            col_of[x], row_of[y] = y, x
            if y == target:
                break
            x = owner
    return [(r, int(col_of[r])) for r in range(n) if col_of[r] < m]


def _dual_potentials(cost: np.ndarray, col_of: np.ndarray):
    """Potentials u, v with cost - u[:, None] - v >= 0, tight on the
    optimal assignment ``col_of``.

    v on the column of row x is its shortest-path distance in the graph
    where row x moving to the column of row x' costs
    cost[x, col_of[x']] - cost[x, col_of[x]]; an optimal assignment has no
    negative cycle there. Dense Bellman-Ford, at most n sweeps.
    """
    n = len(col_of)
    own = cost[np.arange(n), col_of]
    step = cost[:, col_of] - own[:, None]
    w = np.zeros(n)
    for _ in range(n):
        shorter = np.minimum(w, (w[:, None] + step).min(axis=0))
        if np.array_equal(shorter, w):
            break
        w = shorter
    v = np.empty(n)
    v[col_of] = w
    return own - w, v


def _distances_to(cost, u, v, col_of, open_rows, target, bound):
    """Dijkstra over reduced costs, run backwards from column ``target``.

    dist[x] is the least reduced cost of an alternating path on which open
    row x leaves its column and each row on the path takes the column of
    the next, the last one taking ``target``; nxt[x] is the column x takes.
    Rows farther than ``bound``, and closed rows, read inf.
    """
    dist = np.where(open_rows, cost[:, target] - u - v[target], np.inf)
    nxt = np.full(len(dist), target)
    done = ~open_rows
    while True:
        x = int(np.argmin(np.where(done, np.inf, dist)))
        if done[x] or dist[x] > bound:
            break
        done[x] = True
        y = col_of[x]
        via = dist[x] + cost[:, y] - u - v[y]
        closer = ~done & (via < dist)
        dist[closer] = via[closer]
        nxt[closer] = y
    dist[~done] = np.inf
    return dist, nxt


def optimal_pairing(d: DistanceMatrix) -> List[Tuple[str, str]]:
    """Pair early with late cluster ids minimizing the total distance.

    Exactly min(n_early, n_late) disjoint pairs come back, ordered by
    early id position; ties between equal-cost optima break
    lexicographically on (early_id, late_id).
    """
    order_e = np.argsort(np.array(d.early_ids, dtype=object))
    order_l = np.argsort(np.array(d.late_ids, dtype=object))
    sorted_cost = d.values[np.ix_(order_e, order_l)]
    pairs = assignment_indices(sorted_cost)
    return [(d.early_ids[order_e[i]], d.late_ids[order_l[j]]) for i, j in pairs]


def match_country(
    early: Sequence[ClusterRecord],
    late: Sequence[ClusterRecord],
    caliper: CaliperSpec = CaliperSpec(),
) -> List[ClusterPair]:
    """Run the full step for one country: distances, assignment, and
    ClusterPair construction with the pair's rank distance and within-pair
    Haversine distance."""
    d = rank_mahalanobis(early, late, caliper)
    row = {cid: i for i, cid in enumerate(d.early_ids)}
    col = {cid: j for j, cid in enumerate(d.late_ids)}
    pairs = []
    for early_id, late_id in optimal_pairing(d):
        i, j = row[early_id], col[late_id]
        e, l = early[i], late[j]
        pairs.append(ClusterPair(
            early=e, late=l,
            geo_distance_km=haversine_km(e.location, l.location),
            rank_distance=float(d.values[i, j]),
        ))
    return pairs


# ---------------------------------------------------------------------------
# pairs.csv


def write_pairs_csv(pairs: Sequence[ClusterPair], path) -> None:
    """country, early_id, late_id, rank_distance, haversine_km, category.

    The category column stays empty until classification fills it.
    """
    write_csv(path, PAIRS_COLUMNS, ([
        p.country, p.early.cluster_id, p.late.cluster_id,
        fmt(p.rank_distance), fmt(p.geo_distance_km),
        "" if p.category is None else p.category.value,
    ] for p in pairs))


def read_pairs_csv(path, clusters_by_id) -> List[ClusterPair]:
    pairs: List[ClusterPair] = []
    for line, row in read_csv(path, PAIRS_COLUMNS,
                              unique=["early_id", "late_id"]):
        try:
            early = clusters_by_id[row["early_id"]]
            late = clusters_by_id[row["late_id"]]
        except KeyError as exc:
            raise DataValidationError(
                f"{path}:{line}: pair references unknown cluster {exc}"
            ) from None
        pairs.append(ClusterPair(
            early=early, late=late, category=row["category"],
            geo_distance_km=row["haversine_km"],
            rank_distance=row["rank_distance"],
        ))
    return pairs
