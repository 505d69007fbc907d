"""Outcome estimation: random-intercept linear probability model fitted by
REML, the four-cell contrast algebra, and Rubin's rules for pooling over
imputed data sets.

The REML criterion is profiled over the variance ratio theta =
sigma0^2/sigma1^2; for a random intercept the per-cluster inverse
(I + theta J)^-1 = I - theta/(1 + theta n_i) J collapses everything to
cluster totals, weighted only through the cluster size n_i. So once per fit
the outer products of the cluster totals are summed within each of the S
cluster sizes, and all M replicates are fitted together: one profile
evaluation takes one variance ratio per replicate, forms the bordered
matrix [X, y]'V^-1[X, y] from the S class sums in O(M S p^2), and reads the
criterion off one batched Cholesky factorisation of it (Bates and DebRoy,
JMVA 2004).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.special import stdtr, stdtrit

from ._util import fmt, write_csv
from .errors import ConvergenceError, DataValidationError
from .model import (COVARIATE_REGRESSORS, BirthRecord, ModelSpec,
                    PrevalenceLevel, Quadruple, covariate_row)
from .classify import prevalence_level

_log = logging.getLogger(__name__)

# Fixed-effect order of the outcome model: intercept, the three design
# indicators, then the covariate regressors.
INDICATOR_REGRESSORS: Tuple[str, ...] = (
    "low_prevalence", "late_period", "treated_pair",
)
REGRESSORS: Tuple[str, ...] = ("intercept",) + INDICATOR_REGRESSORS + COVARIATE_REGRESSORS

RESULTS_COLUMNS = ["regressor", "estimate", "ci_low", "ci_high", "p_value"]
DIAGNOSTICS_COLUMNS = ["regressor", "between_var", "within_var", "var_ratio"]


# ---------------------------------------------------------------------------
# design construction


@dataclass(frozen=True)
class InferenceDesign:
    """Everything fixed across imputation replicates: the design matrix,
    cluster coding, and the observed outcome.

    ``regressors`` names the columns of X. Covariate columns that are
    constant over the kept records (e.g. birth order under a first-born
    filter) are pruned, so they are the names of ``REGRESSORS`` missing
    from it.
    """

    records: Tuple[BirthRecord, ...]
    X: np.ndarray
    cluster_codes: np.ndarray
    cluster_ids: Tuple[str, ...]
    observed_lbw: np.ndarray            # nan where missing
    regressors: Tuple[str, ...] = REGRESSORS

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids)

    def covariate_names(self) -> Tuple[str, ...]:
        return tuple(n for n in self.regressors if n in COVARIATE_REGRESSORS)

    @property
    def cell_masks(self) -> Dict[str, np.ndarray]:
        """The rows of each design cell, read off the two indicator
        columns: treated (hl) or control (hh) pairs, early or late period."""
        late = self.X[:, self.regressors.index("late_period")] == 1.0
        treated = self.X[:, self.regressors.index("treated_pair")] == 1.0
        return {"hl_early": treated & ~late, "hl_late": treated & late,
                "hh_early": ~treated & ~late, "hh_late": ~treated & late}


def build_design(
    records: Sequence[BirthRecord],
    quadruples: Sequence[Quadruple],
    spec: ModelSpec = ModelSpec(),
) -> InferenceDesign:
    """Keep the births inside matched clusters and assemble Eq-style rows:
    intercept, low-prevalence / late-period / treated-pair indicators, and
    the covariate regressors."""
    if not quadruples:
        raise DataValidationError("no quadruples to build a design from")
    flags: Dict[str, Tuple[int, int, int]] = {}
    for q in quadruples:
        for cluster, treated in ((q.treated.early, 1), (q.treated.late, 1),
                                 (q.control.early, 0), (q.control.late, 0)):
            low = int(prevalence_level(
                cluster.pfpr_at(cluster.prevalence_year), spec
            ) is PrevalenceLevel.LOW)
            late = int(cluster.role.value == "late")
            flags[cluster.cluster_id] = (low, late, treated)

    kept = [r for r in records if r.cluster_id in flags]
    if not kept:
        raise DataValidationError("no birth records fall inside matched clusters")
    cluster_ids = tuple(sorted({r.cluster_id for r in kept}))
    code_of = {cid: i for i, cid in enumerate(cluster_ids)}

    rows, codes, observed = [], [], []
    for r in kept:
        low, late, treated = flags[r.cluster_id]
        rows.append([1.0, float(low), float(late), float(treated)]
                    + covariate_row(r))
        codes.append(code_of[r.cluster_id])
        observed.append(float("nan") if r.lbw is None else float(r.lbw))

    X = np.array(rows, dtype=float)
    # covariates made constant by a row filter are aliased with the
    # intercept; drop them instead of failing every replicate fit
    keep_cols = [j for j, name in enumerate(REGRESSORS)
                 if name not in COVARIATE_REGRESSORS
                 or X[:, j].min() != X[:, j].max()]
    return InferenceDesign(
        records=tuple(kept),
        X=X[:, keep_cols],
        cluster_codes=np.array(codes, dtype=np.int64),
        cluster_ids=cluster_ids,
        observed_lbw=np.array(observed, dtype=float),
        regressors=tuple(REGRESSORS[j] for j in keep_cols),
    )


# ---------------------------------------------------------------------------
# REML random-intercept fit


@dataclass(frozen=True)
class MixedFit:
    estimates: Dict[str, float]
    standard_errors: Dict[str, float]
    sigma0_sq: float
    sigma1_sq: float
    loglik: float
    converged: bool
    theta: float

    def estimate_vector(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.estimates[n] for n in names])


# Log theta is scanned on a grid, then refined by golden section in brackets
# of width 3 around the best grid point, shrunk by 1/phi per step to below
# 1e-10. A refined value within _EDGE_TOL of the outer bracket edges
# (-15.5, 11.5) did not locate an optimum.
_SCAN = np.linspace(-14.0, 10.0, 49)
_HALF_BRACKET = 1.5
_EDGE_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = math.ceil(math.log(1e-10 / 3.0) / math.log(_INVPHI))
# share of u'u an extra column must keep off the span of X
_COLLINEAR_TOL = 1e-9


class MixedModelData:
    """Per-cluster sufficient statistics of one design, shared by the fits
    of all replicates."""

    def __init__(self, X: np.ndarray, cluster_codes: np.ndarray,
                 names: Sequence[str] = REGRESSORS):
        X = np.asarray(X, dtype=float)
        cluster_codes = np.asarray(cluster_codes)
        if X.ndim != 2 or len(X) != len(cluster_codes):
            raise DataValidationError("design and cluster codes misaligned")
        if len(np.unique(cluster_codes)) < 2:
            raise DataValidationError("need at least 2 clusters")
        if len(names) != X.shape[1]:
            raise DataValidationError("regressor names do not match design width")
        self.names = tuple(names)
        order = np.argsort(cluster_codes, kind="stable")
        self.order = order
        self.X = X[order]
        codes = cluster_codes[order]
        self.n, self.p = X.shape
        self._check_rank()
        starts = np.concatenate([[0], np.flatnonzero(np.diff(codes)) + 1])
        self.starts = starts
        self.cluster_sizes = np.diff(np.concatenate([starts, [self.n]]))
        # V^-1 weights a cluster only through its size, so the clusters
        # are grouped into size classes
        self.sizes, self.size_counts = np.unique(self.cluster_sizes,
                                                 return_counts=True)
        self.xtx = self.X.T @ self.X
        self.cluster_x_totals = np.add.reduceat(self.X, starts, axis=0)

    def _check_rank(self):
        rank = np.linalg.matrix_rank(self.X)
        if rank < self.p:
            # pivoted QR puts the dependent columns last
            _, _, piv = scipy.linalg.qr(self.X, mode="economic", pivoting=True)
            bad = sorted(piv[rank:].tolist())
            cols = ", ".join(self.names[j] for j in bad)
            raise DataValidationError(f"design matrix is rank deficient; "
                                      f"collinear columns: {cols}")

    def _stats(self, Y, extra=None):
        """Per replicate i the cross products (M, k, k) of [X, V_i] and
        their size-class sums (M, S, k, k): class s sums t t' over the
        clusters of size ``sizes[s]``, with t a cluster's totals of
        [X, V_i]. V_i = [U[i], Y[i]] for ``extra`` = (name, U) and [Y[i]]
        otherwise. The sums are built one class at a time, so no (M, C, k)
        array is formed."""
        p, m, U = self.p, len(Y), None if extra is None else extra[1]
        k = p + 1 + (U is not None)
        gram = np.empty((m, k, k))
        v_totals = np.empty((m, len(self.starts), k - p))
        gram[:, :p, :p] = self.xtx
        for i, y in enumerate(Y):
            v = np.column_stack([y] if U is None else [U[i], y])
            v = v.astype(float)[self.order]
            gram[i, p:, :p] = v.T @ self.X
            gram[i, :p, p:] = gram[i, p:, :p].T
            gram[i, p:, p:] = v.T @ v
            v_totals[i] = np.add.reduceat(v, self.starts, axis=0)
        classes = np.empty((m, len(self.sizes), k, k))
        totals = np.empty((m, self.size_counts.max(), k))
        for j, size in enumerate(self.sizes):
            members = self.cluster_sizes == size
            t = totals[:, :self.size_counts[j]]
            t[..., :p] = self.cluster_x_totals[members]
            t[..., p:] = v_totals[:, members]
            np.einsum("mci,mcj->mij", t, t, out=classes[:, j])
        if U is not None:
            # u lies in the span of X when its residual on X, the Schur
            # complement of X'X, vanishes; X'X is scaled to unit diagonal
            s = 1.0 / np.sqrt(np.diag(self.xtx))
            w = scipy.linalg.solve_triangular(np.linalg.cholesky(
                self.xtx * np.outer(s, s)), (gram[:, p, :p] * s).T, lower=True)
            if np.any(gram[:, p, p] - (w * w).sum(axis=0)
                      <= _COLLINEAR_TOL * gram[:, p, p]):
                raise DataValidationError(f"design matrix is rank deficient; "
                                          f"collinear columns: {extra[0]}")
        return gram, classes

    def profile_criterion(self, theta: np.ndarray, stats) -> Tuple[np.ndarray, ...]:
        """-2 REML log-likelihood up to a constant, profiled over sigma1^2,
        at one variance ratio per replicate. Returns (criterion, rss, chol,
        z) with chol the Cholesky factor of X'V^-1X and z = chol^-1 X'V^-1y.

        On a cluster of size n, V^-1 = I - c J with c = theta / (1 + theta n),
        so [X, V]'V^-1[X, V] is the cross products less the size-class
        sums, each weighted by its class's c. One Cholesky factor
        L of that bordered matrix gives chol = L[:q, :q], z = L[q, :q] and
        rss = L[q, q]^2 (Bates and DebRoy 2004). Where it fails, each
        replicate is scored alone: the criterion is +inf where X'V^-1X is
        not positive definite and -inf where the residual vanishes."""
        gram, classes = stats
        q = gram.shape[-1] - 1
        c = theta[:, None] / (1.0 + theta[:, None] * self.sizes)
        # every einsum operand carries the replicate axis, which keeps each
        # replicate's sums independent of the batch
        w = gram - np.einsum("ms,msij->mij", c, classes)
        try:
            factor = np.linalg.cholesky(w)
            chol, z = factor[:, :q, :q], factor[:, q, :q]
            rss = factor[:, q, q] ** 2
        except np.linalg.LinAlgError:
            if len(theta) > 1:
                parts = [self.profile_criterion(
                    theta[i:i + 1], tuple(a[i:i + 1] for a in stats))
                    for i in range(len(theta))]
                return tuple(np.concatenate(part) for part in zip(*parts))
            try:
                chol = np.linalg.cholesky(w[:, :q, :q])
            except np.linalg.LinAlgError:
                return (np.full(1, np.inf), np.full(1, np.inf),
                        np.eye(q)[None], np.zeros((1, q)))
            z = scipy.linalg.solve_triangular(chol[0], w[0, :q, q], lower=True)[None]
            rss = np.maximum(w[:, q, q] - (z * z).sum(axis=1), 0.0)
        logdet_v = self.size_counts * np.log1p(theta[:, None] * self.sizes)
        logdet = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                  + logdet_v.sum(axis=1))
        with np.errstate(divide="ignore"):
            return (self.n - q) * np.log(rss) + logdet, rss, chol, z

    def _golden_section(self, lo, hi, stats):
        """Minimise the criterion over log theta in [lo, hi], one bracket
        per replicate; a fixed step count keeps replicates independent."""
        def crit(u):
            return self.profile_criterion(np.exp(u), stats)[0]

        c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        fc, fd = crit(c), crit(d)
        for _ in range(_GOLDEN_STEPS):
            left = fc < fd          # the minimum lies in [lo, d]
            lo, hi = np.where(left, lo, c), np.where(left, d, hi)
            x = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
            fx = crit(x)
            c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                            np.where(left, c, x), np.where(left, fc, fx))
        return np.where(fc < fd, c, d), np.minimum(fc, fd)

    def fit(self, Y, extra: Optional[Tuple[str, np.ndarray]] = None) -> List[MixedFit]:
        """REML fits of the outcome vectors Y[0..M-1], in order. ``extra`` =
        (name, U) adds a regressor that differs by replicate: row i of the
        (M, n) array U goes with Y[i]."""
        names = self.names + (() if extra is None else (extra[0],))
        stats = self._stats(Y, extra)
        m, q = len(Y), len(names)
        crit0, rss0, _, _ = self.profile_criterion(np.zeros(m), stats)
        # degenerate outcome: zero residual variation at theta = 0. It keeps
        # theta = 0 and stays out of the search, where its vanishing
        # residual would have every evaluation score the batch one
        # replicate at a time
        degenerate = rss0 <= 1e-12 * np.maximum(1.0, stats[0][:, q, q])
        live = ~degenerate
        # a copy of the statistics only when some replicate is left out
        search = stats if live.all() else tuple(a[live] for a in stats)
        u = _SCAN[np.argmin([
            self.profile_criterion(np.full(live.sum(), math.exp(g)), search)[0]
            for g in _SCAN], axis=0)]
        u, best = self._golden_section(u - _HALF_BRACKET, u + _HALF_BRACKET, search)
        theta, on_edge = np.zeros(m), np.zeros(m, dtype=bool)
        theta[live] = np.where(crit0[live] <= best, 0.0, np.exp(u))
        lo, hi = _SCAN[0] - _HALF_BRACKET, _SCAN[-1] + _HALF_BRACKET
        on_edge[live] = (theta[live] > 0) & ((u < lo + _EDGE_TOL)
                                             | (u > hi - _EDGE_TOL))
        if on_edge.any():
            _log.warning("%d of %d REML fits ended on the edge of the log "
                         "variance-ratio range [%g, %g]; they are marked "
                         "not converged", on_edge.sum(), m, lo, hi)
        criterion, rss, chol, z = self.profile_criterion(theta, stats)
        if not np.isfinite(criterion[live]).all():
            raise ConvergenceError("REML profile criterion is not finite")
        gamma = np.linalg.solve(np.swapaxes(chol, 1, 2), z[..., None])[..., 0]
        sigma1_sq = np.where(degenerate, 0.0, rss / (self.n - q))
        # diag((X'V^-1X)^-1) holds the column sums of squares of chol^-1
        se = np.sqrt(sigma1_sq[:, None] * (np.linalg.inv(chol) ** 2).sum(axis=1))
        # the REML log-likelihood at sigma1^2 = rss / (n - q)
        loglik = np.where(degenerate, math.inf, -0.5 * (
            criterion + (self.n - q) * (math.log(2.0 * math.pi / (self.n - q)) + 1.0)))
        return [MixedFit(estimates=dict(zip(names, gamma[i])),
                         standard_errors=dict(zip(names, se[i])),
                         sigma0_sq=float(theta[i] * sigma1_sq[i]),
                         sigma1_sq=float(sigma1_sq[i]), loglik=float(loglik[i]),
                         converged=not on_edge[i], theta=float(theta[i]))
                for i in range(m)]


def fit_mixed_lpm(
    X: np.ndarray,
    cluster_codes: np.ndarray,
    y: np.ndarray,
    names: Sequence[str] = REGRESSORS,
) -> MixedFit:
    """One-shot REML fit of the random-intercept linear probability model."""
    return MixedModelData(X, cluster_codes, names).fit([y])[0]


# ---------------------------------------------------------------------------
# contrast algebra


def did_contrasts(a: float, b: float, c: float, d: float) -> Tuple[float, float, float]:
    """(k1, k2, k3) from the four cell means: a = treated early, b =
    treated late, c = control early, d = control late."""
    k2 = d - c
    k1 = (b - a) - (d - c)
    k3 = a - c
    return k1, k2, k3


# ---------------------------------------------------------------------------
# Rubin's rules


@dataclass(frozen=True)
class PooledEstimate:
    estimate: float
    between_var: float
    within_var: float
    total_var: float
    df: float                      # inf when between_var is 0
    ci_low: float
    ci_high: float
    p_value: float

    @property
    def var_ratio(self) -> float:
        if self.within_var == 0.0:
            return 0.0 if self.between_var == 0.0 else math.inf
        return self.between_var / self.within_var


def _pool_one(estimates: np.ndarray, variances: np.ndarray) -> PooledEstimate:
    m = len(estimates)
    gamma_bar = float(estimates.mean())
    b = float(estimates.var(ddof=1))
    v_bar = float(variances.mean())
    t_total = (1.0 + 1.0 / m) * b + v_bar
    if b == 0.0:
        df = math.inf
    else:
        df = (m - 1) * (1.0 + v_bar / ((1.0 + 1.0 / m) * b)) ** 2
    if t_total == 0.0:
        half = 0.0
        p_value = 1.0 if gamma_bar == 0.0 else 0.0
    else:
        # Student t quantile and upper tail, as scipy.stats.t computes them
        half = float(stdtrit(df, 0.975)) * math.sqrt(t_total)
        stat = abs(gamma_bar) / math.sqrt(t_total)
        p_value = float(2.0 * stdtr(df, -stat))
    return PooledEstimate(
        estimate=gamma_bar, between_var=b, within_var=v_bar,
        total_var=t_total, df=df,
        ci_low=gamma_bar - half, ci_high=gamma_bar + half, p_value=p_value,
    )


def rubin_combine(
    estimates: np.ndarray,
    variances: np.ndarray,
    names: Optional[Sequence[str]] = None,
) -> Dict[str, PooledEstimate]:
    """Pool per-replicate estimates and squared standard errors.

    ``estimates`` and ``variances`` are (M,) arrays for one regressor or
    (M, p) arrays for p, never transposed; M >= 2, and ``names`` (default
    g0, g1, ...) must hold p names. The total variance is (1 + 1/M) B +
    Vbar and the t degrees of freedom are (M - 1) [1 + Vbar / ((1 + 1/M)
    B)]^2, degenerating to normal quantiles when B = 0.
    """
    estimates = np.asarray(estimates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if estimates.shape != variances.shape:
        raise DataValidationError("estimates and variances misaligned")
    if estimates.ndim == 1:
        estimates, variances = estimates[:, None], variances[:, None]
    if estimates.ndim != 2:
        raise DataValidationError(
            f"estimates must be (M,) or (M, p), not {estimates.shape}")
    if estimates.shape[0] < 2:
        raise DataValidationError("Rubin pooling needs M >= 2 replicates")
    if names is None:
        names = [f"g{j}" for j in range(estimates.shape[1])]
    if len(names) != estimates.shape[1]:
        raise DataValidationError(
            f"{len(names)} names for {estimates.shape[1]} pooled regressors")
    return {
        name: _pool_one(estimates[:, j], variances[:, j])
        for j, name in enumerate(names)
    }


# ---------------------------------------------------------------------------
# the pooled primary analysis


@dataclass(frozen=True)
class PrimaryResult:
    pooled: Dict[str, PooledEstimate]
    naive_k1: float
    naive_k2: float
    naive_k3: float
    covariate_drift: float
    m: int
    n_records: int
    n_clusters: int
    sigma0_sq_mean: float
    sigma1_sq_mean: float


def _cell_rate(observed: np.ndarray, mask: np.ndarray) -> float:
    values = observed[mask]
    values = values[~np.isnan(values)]
    if len(values) == 0:
        return math.nan
    return float(values.mean())


def fit_and_pool(design: InferenceDesign, imputed_sets,
                 extra: Optional[Tuple[str, np.ndarray]] = None):
    """Fit every completed data set in one batch (``extra`` as in
    ``MixedModelData.fit``) and pool by Rubin's rules. Returns (fits,
    pooled)."""
    if len(imputed_sets) < 2:
        raise DataValidationError("pooling needs M >= 2 imputations")
    data = MixedModelData(design.X, design.cluster_codes, design.regressors)
    fits = data.fit([s.lbw for s in imputed_sets], extra)
    names = tuple(fits[0].estimates)
    est = np.array([f.estimate_vector(names) for f in fits])
    var = np.array([[f.standard_errors[n] ** 2 for n in names] for f in fits])
    return fits, rubin_combine(est, var, names)


def run_primary_analysis(design: InferenceDesign, imputed_sets) -> PrimaryResult:
    """Fit the outcome model on every completed data set, pool by Rubin's
    rules, and report the naive four-cell contrast and the covariate drift
    term over treated pairs for comparison."""
    names = design.regressors
    fits, pooled = fit_and_pool(design, imputed_sets)

    cells = design.cell_masks
    a = _cell_rate(design.observed_lbw, cells["hl_early"])
    b = _cell_rate(design.observed_lbw, cells["hl_late"])
    c = _cell_rate(design.observed_lbw, cells["hh_early"])
    d = _cell_rate(design.observed_lbw, cells["hh_late"])
    naive_k1, naive_k2, naive_k3 = did_contrasts(a, b, c, d)

    covariates = design.covariate_names()
    beta = np.array([pooled[n].estimate for n in covariates])
    cov_cols = [names.index(n) for n in covariates]
    early = design.X[np.ix_(cells["hl_early"], cov_cols)]
    late = design.X[np.ix_(cells["hl_late"], cov_cols)]
    if len(early) and len(late):
        drift = float(beta @ (late.mean(axis=0) - early.mean(axis=0)))
    else:
        drift = math.nan

    return PrimaryResult(
        pooled=pooled,
        naive_k1=naive_k1, naive_k2=naive_k2, naive_k3=naive_k3,
        covariate_drift=drift,
        m=len(imputed_sets),
        n_records=design.n_records,
        n_clusters=design.n_clusters,
        sigma0_sq_mean=float(np.mean([f.sigma0_sq for f in fits])),
        sigma1_sq_mean=float(np.mean([f.sigma1_sq for f in fits])),
    )


# ---------------------------------------------------------------------------
# artifacts


def write_results_csv(pooled: Mapping[str, PooledEstimate], path) -> None:
    write_csv(path, RESULTS_COLUMNS, (
        [name, fmt(p.estimate), fmt(p.ci_low), fmt(p.ci_high), fmt(p.p_value)]
        for name, p in pooled.items()))


def write_diagnostics_csv(pooled: Mapping[str, PooledEstimate], path) -> None:
    write_csv(path, DIAGNOSTICS_COLUMNS, (
        [name, fmt(p.between_var), fmt(p.within_var), fmt(p.var_ratio)]
        for name, p in pooled.items()))
