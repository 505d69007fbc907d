"""Outcome estimation: random-intercept linear probability model fitted by
REML, the four-cell contrast algebra, and Rubin's rules for pooling over
imputed data sets.

The REML criterion is profiled over the variance ratio theta =
sigma0^2/sigma1^2. On a cluster of size n_i, V^-1 = I - theta/(1 + theta
n_i) J, so once per fit the outer products of the cluster totals are summed
within each of the S cluster sizes. The M replicates are fitted together,
in consecutive blocks of at most 64 (_BLOCK), so that the statistics held
at once do not grow with M. An evaluation forms the bordered matrix [X,
y]'V^-1[X, y] from the S class sums, reads the criterion off its batched
Cholesky factor (Bates and DebRoy, JMVA 2004) and its first two derivatives
in log theta off the factor's inverse. Each replicate's optimum is found by
a safeguarded Newton iteration (Lindstrom and Bates, JASA 1988) from the
best point of a 49-point scan, which factors X'V^-1X once per scan point
and borders it with each replicate's own rows; every fit, with or without
an extra column, searches this one way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence, Tuple

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
    """The REML fits of M replicates, row i replicate i's: (M, q) estimates
    and standard errors of the regressors ``names``, the rest (M,) arrays."""
    names: Tuple[str, ...]
    estimates: np.ndarray
    standard_errors: np.ndarray
    sigma0_sq: np.ndarray
    sigma1_sq: np.ndarray
    loglik: np.ndarray
    converged: np.ndarray
    theta: np.ndarray


# Log theta is searched over [_LOG_THETA_LO, _LOG_THETA_HI] by Newton, from
# the best point of the _SCAN grid, to a step below _STEP_TOL. A fit ending
# within _EDGE_TOL of an end located no optimum.
_SCAN = np.linspace(-14.0, 10.0, 49)
# scan points scored at once, which bounds the scan's working set
_SCAN_CHUNK = 7
_LOG_THETA_LO, _LOG_THETA_HI = -15.5, 11.5
_EDGE_TOL = 1e-9
_STEP_TOL = 1e-10
_MAX_STEPS = 100
# replicates fitted together; a replicate's fit is bit-independent of its
# block, and 64 keeps the M = 50 refits of a quickstart sweep point in one
_BLOCK = 64
# share of u'u an extra column must keep off the span of X
_COLLINEAR_TOL = 1e-9


def _inverse_lower(factor: np.ndarray) -> np.ndarray:
    """Inverses of stacked lower triangular matrices, a row at a time."""
    inv = np.zeros_like(factor)
    for i in range(factor.shape[-1]):
        inv[:, i, i] = 1.0
        inv[:, i, :i] = -(factor[:, i, None, :i] @ inv[:, :i, :i])[:, 0]
        inv[:, i, :i + 1] /= factor[:, i, i, None]
    return inv


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
        self.x_classes = np.array([t.T @ t for t in (
            self.cluster_x_totals[self.cluster_sizes == size] for size in self.sizes)])

    def _check_rank(self):
        rank = np.linalg.matrix_rank(self.X)
        if rank < self.p:
            # pivoted QR puts the dependent columns last
            _, _, piv = scipy.linalg.qr(self.X, mode="economic", pivoting=True)
            bad = sorted(piv[rank:].tolist())
            cols = ", ".join(self.names[j] for j in bad)
            raise DataValidationError(f"design matrix is rank deficient; "
                                      f"collinear columns: {cols}")

    def _border(self, base, v, V) -> Tuple[np.ndarray, ...]:
        """The statistics ``base`` of [X, V] with a column v[i] after X for
        each replicate i, and the cluster totals (M, C, 1 + len(V)) of [v[i],
        V]: only its row and column, each replicate's from its own
        operands."""
        p, m, k = self.p, len(v), base[0].shape[-1] + 1
        keep = np.r_[:p, p + 1:k]
        gram, classes = (np.empty(a.shape[:-2] + (k, k)) for a in base)
        gram[:, keep[:, None], keep], classes[..., keep[:, None], keep] = base
        totals = np.empty((m, len(self.starts), 1 + len(V)))
        for i, cols in enumerate(zip(v, *V)):
            w = np.take(np.asarray(cols, dtype=float), self.order, axis=1)
            gram[i, p] = np.concatenate([w[0] @ self.X, w @ w[0]])
            totals[i] = np.add.reduceat(w, self.starts, axis=1).T
        gram[:, :, p] = gram[:, p]
        self._border_classes(classes, totals)
        return gram, classes, totals

    def _border_classes(self, classes, totals) -> None:
        """Row and column p of the size-class sums ``classes`` from the
        cluster totals of the bordering column and of the columns after it,
        a class at a time (no (M, C, k) array)."""
        p, m = self.p, len(totals)
        t = np.empty((m, self.size_counts.max(), classes.shape[-1]))
        for j, size in enumerate(self.sizes):
            members, part = self.cluster_sizes == size, t[:, :self.size_counts[j]]
            part[..., :p] = self.cluster_x_totals[members]
            part[..., p:] = totals[:, members]
            np.einsum("mc,mcj->mj", part[..., p], part, out=classes[:, j, p])
        classes[:, :, :, p] = classes[:, :, p]

    def outcomes(self, Y) -> Tuple[np.ndarray, np.ndarray]:
        """Per replicate i the cross products (M, k, k) of [X, Y[i]] and
        their size-class sums (M, S, k, k), which every fit of Y shares and
        a column U borders (``_border(outcomes(Y), U, [Y])``)."""
        return self._border(tuple(np.broadcast_to(a, (len(Y),) + a.shape)
                                  for a in (self.xtx, self.x_classes)), Y, [])[:2]

    @cached_property
    def _scan_factor(self) -> Tuple[np.ndarray, ...]:
        """At each theta of _SCAN, for every fit of this design: the class
        weights c, the inverse of the Cholesky factor of X'V^-1X, and its
        log-determinant plus log det V (+inf where it does not factor)."""
        theta = np.exp(_SCAN)[:, None]
        c = theta / (1.0 + theta * self.sizes)
        # the class terms summed in the order ``profile_criterion`` sums them
        w = self.xtx - sum(c[:, j, None, None] * x
                           for j, x in enumerate(self.x_classes))
        chol = np.broadcast_to(np.eye(self.p), w.shape).copy()
        failed = np.zeros(len(_SCAN), dtype=bool)
        try:
            chol[:] = np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            for g, a in enumerate(w):
                try:
                    chol[g] = np.linalg.cholesky(a)
                except np.linalg.LinAlgError:
                    failed[g] = True
        logdet = (2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
                  + (self.size_counts * np.log1p(theta * self.sizes)).sum(axis=1))
        logdet[failed] = np.inf
        return c, _inverse_lower(chol), logdet

    def scan_criterion(self, stats) -> np.ndarray:
        """``profile_criterion`` of each replicate at each theta of _SCAN,
        within rounding: a (len(_SCAN), M) array. Each replicate borders the
        shared factor of X'V^-1X (``_scan_factor``) with its rows B = [B_X,
        B_V] of U (if any) and y: with R the factor's inverse and Z = B_X R',
        the Schur complement B_V - Z Z' holds U's pivot and y's residual. A
        pivot <= 0 or an X'V^-1X that does not factor scores +inf, a
        residual <= 0 -inf. Products are per replicate (no GEMM across
        replicates), so a replicate's scores do not depend on the batch."""
        gram, classes = stats
        p, q = self.p, gram.shape[-1] - 1
        c, inv, logdet = self._scan_factor
        scores = np.empty((len(_SCAN), len(gram)))
        for lo in range(0, len(_SCAN), _SCAN_CHUNK):
            g = slice(lo, lo + _SCAN_CHUNK)
            b = gram[:, p:] - sum(c[g, j, None, None, None] * classes[:, j, p:]
                                  for j in range(len(self.sizes)))
            z = b[..., :p] @ np.swapaxes(inv[g], 1, 2)[:, None]
            schur = b[..., p:] - z @ np.swapaxes(z, 2, 3)
            rss, pivot = schur[..., -1, -1], schur[..., 0, 0]
            logdet_q = logdet[g, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                if q > p:
                    rss = rss - schur[..., 1, 0] ** 2 / pivot
                    logdet_q = logdet_q + np.log(pivot)
                crit = (self.n - q) * np.log(np.maximum(rss, 0.0)) + logdet_q
            factored = np.isfinite(logdet[g, None]) & ((q == p) | (pivot > 0))
            scores[g] = np.where(factored, crit, np.inf)
        return scores

    @cached_property
    def _unit_xtx(self) -> Tuple[np.ndarray, np.ndarray]:
        """The scales s that give X'X a unit diagonal, and the Cholesky
        factor of X'X so scaled."""
        s = 1.0 / np.sqrt(np.diag(self.xtx))
        return s, np.linalg.cholesky(self.xtx * np.outer(s, s))

    def _check_column(self, gram, name: str) -> None:
        """Refuse a bordering column, row p of the cross products ``gram``,
        that lies in the span of X: its residual on X, the Schur complement
        of X'X, vanishes."""
        p, (s, factor) = self.p, self._unit_xtx
        w = scipy.linalg.solve_triangular(factor, (gram[:, p, :p] * s).T,
                                          lower=True)
        if np.any(gram[:, p, p] - (w * w).sum(axis=0)
                  <= _COLLINEAR_TOL * gram[:, p, p]):
            raise DataValidationError(f"design matrix is rank deficient; "
                                      f"collinear columns: {name}")

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
        not positive definite and -inf where the residual vanishes. A fit
        scores its scan with ``scan_criterion``, and all else with this."""
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

    def _newton_terms(self, u: np.ndarray, stats) -> Tuple[np.ndarray, ...]:
        """f = (n - q - 1) log rss + log det W + sum_s k_s log(1 + theta n_s)
        at theta = exp(u) and f_u, f_uu (nan where f is not finite). With W =
        L L', R = L^-1, E = R A R', F = R B R' for W_u = -A, W_uu = -B: (log
        det W)_u = -tr E, (log det W)_uu = -tr F - |E|^2, (log rss)_u = -E_qq,
        (log rss)_uu = E_qq^2 - 2 |E_q.|^2 - F_qq."""
        theta = np.exp(u)
        criterion, rss, chol, z = self.profile_criterion(theta, stats)
        q = len(z[0])
        factor = np.zeros_like(stats[0])
        factor[:, :q, :q], factor[:, q, :q], factor[:, q, q] = chol, z, np.sqrt(rss)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = _inverse_lower(factor)
            d = 1.0 + theta[:, None] * self.sizes
            a = theta[:, None] / d ** 2     # c_s'(u); c_s''(u) = a (2 / d - 1)
            # of F = R B R' only tr F = sum (R B) * R and F_qq are needed
            rb = inv @ np.einsum("ms,msij->mij", a * (2.0 / d - 1.0), stats[1])
            tr_f, f_qq = (rb * inv).sum(axis=(1, 2)), (rb[:, q] * inv[:, q]).sum(axis=1)
            e = inv @ np.einsum("ms,msij->mij", a, stats[1]) @ np.swapaxes(inv, 1, 2)
            r, v = self.n - q - 1, self.size_counts * theta[:, None] * self.sizes / d
            grad = -r * e[:, q, q] - np.trace(e, axis1=1, axis2=2) + v.sum(axis=1)
            hess = (r * (e[:, q, q] ** 2 - 2.0 * (e[:, q] ** 2).sum(axis=1) - f_qq)
                    - tr_f - (e * e).sum(axis=(1, 2)) + (v / d).sum(axis=1))
        grad[~np.isfinite(criterion)] = hess[~np.isfinite(criterion)] = np.nan
        return criterion, grad, hess

    def _newton(self, u: np.ndarray, stats) -> Tuple[np.ndarray, ...]:
        """Minimise the criterion over log theta from ``u``, each replicate
        in a bracket shrunk by its gradient's sign, by Newton's step in c =
        theta / (1 + theta n0) (n0 the smallest cluster size) or else in log
        theta, where convex and in the bracket, else by bisection; a step
        past an end lands on it. A replicate stops when its step falls below
        _STEP_TOL or when it would step back to its previous iterate: there
        the gradient is rounding noise, and the iterates would cycle until
        _MAX_STEPS. Returns (u, criterion, steps, still going at _MAX_STEPS,
        evaluations)."""
        m, n0, evals = len(u), self.sizes[0], 0
        lo, hi = np.full(m, _LOG_THETA_LO), np.full(m, _LOG_THETA_HI)
        best, steps = np.empty(m), np.zeros(m, dtype=np.int64)
        previous = np.full(m, np.nan)
        active = np.ones(m, dtype=bool)
        while (active & (steps < _MAX_STEPS)).any():
            rows = np.flatnonzero(active & (steps < _MAX_STEPS))
            # while most rows are searching, all are scored, with no copy
            sub, pick = (slice(None), rows) if 2 * len(rows) > m else (rows, slice(None))
            f, g, h = (t[pick] for t in self._newton_terms(
                u[sub], tuple(a[sub] for a in stats)))
            x, best[rows] = u[rows], f
            steps[rows], evals = steps[rows] + 1, evals + 1
            lo[rows[g < 0]], hi[rows[g > 0]] = x[g < 0], x[g > 0]
            # c'(u) = c / w, c''(u) = c'(u) (2 / w - 1): curvature = f_cc c'^2
            theta = np.exp(x)
            w = 1.0 + theta * n0
            curvature = h - g * (2.0 / w - 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                c = theta / w * (1.0 - g / (w * curvature))
                t = np.where(curvature > 0, np.where(
                    c * n0 >= 1.0, np.inf,
                    np.log(np.maximum(c, 0.0) / (1.0 - c * n0))),
                    np.where(h > 0, x - g / h, np.nan))
            t = np.clip(t, _LOG_THETA_LO, _LOG_THETA_HI)
            t = np.where((lo[rows] <= t) & (t <= hi[rows]), t,
                         0.5 * (lo[rows] + hi[rows]))
            stop = (np.abs(t - x) < _STEP_TOL) | (t == previous[rows])
            u[rows], previous[rows] = np.where(stop, x, t), x
            active[rows[stop]] = False
        return u, best, steps, active, evals

    def fit(self, Y, name: Optional[str] = None, stats=None) -> MixedFit:
        """REML fits of the outcome vectors Y[0..M-1], one ``MixedFit`` whose
        row i is Y[i]'s. ``stats``, if given, are the caller's
        ``outcomes(Y)``, or those bordered by a column that differs by
        replicate, ``_border(outcomes(Y), U, [Y])[:2]`` with row i of the
        (M, n) array U going with Y[i]; ``name`` names that column, which is
        refused if collinear with X, and is refused without ``stats``. A
        sensitivity sweep passes the statistics it updates between grid
        points, one block at a time, and reports the fits that did not
        converge; otherwise one warning counts them.

        The replicates are fitted in consecutive blocks of _BLOCK, which
        bounds the statistics held at once whatever M is; a replicate's fit
        does not depend on its block."""
        if name is not None and stats is None:
            raise DataValidationError(
                f"column {name!r} came without stats=: a named column "
                f"reaches fit only through stats=, the statistics it borders")
        names = self.names + (() if name is None else (name,))
        blocks, parts = range(0, len(Y), _BLOCK), []
        for b, lo in enumerate(blocks):
            rows = slice(lo, lo + _BLOCK)
            parts.append(self._fit_block(
                self.outcomes(Y[rows]) if stats is None
                else tuple(a[rows] for a in stats),
                names, f"block {b + 1} of {len(blocks)}"))
        fits = MixedFit(names, *map(np.concatenate, zip(*parts)))
        if stats is None:
            warn_unconverged(np.count_nonzero(~fits.converged), len(Y))
        return fits

    def _fit_block(self, stats, names, block) -> Tuple[np.ndarray, ...]:
        """``fit`` of one block, named ``block`` in its DEBUG record, from
        its statistics: the fields of its ``MixedFit`` after ``names``. The
        scan is scored in one call, then Newton and the end comparisons
        evaluate ``profile_criterion``."""
        m, q = len(stats[0]), len(names)
        if q > self.p:
            self._check_column(stats[0], names[-1])
        crit0, rss0, _, _ = self.profile_criterion(np.zeros(m), stats)
        # degenerate outcome: zero residual variation at theta = 0. It keeps
        # theta = 0 and stays out of the search, where its vanishing
        # residual would have every evaluation score the batch one
        # replicate at a time
        degenerate = rss0 <= 1e-12 * np.maximum(1.0, stats[0][:, q, q])
        live = ~degenerate
        # a copy of the statistics only when some replicate is left out
        search = stats if live.all() else tuple(a[live] for a in stats)
        # Newton from the best point of the scan
        k = len(search[0])
        scores = self.scan_criterion(search)
        u, best, steps, stopped, evals = self._newton(
            _SCAN[np.argmin(scores, axis=0)], search)
        _log.debug("REML search of %d replicates, %s: %d scan and %d Newton "
                   "calls, at most %d steps", k, block, len(scores), evals,
                   steps.max(initial=0))
        edge = (u < _LOG_THETA_LO + _EDGE_TOL) | (u > _LOG_THETA_HI - _EDGE_TOL)
        # the scan stops short of the upper end of the range, so a criterion
        # still falling there is seen only at the end: an edge stop
        top = self.profile_criterion(np.full(k, np.exp(_LOG_THETA_HI)), search)[0]
        past = top < np.minimum(best, crit0[live])
        u[past], best[past], edge[past] = _LOG_THETA_HI, top[past], True
        theta, unconverged = np.zeros(m), np.zeros(m, dtype=bool)
        theta[live] = np.where(crit0[live] <= best, 0.0, np.exp(u))
        unconverged[live] = stopped | ((theta[live] > 0) & edge)
        criterion, rss, chol, z = self.profile_criterion(theta, stats)
        # the statistics are done with; unless the caller keeps them,
        # freeing them here keeps the peak memory of a fit at its search's
        del stats, search
        if not np.isfinite(criterion[live]).all():
            raise ConvergenceError("REML profile criterion is not finite")
        inv = _inverse_lower(chol)
        gamma = (z[:, None] @ inv)[:, 0]
        sigma1_sq = np.where(degenerate, 0.0, rss / (self.n - q))
        # diag((X'V^-1X)^-1) holds the column sums of squares of chol^-1
        se = np.sqrt(sigma1_sq[:, None] * (inv ** 2).sum(axis=1))
        # the REML log-likelihood at sigma1^2 = rss / (n - q)
        loglik = np.where(degenerate, math.inf, -0.5 * (
            criterion + (self.n - q) * (math.log(2.0 * math.pi / (self.n - q)) + 1.0)))
        return gamma, se, theta * sigma1_sq, sigma1_sq, loglik, ~unconverged, theta


def warn_unconverged(count: int, m: int) -> None:
    """The one warning that counts the fits of M that did not converge."""
    if count:
        _log.warning("%d of %d REML fits ended on the edge of the log "
                     "variance-ratio range [%g, %g] or stopped before "
                     "converging; they are marked not converged",
                     count, m, _LOG_THETA_LO, _LOG_THETA_HI)


def fit_mixed_lpm(
    X: np.ndarray,
    cluster_codes: np.ndarray,
    y: np.ndarray,
    names: Sequence[str] = REGRESSORS,
) -> MixedFit:
    """One-shot REML fit of the random-intercept LPM: a one-row MixedFit."""
    return MixedModelData(X, cluster_codes, names).fit([y])


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


def run_primary_analysis(design: InferenceDesign, imputed) -> PrimaryResult:
    """Fit the outcome model on every completed data set, a row of the
    (M, n) outcome matrix ``imputed``, pool by Rubin's rules, and report
    the naive four-cell contrast and the covariate drift term over treated
    pairs for comparison."""
    names = design.regressors
    fits = MixedModelData(design.X, design.cluster_codes, names).fit(imputed)
    pooled = rubin_combine(fits.estimates, fits.standard_errors ** 2, names)

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
        m=len(imputed),
        n_records=design.n_records,
        n_clusters=design.n_clusters,
        sigma0_sq_mean=float(np.mean(fits.sigma0_sq)),
        sigma1_sq_mean=float(np.mean(fits.sigma1_sq)),
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
