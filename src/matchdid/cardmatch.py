"""Selection and pairing of treated (high-to-low) with control
(stayed-high) cluster pairs under covariate balance constraints.

The selection maximizes the number of matched quadruples subject to all 12
after-matching absolute standardized differences (6 covariates for the
early clusters, 6 for the late) staying at or under a threshold, with the
denominator frozen at the before-matching pooled sd so the constraints are
linear in the selection indicators. That is the cardinality-matching
integer program of Zubizarreta, Paredes & Rosenbaum (2014), solved in one
HiGHS MILP call. The solver's branch and bound is capped at ``_MAX_NODES``
nodes, a count rather than a time limit so the chosen subset does not
depend on machine speed. If the cap stops it before optimality, its best
integer solution (the incumbent) is returned with a logged warning; either
way the selection is verified against the constraints before it is
returned.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ._util import fmt, read_csv, write_csv
from .errors import ConvergenceError, DataValidationError
from .geomatch import assignment_indices
from .model import COVARIATE_NAMES, ClusterPair, Quadruple

QUADRUPLES_COLUMNS = dict.fromkeys(["treated_early_id", "treated_late_id",
                                    "control_early_id", "control_late_id"],
                                   str)

# slack applied to every constraint comparison so boundary-tight LP
# solutions are not rejected by the last float ulp
_FEAS_EPS = 1e-9

# branch-and-bound node cap of the selection MILP; no benchmark or test
# instance comes near it (the largest needs a few hundred nodes)
_MAX_NODES = 10_000

_log = logging.getLogger(__name__)


def std_diff(treated, control) -> float:
    """Absolute difference in means in pooled standard deviation units.

    The pooled sd is sqrt((var_T + var_C) / 2) with sample variances. A
    zero pooled sd gives 0 for equal means and +inf otherwise.
    """
    t = np.asarray(treated, dtype=float)
    c = np.asarray(control, dtype=float)
    if t.size == 0 or c.size == 0:
        raise DataValidationError("std_diff needs nonempty groups")
    var_t = float(t.var(ddof=1)) if t.size > 1 else 0.0
    var_c = float(c.var(ddof=1)) if c.size > 1 else 0.0
    s_pool = math.sqrt((var_t + var_c) / 2.0)
    gap = abs(float(t.mean()) - float(c.mean()))
    if s_pool == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / s_pool


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    period: str
    treated_mean_before: float
    control_mean_before: float
    treated_mean_after: float      # nan when the match is empty
    control_mean_after: float
    stddiff_before: float
    stddiff_after: float


BALANCE_COLUMNS = [f.name for f in fields(BalanceRow)]


@dataclass(frozen=True)
class BalanceReport:
    rows: Tuple[BalanceRow, ...]
    n_matched: int

    def is_balanced(self, threshold: float) -> bool:
        if self.n_matched == 0:
            return True
        return all(r.stddiff_after <= threshold + _FEAS_EPS for r in self.rows)


def pair_covariates(pair: ClusterPair) -> Tuple[float, ...]:
    """The 12-vector (early block then late block) used for balance."""
    return pair.early.covariate_vector() + pair.late.covariate_vector()


def _covariate_labels() -> List[Tuple[str, str]]:
    return ([(n, "early") for n in COVARIATE_NAMES]
            + [(n, "late") for n in COVARIATE_NAMES])


def _pooled_sd(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    var_t = x.var(axis=0, ddof=1) if len(x) > 1 else np.zeros(x.shape[1])
    var_c = y.var(axis=0, ddof=1) if len(y) > 1 else np.zeros(y.shape[1])
    return np.sqrt((var_t + var_c) / 2.0)


def selection_feasible(
    x: np.ndarray, y: np.ndarray, sel_t: Sequence[int], sel_c: Sequence[int],
    tau: np.ndarray,
) -> bool:
    """Check |sum_sel x - sum_sel y| <= k * tau componentwise (the linear
    form of the after-matching balance constraints)."""
    k = len(sel_t)
    if k != len(sel_c):
        return False
    if k == 0:
        return True
    diff = np.abs(x[list(sel_t)].sum(axis=0) - y[list(sel_c)].sum(axis=0))
    return bool(np.all(diff <= k * tau + _FEAS_EPS * (1.0 + k * tau)))


def _max_balanced_selection(
    x: np.ndarray, y: np.ndarray, tau: np.ndarray
) -> Tuple[List[int], List[int]]:
    """Cardinality-matching MILP: maximize the treated count subject to equal
    group sizes and |sum_sel x_j - sum_sel y_j| <= k tau_j for every j."""
    n_t, n_c = len(x), len(y)
    c = np.concatenate([-np.ones(n_t), np.zeros(n_c)])
    a_eq = np.concatenate([np.ones(n_t), -np.ones(n_c)])[None, :]
    a_ub = np.block([[(x - tau).T, -y.T], [-(x + tau).T, y.T]])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)), A_eq=a_eq,
                  b_eq=[0.0], bounds=(0.0, 1.0), integrality=1,
                  method="highs", options={"mip_max_nodes": _MAX_NODES})
    if res.x is None:
        raise ConvergenceError(
            f"cardinality matching MILP returned no selection: {res.message}")
    chosen = res.x > 0.5
    sel_t = np.flatnonzero(chosen[:n_t]).tolist()
    sel_c = np.flatnonzero(chosen[n_t:]).tolist()
    if res.status != 0:
        _log.warning("cardinality matching MILP stopped early (status %d); "
                     "returning its incumbent of %d, gap %s", res.status,
                     len(sel_t), res.get("mip_gap"))
    return sel_t, sel_c


def _mahalanobis_cost(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    pooled = np.vstack([u, v])
    cov = np.cov(pooled, rowvar=False, ddof=1)
    cov_inv = np.linalg.inv(cov + 1e-8 * np.eye(pooled.shape[1]))
    diff = u[:, None, :] - v[None, :, :]
    return np.sqrt(np.maximum(
        np.einsum("ijk,kl,ijl->ij", diff, cov_inv, diff), 0.0))


def pair_within_selection(
    selected_treated: Sequence[ClusterPair],
    selected_control: Sequence[ClusterPair],
) -> List[Tuple[int, int]]:
    """One-to-one pairing of equal-size selections by min-cost assignment
    on the 12-covariate Mahalanobis distance; ties break on pair ids."""
    if len(selected_treated) != len(selected_control):
        raise DataValidationError("selections must have equal size")
    if not selected_treated:
        return []
    u = np.array([pair_covariates(p) for p in selected_treated])
    v = np.array([pair_covariates(p) for p in selected_control])
    tid = [(p.early.cluster_id, p.late.cluster_id) for p in selected_treated]
    cid = [(p.early.cluster_id, p.late.cluster_id) for p in selected_control]
    order_t = sorted(range(len(tid)), key=lambda i: tid[i])
    order_c = sorted(range(len(cid)), key=lambda i: cid[i])
    cost = _mahalanobis_cost(u[order_t], v[order_c])
    pairs = assignment_indices(cost)
    return [(order_t[i], order_c[j]) for i, j in pairs]


def _report(
    x: np.ndarray, y: np.ndarray, sel_t: List[int], sel_c: List[int]
) -> BalanceReport:
    s_pool = _pooled_sd(x, y)
    rows = []
    for j, (name, period) in enumerate(_covariate_labels()):
        before = std_diff(x[:, j], y[:, j])
        if sel_t:
            mt = float(x[sel_t, j].mean())
            mc = float(y[sel_c, j].mean())
            gap = abs(mt - mc)
            if s_pool[j] == 0.0:
                after = 0.0 if gap == 0.0 else math.inf
            else:
                after = gap / s_pool[j]
        else:
            mt = mc = after = float("nan")
        rows.append(BalanceRow(
            covariate=name, period=period,
            treated_mean_before=float(x[:, j].mean()),
            control_mean_before=float(y[:, j].mean()),
            treated_mean_after=mt, control_mean_after=mc,
            stddiff_before=before, stddiff_after=after,
        ))
    return BalanceReport(tuple(rows), len(sel_t))


def cardinality_match(
    treated: Sequence[ClusterPair],
    control: Sequence[ClusterPair],
    threshold: float = 0.1,
) -> Tuple[List[Quadruple], BalanceReport]:
    """Largest balanced set of quadruples, plus the balance report.

    Requires every candidate to have all 12 covariates defined. An empty
    result is legal when no selection can satisfy the constraints.
    """
    if not treated or not control:
        raise DataValidationError("need at least one candidate on each side")
    x = np.array([pair_covariates(p) for p in treated], dtype=float)
    y = np.array([pair_covariates(p) for p in control], dtype=float)
    tau = threshold * _pooled_sd(x, y)

    sel_t, sel_c = _max_balanced_selection(x, y, tau)
    if not selection_feasible(x, y, sel_t, sel_c, tau):
        raise ConvergenceError("cardinality matching produced an infeasible "
                               "selection; this is a bug")

    chosen_t = [treated[i] for i in sel_t]
    chosen_c = [control[i] for i in sel_c]
    quadruples = [
        Quadruple(treated=chosen_t[i], control=chosen_c[j])
        for i, j in pair_within_selection(chosen_t, chosen_c)
    ]
    quadruples.sort(key=lambda q: (q.treated.early.cluster_id,
                                   q.control.early.cluster_id))
    return quadruples, _report(x, y, sel_t, sel_c)


# ---------------------------------------------------------------------------
# artifacts


def write_quadruples_csv(quadruples: Sequence[Quadruple], path) -> None:
    write_csv(path, QUADRUPLES_COLUMNS, ([
        q.treated.early.cluster_id, q.treated.late.cluster_id,
        q.control.early.cluster_id, q.control.late.cluster_id,
    ] for q in quadruples))


def read_quadruples_csv(path, pairs_by_ids) -> List[Quadruple]:
    quadruples = []
    for _, row in read_csv(path, QUADRUPLES_COLUMNS,
                           unique=["treated_early_id", "control_early_id"]):
        t_key = (row["treated_early_id"], row["treated_late_id"])
        c_key = (row["control_early_id"], row["control_late_id"])
        try:
            quadruples.append(Quadruple(
                treated=pairs_by_ids[t_key], control=pairs_by_ids[c_key],
            ))
        except KeyError as exc:
            raise DataValidationError(
                f"{path}: quadruple references unknown pair {exc}"
            ) from None
    return quadruples


def write_balance_csv(report: BalanceReport, path) -> None:
    write_csv(path, BALANCE_COLUMNS, (
        [fmt(getattr(r, column)) for column in BALANCE_COLUMNS]
        for r in report.rows))
