"""Omitted-variable sensitivity analysis.

For prespecified percentage-point shifts (p1, p2), a hypothetical binary
covariate U is regenerated inside each imputed data set with
P(U=1) = 0.5 + p1/100 * 1(low prevalence) + p2/100 * 1(completed outcome),
the outcome model is refitted with U as an extra regressor, and the
low-prevalence coefficient (and the U coefficient, which is estimated,
never fixed) are pooled by Rubin's rules. Each refit is an ordinary REML
fit of its own data set, searched as the primary fit is and through the
same model, ``InferenceDesign.data``. The grid sweep groups results into
the four sign cases of (p1, p2).

The grid points share their random numbers (common random numbers;
Glasserman and Yao, Management Science 1992): replicate m draws one
uniform V per record, once, on the substream keyed (seed, "sensan", m),
and at every grid point U = 1 where V < P(U=1). Each point's U keeps its
distribution; the points share their Monte Carlo noise. The sweep runs
over blocks of at most ``infer._BLOCK`` replicates and, within a block,
over the grid points. U's statistics are built at the block's first point
and then updated from the records whose U flips; the design, the outcomes
and U hold integers, so the updates give the same statistics bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._util import fmt, substream, write_csv
from .errors import DataValidationError
from .infer import (_BLOCK, InferenceDesign, MixedModelData, PooledEstimate,
                    rubin_combine, warn_unconverged)
from .model import validate_u_probabilities

_log = logging.getLogger(__name__)

U_REGRESSOR = "unobserved_u"

SENSITIVITY_COLUMNS = ["case", "p1", "p2", "estimate", "ci_low", "ci_high",
                       "p_value", "note"]

# random() draws multiples of 1 / _SCALE, so V < P exactly where the
# integer V * _SCALE is below ceil(P * _SCALE); sums of integers below
# _SCALE are exact doubles
_SCALE = 2.0 ** 53
# a record's class is low prevalence + 2 * completed outcome, and P(U=1)
# is one value per class: u_probability(_CLASS_LOW, _CLASS_OUTCOME, p1, p2)
_CLASS_LOW = np.array([0.0, 1.0, 0.0, 1.0])
_CLASS_OUTCOME = np.array([0.0, 0.0, 1.0, 1.0])


def case_label(p1: float, p2: float) -> int:
    """1: both positive; 2: p1>0, p2<0; 3: p1<0, p2>0; 4: both negative;
    0 when either parameter sits on the boundary."""
    if p1 > 0 and p2 > 0:
        return 1
    if p1 > 0 and p2 < 0:
        return 2
    if p1 < 0 and p2 > 0:
        return 3
    if p1 < 0 and p2 < 0:
        return 4
    return 0


def u_probability(low_prevalence, completed_lbw, p1: float, p2: float):
    """P(U=1) = 0.5 + p1/100 on low-prevalence records + p2/100 on
    completed-outcome-positive records."""
    low = np.asarray(low_prevalence, dtype=float)
    lbw = np.asarray(completed_lbw, dtype=float)
    if low.shape != lbw.shape:
        raise DataValidationError("indicator vectors misaligned")
    return 0.5 + (p1 / 100.0) * low + (p2 / 100.0) * lbw


@dataclass(frozen=True)
class SensitivityResult:
    p1: float
    p2: float
    case: int
    k1: PooledEstimate
    lam: PooledEstimate
    pooled: Dict[str, PooledEstimate]


class _BlockU:
    """U of one block of replicates, U = V < P(U=1), at one of the grid
    points whose P(U=1) by record class is ``probs``, and the statistics of
    [X, U, Y] there (``MixedModelData._border``); it starts at point 0.

    ``Y`` holds the block's outcomes, replicate ``first`` in its row 0, and
    ``X`` the design, in record order. Replicate m's V is drawn on the
    substream keyed (seed, "sensan", m). Class 0 keeps P(U=1) = 0.5 at
    every point. The other records are sorted by replicate, class and V, so
    that at any point U = 1 on a prefix of each (replicate, class) run.
    Moving to another point visits only the records between the old and the
    new ends of the prefixes: their rows of X and Y are added to or taken
    from U's cross products, their clusters' U totals move by one, and the
    size-class sums are formed again from the cluster totals.
    """

    def __init__(self, data: MixedModelData, X, base, Y, seed: int,
                 first: int, probs):
        self.data, self.X, self.Y, self.point = data, X, Y, 0
        # each record's cluster, numbered as the cluster totals are
        self.cluster = np.empty(data.n, dtype=np.intp)
        self.cluster[data.order] = np.repeat(np.arange(len(data.starts)),
                                             data.cluster_sizes)
        cls = X[:, data.names.index("low_prevalence")].astype(np.int8) + 2 * Y
        cut = np.concatenate([[0], np.cumsum(np.count_nonzero(cls, axis=1))])
        self.rows = np.empty(cut[-1], dtype=np.int32)
        # the end of each (replicate, class) run's U = 1 prefix at each point
        self.ends = np.empty((len(probs), len(Y), 4), dtype=np.int64)
        bounds = ((np.arange(4) << 53)
                  + np.ceil(np.array(probs) * _SCALE).astype(np.int64))
        U, v = np.empty(Y.shape, dtype=bool), np.empty(Y.shape[1])
        for i, (c, u) in enumerate(zip(cls, U)):
            substream(seed, "sensan", first + i).random(out=v)
            np.less(v, probs[0][c], out=u)
            rec = np.flatnonzero(c)
            # (class, V) as one integer
            key = ((c[rec].astype(np.int64) << 53)
                   + (v[rec] * _SCALE).astype(np.int64))
            order = np.argsort(key, kind="stable")
            self.rows[cut[i]:cut[i + 1]] = rec[order]
            self.ends[:, i] = cut[i] + np.searchsorted(key[order], bounds)
        self.ends = self.ends.reshape(len(probs), -1)
        del cls
        self.gram, self.classes, self.totals = data._border(base, U, [Y])

    @property
    def stats(self):
        return self.gram, self.classes

    def move(self, point: int) -> int:
        """Move U to grid point ``point``; returns how many entries flipped."""
        data, p, b = self.data, self.data.p, len(self.Y)
        old, ends = self.ends[self.point], self.ends[point]
        self.point = point
        lo, length = np.minimum(old, ends), np.abs(ends - old)
        pos = (np.arange(length.sum())
               + np.repeat(lo - np.cumsum(length) + length, length))
        rec = self.rows[pos]
        rep = np.repeat(np.arange(b), length.reshape(b, 4).sum(axis=1))
        # a prefix that grows turns U to 1 on the records it takes in
        sign = np.repeat(np.where(ends > old, 1.0, -1.0), length)
        row = self.gram[:, p]
        for j in range(p):
            row[:, j] += np.bincount(rep, sign * self.X[rec, j], minlength=b)
        row[:, p] += np.bincount(rep, sign, minlength=b)
        row[:, p + 1] += np.bincount(rep, sign * self.Y[rep, rec], minlength=b)
        self.gram[:, :, p] = row
        np.add.at(self.totals[..., 0], (rep, self.cluster[rec]), sign)
        data._border_classes(self.classes, self.totals)
        return len(pos)


def _require_integers(data: MixedModelData) -> None:
    """Refuse a design on which U's updated statistics could differ from
    ``_border``'s: they are exact only as sums of integers below 2^53."""
    bad = [name for name, col in zip(data.names, data.X.T)
           if not np.array_equal(col, np.rint(col))]
    if bad:
        raise DataValidationError(
            f"the sensitivity sweep needs an integer-valued design; "
            f"not integer-valued: {', '.join(bad)}")
    if (_BLOCK * data.n * data.cluster_sizes.max()
            * max(data.X.max(), -data.X.min()) >= _SCALE):
        raise DataValidationError("the sensitivity sweep needs design values "
                                  "whose sums stay below 2^53")
    low = data.X[:, data.names.index("low_prevalence")]
    if not np.all((low == 0) | (low == 1)):
        raise DataValidationError("low_prevalence must be 0 or 1")


def _refits(design: InferenceDesign, imputed, points, seed: int,
            columns: Sequence[str]):
    """Refit every replicate with U at each of ``points``, valid (p1, p2)
    pairs, through ``design.data``; ``imputed`` holds 0/1 outcomes of any
    numeric type. Returns the estimates of the regressors ``columns`` and
    their squared standard errors, two (len(points), M, len(columns))
    arrays."""
    data = design.data
    _require_integers(data)
    imputed = data._outcome_matrix(imputed)
    m, n = imputed.shape
    cols = [(design.regressors + (U_REGRESSOR,)).index(c) for c in columns]
    probs = [u_probability(_CLASS_LOW, _CLASS_OUTCOME, p1, p2)
             for p1, p2 in points]
    est = np.empty((len(points), m, len(columns)))
    var = np.empty_like(est)
    stuck, flipped = (np.zeros(len(points), dtype=np.int64) for _ in range(2))
    for lo in range(0, m, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        Y = imputed[rows]
        if not np.all((Y == 0) | (Y == 1)):
            raise DataValidationError("completed outcomes must be 0 or 1")
        # _BlockU indexes P(U=1) by a record class that Y enters
        Y = Y.astype(np.int8, copy=False)
        for j in range(len(points)):
            if j == 0:
                state = _BlockU(data, design.X, data.outcomes(Y), Y, seed,
                                lo + 1, probs)
            else:
                flipped[j] += state.move(j)
            fits = data.fit(Y, U_REGRESSOR, stats=state.stats)
            est[j, rows] = fits.estimates[:, cols]
            var[j, rows] = fits.standard_errors[:, cols] ** 2
            stuck[j] += np.count_nonzero(~fits.converged)
    for j, (p1, p2) in enumerate(points):
        warn_unconverged(int(stuck[j]), m)
        _log.debug("sensitivity point (%g, %g): U flipped on %d of %d "
                   "entries since the previous point (all are drawn at the "
                   "first)", p1, p2, flipped[j], m * n)
    return est, var


def sensitivity_fit(
    design: InferenceDesign,
    imputed: np.ndarray,
    p1: float,
    p2: float,
    seed: int,
) -> SensitivityResult:
    """Refit the outcome model with a U per replicate and pool.

    ``imputed`` is the (M, n) outcome matrix whose row m - 1 is replicate
    m. Replicate m's U is V < P(U=1), where V holds one uniform per record
    drawn on the substream keyed by (seed, "sensan", m), the same at every
    (p1, p2); the result equals the ``sensitivity_grid`` row of (p1, p2) for
    the same seed bit for bit. The replicates are fitted in blocks of 64,
    with U bordering the shared design, each by the same REML search as the
    primary fit. The design must be integer-valued, as ``build_design``
    makes it.
    """
    validate_u_probabilities(p1, p2)
    names = design.regressors + (U_REGRESSOR,)
    est, var = _refits(design, imputed, [(p1, p2)], seed, names)
    pooled = rubin_combine(est[0], var[0], names)
    return SensitivityResult(
        p1=p1, p2=p2, case=case_label(p1, p2),
        k1=pooled["low_prevalence"], lam=pooled[U_REGRESSOR], pooled=pooled,
    )


@dataclass(frozen=True)
class SensitivityRow:
    case: int
    p1: float
    p2: float
    estimate: float
    ci_low: float
    ci_high: float
    p_value: float
    skipped: bool = False
    note: str = ""


def default_grid() -> List[Tuple[float, float]]:
    """The 32-point grid: four sign cases, |p1| in {2.5, 5, 7.5, 10},
    |p2| in {5, 10}, ordered by case then magnitudes."""
    points = []
    for case_p1, case_p2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        for a1 in (2.5, 5.0, 7.5, 10.0):
            for a2 in (5.0, 10.0):
                points.append((case_p1 * a1, case_p2 * a2))
    return points


def sensitivity_grid(
    design: InferenceDesign,
    imputed: np.ndarray,
    seed: int,
    grid: Optional[Sequence[Tuple[float, float]]] = None,
) -> List[SensitivityRow]:
    """One sensitivity fit per grid point; invalid points are skipped with
    a warning row rather than aborting the sweep.

    The points share each replicate's uniforms, drawn once on the
    substream keyed by (seed, "sensan", m), so a row equals
    ``sensitivity_fit`` at its point. The sweep fits a block of replicates
    at every point before the next block, and logs one warning per point
    that counts its fits that did not converge, and one DEBUG record per
    point on ``matchdid.sensan``. Each refit is an ordinary REML fit of its
    own data set; the primary model is not fitted."""
    points = default_grid() if grid is None else list(grid)
    notes: List[Optional[str]] = []
    for p1, p2 in points:
        try:
            validate_u_probabilities(p1, p2)
            notes.append(None)
        except DataValidationError as exc:
            notes.append(str(exc))
    est, var = _refits(design, imputed, [
        point for point, note in zip(points, notes) if note is None],
        seed, ["low_prevalence"])
    pooled = iter([rubin_combine(e, v, ["low_prevalence"])["low_prevalence"]
                   for e, v in zip(est, var)])
    rows: List[SensitivityRow] = []
    for (p1, p2), note in zip(points, notes):
        if note is not None:
            rows.append(SensitivityRow(
                case=case_label(p1, p2), p1=p1, p2=p2,
                estimate=math.nan, ci_low=math.nan, ci_high=math.nan,
                p_value=math.nan, skipped=True, note=note,
            ))
            continue
        k1 = next(pooled)
        rows.append(SensitivityRow(
            case=case_label(p1, p2), p1=p1, p2=p2,
            estimate=k1.estimate, ci_low=k1.ci_low,
            ci_high=k1.ci_high, p_value=k1.p_value,
        ))
    return rows


def write_sensitivity_csv(rows: Sequence[SensitivityRow], path) -> None:
    write_csv(path, SENSITIVITY_COLUMNS, (
        [r.case, fmt(r.p1), fmt(r.p2), "", "", "", "", f"skipped: {r.note}"]
        if r.skipped else
        [r.case, fmt(r.p1), fmt(r.p2), fmt(r.estimate), fmt(r.ci_low),
         fmt(r.ci_high), fmt(r.p_value), ""]
        for r in rows))
