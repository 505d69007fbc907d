"""Bayesian logistic imputation of the missing low-birth-weight indicator.

The model is fitted on records with an observed outcome by maximizing the
log-likelihood plus independent Cauchy log-prior densities (center 0;
scale 10 for the intercept, 2.5 for binary predictors, 2.5/(2 sd) for the
remaining numeric predictors). The posterior is approximated by a normal
centered at the penalized mode with covariance equal to the inverse
negative Hessian there, and each replicate draws coefficients from that
approximation before drawing Bernoulli outcomes for the missing records.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ._util import substream
from .errors import ConvergenceError, DataValidationError
from .model import (COVARIATE_REGRESSORS, BirthRecord, BirthSize,
                    covariate_row)

# Fixed design column order of the imputation model.
IMPUTATION_COLUMNS: Tuple[str, ...] = (
    "intercept",
    "mother_age",
    "mother_age_sq",
    "wealth_index",
    "birth_order",
    "birth_order_sq",
    "urban",
    "mother_education",
    "child_is_boy",
    "married",
    "antenatal",
    "size_small",
    "size_large",
)

# covariate_row's columns with the intercept and the size indicators, and
# the position in them of each column of IMPUTATION_COLUMNS
_ROW_COLUMNS = ("intercept",) + COVARIATE_REGRESSORS + ("size_small",
                                                        "size_large")
_ORDER = [_ROW_COLUMNS.index(name) for name in IMPUTATION_COLUMNS]

MAX_NEWTON_ITER = 100      # Newton steps of one penalized logistic fit
GRAD_TOL = 1e-8

_log = logging.getLogger(__name__)


def design_matrix(records: Sequence[BirthRecord]) -> np.ndarray:
    if any(r.reported_size is None for r in records):
        raise DataValidationError(
            "imputation design requires reported_size on every record "
            "(run filter_births first)"
        )
    small, large = BirthSize.SMALL, BirthSize.LARGE     # looked up once
    rows = np.array([[1.0, *covariate_row(r), r.reported_size is small,
                      r.reported_size is large] for r in records],
                    dtype=float).reshape(len(records), len(_ROW_COLUMNS))
    # np.take keeps the rows C-ordered (rows[:, _ORDER] is F-ordered), which
    # fixes the summation order of the fit's matrix products
    return np.take(rows, _ORDER, axis=1)


def prior_scales(X: np.ndarray) -> np.ndarray:
    """Per-coefficient Cauchy scales from the fitting records."""
    scales = np.empty(X.shape[1])
    scales[0] = 10.0
    for j in range(1, X.shape[1]):
        col = X[:, j]
        binary = set(np.unique(col)) <= {0.0, 1.0}
        sd = float(col.std(ddof=1)) if len(col) > 1 else 0.0
        scales[j] = 2.5 / (2.0 * sd) if sd > 0 and not binary else 2.5
    return scales


@dataclass(frozen=True)
class ImputationModel:
    coefficients: np.ndarray        # posterior mode
    covariance: np.ndarray          # Laplace covariance at the mode
    prior_scales: np.ndarray
    column_names: Tuple[str, ...] = IMPUTATION_COLUMNS

    def __post_init__(self):
        p = len(self.coefficients)
        if self.covariance.shape != (p, p):
            raise DataValidationError("covariance shape mismatch")
        if not np.allclose(self.covariance, self.covariance.T, atol=1e-10):
            raise DataValidationError("covariance must be symmetric")


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def cauchy_prior(beta, scales):
    """Independent Cauchy(0, scale) priors: the log density at ``beta``, its
    gradient and the diagonal of its negative Hessian."""
    denom = scales ** 2 + beta ** 2
    logdensity = float(np.sum(-np.log(np.pi * scales)
                              - np.log1p((beta / scales) ** 2)))
    return logdensity, -2.0 * beta / denom, 2.0 * (scales ** 2 - beta ** 2) / denom ** 2


def normal_prior(beta, scales):
    """Independent Normal(0, scale) priors (standard deviation ``scales``),
    returned as by ``cauchy_prior``."""
    z = beta / scales
    logdensity = float(np.sum(-0.5 * z ** 2 - np.log(np.sqrt(2.0 * np.pi) * scales)))
    return logdensity, -z / scales, 1.0 / scales ** 2


# with no rows, X is (0, p) and the likelihood terms below are exact zeros
def _objective(beta, X, y, scales, prior):
    eta = np.clip(X @ beta, -35.0, 35.0)
    loglik = float(y @ eta - np.logaddexp(0.0, eta).sum())
    return loglik + prior(beta, scales)[0]


def _grad_neghess(beta, X, y, scales, prior):
    p = _sigmoid(X @ beta)
    _, grad_prior, neg_hess_prior = prior(beta, scales)
    w = p * (1.0 - p)
    return (X.T @ (y - p) + grad_prior,
            (X * w[:, None]).T @ X + np.diag(neg_hess_prior))


class LogisticMode(NamedTuple):
    coefficients: np.ndarray    # the mode, or the last iterate at the cap
    covariance: np.ndarray      # inverse negative Hessian at coefficients
    converged: bool             # max_gradient < GRAD_TOL
    max_gradient: float         # max|gradient| at coefficients, rescaled


def penalized_logistic_mode(X: np.ndarray, y: np.ndarray, scales: np.ndarray,
                            prior, label: str) -> LogisticMode:
    """The package's one logistic Newton: maximize log-likelihood +
    ``prior``'s log density by Newton iteration with step halving, for at
    most ``MAX_NEWTON_ITER`` steps; returns the mode, the Laplace covariance
    there and whether max|gradient| fell below ``GRAD_TOL``.
    ``prior(beta, scales)`` is ``cauchy_prior`` (the imputation model) or
    ``normal_prior`` (the ``geomatch`` propensity); ``label`` names the fit
    in its one debug log record and in errors.

    Columns are rms-rescaled internally (an exact reparameterization; the
    prior scales rescale with them) so the gradient tolerance is applied
    on O(1) columns; raw quadratic terms like age^2 would otherwise pin
    the attainable gradient norm above the tolerance.
    """
    col_scale = np.sqrt(np.sum(X * X, axis=0) / max(len(X), 1))
    col_scale[col_scale < 1e-12] = 1.0
    X = X / col_scale
    scales = scales * col_scale
    beta = np.zeros(X.shape[1])
    for steps in range(MAX_NEWTON_ITER + 1):
        grad, neg_hess = _grad_neghess(beta, X, y, scales, prior)
        max_gradient = float(np.max(np.abs(grad)))
        if max_gradient < GRAD_TOL or steps == MAX_NEWTON_ITER:
            break
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular curvature in the {label} fit "
                                   f"after {steps} Newton steps") from None
        base = _objective(beta, X, y, scales, prior)
        # near the mode the quadratic gain sits below the float resolution
        # of the objective, so only measurable worsening triggers halving
        slack = 1e-9 * (1.0 + abs(base))
        scale = 1.0
        while (scale > 1e-10 and _objective(beta + scale * step, X, y, scales,
                                            prior) < base - slack):
            scale *= 0.5
        beta = beta + scale * step
    converged = max_gradient < GRAD_TOL
    _log.debug("%s fit: %d Newton steps, max|gradient| %.3e, %s", label,
               steps, max_gradient, "converged" if converged else "not converged")

    try:
        chol = np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"negative Hessian of the {label} fit is not "
                               "positive definite") from None
    inv_chol = np.linalg.solve(chol, np.eye(len(beta)))
    covariance = inv_chol.T @ inv_chol
    covariance = (covariance + covariance.T) / 2.0
    # undo the internal column scaling
    return LogisticMode(beta / col_scale,
                        covariance / np.outer(col_scale, col_scale),
                        converged, max_gradient)


def fit_imputation_model(records: Sequence[BirthRecord]) -> ImputationModel:
    """Posterior mode and Laplace covariance of the imputation model.

    ``records`` are the observed-outcome rows. With no rows at all the
    prior alone is maximized, so the mode is the zero vector; with rows
    present both outcome classes must occur.
    """
    if any(r.lbw is None for r in records):
        raise DataValidationError("fit_imputation_model needs observed outcomes")
    X = design_matrix(records)
    y = np.array([r.lbw for r in records], dtype=float)
    if len(y) and (y.min() == y.max()):
        raise DataValidationError(
            "need at least one observed record of each outcome class"
        )
    scales = prior_scales(X)
    fit = penalized_logistic_mode(X, y, scales, cauchy_prior,
                                  "imputation model")
    if not fit.converged:
        raise ConvergenceError(
            f"imputation model did not converge in {MAX_NEWTON_ITER} Newton steps "
            f"(max|gradient| {fit.max_gradient:.3e})")
    return ImputationModel(coefficients=fit.coefficients,
                           covariance=fit.covariance, prior_scales=scales)


def _observed(records: Sequence[BirthRecord]) -> np.ndarray:
    """Each record's observed outcome as int8, -1 where it is missing."""
    return np.array([-1 if r.lbw is None else r.lbw for r in records],
                    dtype=np.int8)


def draw_imputations(
    model: ImputationModel,
    records: Sequence[BirthRecord],
    m: int,
    seed: int,
) -> np.ndarray:
    """M completed outcome vectors over ``records`` (observed entries kept),
    as an (M, n) int8 matrix whose row m - 1 is replicate m.

    Each replicate draws coefficients from the normal posterior
    approximation, then Bernoulli outcomes for the missing records. Every
    replicate uses its own counter-based substream keyed by (seed,
    replicate), so the result is independent of scheduling and of which
    records happen to be missing.
    """
    if m < 1:
        raise DataValidationError("number of imputations must be >= 1")
    observed = _observed(records)
    missing = observed < 0
    X_missing = design_matrix(records)[missing]
    chol = np.linalg.cholesky(
        model.covariance + 1e-12 * np.eye(len(model.coefficients))
    )
    lbw = np.tile(observed, (m, 1))
    for replicate, row in enumerate(lbw, 1):
        rng = substream(seed, "impute", replicate)
        beta_star = model.coefficients + chol @ rng.standard_normal(
            len(model.coefficients)
        )
        u = rng.random(len(records))
        if missing.any():
            row[missing] = u[missing] < _sigmoid(X_missing @ beta_star)
    return lbw


# ---------------------------------------------------------------------------
# audit dump


# imputations.csv holds the header, then replicates 1..M, each listing every
# record in order as replicate,child_id,lbw with csv.writer's quoting and
# CRLF line ends. Within a replicate only the outcome cells vary, so both
# functions below handle a replicate block at a time.
_HEADER = ("replicate", "child_id", "lbw")
_ONE = ord("1")
# the most bytes of a found row that a refusal shows
_SHOWN = 200


def _row_tails(records: Sequence[BirthRecord]) -> Tuple[np.ndarray, np.ndarray]:
    """Each record's ``child_id,0\\r\\n`` and ``child_id,1\\r\\n`` as csv.writer
    writes them after the replicate cell, quoted one record at a time (a
    quoted child_id may hold a line break)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    tails = []
    for value in (0, 1):
        cells = []
        for r in records:
            writer.writerow([r.child_id, value])
            cells.append(buf.getvalue())
            buf.seek(0)
            buf.truncate()
        tails.append(np.array(cells, dtype=object))
    return tails[0], tails[1]


def _block(prefix, rows: list):
    """One replicate's rows, each after the replicate cell ``prefix``."""
    return prefix + prefix.join(rows) if rows else prefix[:0]


def write_imputations_csv(
    records: Sequence[BirthRecord], lbw: np.ndarray, path
) -> None:
    """Write the header, then each replicate's rows in record order, from
    the (M, n) outcome matrix ``lbw`` whose row m - 1 is replicate m; this
    is the only layout ``read_imputations_csv`` accepts."""
    # min and max scan the matrix without an (M, n) temporary
    if lbw.min(initial=0) < 0 or lbw.max(initial=1) > 1:
        bad = ((lbw < 0) | (lbw > 1)).any(axis=1).argmax()
        raise DataValidationError(
            f"replicate {bad + 1} holds an outcome other than 0 or 1")
    tail0, tail1 = _row_tails(records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_HEADER)
        for replicate, row in enumerate(lbw, 1):
            fh.write(_block(f"{replicate},",
                            np.where(row == 1, tail1, tail0).tolist()))


def read_imputations_csv(
    records: Sequence[BirthRecord], path, m: int
) -> np.ndarray:
    """Read back what ``write_imputations_csv`` wrote for ``records`` and
    ``m`` replicates, as the (M, n) int8 outcome matrix. The file must be
    byte for byte that layout, with only the outcome cells of records whose
    outcome is missing free to read 0 or 1. Anything else raises
    ``DataValidationError`` naming the physical line of the first byte that
    departs, as expected and as found."""
    tail0, tail1 = _row_tails(records)
    observed = _observed(records)
    missing = np.flatnonzero(observed < 0)
    # the rows as written, with the observed outcomes and 0 where missing
    rows = [t.encode() for t in np.where(observed == 1, tail1, tail0)]
    row_ends = np.cumsum([len(t) for t in rows], dtype=np.int64)
    lbw = np.tile(observed, (m, 1))
    with open(path, "rb") as fh:
        _compare(fh, path, ",".join(_HEADER).encode() + b"\r\n", missing[:0])
        for replicate, row in enumerate(lbw, 1):
            prefix = f"{replicate},".encode()
            # offsets of the missing records' outcome cells in the block
            cells = len(prefix) * (missing + 1) + row_ends[missing] - 3
            got = _compare(fh, path, _block(prefix, rows), cells)
            row[missing] = got[cells] == _ONE
        if fh.read(1):
            _refuse(path, fh.tell() - 1, b"", fh.tell() - 1, missing[:0])
    return lbw


def _compare(fh, path, expected: bytes, cells: np.ndarray) -> np.ndarray:
    """Read ``len(expected)`` bytes and return them as uint8 if they are
    ``expected``, where the bytes at offsets ``cells`` may also read 1.
    Otherwise refuse the file at the first byte that departs, or at the end
    of a short read."""
    start = fh.tell()
    got = np.frombuffer(fh.read(len(expected)), np.uint8)
    diff = got != np.frombuffer(expected, np.uint8)[:len(got)]
    inside = cells[cells < len(got)]
    diff[inside] &= got[inside] != _ONE
    if diff.any() or len(got) < len(expected):
        _refuse(path, start + int(diff.argmax() if diff.any() else len(got)),
                expected, start, cells)
    return got


def _refuse(path, offset: int, expected: bytes, start: int, cells):
    """Refuse the file at byte ``offset``, the first to depart from
    ``expected``, which the file should hold from byte ``start`` on (with 1
    also valid at its offsets ``cells``), naming the offset's physical line
    as expected and as found."""
    with open(path, "rb") as fh:
        data = fh.read()
    begin = data.rfind(b"\n", 0, offset) + 1
    line = data.count(b"\n", 0, begin) + 1
    found = data[begin:data.find(b"\n", offset) + 1 or len(data)]
    lo = begin - start
    row = expected[lo:expected.find(b"\n", offset - start) + 1 or None]
    want = _show(row)
    for cell in cells[(cells >= lo) & (cells < lo + len(row))]:
        want += " or " + _show(row[:cell - lo] + b"1" + row[cell - lo + 1:])
    raise DataValidationError(
        f"{path}:{line}: expected {want}, found {_show(found[:_SHOWN])}")


def _show(row: bytes) -> str:
    return repr(row.decode(errors="replace")) if row else "the end of the file"
