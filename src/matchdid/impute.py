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
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._util import substream
from .errors import ConvergenceError, DataValidationError
from .model import BirthRecord, BirthSize

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

MAX_NEWTON_ITER = 100
GRAD_TOL = 1e-8
# the outcome cells a row of imputations.csv may hold
_OUTCOME = {"0": 0, "1": 1}


def imputation_row(r: BirthRecord) -> List[float]:
    age = float(r.mother_age_years)
    order = float(r.birth_order_code)
    return [
        1.0,
        age,
        age * age,
        float(r.wealth_index),
        order,
        order * order,
        float(r.urban),
        float(r.mother_education),
        float(r.child_is_boy),
        float(r.married),
        float(r.antenatal),
        1.0 if r.reported_size is BirthSize.SMALL else 0.0,
        1.0 if r.reported_size is BirthSize.LARGE else 0.0,
    ]


def design_matrix(records: Sequence[BirthRecord]) -> np.ndarray:
    if any(r.reported_size is None for r in records):
        raise DataValidationError(
            "imputation design requires reported_size on every record "
            "(run filter_births first)"
        )
    if not records:
        return np.empty((0, len(IMPUTATION_COLUMNS)))
    return np.array([imputation_row(r) for r in records], dtype=float)


def prior_scales(X: np.ndarray) -> np.ndarray:
    """Per-coefficient Cauchy scales from the fitting records."""
    scales = np.empty(X.shape[1])
    scales[0] = 10.0
    for j in range(1, X.shape[1]):
        col = X[:, j]
        values = set(np.unique(col)) if len(col) else set()
        if len(col) == 0 or values <= {0.0, 1.0}:
            scales[j] = 2.5
        else:
            sd = float(col.std(ddof=1)) if len(col) > 1 else 0.0
            scales[j] = 2.5 / (2.0 * sd) if sd > 0 else 2.5
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


@dataclass(frozen=True)
class ImputedSet:
    replicate: int                  # 1-based
    lbw: np.ndarray                 # completed outcome, aligned with records


def _sigmoid(eta):
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def _objective(beta, X, y, scales):
    eta = np.clip(X @ beta, -35.0, 35.0)
    loglik = float(y @ eta - np.logaddexp(0.0, eta).sum()) if len(y) else 0.0
    logprior = float(np.sum(-np.log(np.pi * scales)
                            - np.log1p((beta / scales) ** 2)))
    return loglik + logprior


def _grad_neghess(beta, X, y, scales):
    p = _sigmoid(X @ beta) if len(y) else np.zeros(0)
    grad_lik = X.T @ (y - p) if len(y) else np.zeros(len(beta))
    denom = scales ** 2 + beta ** 2
    grad_prior = -2.0 * beta / denom
    w = p * (1.0 - p)
    neg_hess_lik = (X * w[:, None]).T @ X if len(y) else np.zeros((len(beta),) * 2)
    neg_hess_prior = np.diag(2.0 * (scales ** 2 - beta ** 2) / denom ** 2)
    return grad_lik + grad_prior, neg_hess_lik + neg_hess_prior


def penalized_logistic_mode(
    X: np.ndarray, y: np.ndarray, scales: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize log-likelihood + Cauchy log-priors by Newton iteration
    with step halving; returns (mode, Laplace covariance).

    Columns are rms-rescaled internally (an exact reparameterization; the
    Cauchy scales rescale with them) so the gradient tolerance is applied
    on O(1) columns; raw quadratic terms like age^2 would otherwise pin
    the attainable gradient norm above the tolerance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if len(X):
        col_scale = np.sqrt(np.mean(X * X, axis=0))
        col_scale[col_scale < 1e-12] = 1.0
    else:
        col_scale = np.ones(X.shape[1])
    X = X / col_scale
    scales = scales * col_scale
    beta = np.zeros(X.shape[1])
    trace = []
    for iteration in range(MAX_NEWTON_ITER):
        grad, neg_hess = _grad_neghess(beta, X, y, scales)
        grad_norm = float(np.max(np.abs(grad)))
        trace.append(f"iter {iteration}: max|grad|={grad_norm:.3e}")
        if grad_norm < GRAD_TOL:
            break
        try:
            step = np.linalg.solve(neg_hess, grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "singular curvature in imputation model fit\n" + "\n".join(trace)
            ) from None
        base = _objective(beta, X, y, scales)
        # near the mode the quadratic gain sits below the float resolution
        # of the objective, so only measurable worsening triggers halving
        slack = 1e-9 * (1.0 + abs(base))
        scale = 1.0
        while (scale > 1e-10
               and _objective(beta + scale * step, X, y, scales) < base - slack):
            scale *= 0.5
        beta = beta + scale * step
    else:
        raise ConvergenceError(
            f"imputation model did not converge in {MAX_NEWTON_ITER} iterations\n"
            + "\n".join(trace)
        )

    _, neg_hess = _grad_neghess(beta, X, y, scales)
    try:
        chol = np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "negative Hessian at the mode is not positive definite"
        ) from None
    inv_chol = np.linalg.solve(chol, np.eye(len(beta)))
    covariance = inv_chol.T @ inv_chol
    covariance = (covariance + covariance.T) / 2.0
    # undo the internal column scaling
    beta = beta / col_scale
    covariance = covariance / np.outer(col_scale, col_scale)
    return beta, covariance


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
    beta, covariance = penalized_logistic_mode(X, y, scales)
    return ImputationModel(coefficients=beta, covariance=covariance,
                           prior_scales=scales)


def draw_imputations(
    model: ImputationModel,
    records: Sequence[BirthRecord],
    m: int,
    seed: int,
) -> List[ImputedSet]:
    """M completed outcome vectors over ``records`` (observed entries kept).

    Each replicate draws coefficients from the normal posterior
    approximation, then Bernoulli outcomes for the missing records. Every
    replicate uses its own counter-based substream keyed by (seed,
    replicate), so the result is independent of scheduling and of which
    records happen to be missing.
    """
    if m < 1:
        raise DataValidationError("number of imputations must be >= 1")
    X = design_matrix(records)
    observed = np.array([-1 if r.lbw is None else r.lbw for r in records])
    missing = observed < 0
    chol = np.linalg.cholesky(
        model.covariance + 1e-12 * np.eye(len(model.coefficients))
    )
    sets: List[ImputedSet] = []
    for replicate in range(1, m + 1):
        rng = substream(seed, "impute", replicate)
        beta_star = model.coefficients + chol @ rng.standard_normal(
            len(model.coefficients)
        )
        u = rng.random(len(records))
        lbw = observed.astype(np.int8).copy()
        if missing.any():
            p = _sigmoid(X[missing] @ beta_star)
            lbw[missing] = (u[missing] < p).astype(np.int8)
        sets.append(ImputedSet(replicate=replicate, lbw=lbw))
    return sets


# ---------------------------------------------------------------------------
# audit dump


# imputations.csv holds the header, then replicates 1..M, each listing every
# record in order as replicate,child_id,lbw with csv.writer's quoting and
# CRLF line ends. Within a replicate only the outcome cells vary, so both
# functions below handle a replicate block at a time.
_HEADER = ("replicate", "child_id", "lbw")
_ONE = ord("1")


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
    records: Sequence[BirthRecord], sets: Sequence[ImputedSet], path
) -> None:
    """Write the header, then each replicate's rows in record order; this
    is the only layout ``read_imputations_csv`` accepts."""
    tail0, tail1 = _row_tails(records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(_HEADER)
        for s in sets:
            if ((s.lbw != 0) & (s.lbw != 1)).any():
                raise DataValidationError(
                    f"replicate {s.replicate} holds an outcome other than 0 or 1")
            fh.write(_block(f"{s.replicate},",
                            np.where(s.lbw == 1, tail1, tail0).tolist()))


def read_imputations_csv(
    records: Sequence[BirthRecord], path, m: int
) -> List[ImputedSet]:
    """Read back what ``write_imputations_csv`` wrote for ``records`` and
    ``m`` replicates. The file must be byte for byte that layout, with only
    the outcome cells of records whose outcome is missing free to read 0 or
    1. Anything else raises ``DataValidationError`` naming the first faulty
    line: an outcome other than 0/1, a changed observed outcome, a repeated
    (replicate, child_id) row, replicate numbers other than 1..m, a record
    left out, or rows that are complete but not in the writer's layout
    (reordered, other line ends)."""
    tail0, tail1 = _row_tails(records)
    observed = np.array([-1 if r.lbw is None else r.lbw for r in records],
                        dtype=np.int8)
    missing = np.flatnonzero(observed < 0)
    # the rows as written, with the observed outcomes and 0 where missing
    rows = [t.encode() for t in np.where(observed == 1, tail1, tail0)]
    row_ends = np.cumsum([len(t) for t in rows], dtype=np.int64)
    header = ",".join(_HEADER).encode() + b"\r\n"
    sets = []
    with open(path, "rb") as fh:
        fault = _compare(fh, header, missing[:0])[1]
        for rep in range(1, m + 1):
            if fault is not None:
                break
            prefix = f"{rep},".encode()
            # offsets of the missing records' outcome cells in the block
            cells = len(prefix) * (missing + 1) + row_ends[missing] - 3
            got, fault = _compare(fh, _block(prefix, rows), cells)
            if fault is None:
                lbw = observed.copy()
                lbw[missing] = got[cells] == _ONE
                sets.append(ImputedSet(replicate=rep, lbw=lbw))
        if fault is None and fh.read(1):
            fault = fh.tell() - 1
    if fault is not None:
        _refuse(records, path, m, fault)
    return sets


def _compare(fh, expected: bytes, cells: np.ndarray):
    """Read ``len(expected)`` bytes and compare them with ``expected``,
    where the bytes at offsets ``cells`` may also read 1. Returns the bytes
    read as uint8 and None, or the file offset of the first byte that
    departs (or of the end of a short read)."""
    start = fh.tell()
    got = np.frombuffer(fh.read(len(expected)), np.uint8)
    diff = got != np.frombuffer(expected, np.uint8)[:len(got)]
    cells = cells[cells < len(got)]
    diff[cells] &= got[cells] != _ONE
    if diff.any():
        return got, start + int(diff.argmax())
    return got, None if len(got) == len(expected) else start + len(got)


def _refuse(records: Sequence[BirthRecord], path, m: int, offset: int):
    """Refuse a file that departs from the writer's layout at byte
    ``offset``. A row walk words the first fault it finds: a row that is
    not a 0/1 outcome of a known (replicate, child_id), that changes an
    observed outcome or repeats a row, or a replicate that misses a record.
    A file with none of these is complete but not in the writer's layout."""
    by_replicate = {str(rep): np.full(len(records), -1, dtype=np.int8)
                    for rep in range(1, m + 1)}
    index = {r.child_id: i for i, r in enumerate(records)}
    observed = [r.lbw for r in records]
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.DictReader(fh)
        if list(reader.fieldnames or []) != list(_HEADER):
            raise DataValidationError(f"{path}: unexpected imputations.csv header")
        for row in reader:
            rep, child = row["replicate"], row["child_id"]
            vec, i = by_replicate.get(rep), index.get(child)
            value = _OUTCOME.get(row["lbw"])
            if vec is None:
                problem = f"replicate {rep!r} is not in 1..{m}"
            elif i is None:
                problem = f"imputation row for unknown child {child}"
            elif value is None:
                problem = f"outcome {row['lbw']!r} is not 0 or 1"
            elif observed[i] not in (None, value):
                problem = f"observed outcome of {child} changed"
            elif vec[i] >= 0:
                problem = f"duplicate row for replicate {rep}, child {child}"
            else:
                vec[i] = value
                continue
            raise DataValidationError(f"{path}, line {reader.line_num}: {problem}")
    for rep, vec in by_replicate.items():
        if (vec < 0).any():
            raise DataValidationError(
                f"{path}: replicate {rep} does not cover every record"
            )
    with open(path, "rb") as fh:
        line = fh.read(offset).count(b"\n") + 1
    raise DataValidationError(
        f"{path}, line {line}: not the layout write_imputations_csv writes "
        f"(header, then replicates 1..{m} each listing every record in "
        f"order, CRLF line ends)")
