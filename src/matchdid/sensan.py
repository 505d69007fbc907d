"""Omitted-variable sensitivity analysis.

For prespecified percentage-point shifts (p1, p2), a hypothetical binary
covariate U is regenerated inside each imputed data set with
P(U=1) = 0.5 + p1/100 * 1(low prevalence) + p2/100 * 1(completed outcome),
the outcome model is refitted with U as an extra regressor, and the
low-prevalence coefficient (and the U coefficient, which is estimated,
never fixed) are pooled by Rubin's rules. The grid sweep groups results
into the four sign cases of (p1, p2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._util import fmt, substream, write_csv
from .errors import DataValidationError
from .infer import InferenceDesign, MixedModelData, PooledEstimate, pool_fits
from .model import validate_u_probabilities

U_REGRESSOR = "unobserved_u"

SENSITIVITY_COLUMNS = ["case", "p1", "p2", "estimate", "ci_low", "ci_high",
                       "p_value", "note"]


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


def gen_u(
    low_prevalence: np.ndarray,
    completed_lbw: np.ndarray,
    p1: float,
    p2: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One independent 0/1 draw per record. Every attainable probability
    is validated before any draw happens."""
    validate_u_probabilities(p1, p2)
    prob = u_probability(low_prevalence, completed_lbw, p1, p2)
    return (rng.random(len(prob)) < prob).astype(np.int8)


@dataclass(frozen=True)
class SensitivityResult:
    p1: float
    p2: float
    case: int
    k1: PooledEstimate
    lam: PooledEstimate
    pooled: Dict[str, PooledEstimate]


def _primary_fit(design: InferenceDesign, imputed: np.ndarray,
                 theta: Optional[Sequence[float]] = None):
    """The primary fit's (data, outcomes, theta) that refits reuse; the
    primary model is fitted only when ``theta`` is not given."""
    data = MixedModelData(design.X, design.cluster_codes, design.regressors)
    base = data.outcomes(imputed)
    if theta is None:
        theta = [f.theta for f in data.fit(imputed, base=base)]
    elif len(theta) != len(imputed):
        raise DataValidationError(f"{len(theta)} primary variance ratios "
                                  f"for {len(imputed)} replicates")
    return data, base, theta


def sensitivity_fit(
    design: InferenceDesign,
    imputed: np.ndarray,
    p1: float,
    p2: float,
    seed: int,
    primary: Optional[tuple] = None,
) -> SensitivityResult:
    """Refit the outcome model with a fresh U per replicate and pool.

    ``imputed`` is the (M, n) outcome matrix whose row m - 1 is replicate
    m. The U draw for replicate m runs on the substream keyed by
    (seed, "sensan", p1, p2, m), so grid points and replicates are
    independent and the whole table is reproducible for a fixed seed. The
    replicates are fitted in blocks of 64, with U bordering the shared
    design, each from its variance ratio in ``primary`` (fitted here if not
    given).
    """
    validate_u_probabilities(p1, p2)
    data, base, theta = primary or _primary_fit(design, imputed)
    low = design.X[:, design.regressors.index("low_prevalence")]
    U = np.array([gen_u(low, y, p1, p2, substream(seed, "sensan", p1, p2, m))
                  for m, y in enumerate(imputed, 1)])
    pooled = pool_fits(data.fit(imputed, (U_REGRESSOR, U), start=theta,
                                base=base))
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
    theta: Optional[Sequence[float]] = None,
) -> List[SensitivityRow]:
    """One sensitivity fit per grid point, all from one primary fit; invalid
    points are skipped with a warning row rather than aborting the sweep.

    ``theta``, the primary fit's variance ratios in replicate order (the
    ``theta`` of ``run_primary_analysis``'s result), spares the sweep
    fitting the primary model again; the rows are the same either way."""
    rows: List[SensitivityRow] = []
    primary = _primary_fit(design, imputed, theta)
    for p1, p2 in (default_grid() if grid is None else list(grid)):
        try:
            validate_u_probabilities(p1, p2)
        except DataValidationError as exc:
            rows.append(SensitivityRow(
                case=case_label(p1, p2), p1=p1, p2=p2,
                estimate=math.nan, ci_low=math.nan, ci_high=math.nan,
                p_value=math.nan, skipped=True, note=str(exc),
            ))
            continue
        res = sensitivity_fit(design, imputed, p1, p2, seed, primary)
        rows.append(SensitivityRow(
            case=res.case, p1=p1, p2=p2,
            estimate=res.k1.estimate, ci_low=res.k1.ci_low,
            ci_high=res.k1.ci_high, p_value=res.k1.p_value,
        ))
    return rows


def write_sensitivity_csv(rows: Sequence[SensitivityRow], path) -> None:
    write_csv(path, SENSITIVITY_COLUMNS, (
        [r.case, fmt(r.p1), fmt(r.p2), "", "", "", "", f"skipped: {r.note}"]
        if r.skipped else
        [r.case, fmt(r.p1), fmt(r.p2), fmt(r.estimate), fmt(r.ci_low),
         fmt(r.ci_high), fmt(r.p_value), ""]
        for r in rows))
