"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (`pytest tests/test_acceptance.py -v -s`).

The slow criteria (mixed-model calibration, imputation-engine bias,
end-to-end coverage) are Monte-Carlo runs over frozen seeds, so their
outcomes are deterministic.
"""

import itertools
import math

import numpy as np
import pytest

from matchdid.cardmatch import _pooled_sd, cardinality_match, pair_covariates
from matchdid.classify import classify_pairs
from matchdid.geomatch import assignment_indices, haversine_km, match_country
from matchdid.impute import draw_imputations, fit_imputation_model
from matchdid.infer import (
    COVARIATE_REGRESSORS,
    REGRESSORS,
    build_design,
    did_contrasts,
    fit_mixed_lpm,
    rubin_combine,
    run_primary_analysis,
)
from matchdid.ingest import filter_births
from matchdid.model import (
    ClusterPair,
    ClusterRecord,
    GeoPoint,
    PairCategory,
    Quadruple,
    Role,
)
from matchdid.pipeline import Workspace, run_pipeline, stage_simulate
from matchdid.sensan import sensitivity_fit, sensitivity_grid
from matchdid.synth import ScenarioConfig, generate
from matchdid.config import PRESETS, RunConfig
import dataclasses

from conftest import COVERAGE_SCENARIO


def _accept(name, ok, detail=""):
    print(f"\nACCEPT {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared generators


def _pair_from_covs(pid, covs, category):
    names = ("electricity", "floor", "toilet", "urban", "mother_education",
             "contraception")
    early = ClusterRecord(
        cluster_id=f"{pid}e", country="C00", survey_year=2003,
        role=Role.EARLY, location=GeoPoint(1.0, 10.0),
        covariates=dict(zip(names, covs[:6])), pfpr_by_year={2003: 0.5},
    )
    late = ClusterRecord(
        cluster_id=f"{pid}l", country="C00", survey_year=2012,
        role=Role.LATE, location=GeoPoint(1.0, 10.0),
        covariates=dict(zip(names, covs[6:])), pfpr_by_year={2012: 0.5},
    )
    return ClusterPair(early=early, late=late, category=category)


def _random_cov_row(rng, shift):
    unit = lambda c: float(np.clip(rng.normal(c + shift, 0.15), 0, 1))
    row = []
    for _ in range(2):  # early block then late block
        row += [unit(0.4), float(np.clip(rng.normal(1.9 + shift, 0.3), 1, 3)),
                unit(0.6), unit(0.3),
                float(np.clip(rng.normal(0.9 + shift, 0.3), 0, 2)), unit(0.2)]
    return row


def _pipeline_once(cfg, seed, m):
    data = generate(cfg, seed)
    pairs = []
    for country in sorted({c.country for c in data.clusters}):
        early = sorted((c for c in data.clusters
                        if c.country == country and c.role is Role.EARLY),
                       key=lambda c: c.cluster_id)
        late = sorted((c for c in data.clusters
                       if c.country == country and c.role is Role.LATE),
                      key=lambda c: c.cluster_id)
        pairs.extend(match_country(early, late))
    classified = classify_pairs(pairs)
    quads, _ = cardinality_match(
        [p for p in classified if p.category is PairCategory.HIGH_LOW],
        [p for p in classified if p.category is PairCategory.HIGH_HIGH], 0.1)
    births, _ = filter_births(data.births)
    design = build_design(births, quads)
    model = fit_imputation_model([r for r in design.records if r.lbw is not None])
    sets = draw_imputations(model, design.records, m, seed)
    return run_primary_analysis(design, sets)


def _truth_quadruples(data):
    flags = data.truth["clusters"]
    by_id = {c.cluster_id: c for c in data.clusters}
    treated, control = [], []
    for region in sorted({c.cluster_id[:-2] for c in data.clusters}):
        early, late = by_id[region + "-E"], by_id[region + "-L"]
        kind = flags[early.cluster_id]["kind"]
        if kind == "declining":
            treated.append(ClusterPair(early=early, late=late,
                                       category=PairCategory.HIGH_LOW))
        elif kind == "stable_high":
            control.append(ClusterPair(early=early, late=late,
                                       category=PairCategory.HIGH_HIGH))
    k = min(len(treated), len(control))
    return [Quadruple(treated=t, control=c)
            for t, c in zip(treated[:k], control[:k])]


# ---------------------------------------------------------------------------
# criteria


def test_01_naive_did_contrast_algebra():
    k1, k2, k3 = did_contrasts(9.33, 7.52, 9.18, 9.06)
    ok = abs(k1 - (-1.69)) < 1e-10
    _accept("1 naive-did-contrasts", ok, f"k1={k1!r}")


def test_02_rubin_rules():
    pooled = rubin_combine(np.array([[0.0], [2.0]]),
                           np.array([[1.0], [1.0]]), ["g"])["g"]
    ok = (abs(pooled.estimate - 1.0) < 1e-12
          and abs(pooled.between_var - 2.0) < 1e-12
          and abs(pooled.total_var - 4.0) < 1e-12
          and abs(pooled.df - 16.0 / 9.0) < 1e-12)
    degenerate = rubin_combine(np.full((4, 1), 0.5),
                               np.full((4, 1), 0.09), ["g"])["g"]
    half = 1.959963984540054 * 0.3
    ok = ok and math.isinf(degenerate.df)
    ok = ok and abs(degenerate.ci_high - (0.5 + half)) < 1e-9
    _accept("2 rubin-rules", ok,
            f"T={pooled.total_var}, df={pooled.df}, degen df={degenerate.df}")


def test_03_assignment_optimality():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        cost = rng.random((n, m)) * 10.0
        pairs = assignment_indices(cost)
        total = sum(cost[i, j] for i, j in pairs)
        k = min(n, m)
        best = min(
            sum(cost[r, c] for r, c in zip(rows, perm))
            for rows in itertools.combinations(range(n), k)
            for perm in itertools.permutations(range(m), k)
        )
        worst = max(worst, abs(total - best))
    _accept("3 assignment-optimality", worst < 1e-9, f"max gap {worst:.2e}")


def test_04_cardinality_matching_exactness():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(100):
        nt = int(rng.integers(1, 11))
        nc = int(rng.integers(1, 11))
        shift = float(rng.uniform(0.0, 0.3))
        treated = [_pair_from_covs(f"t{trial}_{i}", _random_cov_row(rng, shift),
                                   PairCategory.HIGH_LOW) for i in range(nt)]
        control = [_pair_from_covs(f"c{trial}_{i}", _random_cov_row(rng, 0.0),
                                   PairCategory.HIGH_HIGH) for i in range(nc)]
        quads, report = cardinality_match(treated, control, 0.1)

        x = np.array([pair_covariates(p) for p in treated])
        y = np.array([pair_covariates(p) for p in control])
        tau = 0.1 * _pooled_sd(x, y)
        oracle = 0
        for k in range(min(nt, nc), 0, -1):
            sums_t = np.array([x[list(s)].sum(axis=0)
                               for s in itertools.combinations(range(nt), k)])
            sums_c = np.array([y[list(s)].sum(axis=0)
                               for s in itertools.combinations(range(nc), k)])
            gaps = np.abs(sums_t[:, None, :] - sums_c[None, :, :])
            if np.any(np.all(gaps <= k * tau + 1e-9 * (1.0 + k * tau), axis=2)):
                oracle = k
                break
        if len(quads) != oracle:
            failures.append((trial, len(quads), oracle))
            continue
        # independent verification through the std_diff rule
        if quads:
            sel_t = np.array([pair_covariates(q.treated) for q in quads])
            sel_c = np.array([pair_covariates(q.control) for q in quads])
            s_pool = _pooled_sd(x, y)
            for j in range(12):
                gap = abs(sel_t[:, j].mean() - sel_c[:, j].mean())
                sd = (gap / s_pool[j] if s_pool[j] > 0
                      else (0.0 if gap == 0 else math.inf))
                if sd > 0.1 + 1e-9:
                    failures.append((trial, "balance", j, sd))
    _accept("4 cardinality-matching", not failures, f"failures={failures[:3]}")


def test_05_mixed_model():
    # (a) residuals centered within clusters force the boundary: GLS == OLS
    rng = np.random.default_rng(12)
    codes = np.repeat(np.arange(40), 8)
    n = len(codes)
    X = np.column_stack([np.ones(n), rng.normal(0, 1, n), rng.normal(0, 1, n)])
    eps = rng.normal(0, 0.4, n)
    for c in range(40):
        eps[codes == c] -= eps[codes == c].mean()
    y = X @ np.array([0.3, -0.2, 0.1]) + eps
    fit = fit_mixed_lpm(X, codes, y, ("a", "b", "c"))
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    gap = float(np.max(np.abs(fit.estimates[0] - ols)))
    ok_a = fit.sigma0_sq[0] == 0.0 and gap < 1e-6

    # (b) 100 replications of 200 clusters x 30 births from the linear
    # cell-probability model; per regressor, the estimate must fall inside
    # 3 SEs of truth in at least 95 replications
    truth = {
        "intercept": 0.20, "low_prevalence": -0.03, "late_period": -0.01,
        "treated_pair": 0.01, "mother_age": -0.004, "mother_age_sq": 0.00008,
        "birth_order": -0.03, "birth_order_sq": 0.007, "wealth_index": 0.002,
        "urban": 0.008, "mother_education": -0.012, "child_is_boy": -0.01,
        "married": -0.008, "antenatal": -0.006,
    }
    gamma = np.array([truth[name] for name in REGRESSORS])
    hits = {name: 0 for name in REGRESSORS}
    reps = 100
    rng = np.random.default_rng(2024)
    cells = np.array([(0, 0, 1), (1, 1, 1), (0, 0, 0), (0, 1, 0)])
    for _ in range(reps):
        n_clusters, per = 200, 30
        codes = np.repeat(np.arange(n_clusters), per)
        cell = cells[np.tile(np.arange(4), n_clusters // 4 + 1)[:n_clusters]]
        rows = np.empty((n_clusters * per, 14))
        rows[:, 0] = 1.0
        rows[:, 1:4] = cell[codes]
        age = rng.integers(15, 45, n_clusters * per).astype(float)
        order = rng.choice([1.0, 2.0, 3.0], n_clusters * per,
                           p=[0.25, 0.45, 0.30])
        rows[:, 4], rows[:, 5] = age, age * age
        rows[:, 6], rows[:, 7] = order, order * order
        rows[:, 8] = rng.integers(1, 6, n_clusters * per)
        rows[:, 9] = rng.integers(0, 2, n_clusters * per)
        rows[:, 10] = rng.integers(0, 3, n_clusters * per)
        rows[:, 11] = rng.integers(0, 2, n_clusters * per)
        rows[:, 12] = rng.integers(0, 2, n_clusters * per)
        rows[:, 13] = rng.integers(0, 2, n_clusters * per)
        alpha = rng.normal(0, 0.02, n_clusters)
        p = np.clip(rows @ gamma + alpha[codes], 0.001, 0.999)
        y = (rng.random(len(p)) < p).astype(float)
        fit = fit_mixed_lpm(rows, codes, y)
        for j, name in enumerate(REGRESSORS):
            if abs(fit.estimates[0, j] - truth[name]) <= 3 * fit.standard_errors[0, j]:
                hits[name] += 1
    worst = min(hits.values())
    ok_b = worst >= 95
    _accept("5 mixed-model", ok_a and ok_b,
            f"ols gap {gap:.2e}; min per-regressor hit rate {worst}/{reps}")


def test_06_imputation_engine_bias():
    cfg = ScenarioConfig(
        n_countries=5, regions_per_country=25, births_per_cluster=60,
        covariate_imbalance=0.0, decline_fraction=0.5,
        stable_high_fraction=0.5, missingness="covariate", missing_rate=0.47,
        size_given_lbw=(0.97, 0.025, 0.005),
        size_given_normal=(0.004, 0.336, 0.66),
    )
    estimates = []
    missing_fractions = []
    for seed in range(100):
        data = generate(cfg, 9000 + seed)
        quads = _truth_quadruples(data)
        births, _ = filter_births(data.births)
        design = build_design(births, quads)
        missing_fractions.append(float(np.isnan(design.observed_lbw).mean()))
        model = fit_imputation_model(
            [r for r in design.records if r.lbw is not None])
        sets = draw_imputations(model, design.records, 50, 9000 + seed)
        result = run_primary_analysis(design, sets)
        estimates.append(result.pooled["low_prevalence"].estimate)
    bias = float(np.mean(estimates)) - cfg.coefficients.k1
    rate = float(np.mean(missing_fractions))
    ok = abs(bias) < 0.003 and abs(rate - 0.47) < 0.02
    _accept("6 imputation-bias", ok,
            f"bias {bias * 100:+.3f} pp at {rate:.0%} missingness, M=50")


def test_07_end_to_end_coverage():
    cfg = COVERAGE_SCENARIO
    truth = cfg.coefficients.k1
    assert truth == -0.03
    covered = 0
    reps = 200
    for seed in range(reps):
        result = _pipeline_once(cfg, 5000 + seed, m=20)
        k1 = result.pooled["low_prevalence"]
        if k1.ci_low <= truth <= k1.ci_high:
            covered += 1
    rate = covered / reps
    _accept("7 end-to-end-coverage", 0.90 <= rate <= 0.98,
            f"coverage {covered}/{reps} = {rate:.3f}")


def test_08_sensitivity_consistency(analysis):
    design, _, sets = analysis
    primary = run_primary_analysis(design, sets).pooled["low_prevalence"]
    se = math.sqrt(primary.total_var)
    null = sensitivity_fit(design, sets, 0.0, 0.0, seed=404)
    ok_null = abs(null.k1.estimate - primary.estimate) < 3 * se

    first = sensitivity_grid(design, sets, seed=505)
    second = sensitivity_grid(design, sets, seed=505)
    ok_grid = (len(first) == 32
               and all(not r.skipped for r in first)
               and [(r.estimate, r.ci_low, r.ci_high, r.p_value) for r in first]
               == [(r.estimate, r.ci_low, r.ci_high, r.p_value) for r in second])
    _accept("8 sensitivity-consistency", ok_null and ok_grid,
            f"|null gap| {abs(null.k1.estimate - primary.estimate):.5f} "
            f"vs 3se {3 * se:.5f}; grid rows {len(first)}")


def test_09_haversine_geometry():
    zero = haversine_km(GeoPoint(12.0, -3.0), GeoPoint(12.0, -3.0))
    anti = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
    degree = haversine_km(GeoPoint(0, 0), GeoPoint(0, 1))
    ok = (zero == 0.0 and abs(anti - 20015.09) < 0.01
          and abs(degree - 111.19) < 0.01)
    _accept("9 haversine", ok, f"{zero}, {anti:.4f}, {degree:.4f}")


def test_10_stage_determinism(tmp_path):
    cfg = dataclasses.replace(
        PRESETS["quickstart"],
        model=dataclasses.replace(PRESETS["quickstart"].model, imputations=8),
        scenario=ScenarioConfig(
            n_countries=3, regions_per_country=12, births_per_cluster=10,
            covariate_imbalance=0.05, decline_fraction=0.5,
            stable_high_fraction=0.5, missingness="mcar", missing_rate=0.3),
        sensitivity=dataclasses.replace(
            PRESETS["quickstart"].sensitivity, grid=((5.0, 10.0), (-5.0, -10.0))),
    )
    artifacts = [
        "clusters.csv", "prevalence.csv", "births.csv", "truth.json",
        "study_years.csv", "births_filtered.csv", "pairs.csv",
        "quadruples.csv", "balance.csv", "imputation_model.json",
        "imputations.csv", "results.csv", "diagnostics.csv",
        "sensitivity.csv", "match_diagnostics.csv",
    ]
    runs = {}
    for label in ("a", "c"):
        out = tmp_path / label
        ws = Workspace(cfg, out)
        stage_simulate(ws, 77)
        run_pipeline(ws, 77)
        runs[label] = {name: (out / name).read_bytes() for name in artifacts}
    same = all(runs["a"][n] == runs["c"][n] for n in artifacts)
    _accept("10 determinism", same, f"rerun identical: {same}")
