import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import OptimizeResult

import matchdid.cardmatch as cardmatch
from matchdid.cardmatch import (
    _max_balanced_selection,
    _pooled_sd,
    cardinality_match,
    pair_covariates,
    pair_within_selection,
    selection_feasible,
    std_diff,
)
from matchdid.errors import ConvergenceError, DataValidationError
from matchdid.model import COVARIATE_NAMES, ClusterPair, PairCategory, Quadruple, Role
from matchdid.synth import ScenarioConfig, generate

from conftest import classified_pairs, make_cluster


class TestStdDiff:
    def test_identical_groups(self):
        assert std_diff([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_oracle(self):
        # means 0.5 vs 1.5, pooled sd sqrt((0.5 + 0.5)/2) = sqrt(0.5)
        assert std_diff([0.0, 1.0], [1.0, 2.0]) == pytest.approx(
            1.0 / math.sqrt(0.5), abs=1e-12)
        assert std_diff([0.0, 1.0], [1.0, 2.0]) == pytest.approx(
            1.4142135623730951, abs=1e-12)

    def test_constant_unequal_is_infinite(self):
        assert std_diff([1.0, 1.0], [2.0, 2.0]) == math.inf

    def test_constant_equal_is_zero(self):
        assert std_diff([1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_empty_group_rejected(self):
        with pytest.raises(DataValidationError):
            std_diff([], [1.0])

    def test_direct_formula_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            t = rng.normal(0, 1, rng.integers(2, 20))
            c = rng.normal(0.5, 2, rng.integers(2, 20))
            s = math.sqrt((t.var(ddof=1) + c.var(ddof=1)) / 2)
            assert std_diff(t, c) == pytest.approx(
                abs(t.mean() - c.mean()) / s, rel=1e-12)


def _pair(pid, country, covs, category, role_year=(2003, 2012)):
    early = make_cluster(f"{pid}e", country=country, survey_year=role_year[0],
                         role=Role.EARLY, covariates=covs)
    late = make_cluster(f"{pid}l", country=country, survey_year=role_year[1],
                        role=Role.LATE, covariates=covs)
    return ClusterPair(early=early, late=late, category=category)


def _random_pair(pid, country, rng, category, shift=0.0):
    covs = {
        "electricity": float(np.clip(rng.normal(0.4 + shift, 0.15), 0, 1)),
        "floor": float(np.clip(rng.normal(1.9 + shift, 0.3), 1, 3)),
        "toilet": float(np.clip(rng.normal(0.6 + shift, 0.15), 0, 1)),
        "urban": float(np.clip(rng.normal(0.3 + shift, 0.15), 0, 1)),
        "mother_education": float(np.clip(rng.normal(0.9 + shift, 0.3), 0, 2)),
        "contraception": float(np.clip(rng.normal(0.2 + shift, 0.1), 0, 1)),
    }
    return _pair(pid, country, covs, category)


def oracle_max_cardinality(x, y, tau):
    """Subset enumeration entirely independent of the solver."""
    for k in range(min(len(x), len(y)), 0, -1):
        sums_t = np.array([x[list(s)].sum(axis=0)
                           for s in itertools.combinations(range(len(x)), k)])
        sums_c = np.array([y[list(s)].sum(axis=0)
                           for s in itertools.combinations(range(len(y)), k)])
        gaps = np.abs(sums_t[:, None, :] - sums_c[None, :, :])
        if np.any(np.all(gaps <= k * tau + 1e-9 * (1.0 + k * tau), axis=2)):
            return k
    return 0


class TestCardinalityMatch:
    def test_identical_candidates_match_fully(self):
        rng = np.random.default_rng(0)
        covs = {
            "electricity": 0.4, "floor": 2.0, "toilet": 0.7, "urban": 0.3,
            "mother_education": 1.1, "contraception": 0.2,
        }
        treated = [_pair(f"t{i}", "C00", covs, PairCategory.HIGH_LOW)
                   for i in range(5)]
        control = [_pair(f"c{i}", "C00", covs, PairCategory.HIGH_HIGH)
                   for i in range(5)]
        quads, report = cardinality_match(treated, control, 0.1)
        assert len(quads) == 5
        assert report.is_balanced(0.1)
        assert all(r.stddiff_after == 0.0 for r in report.rows)

    def test_hopeless_singletons_give_empty(self):
        lo = {"electricity": 0.05, "floor": 1.1, "toilet": 0.1, "urban": 0.05,
              "mother_education": 0.1, "contraception": 0.05}
        hi = {"electricity": 0.95, "floor": 2.9, "toilet": 0.9, "urban": 0.95,
              "mother_education": 1.9, "contraception": 0.95}
        treated = [_pair("t", "C00", hi, PairCategory.HIGH_LOW)]
        control = [_pair("c", "C00", lo, PairCategory.HIGH_HIGH)]
        quads, report = cardinality_match(treated, control, 0.1)
        assert quads == []
        assert report.n_matched == 0

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            nt = int(rng.integers(2, 8))
            nc = int(rng.integers(2, 8))
            treated = [_random_pair(f"t{i}", "C00", rng, PairCategory.HIGH_LOW,
                                    shift=0.15) for i in range(nt)]
            control = [_random_pair(f"c{i}", "C01", rng, PairCategory.HIGH_HIGH)
                       for i in range(nc)]
            quads, report = cardinality_match(treated, control, 0.1)
            x = np.array([pair_covariates(p) for p in treated])
            y = np.array([pair_covariates(p) for p in control])
            tau = 0.1 * _pooled_sd(x, y)
            assert len(quads) == oracle_max_cardinality(x, y, tau)
            # post-hoc balance verification through the public std_diff rule
            if quads:
                assert report.is_balanced(0.1)

    def test_cross_country_quadruples_allowed(self):
        covs = {"electricity": 0.4, "floor": 2.0, "toilet": 0.7, "urban": 0.3,
                "mother_education": 1.1, "contraception": 0.2}
        treated = [_pair("t", "C00", covs, PairCategory.HIGH_LOW)]
        control = [_pair("c", "C07", covs, PairCategory.HIGH_HIGH)]
        quads, _ = cardinality_match(treated, control, 0.1)
        assert len(quads) == 1
        assert quads[0].treated.country != quads[0].control.country

    def test_undefined_covariates_rejected(self):
        covs = {"electricity": 0.4, "floor": 2.0, "toilet": 0.7, "urban": 0.3,
                "mother_education": 1.1, "contraception": 0.2}
        broken = dict(covs, toilet=None)
        treated = [_pair("t", "C00", broken, PairCategory.HIGH_LOW)]
        control = [_pair("c", "C00", covs, PairCategory.HIGH_HIGH)]
        with pytest.raises(DataValidationError):
            cardinality_match(treated, control, 0.1)

    def test_feasible_and_beats_random_baseline(self):
        rng = np.random.default_rng(17)
        nt, nc = 24, 24
        x = rng.normal(0.2, 1.0, (nt, 12))
        y = rng.normal(0.0, 1.0, (nc, 12))
        tau = 0.1 * _pooled_sd(x, y)
        sel_t, sel_c = _max_balanced_selection(x, y, tau)
        assert selection_feasible(x, y, sel_t, sel_c, tau)
        # random-restart baseline: best feasible size over 300 random draws
        baseline = 0
        for _ in range(300):
            k = int(rng.integers(1, min(nt, nc) + 1))
            st = list(rng.choice(nt, size=k, replace=False))
            sc = list(rng.choice(nc, size=k, replace=False))
            if selection_feasible(x, y, st, sc, tau):
                baseline = max(baseline, k)
        assert len(sel_t) >= baseline

    def test_node_cap_returns_verified_incumbent(self, monkeypatch, caplog):
        # acceptance 7's scenario at seed 5009: about 220 nodes prove the
        # optimum of 17
        cfg = ScenarioConfig(
            n_countries=4, regions_per_country=12, births_per_cluster=12,
            covariate_imbalance=0.05, decline_fraction=0.5,
            stable_high_fraction=0.5, missingness="mcar", missing_rate=0.15)
        classified = classified_pairs(generate(cfg, 5009))
        treated = [p for p in classified if p.category is PairCategory.HIGH_LOW]
        control = [p for p in classified if p.category is PairCategory.HIGH_HIGH]
        monkeypatch.setattr(cardmatch, "_MAX_NODES", 1)
        with caplog.at_level(logging.WARNING, logger="matchdid.cardmatch"):
            quads, report = cardinality_match(treated, control, 0.1)
        assert 0 < len(quads) < 17
        assert report.is_balanced(0.1)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert f"incumbent of {len(quads)}" in caplog.records[0].getMessage()

    def test_no_solution_raises_convergence_error(self, monkeypatch):
        def no_solution(*args, **kwargs):
            return OptimizeResult(x=None, status=4, message="node limit")
        monkeypatch.setattr(cardmatch, "linprog", no_solution)
        rng = np.random.default_rng(3)
        treated = [_random_pair(f"t{i}", "C00", rng, PairCategory.HIGH_LOW)
                   for i in range(3)]
        control = [_random_pair(f"c{i}", "C00", rng, PairCategory.HIGH_HIGH)
                   for i in range(3)]
        with pytest.raises(ConvergenceError):
            cardinality_match(treated, control, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(nt=st.integers(1, 6), nc=st.integers(1, 6),
           threshold=st.floats(0.05, 0.4), seed=st.integers(0, 2**32 - 1))
    def test_selection_is_feasible_maximal_and_repeatable(
            self, nt, nc, threshold, seed):
        rng = np.random.default_rng(seed)
        treated = [_random_pair(f"t{i}", "C00", rng, PairCategory.HIGH_LOW,
                                shift=0.1) for i in range(nt)]
        control = [_random_pair(f"c{i}", "C01", rng, PairCategory.HIGH_HIGH)
                   for i in range(nc)]
        quads, _ = cardinality_match(treated, control, threshold)
        again, _ = cardinality_match(treated, control, threshold)
        x = np.array([pair_covariates(p) for p in treated])
        y = np.array([pair_covariates(p) for p in control])
        tau = threshold * _pooled_sd(x, y)
        sel_t = [treated.index(q.treated) for q in quads]
        sel_c = [control.index(q.control) for q in quads]
        assert selection_feasible(x, y, sel_t, sel_c, tau)
        assert len(quads) == oracle_max_cardinality(x, y, tau)
        assert quads == again


class TestPairWithinSelection:
    def _pairs(self, n, prefix, category, rng):
        return [_random_pair(f"{prefix}{i}", "C00", rng, category)
                for i in range(n)]

    def test_singletons(self):
        rng = np.random.default_rng(23)
        t = self._pairs(1, "t", PairCategory.HIGH_LOW, rng)
        c = self._pairs(1, "c", PairCategory.HIGH_HIGH, rng)
        assert pair_within_selection(t, c) == [(0, 0)]

    def test_identical_units_lexicographic(self):
        covs = {"electricity": 0.4, "floor": 2.0, "toilet": 0.7, "urban": 0.3,
                "mother_education": 1.1, "contraception": 0.2}
        t = [_pair(f"t{i}", "C00", covs, PairCategory.HIGH_LOW) for i in range(3)]
        c = [_pair(f"c{i}", "C00", covs, PairCategory.HIGH_HIGH) for i in range(3)]
        assert pair_within_selection(t, c) == [(0, 0), (1, 1), (2, 2)]

    def test_matches_permutation_brute_force(self):
        rng = np.random.default_rng(29)
        t = self._pairs(4, "t", PairCategory.HIGH_LOW, rng)
        c = self._pairs(4, "c", PairCategory.HIGH_HIGH, rng)
        pairs = pair_within_selection(t, c)
        # independent cost: pooled-covariance Mahalanobis, same ridge rule
        u = np.array([pair_covariates(p) for p in t])
        v = np.array([pair_covariates(p) for p in c])
        pooled = np.vstack([u, v])
        cov = np.cov(pooled, rowvar=False, ddof=1) + 1e-8 * np.eye(12)
        inv = np.linalg.inv(cov)

        def cost(i, j):
            d = u[i] - v[j]
            return math.sqrt(d @ inv @ d)

        total = sum(cost(i, j) for i, j in pairs)
        best = min(
            sum(cost(i, p[i]) for i in range(4))
            for p in itertools.permutations(range(4))
        )
        assert total == pytest.approx(best, rel=1e-9)

    def test_unequal_sizes_rejected(self):
        rng = np.random.default_rng(31)
        t = self._pairs(2, "t", PairCategory.HIGH_LOW, rng)
        c = self._pairs(3, "c", PairCategory.HIGH_HIGH, rng)
        with pytest.raises(DataValidationError):
            pair_within_selection(t, c)


class TestBalanceReport:
    def test_fixture_report_verifies_independently(self, matched):
        classified, quadruples, report = matched
        if not quadruples:
            pytest.skip("fixture produced no quadruples")
        treated_all = [p for p in classified
                       if p.category is PairCategory.HIGH_LOW
                       and p.early.covariates_defined()
                       and p.late.covariates_defined()]
        control_all = [p for p in classified
                       if p.category is PairCategory.HIGH_HIGH
                       and p.early.covariates_defined()
                       and p.late.covariates_defined()]
        x = np.array([pair_covariates(p) for p in treated_all])
        y = np.array([pair_covariates(p) for p in control_all])
        sel_t = np.array([pair_covariates(q.treated) for q in quadruples])
        sel_c = np.array([pair_covariates(q.control) for q in quadruples])
        s_pool = _pooled_sd(x, y)
        for j in range(12):
            gap = abs(sel_t[:, j].mean() - sel_c[:, j].mean())
            sd = gap / s_pool[j] if s_pool[j] > 0 else (0.0 if gap == 0 else math.inf)
            assert sd <= 0.1 + 1e-9
            assert report.rows[j].stddiff_after == pytest.approx(sd, abs=1e-12)
