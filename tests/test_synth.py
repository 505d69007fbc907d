import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from matchdid.errors import DataValidationError
from matchdid.ingest import read_births, read_clusters
from matchdid.model import Coefficients
from matchdid.synth import ScenarioConfig, UTrue, gen_scenario, generate


class TestConfig:
    def test_validation(self):
        with pytest.raises(DataValidationError):
            ScenarioConfig(decline_fraction=0.7, stable_high_fraction=0.5)
        with pytest.raises(DataValidationError):
            ScenarioConfig(missingness="weird")
        with pytest.raises(DataValidationError):
            ScenarioConfig(early_year=1999)
        with pytest.raises(DataValidationError, match="multiple_birth_rate"):
            ScenarioConfig(multiple_birth_rate=1.5)
        with pytest.raises(DataValidationError, match="missing_size_rate"):
            ScenarioConfig(missing_size_rate=-0.2)


class TestDeterminism:
    def test_same_seed_same_files(self, tmp_path):
        cfg = ScenarioConfig(n_countries=2, regions_per_country=4,
                             births_per_cluster=6, missingness="mcar",
                             missing_rate=0.4)
        a, b = tmp_path / "a", tmp_path / "b"
        gen_scenario(cfg, 9, a)
        gen_scenario(cfg, 9, b)
        for name in ("clusters.csv", "prevalence.csv", "births.csv",
                     "truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        cfg = ScenarioConfig(n_countries=1, regions_per_country=3,
                             births_per_cluster=5)
        a, b = tmp_path / "a", tmp_path / "b"
        gen_scenario(cfg, 1, a)
        gen_scenario(cfg, 2, b)
        assert (a / "births.csv").read_bytes() != (b / "births.csv").read_bytes()

    def test_cluster_files_pinned(self, tmp_path):
        # the benchmark's quickstart scenario: the births substreams are
        # apart from the region and cluster ones, so no change to the birth
        # draws may move these files, nor the pairing and selection that
        # read them
        cfg = ScenarioConfig(n_countries=3, regions_per_country=12,
                             births_per_cluster=25, covariate_imbalance=0.05,
                             decline_fraction=0.5, stable_high_fraction=0.5,
                             missingness="mcar", missing_rate=0.3)
        gen_scenario(cfg, 1, tmp_path)
        pinned = {
            "clusters.csv": "64a0b265697b0077d059ba2a827a5030"
                            "e755de79ac67569e9158e2f5241267d9",
            "prevalence.csv": "4b946460a3e9605bdd5930429f54e915"
                              "82c752ffb15007d4b7c70ce46535c2d8",
            "truth.json": "5fb5d8a19a8396bb6ace4218562d73ef"
                          "2326b7488bd11614179ff54a62f6238e",
        }
        for name, digest in pinned.items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest, name


class TestScenarioContents:
    def test_emits_ingest_schemas(self, tmp_path):
        cfg = ScenarioConfig(n_countries=2, regions_per_country=3,
                             births_per_cluster=5, missingness="covariate",
                             missing_rate=0.3)
        truth = gen_scenario(cfg, 4, tmp_path)
        clusters, warn_c = read_clusters(tmp_path / "clusters.csv",
                                         tmp_path / "prevalence.csv")
        births, warn_b = read_births(tmp_path / "births.csv")
        assert warn_c == [] and warn_b == []
        assert len(clusters) == truth["n_clusters"] == 2 * 3 * 2
        assert len(births) == truth["n_births"]
        assert all(set(c.pfpr_by_year) == set(range(2000, 2016))
                   for c in clusters)

    def test_truth_records_generative_parameters(self, tmp_path):
        cfg = ScenarioConfig(n_countries=1, regions_per_country=2,
                             births_per_cluster=4)
        truth = gen_scenario(cfg, 5, tmp_path)
        on_disk = json.loads((tmp_path / "truth.json").read_text())
        assert on_disk == truth
        assert truth["coefficients"]["k1"] == cfg.coefficients.k1
        assert truth["clip_bounds"] == [0.001, 0.999]
        assert len(truth["clusters"]) == 4
        for flags in truth["clusters"].values():
            assert set(flags) == {"kind", "low_prevalence", "late_period",
                                  "treated_pair"}

    def test_zero_late_regions_emit_zero_trajectories(self):
        cfg = ScenarioConfig(n_countries=1, regions_per_country=12,
                             births_per_cluster=2, decline_fraction=0.0,
                             stable_high_fraction=0.0, zero_late_fraction=1.0)
        data = generate(cfg, seed=2)
        late = [c for c in data.clusters if c.role.value == "late"]
        assert late and all(all(v == 0.0 for v in c.pfpr_by_year.values())
                            for c in late)


class TestOutcomeModel:
    def test_cell_frequencies_match_linear_probabilities(self):
        # no covariate effects, no random intercept: cell rates are exact
        coeffs = Coefficients(k0=0.12, k1=-0.04, k2=-0.01, k3=0.02,
                              beta=(0.0,) * 10, sigma0=0.0)
        cfg = ScenarioConfig(n_countries=2, regions_per_country=12,
                             births_per_cluster=220, coefficients=coeffs,
                             decline_fraction=0.5, stable_high_fraction=0.5,
                             multiple_birth_rate=0.0, missing_size_rate=0.0)
        data = generate(cfg, seed=14)
        flags = data.truth["clusters"]
        for low, late, treated in [(0, 0, 1), (1, 1, 1), (0, 0, 0), (0, 1, 0)]:
            cell = [b for b in data.births
                    if flags[b.cluster_id]["low_prevalence"] == low
                    and flags[b.cluster_id]["late_period"] == late
                    and flags[b.cluster_id]["treated_pair"] == treated]
            if not cell:
                continue
            rate = float(np.mean([b.lbw for b in cell]))
            expected = (coeffs.k0 + coeffs.k1 * low + coeffs.k2 * late
                        + coeffs.k3 * treated)
            sd = math.sqrt(expected * (1 - expected) / len(cell))
            assert abs(rate - expected) < 4 * sd

    def test_mcar_missingness_independent_of_outcome(self):
        cfg = ScenarioConfig(n_countries=2, regions_per_country=10,
                             births_per_cluster=150, missingness="mcar",
                             missing_rate=0.4)
        data = generate(cfg, seed=6)
        # MCAR is decided before the outcome is blanked, so compare the
        # generating outcome via a re-run without missingness
        complete = generate(
            replace(cfg, missingness="none", missing_rate=0.0), seed=6)
        lbw = np.array([b.lbw for b in complete.births], dtype=float)
        missing = np.array([b.lbw is None for b in data.births])
        assert len(lbw) == len(missing)
        r1 = missing[lbw == 1].mean()
        r0 = missing[lbw == 0].mean()
        n1, n0 = (lbw == 1).sum(), (lbw == 0).sum()
        sd = math.sqrt(0.4 * 0.6 * (1 / n1 + 1 / n0))
        assert abs(r1 - r0) < 3 * sd

    def test_covariate_missingness_hits_target_rate(self):
        cfg = ScenarioConfig(n_countries=2, regions_per_country=10,
                             births_per_cluster=200, missingness="covariate",
                             missing_rate=0.47)
        data = generate(cfg, seed=7)
        frac = np.mean([b.lbw is None for b in data.births])
        n = len(data.births)
        assert abs(frac - 0.47) < 3 * math.sqrt(0.47 * 0.53 / n)

    def test_covariate_missingness_independent_of_outcome_within_strata(self):
        # the mechanism sees only covariates, so conditional on the
        # covariates that drive it, missingness ignores the outcome
        cfg = ScenarioConfig(n_countries=2, regions_per_country=10,
                             births_per_cluster=300, missingness="covariate",
                             missing_rate=0.47)
        data = generate(cfg, seed=8)
        complete = generate(replace(cfg, missingness="none", missing_rate=0.0),
                            seed=8)
        lbw = np.array([b.lbw for b in complete.births], dtype=float)
        missing = np.array([b.lbw is None for b in data.births])
        strata = {}
        for i, b in enumerate(data.births):
            key = (b.wealth_index, b.urban, b.mother_education,
                   b.birth_order_code)
            strata.setdefault(key, []).append(i)
        gaps, weights = [], []
        for idx in strata.values():
            idx = np.array(idx)
            y1, y0 = idx[lbw[idx] == 1], idx[lbw[idx] == 0]
            if len(y1) >= 30 and len(y0) >= 30:
                gaps.append(missing[y1].mean() - missing[y0].mean())
                weights.append(1.0 / (0.25 / len(y1) + 0.25 / len(y0)))
        assert gaps, "no stratum large enough"
        pooled = float(np.average(gaps, weights=weights))
        se = 1.0 / math.sqrt(sum(weights))
        assert abs(pooled) < 3 * se

    def test_true_u_shifts_outcome(self):
        base = ScenarioConfig(n_countries=2, regions_per_country=10,
                              births_per_cluster=200)
        with_u = replace(base, u_true=UTrue(p1=10.0, p2=10.0, lam=0.08))
        a = generate(base, seed=3)
        b = generate(with_u, seed=3)
        rate_a = np.mean([x.lbw for x in a.births if x.lbw is not None])
        rate_b = np.mean([x.lbw for x in b.births if x.lbw is not None])
        # U adds lam * P(U=1) ~ 0.04 on average
        assert rate_b > rate_a + 0.02


def assert_frequencies(values, probs, z=4.0):
    """Every value is one of ``probs``' keys, and each key's count lies
    within ``z`` binomial standard deviations of ``len(values) * p``."""
    n, counts = len(values), Counter(values)
    assert set(counts) <= set(probs), set(counts) - set(probs)
    for value, p in probs.items():
        bound = z * math.sqrt(n * p * (1.0 - p))
        assert abs(counts[value] - n * p) <= bound, (value, counts[value], n * p)


class TestBirthColumns:
    """Each birth column whose probabilities the config fixes, or
    clusters.csv records, against them: one large cluster pair, every
    count within four binomial standard deviations."""

    @pytest.fixture(scope="class")
    def scenario(self):
        cfg = ScenarioConfig(n_countries=1, regions_per_country=1,
                             births_per_cluster=20000,
                             multiple_birth_rate=0.1, missing_size_rate=0.2)
        return cfg, generate(cfg, seed=21)

    def test_config_fixed_columns(self, scenario):
        births = scenario[1].births
        assert len(births) == 40000
        assert_frequencies([b.mother_age_years for b in births],
                           dict.fromkeys(range(15, 45), 1 / 30))
        assert_frequencies([b.child_age_years for b in births],
                           dict.fromkeys(range(5), 1 / 5))
        assert_frequencies([b.birth_order_code for b in births],
                           {1: 0.25, 2: 0.45, 3: 0.30})
        assert_frequencies([b.child_is_boy for b in births], {0: 0.5, 1: 0.5})
        assert_frequencies([b.married for b in births], {0: 0.15, 1: 0.85})
        assert_frequencies([b.multiple_birth for b in births],
                           {0: 0.9, 1: 0.1})
        assert_frequencies([b.reported_size is None for b in births],
                           {False: 0.8, True: 0.2})

    def test_cluster_recorded_columns(self, scenario):
        data = scenario[1]
        for cluster in data.clusters:
            births = [b for b in data.births
                      if b.cluster_id == cluster.cluster_id]
            assert len(births) == 20000
            urban = cluster.covariates["urban"]
            assert_frequencies([b.urban for b in births],
                               {0: 1.0 - urban, 1: urban})
            q = cluster.covariates["mother_education"] / 2.0
            assert_frequencies([b.mother_education for b in births],
                               {0: (1.0 - q) ** 2, 1: 2.0 * q * (1.0 - q),
                                2: q * q})

    def test_reported_size_given_outcome(self, scenario):
        cfg, data = scenario
        for lbw, probs in ((1, cfg.size_given_lbw),
                           (0, cfg.size_given_normal)):
            sizes = [b.reported_size.value for b in data.births
                     if b.lbw == lbw and b.reported_size is not None]
            assert len(sizes) > 1000
            assert_frequencies(sizes, dict(zip(("Small", "Average", "Large"),
                                               probs)))
