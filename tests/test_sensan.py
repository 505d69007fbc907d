import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from matchdid import infer, sensan
from matchdid.errors import DataValidationError
from matchdid.impute import draw_imputations
from matchdid.infer import REGRESSORS, MixedModelData, run_primary_analysis
from matchdid.sensan import (
    _CLASS_LOW,
    _CLASS_OUTCOME,
    U_REGRESSOR,
    _BlockU,
    case_label,
    default_grid,
    sensitivity_fit,
    sensitivity_grid,
    u_probability,
    write_sensitivity_csv,
)
from matchdid._util import substream


class TestUProbability:
    def test_probability_arithmetic(self):
        assert u_probability(1, 0, 10.0, 0.0) == pytest.approx(0.6, abs=1e-15)
        assert u_probability(0, 1, 10.0, 5.0) == pytest.approx(0.55, abs=1e-15)
        assert u_probability(1, 1, 10.0, 5.0) == pytest.approx(0.65, abs=1e-15)
        assert u_probability(0, 0, 10.0, 5.0) == 0.5

    def test_misaligned_vectors(self):
        with pytest.raises(DataValidationError):
            u_probability(np.ones(3), np.ones(4), 0.0, 0.0)


class TestCaseLabel:
    @pytest.mark.parametrize("p1,p2,case", [
        (5, 5, 1), (5, -5, 2), (-5, 5, 3), (-5, -5, 4), (0, 5, 0), (5, 0, 0),
    ])
    def test_labels(self, p1, p2, case):
        assert case_label(p1, p2) == case


class TestSensitivityFit:
    def test_null_parameters_agree_with_primary(self, analysis):
        design, _, sets = analysis
        primary = run_primary_analysis(design, sets)
        res = sensitivity_fit(design, sets, 0.0, 0.0, seed=42)
        k1p = primary.pooled["low_prevalence"]
        se = math.sqrt(k1p.total_var)
        assert abs(res.k1.estimate - k1p.estimate) < 3 * se

    def test_lambda_reported_and_tracks_p2(self, analysis):
        design, _, sets = analysis
        pos = sensitivity_fit(design, sets, 5.0, 20.0, seed=1)
        neg = sensitivity_fit(design, sets, 5.0, -20.0, seed=1)
        assert pos.lam.estimate > neg.lam.estimate
        assert math.isfinite(pos.lam.p_value)

    def test_deterministic_under_seed(self, analysis):
        design, _, sets = analysis
        a = sensitivity_fit(design, sets, 5.0, 5.0, seed=7)
        b = sensitivity_fit(design, sets, 5.0, 5.0, seed=7)
        assert a.k1.estimate == b.k1.estimate
        assert a.k1.total_var == b.k1.total_var
        c = sensitivity_fit(design, sets, 5.0, 5.0, seed=8)
        assert c.k1.estimate != a.k1.estimate

    def test_monotone_in_p2_with_case_directionality(self, analysis):
        design, _, sets = analysis
        p2_grid = (-20.0, -10.0, 10.0, 20.0)
        up = [sensitivity_fit(design, sets, 20.0, p2, seed=99).k1.estimate
              for p2 in p2_grid]
        assert all(b < a for a, b in zip(up, up[1:]))      # decreasing in p2
        down = [sensitivity_fit(design, sets, -20.0, p2, seed=99).k1.estimate
                for p2 in p2_grid]
        assert all(b > a for a, b in zip(down, down[1:]))  # increasing in p2

    def test_invalid_parameters_fail_before_draws(self, analysis, monkeypatch):
        design, _, sets = analysis
        drawn = []
        monkeypatch.setattr(sensan, "substream", lambda *key: drawn.append(key))
        with pytest.raises(DataValidationError):
            sensitivity_fit(design, sets, 30.0, 30.0, seed=2)
        # no U generator was ever made
        assert drawn == []


class TestCollinearU:
    @pytest.mark.parametrize("column", ["constant", "low_prevalence"])
    def test_collinear_u_is_refused_by_name(self, analysis, column):
        design, _, sets = analysis
        low = design.X[:, design.regressors.index("low_prevalence")]
        rng = substream(4, "test-collinear")
        U = rng.integers(0, 2, (len(sets), design.n_records))
        U[3] = np.ones_like(low) if column == "constant" else low
        data = MixedModelData(design.X, design.cluster_codes, design.regressors)
        with pytest.raises(DataValidationError,
                           match=f"collinear columns: {U_REGRESSOR}"):
            data.fit(sets, U_REGRESSOR,
                     stats=data._border(data.outcomes(sets), U, [sets])[:2])


class TestGrid:
    def test_default_grid_has_32_points_in_4_cases(self):
        grid = default_grid()
        assert len(grid) == 32
        cases = [case_label(p1, p2) for p1, p2 in grid]
        for case in (1, 2, 3, 4):
            assert cases.count(case) == 8

    def test_no_confounder_consistency_on_default_grid(self, analysis):
        design, _, sets = analysis
        primary = run_primary_analysis(design, sets)
        k1p = primary.pooled["low_prevalence"]
        se = math.sqrt(k1p.total_var)
        rows = sensitivity_grid(design, sets, seed=31)
        assert len(rows) == 32
        for row in rows:
            assert not row.skipped
            assert abs(row.estimate - k1p.estimate) < 3 * se

    def test_zero_point_reproduces_primary(self, analysis):
        design, _, sets = analysis
        primary = run_primary_analysis(design, sets)
        rows = sensitivity_grid(design, sets, seed=3, grid=[(0.0, 0.0)])
        k1p = primary.pooled["low_prevalence"]
        assert abs(rows[0].estimate - k1p.estimate) < 3 * math.sqrt(k1p.total_var)

    def test_invalid_point_skipped_with_note(self, analysis, tmp_path):
        design, _, sets = analysis
        rows = sensitivity_grid(design, sets, seed=3,
                                grid=[(60.0, 60.0), (0.0, 0.0)])
        assert rows[0].skipped and "outside [0, 1]" in rows[0].note
        assert not rows[1].skipped
        path = tmp_path / "sensitivity.csv"
        write_sensitivity_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "case,p1,p2,estimate,ci_low,ci_high,p_value,note"
        assert "skipped" in lines[1]

    def test_grid_deterministic(self, analysis):
        design, _, sets = analysis
        small = [(2.5, 5.0), (-2.5, -5.0)]
        a = sensitivity_grid(design, sets, seed=17, grid=small)
        b = sensitivity_grid(design, sets, seed=17, grid=small)
        assert [(r.estimate, r.ci_low, r.ci_high) for r in a] == \
               [(r.estimate, r.ci_low, r.ci_high) for r in b]


class TestCommonRandomNumbers:
    def test_updated_u_statistics_equal_border_at_every_point(self, analysis):
        # U = V < P(U=1) from one V per replicate; moving between the points
        # of the default grid must give _border's statistics bit for bit
        design, _, sets = analysis
        data = MixedModelData(design.X, design.cluster_codes, design.regressors)
        low = design.X[:, design.regressors.index("low_prevalence")]
        V = [substream(9, "sensan", m).random(design.n_records)
             for m in range(1, len(sets) + 1)]
        grid = default_grid()
        probs = [u_probability(_CLASS_LOW, _CLASS_OUTCOME, *point)
                 for point in grid]
        base = data.outcomes(sets)
        state = _BlockU(data, design.X, base, sets, 9, 1, probs)
        for j, (p1, p2) in enumerate(grid):
            if j:
                state.move(j)
            U = np.array([v < u_probability(low, y, p1, p2)
                          for v, y in zip(V, sets)])
            for a, b in zip(state.stats, data._border(base, U, [sets])[:2]):
                assert np.array_equal(a, b), (p1, p2)

    @staticmethod
    def _u_means(p1, p2, seed):
        """The sweep's U at (p1, p2) for one replicate of 100,000 records,
        every other one low prevalence and none with a completed outcome:
        U's mean over all records and over the low-prevalence ones, read
        off U's cross products with the intercept and the indicator."""
        n = 100_000
        X = np.column_stack([np.ones(n), np.arange(n) % 2])
        data = MixedModelData(X, np.arange(n) // 100,
                              ("intercept", "low_prevalence"))
        Y = np.zeros((1, n), dtype=np.int8)
        probs = [u_probability(_CLASS_LOW, _CLASS_OUTCOME, p1, p2)]
        state = _BlockU(data, X, data.outcomes(Y), Y, seed, 1, probs)
        ones, on_low = state.gram[0, data.p, :data.p]
        return ones / n, on_low / (n // 2)

    def test_pure_noise_mean(self):
        mean, _ = self._u_means(0.0, 0.0, seed=0)
        assert abs(mean - 0.5) < 3 * math.sqrt(0.25 / 100_000)

    def test_shifted_mean(self):
        _, on_low = self._u_means(10.0, 5.0, seed=1)
        assert abs(on_low - 0.6) < 3 * math.sqrt(0.6 * 0.4 / 50_000)

    def test_grid_rows_equal_sensitivity_fit_over_two_blocks(self, analysis):
        design, model, _ = analysis
        imputed = draw_imputations(model, design.records, infer._BLOCK + 6,
                                   seed=43)
        small = [(2.5, 5.0), (-7.5, 10.0), (10.0, -5.0)]
        rows = sensitivity_grid(design, imputed, seed=29, grid=small)
        for row, (p1, p2) in zip(rows, small):
            k1 = sensitivity_fit(design, imputed, p1, p2, seed=29).k1
            assert (row.estimate, row.ci_low, row.ci_high, row.p_value) == \
                (k1.estimate, k1.ci_low, k1.ci_high, k1.p_value)

    def test_design_that_is_not_integer_valued_is_refused(self, analysis):
        design, _, sets = analysis
        X = design.X.copy()
        X[:, design.regressors.index("wealth_index")] += 0.5
        shifted = dataclasses.replace(design, X=X)
        with pytest.raises(DataValidationError,
                           match="integer-valued design; not integer-valued: "
                                 "wealth_index"):
            sensitivity_grid(shifted, sets, seed=3, grid=[(2.5, 5.0)])
        with pytest.raises(DataValidationError, match="integer-valued"):
            sensitivity_fit(shifted, sets, 2.5, 5.0, seed=3)


class TestSweepBlocks:
    def test_working_set_does_not_grow_with_m(self, analysis):
        # the sweep holds one block's U state and statistics at a time
        design, model, _ = analysis
        imputed = draw_imputations(model, design.records, 8 * infer._BLOCK,
                                   seed=47)
        peaks = []
        for m in (infer._BLOCK, 8 * infer._BLOCK):
            tracemalloc.start()
            try:
                sensitivity_grid(design, imputed[:m], seed=5,
                                 grid=[(2.5, 5.0), (-5.0, -10.0)])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_one_edge_warning_and_one_record_per_point(self, analysis,
                                                       caplog):
        # outcomes constant within each cluster drive every refit to the
        # upper end of the variance-ratio range, in both blocks
        design, _, _ = analysis
        m = infer._BLOCK + 6
        rng = substream(8, "test-edge")
        imputed = (rng.random((m, design.n_clusters)) < 0.3).astype(
            np.int8)[:, design.cluster_codes]
        grid = [(2.5, 5.0), (-5.0, -10.0)]
        with caplog.at_level(logging.DEBUG):
            sensitivity_grid(design, imputed, seed=2, grid=grid)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == len(grid)
        assert all(f"{m} of {m} REML fits ended on the edge" in w
                   for w in warnings)
        points = [r.getMessage() for r in caplog.records
                  if r.name == "matchdid.sensan"]
        assert [p.split(":")[0] for p in points] == [
            "sensitivity point (2.5, 5)", "sensitivity point (-5, -10)"]
