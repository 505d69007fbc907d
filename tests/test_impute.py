import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdid._util import fmt
from matchdid.errors import DataValidationError
from matchdid.impute import (
    IMPUTATION_COLUMNS,
    ImputedSet,
    design_matrix,
    draw_imputations,
    fit_imputation_model,
    penalized_logistic_mode,
    prior_scales,
    read_imputations_csv,
    write_imputations_csv,
    _objective,
)
from matchdid.model import BirthSize, ModelSpec

from conftest import make_birth


class TestDesign:
    def test_column_order_and_quadratics(self):
        b = make_birth(mother_age_years=30, birth_order_code=3, wealth_index=4,
                       urban=1, mother_education=2, child_is_boy=0, married=1,
                       antenatal=0, reported_size=BirthSize.SMALL)
        row = design_matrix([b])[0]
        assert list(row) == [1.0, 30.0, 900.0, 4.0, 3.0, 9.0, 1.0, 2.0, 0.0,
                             1.0, 0.0, 1.0, 0.0]
        assert len(IMPUTATION_COLUMNS) == 13

    def test_size_indicators(self):
        small = design_matrix([make_birth(reported_size=BirthSize.SMALL)])[0]
        avg = design_matrix([make_birth(reported_size=BirthSize.AVERAGE)])[0]
        large = design_matrix([make_birth(reported_size=BirthSize.LARGE)])[0]
        assert (small[11], small[12]) == (1.0, 0.0)
        assert (avg[11], avg[12]) == (0.0, 0.0)
        assert (large[11], large[12]) == (0.0, 1.0)

    def test_missing_size_rejected(self):
        with pytest.raises(DataValidationError):
            design_matrix([make_birth(reported_size=None)])


class TestPriorScales:
    def test_rules(self):
        rng = np.random.default_rng(2)
        records = [make_birth(child_id=str(i),
                              mother_age_years=int(rng.integers(15, 45)),
                              wealth_index=int(rng.integers(1, 6)),
                              urban=int(rng.integers(0, 2)),
                              lbw=int(rng.integers(0, 2)))
                   for i in range(60)]
        X = design_matrix(records)
        scales = prior_scales(X)
        assert scales[0] == 10.0
        # numeric predictors: 2.5 / (2 sd)
        age_sd = X[:, 1].std(ddof=1)
        assert scales[1] == pytest.approx(2.5 / (2 * age_sd), rel=1e-12)
        wealth_sd = X[:, 3].std(ddof=1)
        assert scales[3] == pytest.approx(2.5 / (2 * wealth_sd), rel=1e-12)
        # binary predictors: 2.5 flat
        assert scales[6] == 2.5         # urban
        assert scales[8] == 2.5         # child_is_boy
        assert scales[11] == 2.5        # size_small


class TestFit:
    def test_pure_prior_mode_is_zero(self):
        model = fit_imputation_model([])
        assert np.allclose(model.coefficients, 0.0)
        # prior curvature at zero is 2/s^2, so the Laplace variance is s^2/2
        np.testing.assert_allclose(np.diag(model.covariance),
                                   model.prior_scales ** 2 / 2.0, rtol=1e-8)

    def test_single_class_rejected(self):
        records = [make_birth(child_id=str(i), lbw=0) for i in range(5)]
        with pytest.raises(DataValidationError):
            fit_imputation_model(records)

    def test_separated_data_stays_finite(self):
        # perfect separation on one binary predictor
        X = np.array([[1.0, 0.0]] * 8 + [[1.0, 1.0]] * 8)
        y = np.array([0.0] * 8 + [1.0] * 8)
        beta, cov = penalized_logistic_mode(X, y, np.array([10.0, 2.5]))
        assert np.all(np.isfinite(beta))
        assert abs(beta[1]) < 12.0
        assert np.all(np.isfinite(cov))

    def test_mode_matches_grid_search(self):
        # single predictor, no intercept: grid search the penalized objective
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 40)
        y = (rng.random(40) < 1 / (1 + np.exp(-1.2 * x))).astype(float)
        X = x[:, None]
        scales = np.array([2.5])
        beta, _ = penalized_logistic_mode(X, y, scales)
        grid = np.arange(-6.0, 6.0, 1e-4)
        values = [_objective(np.array([b]), X, y, scales) for b in grid]
        best = grid[int(np.argmax(values))]
        assert beta[0] == pytest.approx(best, abs=1e-4)

    def test_covariance_spd(self, analysis):
        _, model, _ = analysis
        eigvals = np.linalg.eigvalsh(model.covariance)
        assert eigvals.min() > 0


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(5)
    observed = [make_birth(child_id=f"o{i}",
                           mother_age_years=int(rng.integers(15, 45)),
                           wealth_index=int(rng.integers(1, 6)),
                           reported_size=BirthSize.SMALL if rng.random() < 0.3
                           else BirthSize.AVERAGE,
                           lbw=int(rng.random() < 0.25))
                for i in range(300)]
    model = fit_imputation_model(observed)
    return observed, model


class TestDraw:

    def test_observed_entries_untouched(self, toy):
        observed, model = toy
        records = observed[:10] + [make_birth(child_id="miss", lbw=None)]
        sets = draw_imputations(model, records, 8, seed=3)
        for s in sets:
            assert list(s.lbw[:10]) == [r.lbw for r in records[:10]]
            assert s.lbw[10] in (0, 1)

    def test_default_m_is_500(self):
        assert ModelSpec().imputations == 500

    def test_deterministic_and_order_independent(self, toy):
        observed, model = toy
        records = [make_birth(child_id=f"m{i}", lbw=None) for i in range(20)]
        a = draw_imputations(model, records, 6, seed=11)
        b = draw_imputations(model, records, 6, seed=11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.lbw, sb.lbw)
        # replicate m's draw does not depend on how many replicates follow
        c = draw_imputations(model, records, 3, seed=11)
        for sa, sc in zip(a[:3], c):
            assert np.array_equal(sa.lbw, sc.lbw)
        d = draw_imputations(model, records, 6, seed=12)
        assert any(not np.array_equal(sa.lbw, sd.lbw) for sa, sd in zip(a, d))

    def test_monte_carlo_matches_posterior_mean_probability(self, toy):
        _, model = toy
        record = make_birth(child_id="miss", mother_age_years=22,
                            reported_size=BirthSize.SMALL, lbw=None)
        m = 10_000
        sets = draw_imputations(model, [record], m, seed=77)
        fraction = float(np.mean([s.lbw[0] for s in sets]))
        # oracle: direct Monte-Carlo integration of the posterior-normal
        # predictive probability with an unrelated generator
        x = design_matrix([record])[0]
        rng = np.random.default_rng(123456)
        chol = np.linalg.cholesky(model.covariance)
        draws = model.coefficients[None, :] + rng.standard_normal(
            (200_000, len(x))) @ chol.T
        p = 1.0 / (1.0 + np.exp(-np.clip(draws @ x, -35, 35)))
        target = float(p.mean())
        sd = math.sqrt(target * (1 - target) / m + p.var() / 200_000)
        assert abs(fraction - target) < 3 * sd

    def test_small_size_raises_probability_under_positive_draws(self, analysis):
        _, model, _ = analysis
        assert model.coefficients[11] > 0  # generated with that sign
        base = make_birth(child_id="x", reported_size=BirthSize.AVERAGE)
        small = make_birth(child_id="x", reported_size=BirthSize.SMALL)
        x_avg = design_matrix([base])[0]
        x_small = design_matrix([small])[0]
        rng = np.random.default_rng(9)
        chol = np.linalg.cholesky(model.covariance)
        for _ in range(50):
            draw = model.coefficients + chol @ rng.standard_normal(13)
            if draw[11] > 0:
                p_avg = 1 / (1 + math.exp(-float(x_avg @ draw)))
                p_small = 1 / (1 + math.exp(-float(x_small @ draw)))
                assert p_small > p_avg


def _reference_write(records, sets, path):
    """The former writer: one csv.writer row per replicate and record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "child_id", "lbw"])
        for s in sets:
            for r, value in zip(records, s.lbw):
                writer.writerow([s.replicate, r.child_id, fmt(int(value))])


@st.composite
def imputed_files(draw):
    """Records with child_ids that need quoting, their observed outcomes
    (None where missing) and 1-5 completed replicates."""
    ids = draw(st.lists(
        st.text(st.sampled_from(',"\n\r xé漢') | st.characters(codec="utf-8"),
                max_size=6),
        min_size=1, max_size=12, unique=True))
    observed = draw(st.lists(st.sampled_from([0, 1, None]),
                             min_size=len(ids), max_size=len(ids)))
    records = [make_birth(child_id=c, lbw=v) for c, v in zip(ids, observed)]
    m = draw(st.integers(1, 5))
    sets = []
    for rep in range(1, m + 1):
        lbw = [draw(st.sampled_from([0, 1])) if v is None else v
               for v in observed]
        sets.append(ImputedSet(replicate=rep,
                               lbw=np.array(lbw, dtype=np.int8)))
    return records, sets


class TestImputationsCsv:
    @settings(max_examples=200, deadline=None)
    @given(imputed_files())
    def test_round_trip_matches_the_row_writer(self, tmp_path_factory, case):
        records, sets = case
        root = tmp_path_factory.mktemp("imputations")
        write_imputations_csv(records, sets, root / "new.csv")
        _reference_write(records, sets, root / "reference.csv")
        assert ((root / "new.csv").read_bytes()
                == (root / "reference.csv").read_bytes())
        back = read_imputations_csv(records, root / "new.csv", len(sets))
        assert [s.replicate for s in back] == [s.replicate for s in sets]
        for got, want in zip(back, sets):
            assert got.lbw.dtype == np.int8
            assert np.array_equal(got.lbw, want.lbw)

    def test_writer_refuses_outcomes_other_than_0_or_1(self, tmp_path):
        records = [make_birth(child_id="a", lbw=None)]
        sets = [ImputedSet(replicate=1, lbw=np.array([2], dtype=np.int8))]
        with pytest.raises(DataValidationError, match="other than 0 or 1"):
            write_imputations_csv(records, sets, tmp_path / "i.csv")

    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path):
        records = [make_birth(child_id="a", lbw=None)]
        sets = [ImputedSet(replicate=1, lbw=np.array([1], dtype=np.int8))]
        path = tmp_path / "i.csv"
        write_imputations_csv(records, sets, path)
        path.write_bytes(path.read_bytes().replace(b"1,a,", b"1,\xff,"))
        with pytest.raises(DataValidationError, match="line 2: imputation "
                                                      "row for unknown child"):
            read_imputations_csv(records, path, 1)
