import csv
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchdid import impute
from matchdid._util import fmt
from matchdid.errors import ConvergenceError, DataValidationError
from matchdid.impute import (
    GRAD_TOL,
    IMPUTATION_COLUMNS,
    cauchy_prior,
    design_matrix,
    draw_imputations,
    fit_imputation_model,
    normal_prior,
    penalized_logistic_mode,
    prior_scales,
    read_imputations_csv,
    write_imputations_csv,
    _grad_neghess,
    _objective,
)
from matchdid.model import BirthSize, ModelSpec

from conftest import make_birth

PRIORS = [cauchy_prior, normal_prior]


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

    @pytest.mark.parametrize("prior", PRIORS)
    def test_separated_data_stays_finite(self, prior):
        # perfect separation on one binary predictor
        X = np.array([[1.0, 0.0]] * 8 + [[1.0, 1.0]] * 8)
        y = np.array([0.0] * 8 + [1.0] * 8)
        fit = penalized_logistic_mode(X, y, np.array([10.0, 2.5]), prior,
                                      "separated")
        assert fit.converged
        assert np.all(np.isfinite(fit.coefficients))
        assert abs(fit.coefficients[1]) < 12.0
        assert np.all(np.isfinite(fit.covariance))

    @pytest.mark.parametrize("prior", PRIORS)
    def test_mode_matches_grid_search(self, prior):
        # single predictor, no intercept: grid search the penalized objective
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 40)
        y = (rng.random(40) < 1 / (1 + np.exp(-1.2 * x))).astype(float)
        X = x[:, None]
        scales = np.array([2.5])
        fit = penalized_logistic_mode(X, y, scales, prior, "grid")
        grid = np.arange(-6.0, 6.0, 1e-4)
        values = [_objective(np.array([b]), X, y, scales, prior) for b in grid]
        best = grid[int(np.argmax(values))]
        assert fit.coefficients[0] == pytest.approx(best, abs=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 4),
           st.sampled_from(PRIORS))
    def test_mode_is_a_local_maximum(self, seed, n, p, prior):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (n, p)) * rng.uniform(0.1, 30.0, p)
        y = (rng.random(n) < 0.5).astype(float)
        scales = rng.uniform(0.5, 10.0, p)
        fit = penalized_logistic_mode(X, y, scales, prior, "random")
        beta = fit.coefficients
        # the tolerance holds on the rms-rescaled columns
        grad, _ = _grad_neghess(beta, X, y, scales, prior)
        assert fit.converged
        assert np.max(np.abs(grad / np.sqrt(np.mean(X * X, axis=0)))) < GRAD_TOL
        base = _objective(beta, X, y, scales, prior)
        for j in range(p):
            for h in (-1e-4, 1e-4):
                moved = beta.copy()
                moved[j] += h
                assert (_objective(moved, X, y, scales, prior)
                        <= base + 1e-12 * (1.0 + abs(base)))

    def test_each_fit_logs_one_debug_record(self, toy, monkeypatch, caplog):
        observed, _ = toy
        caplog.set_level(logging.DEBUG, logger="matchdid.impute")
        fit_imputation_model(observed)
        monkeypatch.setattr(impute, "MAX_NEWTON_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match="did not converge in 1 Newton steps"):
            fit_imputation_model(observed)
        converged, capped = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(r"imputation model fit: \d+ Newton steps, "
                            r"max\|gradient\| \S+, converged", converged)
        assert re.fullmatch(r"imputation model fit: 1 Newton steps, "
                            r"max\|gradient\| \S+, not converged", capped)

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
        lbw = draw_imputations(model, records, 8, seed=3)
        assert lbw.dtype == np.int8 and lbw.shape == (8, 11)
        for row in lbw:
            assert list(row[:10]) == [r.lbw for r in records[:10]]
            assert row[10] in (0, 1)

    def test_default_m_is_500(self):
        assert ModelSpec().imputations == 500

    def test_deterministic_and_order_independent(self, toy):
        observed, model = toy
        records = [make_birth(child_id=f"m{i}", lbw=None) for i in range(20)]
        a = draw_imputations(model, records, 6, seed=11)
        b = draw_imputations(model, records, 6, seed=11)
        assert np.array_equal(a, b)
        # replicate m's draw does not depend on how many replicates follow
        c = draw_imputations(model, records, 3, seed=11)
        assert np.array_equal(a[:3], c)
        d = draw_imputations(model, records, 6, seed=12)
        assert any(not np.array_equal(ra, rd) for ra, rd in zip(a, d))

    def test_monte_carlo_matches_posterior_mean_probability(self, toy):
        _, model = toy
        record = make_birth(child_id="miss", mother_age_years=22,
                            reported_size=BirthSize.SMALL, lbw=None)
        m = 10_000
        lbw = draw_imputations(model, [record], m, seed=77)
        fraction = float(np.mean(lbw[:, 0]))
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


def _reference_write(records, lbw, path):
    """The former writer: one csv.writer row per replicate and record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "child_id", "lbw"])
        for replicate, row in enumerate(lbw, 1):
            for r, value in zip(records, row):
                writer.writerow([replicate, r.child_id, fmt(int(value))])


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
    lbw = [[draw(st.sampled_from([0, 1])) if v is None else v
            for v in observed] for _ in range(m)]
    return records, np.array(lbw, dtype=np.int8)


class TestImputationsCsv:
    @settings(max_examples=200, deadline=None)
    @given(imputed_files())
    def test_round_trip_matches_the_row_writer(self, tmp_path_factory, case):
        records, lbw = case
        root = tmp_path_factory.mktemp("imputations")
        write_imputations_csv(records, lbw, root / "new.csv")
        _reference_write(records, lbw, root / "reference.csv")
        assert ((root / "new.csv").read_bytes()
                == (root / "reference.csv").read_bytes())
        back = read_imputations_csv(records, root / "new.csv", len(lbw))
        assert back.dtype == np.int8
        assert np.array_equal(back, lbw)

    def test_writer_refuses_outcomes_other_than_0_or_1(self, tmp_path):
        records = [make_birth(child_id="a", lbw=None)]
        lbw = np.array([[1], [2], [3]], dtype=np.int8)
        path = tmp_path / "i.csv"
        with pytest.raises(DataValidationError,
                           match="replicate 2 holds an outcome other than 0 or 1"):
            write_imputations_csv(records, lbw, path)
        # the matrix is checked before the file is opened
        assert not path.exists()

    def test_bytes_that_are_not_utf8_are_refused(self, tmp_path):
        records = [make_birth(child_id="a", lbw=None)]
        lbw = np.array([[1]], dtype=np.int8)
        path = tmp_path / "i.csv"
        write_imputations_csv(records, lbw, path)
        path.write_bytes(path.read_bytes().replace(b"1,a,", b"1,\xff,"))
        with pytest.raises(DataValidationError) as refused:
            read_imputations_csv(records, path, 1)
        assert str(refused.value) == (
            f"{path}:2: expected '1,a,0\\r\\n' or '1,a,1\\r\\n', "
            f"found '1,\ufffd,1\\r\\n'")

    @settings(max_examples=200, deadline=None)
    @given(imputed_files(), st.data())
    def test_one_byte_changed_inserted_or_deleted(self, tmp_path_factory,
                                                  case, data):
        """One byte of a written file deleted, or changed to or preceded by
        a drawn byte or one of 0, 1, 2, CR and LF: the file reads back with
        one missing outcome flipped, or is refused at the physical line of
        the first byte that departs."""
        records, lbw = case
        path = tmp_path_factory.mktemp("imputations") / "i.csv"
        write_imputations_csv(records, lbw, path)
        written = path.read_bytes()
        missing = np.array([r.lbw is None for r in records])
        # the outcome cells sit before each CRLF; they are hit half the time
        cells = [i for i in range(len(written) - 2)
                 if written[i + 1:i + 3] == b"\r\n"]
        at = data.draw(st.sampled_from(cells) | st.integers(0, len(written)),
                       label="at")
        drawn = bytes([data.draw(st.integers(0, 255), label="byte")])
        mutations = [written[:at] + written[at + 1:]]
        for byte in {drawn, b"0", b"1", b"2", b"\r", b"\n"}:
            mutations += [written[:at] + byte + written[at + 1:],
                          written[:at] + byte + written[at:]]
        for mutated in mutations:
            if mutated == written:
                continue
            path.write_bytes(mutated)
            try:
                back = read_imputations_csv(records, path, len(lbw))
            except DataValidationError as exc:
                departs = next((i for i, (a, b)
                                in enumerate(zip(written, mutated)) if a != b),
                               min(len(written), len(mutated)))
                line = written.count(b"\n", 0, departs) + 1
                assert str(exc).startswith(f"{path}:{line}: expected ")
                continue
            flipped = back != lbw
            assert flipped.sum() == 1 and missing[flipped.nonzero()[1]].all()
