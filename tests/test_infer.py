import dataclasses
import hashlib
import logging
import math
import statistics
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from matchdid.errors import DataValidationError
from matchdid.infer import (
    COVARIATE_REGRESSORS,
    REGRESSORS,
    MixedFit,
    MixedModelData,
    _LOG_THETA_HI,
    _LOG_THETA_LO,
    _MAX_STEPS,
    _SCAN,
    build_design,
    did_contrasts,
    fit_mixed_lpm,
    rubin_combine,
    run_primary_analysis,
    write_results_csv,
)
from matchdid import cli, infer, pipeline
from matchdid.config import load_config
from matchdid.ingest import filter_births
from matchdid.sensan import sensitivity_grid, write_sensitivity_csv

# the quickstart benchmark's scenario, with the sweep off
QUICKSTART_CONFIG = """
[scenario]
n_countries = 3
regions_per_country = 12
births_per_cluster = 25
covariate_imbalance = 0.05
decline_fraction = 0.5
stable_high_fraction = 0.5
missingness = mcar
missing_rate = 0.3

[sensitivity]
enabled = false
"""


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The design, the M = 50 completed data sets and the output directory
    of ``matchdid pipeline --preset quickstart`` on scenario seed 1,
    analysis seed 1."""
    root = tmp_path_factory.mktemp("quickstart")
    config = root / "quickstart.ini"
    config.write_text(QUICKSTART_CONFIG)
    out = root / "out"
    for command, seed in (("simulate", 1), ("pipeline", 1)):
        assert cli.run([command, "--preset", "quickstart", "--config",
                        str(config), "--seed", str(seed),
                        "--out-dir", str(out)]) == 0
    ws = pipeline.Workspace(load_config(str(config), "quickstart"), out)
    return ws.design, ws.imputed, out


class TestDidContrasts:
    def test_published_rates(self):
        # observed cell rates in percent; the naive within/between contrast
        k1, k2, k3 = did_contrasts(9.33, 7.52, 9.18, 9.06)
        assert abs(k1 - (-1.69)) < 1e-10
        assert abs(k2 - (-0.12)) < 1e-10
        assert abs(k3 - 0.15) < 1e-10

    def test_equal_cells(self):
        assert did_contrasts(4.0, 4.0, 4.0, 4.0) == (0.0, 0.0, 0.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k0, k1, k2, k3 = rng.normal(0, 2, 4)
            a, b, c, d = k0 + k3, k0 + k1 + k2 + k3, k0, k0 + k2
            out = did_contrasts(a, b, c, d)
            assert np.allclose(out, (k1, k2, k3), atol=1e-12)


def _close(a, b, scale=0.0):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)


class TestRubin:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pooling_properties(self, data):
        """Rubin's rules on M estimates on a 1/16 grid in [-10, 10], whose
        sums are exact in any order, and arbitrary variances."""
        m = data.draw(st.integers(2, 40), label="M")
        est = np.array(data.draw(st.lists(st.integers(-160, 160), min_size=m,
                                          max_size=m), label="estimates")) / 16
        var = np.array(data.draw(st.lists(st.floats(0.0, 100.0), min_size=m,
                                          max_size=m), label="variances"))
        pooled = rubin_combine(est, var)["g0"]
        b, w = statistics.variance(est), statistics.fmean(var)
        assert pooled.estimate == float(est.mean())
        assert _close(pooled.between_var, b) and _close(pooled.within_var, w)
        assert _close(pooled.total_var, (1.0 + 1.0 / m) * b + w)
        assert pooled.total_var >= pooled.within_var
        assert pooled.df >= m - 1
        assert pooled.ci_low <= pooled.estimate <= pooled.ci_high
        half = pooled.ci_high - pooled.estimate
        # the order of the replicates moves only the last bits of the sums
        order = data.draw(st.permutations(range(m)), label="order")
        again = rubin_combine(est[order], var[order])["g0"]
        for field in ("estimate", "between_var", "within_var", "total_var",
                      "df"):
            assert _close(getattr(again, field), getattr(pooled, field)), field
        assert _close(again.ci_low, pooled.ci_low, abs(pooled.estimate) + half)
        assert _close(again.ci_high, pooled.ci_high, abs(pooled.estimate) + half)
        assert _close(again.p_value, pooled.p_value, 1.0)
        # a x + c with a a power of 2: the estimate and the CI move with it
        a = 2.0 ** data.draw(st.integers(-4, 4), label="log2 a")
        c = data.draw(st.integers(-160, 160), label="16 c") / 16
        moved = rubin_combine(a * est + c, a * a * var)["g0"]
        scale = a * (abs(pooled.estimate) + half) + abs(c)
        for field in ("estimate", "ci_low", "ci_high"):
            assert _close(getattr(moved, field),
                          a * getattr(pooled, field) + c, scale), field

    def test_hand_case_m2(self):
        pooled = rubin_combine(np.array([[0.0], [2.0]]),
                               np.array([[1.0], [1.0]]), ["g"])["g"]
        assert abs(pooled.estimate - 1.0) < 1e-12
        assert abs(pooled.between_var - 2.0) < 1e-12
        assert abs(pooled.within_var - 1.0) < 1e-12
        assert abs(pooled.total_var - 4.0) < 1e-12
        assert abs(pooled.df - 16.0 / 9.0) < 1e-12

    def test_degenerate_uses_normal_quantiles(self):
        est = np.full((5, 1), 0.3)
        var = np.full((5, 1), 0.04)
        pooled = rubin_combine(est, var, ["g"])["g"]
        assert pooled.between_var == 0.0
        assert pooled.total_var == pooled.within_var
        assert math.isinf(pooled.df)
        half = 1.959963984540054 * math.sqrt(0.04)
        assert pooled.ci_low == pytest.approx(0.3 - half, rel=1e-12)
        assert pooled.ci_high == pytest.approx(0.3 + half, rel=1e-12)

    def test_pooled_estimate_is_exact_mean(self):
        rng = np.random.default_rng(2)
        est = rng.normal(0, 1, (30, 3))
        var = rng.uniform(0.1, 1.0, (30, 3))
        pooled = rubin_combine(est, var, ["a", "b", "c"])
        for j, name in enumerate(["a", "b", "c"]):
            assert pooled[name].estimate == float(est[:, j].mean())

    def test_total_at_least_within(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 40))
            est = rng.normal(0, 1, (m, 1))
            var = rng.uniform(0.01, 2.0, (m, 1))
            p = rubin_combine(est, var, ["g"])["g"]
            assert p.total_var >= p.within_var
            assert (p.total_var == p.within_var) == (p.between_var == 0.0)
            assert p.ci_low <= p.estimate <= p.ci_high
            assert p.var_ratio >= 0.0

    def test_m1_rejected(self):
        with pytest.raises(DataValidationError):
            rubin_combine(np.array([[1.0]]), np.array([[1.0]]), ["g"])
        # one replicate of three regressors, never read as three replicates
        with pytest.raises(DataValidationError, match="M >= 2"):
            rubin_combine([[0.1, 0.2, 0.3]], [[0.01] * 3])

    def test_1d_input_is_one_regressor(self):
        est = np.array([0.1, 0.4, 0.2, 0.5, 0.3])
        var = np.full(5, 0.01)
        pooled = rubin_combine(est, var, ["k1"])
        assert list(pooled) == ["k1"]
        expected = rubin_combine(est[:, None], var[:, None], ["k1"])["k1"]
        assert pooled["k1"] == expected
        assert pooled["k1"].estimate == pytest.approx(0.3, rel=1e-12)
        assert list(rubin_combine(est, var)) == ["g0"]

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_names_must_match_regressors(self, names):
        with pytest.raises(DataValidationError, match="names"):
            rubin_combine(np.zeros((4, 2)), np.ones((4, 2)), names)


def _centered_cluster_data(rng, n_clusters=40, per=8, p_extra=2):
    codes = np.repeat(np.arange(n_clusters), per)
    n = len(codes)
    X = np.column_stack([np.ones(n)] + [rng.normal(0, 1, n) for _ in range(p_extra)])
    eps = rng.normal(0, 0.4, n)
    for c in range(n_clusters):
        eps[codes == c] -= eps[codes == c].mean()
    gamma = rng.normal(0, 0.5, p_extra + 1)
    y = X @ gamma + eps
    return X, codes, y


class TestMixedModel:
    def test_boundary_matches_ols(self):
        rng = np.random.default_rng(12)
        X, codes, y = _centered_cluster_data(rng)
        names = tuple(f"c{i}" for i in range(X.shape[1]))
        fit = fit_mixed_lpm(X, codes, y, names)
        assert fit.sigma0_sq[0] == 0.0
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        assert np.max(np.abs(fit.estimates[0] - ols)) < 1e-6

    def test_zero_outcome_degenerates(self):
        codes = np.repeat(np.arange(10), 5)
        X = np.column_stack([np.ones(50),
                             np.random.default_rng(0).normal(0, 1, 50)])
        fit = fit_mixed_lpm(X, codes, np.zeros(50), ("a", "b"))
        assert fit.estimates.tolist() == [[0.0, 0.0]]
        assert fit.sigma0_sq[0] == 0.0

    def test_fit_on_the_scan_edge_is_not_converged(self, caplog):
        # y is a cluster effect plus 1e-7 noise, so the REML optimum lies
        # far beyond the largest scanned log theta; the second replicate
        # is an ordinary one in the same batch
        rng = np.random.default_rng(0)
        codes = np.repeat(np.arange(30), 8)
        X = np.column_stack([np.ones(240), rng.normal(size=240)])
        effect = rng.normal(size=30)[codes]
        Y = [effect + 1e-7 * rng.normal(size=240),
             effect + rng.normal(size=240)]
        with caplog.at_level(logging.WARNING, logger="matchdid.infer"):
            fits = MixedModelData(X, codes, ("a", "b")).fit(Y)
        assert math.log(fits.theta[0]) == pytest.approx(11.5, abs=1e-9)
        assert fits.converged.tolist() == [False, True]
        assert 0.0 < fits.theta[1] < 10.0
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "1 of 2 REML fits" in caplog.records[0].getMessage()

    def test_edge_fits_in_two_blocks_warn_once(self, caplog, monkeypatch):
        # the scan-edge replicate above twice, in blocks of two replicates
        rng = np.random.default_rng(0)
        codes = np.repeat(np.arange(30), 8)
        X = np.column_stack([np.ones(240), rng.normal(size=240)])
        effect = rng.normal(size=30)[codes]
        Y = [effect + 1e-7 * rng.normal(size=240),
             effect + rng.normal(size=240),
             effect + 1e-7 * rng.normal(size=240)]
        monkeypatch.setattr(infer, "_BLOCK", 2)
        with caplog.at_level(logging.DEBUG, logger="matchdid.infer"):
            fits = MixedModelData(X, codes, ("a", "b")).fit(Y)
        assert fits.converged.tolist() == [False, True, False]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "2 of 3 REML fits" in warnings[0]
        # each block's search logs one record that names the block, and
        # every search scans
        searches = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.DEBUG]
        assert [s.split(" and ")[0] for s in searches] == [
            "REML search of 2 replicates, block 1 of 2: 49 scan",
            "REML search of 1 replicates, block 2 of 2: 49 scan"]

    def test_working_set_does_not_grow_with_m(self):
        # 1,000 clusters of 1-4 rows: at M = 64 a block's statistics
        # outweigh the fits returned, so a fit that held all M replicates'
        # statistics at once would peak about 8 times higher at M = 512
        rng = np.random.default_rng(0)
        codes = np.repeat(np.arange(1000), rng.integers(1, 5, 1000))
        X = np.column_stack([np.ones(len(codes)), rng.normal(size=(len(codes), 3))])
        data = MixedModelData(X, codes, ("a", "b", "c", "d"))
        Y = (rng.normal(size=(8 * infer._BLOCK, 1000))[:, codes]
             + rng.normal(size=(8 * infer._BLOCK, len(codes))))
        peaks = []
        for m in (infer._BLOCK, 8 * infer._BLOCK):
            tracemalloc.start()
            try:
                data.fit(Y[:m])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_noiseless_cell_means_recover_contrasts(self):
        # four clusters laid out as the four design cells, three rows each
        k0, k1, k2, k3 = 0.09, -0.02, -0.005, 0.01
        rows, codes, y = [], [], []
        layout = [
            ((0.0, 0.0, 1.0), k0 + k3),           # low=0, late=0, treated=1
            ((1.0, 1.0, 1.0), k0 + k1 + k2 + k3),  # low=1, late=1, treated=1
            ((0.0, 0.0, 0.0), k0),                 # control early
            ((0.0, 1.0, 0.0), k0 + k2),            # control late
        ]
        for cluster, (indicators, mean) in enumerate(layout):
            for _ in range(3):
                rows.append([1.0, *indicators])
                codes.append(cluster)
                y.append(mean)
        fit = fit_mixed_lpm(np.array(rows), np.array(codes), np.array(y),
                            ("intercept", "low", "late", "treated"))
        est = dict(zip(fit.names, fit.estimates[0]))
        a = est["intercept"] + est["treated"]
        b = est["intercept"] + est["low"] + est["late"] + est["treated"]
        c = est["intercept"]
        d = est["intercept"] + est["late"]
        assert did_contrasts(a, b, c, d) == pytest.approx((k1, k2, k3), abs=1e-12)
        assert est["low"] == pytest.approx(k1, abs=1e-12)

    def test_variance_component_recovery(self):
        # average over replications so the check targets bias, not one draw
        rng = np.random.default_rng(8)
        sig0, sig1 = 0.2, 0.5
        codes = np.repeat(np.arange(120), 12)
        n = len(codes)
        s0_hats, s1_hats = [], []
        for _ in range(15):
            X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
            y = (X @ np.array([1.0, 0.5]) + rng.normal(0, sig0, 120)[codes]
                 + rng.normal(0, sig1, n))
            fit = fit_mixed_lpm(X, codes, y, ("a", "b"))
            s0_hats.append(fit.sigma0_sq[0])
            s1_hats.append(fit.sigma1_sq[0])
        assert np.mean(s0_hats) == pytest.approx(sig0 ** 2, rel=0.2)
        assert np.mean(s1_hats) == pytest.approx(sig1 ** 2, rel=0.05)

    def test_reml_objective_beats_random_probes(self):
        rng = np.random.default_rng(21)
        codes = np.repeat(np.arange(60), 6)
        n = len(codes)
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        y = X @ np.array([0.5, -0.3]) + rng.normal(0, 0.12, 60)[codes] \
            + rng.normal(0, 0.5, n)
        data = MixedModelData(X, codes, ("a", "b"))
        fit = data.fit([y])
        best = reml_loglik(data, y, fit.sigma0_sq[0], fit.sigma1_sq[0])
        for _ in range(100):
            s0 = float(rng.uniform(0, 0.2))
            s1 = float(rng.uniform(0.05, 0.8))
            assert reml_loglik(data, y, s0, s1) <= best + 1e-8

    def test_rank_deficiency_names_columns(self):
        # either member of the dependent pair is a legitimate culprit name
        rng = np.random.default_rng(5)
        codes = np.repeat(np.arange(10), 4)
        base = rng.normal(0, 1, 40)
        X = np.column_stack([np.ones(40), base, 2.0 * base])
        with pytest.raises(DataValidationError,
                           match=r"collinear columns: (b|dup)"):
            fit_mixed_lpm(X, codes, rng.normal(0, 1, 40), ("a", "b", "dup"))

    def test_single_cluster_rejected(self):
        X = np.ones((5, 1))
        with pytest.raises(DataValidationError):
            fit_mixed_lpm(X, np.zeros(5, dtype=int), np.ones(5), ("a",))

    def test_named_column_without_statistics_is_refused(self):
        # the column's values reach fit only inside the statistics it
        # borders; without them fit read past the width of its own
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(12), rng.normal(size=12)])
        data = MixedModelData(X, np.repeat(np.arange(4), 3), ("a", "b"))
        with pytest.raises(DataValidationError,
                           match="'u' came without stats=: a named column "
                                 "reaches fit only through stats="):
            data.fit(rng.normal(size=(2, 12)), "u")


def reml_loglik(data, y, sigma0_sq, sigma1_sq):
    """Full REML log-likelihood of one outcome of ``data`` (a
    ``MixedModelData``) at arbitrary variance components, summed cluster
    by cluster: the independent reference for ``MixedFit.loglik``."""
    if sigma1_sq <= 0:
        return -math.inf
    xy = np.column_stack([data.X, np.asarray(y, dtype=float)[data.order]])
    totals = np.add.reduceat(xy, data.starts, axis=0)
    theta, p = sigma0_sq / sigma1_sq, data.p
    c = theta / (1.0 + theta * data.cluster_sizes)
    w = xy.T @ xy - (totals * c[:, None]).T @ totals
    chol = np.linalg.cholesky(w[:p, :p])
    gamma = scipy.linalg.cho_solve((chol, True), w[:p, p])
    rss = max(w[p, p] - float(w[:p, p] @ gamma), 0.0)
    logdet_xwx = 2.0 * float(np.log(np.diag(chol)).sum())
    logdet_v = float(np.log1p(theta * data.cluster_sizes).sum())
    return -0.5 * ((data.n - p) * math.log(2.0 * math.pi * sigma1_sq)
                   + logdet_v + logdet_xwx + rss / sigma1_sq)


def _dense_gls(X, codes, y, theta):
    """(X'V^-1X)^-1 X'V^-1y with V = I + theta ZZ' built densely."""
    V = np.eye(len(y)) + theta * (codes[:, None] == codes[None, :])
    vx = np.linalg.solve(V, X)
    return np.linalg.solve(vx.T @ X, vx.T @ y)


def _small_design(sizes, k, m, sigma0, seed):
    """A shuffled random-intercept design of clusters of ``sizes`` rows, an
    intercept plus k columns, M = m outcome vectors with cluster effects of
    sd sigma0, and an (M, n) binary extra column."""
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    n = len(codes)
    X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, k))])
    Y = (X @ rng.normal(0, 1, k + 1)
         + rng.normal(0, sigma0, (m, len(sizes)))[:, codes]
         + rng.normal(0, 1, (m, n)))
    U = rng.integers(0, 2, (m, n))
    perm = rng.permutation(n)
    return X[perm], codes[perm], Y[:, perm], U[:, perm]


@st.composite
def small_designs(draw):
    """``_small_design`` of 2-8 clusters of 1-6 rows, 1-3 columns and M =
    1-4, with X and each [X, u] well conditioned."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=8))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    sigma0 = draw(st.floats(0.0, 2.0))
    X, codes, Y, U = _small_design(sizes, k, m, sigma0,
                                   draw(st.integers(0, 2**32 - 1)))
    assume(len(codes) > k + 3 and np.linalg.cond(X) < 1e3)
    assume(all(np.linalg.cond(np.column_stack([X, u])) < 1e3 for u in U))
    return X, codes, Y, U


def _stats(data, Y, U=None):
    """The statistics of the outcomes Y on ``data``, bordered by the
    column U[i] for Y[i] if U is given."""
    base = data.outcomes(Y)
    return base if U is None else data._border(base, U, [Y])[:2]


def _fit(data, Y, U=None):
    """``data.fit`` of Y, with U as the column "u" if given."""
    if U is None:
        return data.fit(Y)
    return data.fit(Y, "u", stats=_stats(data, Y, U))


class TestRemlProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_designs())
    def test_estimates_are_dense_gls_at_fitted_theta(self, case):
        X, codes, Y, U = case
        names = tuple(f"x{j}" for j in range(X.shape[1]))
        data = MixedModelData(X, codes, names)
        for extra in (None, U):
            fits = _fit(data, Y, extra)
            for i in range(len(Y)):
                design = X if extra is None else np.column_stack([X, U[i]])
                ref = _dense_gls(design, codes, Y[i], fits.theta[i])
                got = fits.estimates[i]
                assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    @settings(max_examples=60, deadline=None)
    @given(small_designs())
    def test_fit_does_not_depend_on_the_batch(self, case):
        X, codes, Y, U = case
        names = tuple(f"x{j}" for j in range(X.shape[1]))
        data = MixedModelData(X, codes, names)
        for extra in (None, U):
            fit = _fit(data, Y, extra)
            for i, y in enumerate(Y):
                alone = _fit(data, [y], None if extra is None else U[i:i + 1])
                for a, b in ((fit.theta, alone.theta),
                             (fit.sigma1_sq, alone.sigma1_sq),
                             (fit.loglik, alone.loglik)):
                    assert a[i] == pytest.approx(b[0], rel=1e-12, abs=1e-12)
                for j in range(len(fit.names)):
                    assert fit.estimates[i, j] == pytest.approx(
                        alone.estimates[0, j], rel=1e-12, abs=1e-12)
                    assert fit.standard_errors[i, j] == pytest.approx(
                        alone.standard_errors[0, j], rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(small_designs())
    def test_loglik_is_reml_loglik_at_the_fit(self, case):
        X, codes, Y, _ = case
        names = tuple(f"x{j}" for j in range(X.shape[1]))
        data = MixedModelData(X, codes, names)
        fit = data.fit(Y)
        for i, y in enumerate(Y):
            ref = reml_loglik(data, y, fit.sigma0_sq[i], fit.sigma1_sq[i])
            assert fit.loglik[i] == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(small_designs())
    # the fit with U of replicate 1 has its optimum at the upper end of the
    # range, past the scan; it took theta = 0 and reported convergence
    @example(_small_design([1, 1, 4], 1, 2, 0.0, 3))
    def test_no_point_of_a_dense_grid_beats_the_fit(self, case):
        # fits with and without the extra column; the grid holds 2,001 log
        # thetas
        X, codes, Y, U = case
        data = MixedModelData(X, codes, tuple(f"x{j}" for j in range(X.shape[1])))
        grid = np.exp(np.linspace(_LOG_THETA_LO, _LOG_THETA_HI, 2001))
        for extra in (None, U):
            stats = _stats(data, Y, extra)
            fitted = data.profile_criterion(_fit(data, Y, extra).theta, stats)[0]
            for i in range(len(Y)):
                dense = data.profile_criterion(grid, tuple(
                    np.repeat(a[i:i + 1], len(grid), axis=0) for a in stats))[0]
                assert fitted[i] <= dense.min() + 1e-9 * max(1.0, abs(fitted[i]))

    def test_indefinite_replicate_reads_inf_without_aborting(self):
        # the second replicate's X'X block is indefinite; the first still
        # gets the criterion it has alone
        codes = np.repeat(np.arange(3), 2)
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        data = MixedModelData(X, codes, ("a", "b"))
        y = np.array([0.1, 0.5, 0.2, 0.9, 0.4, 0.3])
        gram, classes = data.outcomes([y, y])
        gram[1, :2, :2] = -np.eye(2)
        crit, _, _, _ = data.profile_criterion(np.array([0.5, 0.5]),
                                               (gram, classes))
        alone, _, _, _ = data.profile_criterion(np.array([0.5]),
                                                data.outcomes([y]))
        assert crit[1] == math.inf
        assert crit[0] == alone[0]

    def test_degenerate_replicate_does_not_slow_the_batch(self, monkeypatch):
        # y = 0 has no residual at any theta, so the bordered factor fails
        # for any batch holding it and the batch is scored one replicate
        # at a time
        rng = np.random.default_rng(3)
        codes = np.repeat(np.arange(12), 5)
        X = np.column_stack([np.ones(60), rng.normal(size=60)])
        y = rng.normal(size=12)[codes] + rng.normal(size=60)
        data = MixedModelData(X, codes, ("a", "b"))
        calls = []
        criterion = MixedModelData.profile_criterion

        def counted(self, theta, stats):
            calls.append(len(theta))
            return criterion(self, theta, stats)

        monkeypatch.setattr(MixedModelData, "profile_criterion", counted)
        scanned = []
        scan = MixedModelData.scan_criterion

        def scan_counted(self, stats):
            scanned.append(len(stats[0]))
            return scan(self, stats)

        monkeypatch.setattr(MixedModelData, "scan_criterion", scan_counted)
        alone = data.fit([y])
        n_alone = len(calls)
        both = data.fit([np.zeros(60), y])
        assert both.theta[0] == 0.0 and both.sigma0_sq[0] == 0.0
        for field in dataclasses.fields(MixedFit)[1:]:
            assert np.array_equal(getattr(both, field.name)[1:],
                                  getattr(alone, field.name)), field.name
        # the search scores the ordinary replicate only; the evaluations at
        # theta = 0 and at the fitted theta take the whole batch and so
        # score its two replicates alone, one more call each
        batch_calls = len(calls) - n_alone
        assert batch_calls <= n_alone + 2 * 2
        # the scan scores the live replicate only, once per fit
        assert scanned == [1, 1]


def _seeded_tiny_designs(n_seeds=80):
    """Fixed tiny designs: 2-8 clusters of 1-6 rows, an intercept plus 1-3
    columns, M = 2-4 outcome vectors and an (M, n) binary extra column
    that keeps [X, u] well conditioned."""
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 7, int(rng.integers(2, 9)))
        k, m = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        codes = np.repeat(np.arange(len(sizes)), sizes)
        n = len(codes)
        X = np.column_stack([np.ones(n), rng.normal(0, 1, (n, k))])
        Y = (X @ rng.normal(0, 1, k + 1)
             + rng.normal(0, 1, (m, len(sizes)))[:, codes]
             + rng.normal(0, 1, (m, n)))
        U = rng.integers(0, 2, (m, n))
        if n <= k + 3 or not all(
                np.linalg.cond(np.column_stack([X, u])) < 1e3 for u in U):
            continue
        perm = rng.permutation(n)
        yield X[perm], codes[perm], Y[:, perm], U[:, perm]


class TestNewton:
    def test_derivatives_match_central_differences(self):
        # the analytic first and second derivatives of the criterion in log
        # theta against central differences of the criterion and of the
        # gradient, where the criterion is not flat
        checked = 0
        for X, codes, Y, U in _seeded_tiny_designs(20):
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            for extra in (None, U):
                stats = _stats(data, Y, extra)
                for g in (-3.0, -1.0, 0.0, 1.5, 4.0):
                    u, e = np.full(len(Y), g), 1e-5
                    f, grad, hess = data._newton_terms(u, stats)
                    up, down = (data._newton_terms(u + s, stats) for s in (e, -e))
                    fd_grad = (up[0] - down[0]) / (2 * e)
                    fd_hess = (up[1] - down[1]) / (2 * e)
                    keep = np.abs(grad) > 1e-6
                    assert np.allclose(grad[keep], fd_grad[keep], rtol=1e-5)
                    keep = np.abs(hess) > 1e-6
                    assert np.allclose(hess[keep], fd_hess[keep], rtol=1e-5)
                    checked += int(keep.sum())
        assert checked >= 100

    def test_search_stops_where_the_gradient_is_rounding_noise(self):
        # with one row per cluster, V = (1 + theta) I and the criterion does
        # not depend on theta: its gradient is rounding noise. From log
        # theta -14, replicate 3's iterates bounced between the ends of its
        # bracket, -15.5 and -14.58, until _MAX_STEPS
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(5), rng.normal(size=5)])
        Y = rng.normal(size=(8, 5))
        data = MixedModelData(X, np.arange(5), ("a", "b"))
        stats = data.outcomes(Y)
        for g in _SCAN:
            _, _, steps, going, _ = data._newton(np.full(8, g), stats)
            assert not going.any() and steps.max() < _MAX_STEPS, g

def _profile_scan(data, stats):
    """The reference scan: ``profile_criterion`` at each theta of _SCAN,
    one call per point, a (len(_SCAN), M) array."""
    return np.array([data.profile_criterion(
        np.full(len(stats[0]), math.exp(g)), stats)[0] for g in _SCAN])


def _assert_scan_matches_profile(scores, ref):
    # infinities equal, finite scores within 1e-11 relative (absolute below
    # 1, where the criterion's terms cancel). The two factor X'V^-1X alike
    # but solve with it differently: at log theta 9.5 on a seeded design of
    # 6 rows in 2 clusters with 4 columns, the score 1.4025666583027 (50
    # digits) reads 4.0e-12 low by the scan and 5.4e-12 high by
    # profile_criterion
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(scores), finite)
    assert np.array_equal(scores[~finite], ref[~finite])
    assert np.all(np.abs(scores[finite] - ref[finite])
                  <= 1e-11 * np.maximum(1.0, np.abs(ref[finite])))


class TestScan:
    def test_scores_equal_profile_criterion_on_seeded_designs(self):
        # every scan score of the fits with and without the extra column
        # against profile_criterion at the same theta; the best scan point
        # is the same wherever the best two scores are told apart
        designs = compared = 0
        for X, codes, Y, U in _seeded_tiny_designs():
            designs += 1
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            for extra in (None, U):
                stats = _stats(data, Y, extra)
                scores, ref = data.scan_criterion(stats), _profile_scan(data, stats)
                _assert_scan_matches_profile(scores, ref)
                two = np.sort(ref, axis=0)[:2]
                apart = two[1] - two[0] > 1e-9
                assert np.array_equal(np.argmin(scores, axis=0)[apart],
                                      np.argmin(ref, axis=0)[apart])
                compared += int(apart.sum())
        assert designs >= 40 and compared >= 100

    def test_x_block_that_does_not_factor_scores_inf(self):
        # doubled size-class sums make X'V^-1X indefinite from some theta
        # on: every replicate scores +inf there, as with profile_criterion
        rng = np.random.default_rng(5)
        codes = np.repeat(np.arange(6), 4)
        X = np.column_stack([np.ones(24), rng.normal(size=24)])
        data = MixedModelData(X, codes, ("a", "b"))
        data.x_classes = 2.0 * data.x_classes
        Y = rng.normal(size=(3, 24))
        for extra in (None, rng.integers(0, 2, (3, 24))):
            stats = _stats(data, Y, extra)
            scores, ref = data.scan_criterion(stats), _profile_scan(data, stats)
            _assert_scan_matches_profile(scores, ref)
            assert np.isinf(scores).all(axis=1).any()
            assert np.isfinite(scores).all(axis=1).any()

    def test_singular_column_and_vanishing_residual(self):
        # replicate 1's extra column is 0, so [X, u] is singular and its
        # pivot is 0: +inf. Replicate 2's outcome is 0, so its residual is
        # 0: -inf. Replicate 0 keeps its own scores
        rng = np.random.default_rng(6)
        codes = np.repeat(np.arange(5), 3)
        X = np.column_stack([np.ones(15), rng.normal(size=15)])
        data = MixedModelData(X, codes, ("a", "b"))
        Y = rng.normal(size=(3, 15))
        Y[2] = 0.0
        U = rng.integers(0, 2, (3, 15))
        U[1] = 0
        stats = _stats(data, Y, U)
        scores, ref = data.scan_criterion(stats), _profile_scan(data, stats)
        _assert_scan_matches_profile(scores, ref)
        assert np.isfinite(scores[:, 0]).all()
        assert (scores[:, 1] == math.inf).all()
        assert (scores[:, 2] == -math.inf).all()
        # and without the extra column
        stats = _stats(data, Y)
        scores = data.scan_criterion(stats)
        _assert_scan_matches_profile(scores, _profile_scan(data, stats))
        assert (scores[:, 2] == -math.inf).all()

    def test_second_fit_reuses_the_scan_factor(self, monkeypatch):
        # X'V^-1X at the scan points is factored once per design, by its
        # first fit, and shared by every later fit, with or without U
        rng = np.random.default_rng(7)
        codes = np.repeat(np.arange(8), 4)
        X = np.column_stack([np.ones(32), rng.normal(size=32)])
        Y = rng.normal(size=(2, 32))
        U = rng.integers(0, 2, (2, 32))
        factor = MixedModelData.__dict__["_scan_factor"]
        make, made = factor.func, []

        def counted(self):
            made.append(self)
            return make(self)

        monkeypatch.setattr(factor, "func", counted)
        data = MixedModelData(X, codes, ("a", "b"))
        first = data.fit(Y)
        shared = data._scan_factor
        again = _fit(data, Y, U), data.fit(Y)
        assert made == [data] and data._scan_factor is shared
        for field in dataclasses.fields(MixedFit)[1:]:
            assert np.array_equal(getattr(again[1], field.name),
                                  getattr(first, field.name)), field.name


class TestBatchIndependence:
    @pytest.mark.parametrize("block", [1, 2])
    def test_blocked_fits_equal_one_block_fits_on_seeded_designs(
            self, block, monkeypatch):
        # the fits and U refits, each also fitted in blocks of ``block``
        # replicates, so that M = 2-4 crosses block boundaries: every
        # blocked fit equals its one-block fit
        designs = 0
        for X, codes, Y, U in _seeded_tiny_designs():
            designs += 1
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            base = data.outcomes(Y)
            bordered = data._border(base, U, [Y])[:2]

            def fits():
                return data.fit(Y, stats=base), data.fit(Y, "u", stats=bordered)

            whole = fits()
            with monkeypatch.context() as patch:
                patch.setattr(infer, "_BLOCK", block)
                for got, want in zip(fits(), whole):
                    for field in dataclasses.fields(MixedFit):
                        assert np.array_equal(getattr(got, field.name),
                                              getattr(want, field.name))
        assert designs >= 40

    def test_profile_is_bit_equal_in_a_batch_and_alone(self):
        # a replicate's criterion must not depend on the replicates it is
        # evaluated with, down to the last bit, at every scanned theta
        designs = mismatches = values = 0
        for X, codes, Y, U in _seeded_tiny_designs():
            designs += 1
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            for extra in (None, U):
                together = _stats(data, Y, extra)
                alone = [_stats(data, [y], None if extra is None
                                else U[i:i + 1])
                         for i, y in enumerate(Y)]
                for g in _SCAN:
                    theta = np.full(len(Y), math.exp(g))
                    batch = data.profile_criterion(theta, together)[0]
                    for i, stats in enumerate(alone):
                        lone = data.profile_criterion(theta[i:i + 1], stats)[0]
                        mismatches += int(batch[i] != lone[0])
                        values += 1
        assert designs >= 40
        assert mismatches == 0, f"{mismatches} of {values} values differ"

    def test_scan_is_bit_equal_in_a_batch_and_alone(self):
        # a replicate's scan scores must not depend on the replicates
        # scored with it, down to the last bit
        designs = mismatches = values = 0
        for X, codes, Y, U in _seeded_tiny_designs():
            designs += 1
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            for extra in (None, U):
                batch = data.scan_criterion(_stats(data, Y, extra))
                for i, y in enumerate(Y):
                    lone = data.scan_criterion(_stats(
                        data, [y], None if extra is None else U[i:i + 1]))
                    mismatches += int((batch[:, i] != lone[:, 0]).sum())
                    values += len(_SCAN)
        assert designs >= 40
        assert mismatches == 0, f"{mismatches} of {values} values differ"

    def test_u_statistics_are_bit_equal_in_a_batch_and_alone(self):
        # U borders the statistics of [X, Y], with its own row and column
        designs = 0
        for X, codes, Y, U in _seeded_tiny_designs():
            designs += 1
            data = MixedModelData(X, codes,
                                  tuple(f"x{j}" for j in range(X.shape[1])))
            together = _stats(data, Y, U)
            for i, y in enumerate(Y):
                alone = _stats(data, [y], U[i:i + 1])
                for a, b in zip(together, alone):
                    assert np.array_equal(a[i], b[0])
        assert designs >= 40

    def test_u_statistics_equal_those_of_u_as_a_design_column(self):
        # within 1e-12 of the largest entry on the seeded designs, where
        # sums of products of floats are rounded in another order
        for X, codes, Y, U in _seeded_tiny_designs():
            names = tuple(f"x{j}" for j in range(X.shape[1]))
            bordered = _stats(MixedModelData(X, codes, names), Y, U)
            for i, y in enumerate(Y):
                ref = MixedModelData(np.column_stack([X, U[i]]), codes,
                                     names + ("u",)).outcomes([y])
                for a, b in zip(bordered, ref):
                    assert np.abs(a[i] - b[0]).max() <= 1e-12 * np.abs(b[0]).max()

    def test_u_statistics_are_exact_on_the_integer_design(self, analysis):
        # the pipeline's design, outcomes and U hold integers, whose sums are
        # exact in any order
        design, _, imputed = analysis
        data = MixedModelData(design.X, design.cluster_codes, design.regressors)
        Y = imputed[:3]
        U = np.random.default_rng(4).integers(0, 2, (3, design.n_records))
        bordered = _stats(data, Y, U)
        for i, y in enumerate(Y):
            ref = MixedModelData(np.column_stack([design.X, U[i]]),
                                 design.cluster_codes,
                                 design.regressors + ("u",)).outcomes([y])
            for a, b in zip(bordered, ref):
                assert np.array_equal(a[i], b[0])


class TestPrimaryAnalysis:
    def test_quickstart_imputations_pinned(self, quickstart):
        # the benchmark's quickstart scenario at M = 50: no change to the
        # imputation model, its draws or the imputations.csv codec may move
        # these bytes
        _, _, out = quickstart
        digest = hashlib.sha256((out / "imputations.csv").read_bytes())
        assert digest.hexdigest() == ("01c6ca82e9df5c075c14f41aa54dcc28"
                                      "357477e311e6f5d398c2484c0991be57")

    def test_quickstart_sensitivity_pinned(self, quickstart, tmp_path):
        # the benchmark's quickstart sweep, default grid at analysis seed 1:
        # no change to the common U draws or to the refits may move these
        # bytes
        design, Y, _ = quickstart
        path = tmp_path / "sensitivity.csv"
        write_sensitivity_csv(sensitivity_grid(design, Y, seed=1), path)
        digest = hashlib.sha256(path.read_bytes())
        assert digest.hexdigest() == ("3e54e956643c94fbbdab1d0b2cc33009"
                                      "5d6b54b500204295dabdc700a4c050d0")

    @pytest.mark.parametrize("name,digest", [
        ("results.csv", "d553c35ef31994b677ec442e1d81d914"
                        "41e4cdbad0b44843882808cbd1760014"),
        ("diagnostics.csv", "17b2deee0d97e3d6eddc9d5ce4d58537"
                            "b063da92448496a3281e833394d6344b"),
        ("fit_summary.json", "527933e2db751fdb51ca3f99e5e3fda0"
                             "ec876eb222ad3c5483ce0ef317322fb0"),
    ])
    def test_quickstart_primary_fit_pinned(self, quickstart, name, digest):
        # the benchmark's quickstart primary fit at M = 50: no change to the
        # REML fits, their pooling or the artifact writers may move these
        # bytes
        _, _, out = quickstart
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_design_shape_and_indicators(self, scenario, matched, analysis):
        design, _, _ = analysis
        assert design.X.shape[1] == len(REGRESSORS) == 14
        low = design.X[:, REGRESSORS.index("low_prevalence")]
        late = design.X[:, REGRESSORS.index("late_period")]
        treated = design.X[:, REGRESSORS.index("treated_pair")]
        # low prevalence only happens in late clusters of treated pairs here
        assert np.all(low <= treated)
        assert np.all(low <= late)
        masks = design.cell_masks
        total = sum(int(m.sum()) for m in masks.values())
        assert total == design.n_records

    def test_pooled_estimate_is_mean_of_replicates(self, analysis):
        design, _, sets = analysis
        result = run_primary_analysis(design, sets)
        data = MixedModelData(design.X, design.cluster_codes)
        fits = data.fit(sets)
        for j, name in enumerate(REGRESSORS):
            mean = float(np.mean(fits.estimates[:, j]))
            assert result.pooled[name].estimate == pytest.approx(mean, abs=1e-14)

    def test_total_variance_dominates_within(self, analysis):
        design, _, sets = analysis
        result = run_primary_analysis(design, sets)
        for pooled in result.pooled.values():
            assert pooled.total_var >= pooled.within_var

    def test_naive_did_uses_observed_only(self, analysis):
        design, _, sets = analysis
        result = run_primary_analysis(design, sets)
        cells = design.cell_masks
        observed = design.observed_lbw
        a = float(np.nanmean(observed[cells["hl_early"]]))
        b = float(np.nanmean(observed[cells["hl_late"]]))
        c = float(np.nanmean(observed[cells["hh_early"]]))
        d = float(np.nanmean(observed[cells["hh_late"]]))
        assert result.naive_k1 == pytest.approx((b - a) - (d - c), abs=1e-12)
        assert result.naive_k2 == pytest.approx(d - c, abs=1e-12)
        assert result.naive_k3 == pytest.approx(a - c, abs=1e-12)

    def test_results_csv_layout(self, analysis, tmp_path):
        design, _, sets = analysis
        result = run_primary_analysis(design, sets)
        path = tmp_path / "results.csv"
        write_results_csv(result.pooled, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "regressor,estimate,ci_low,ci_high,p_value"
        assert len(lines) == 1 + len(REGRESSORS)

    def test_estimate_within_three_pooled_ses_of_truth(self, scenario, analysis):
        cfg, _ = scenario
        design, _, sets = analysis
        result = run_primary_analysis(design, sets)
        k1 = result.pooled["low_prevalence"]
        truth = cfg.coefficients.k1
        se = math.sqrt(k1.total_var)
        assert abs(k1.estimate - truth) < 3 * se

    def test_zero_effect_p_values_are_uniform(self):
        # replications of a no-effect scenario; pooled p-values for the
        # low-prevalence coefficient should look uniform (KS at 1%)
        from dataclasses import replace
        from scipy.stats import kstest

        from matchdid.impute import draw_imputations, fit_imputation_model
        from matchdid.model import ClusterPair, PairCategory, Quadruple
        from matchdid.synth import ScenarioConfig, generate

        coeffs = replace(ScenarioConfig().coefficients, k1=0.0, k2=0.0, k3=0.0)
        cfg = ScenarioConfig(n_countries=2, regions_per_country=14,
                             births_per_cluster=30, coefficients=coeffs,
                             covariate_imbalance=0.0, decline_fraction=0.5,
                             stable_high_fraction=0.5, missingness="mcar",
                             missing_rate=0.3)
        p_values = []
        for seed in range(60):
            data = generate(cfg, 7000 + seed)
            flags = data.truth["clusters"]
            by_id = {c.cluster_id: c for c in data.clusters}
            treated, control = [], []
            for region in sorted({c.cluster_id[:-2] for c in data.clusters}):
                e, l = by_id[region + "-E"], by_id[region + "-L"]
                if flags[e.cluster_id]["kind"] == "declining":
                    treated.append(ClusterPair(
                        early=e, late=l, category=PairCategory.HIGH_LOW))
                elif flags[e.cluster_id]["kind"] == "stable_high":
                    control.append(ClusterPair(
                        early=e, late=l, category=PairCategory.HIGH_HIGH))
            k = min(len(treated), len(control))
            quads = [Quadruple(treated=t, control=c)
                     for t, c in zip(treated[:k], control[:k])]
            births, _ = filter_births(data.births)
            design = build_design(births, quads)
            model = fit_imputation_model(
                [r for r in design.records if r.lbw is not None])
            sets = draw_imputations(model, design.records, 12, 7000 + seed)
            result = run_primary_analysis(design, sets)
            p_values.append(result.pooled["low_prevalence"].p_value)
        stat = kstest(p_values, "uniform")
        assert stat.pvalue > 0.01, (stat, sorted(p_values)[:5])
