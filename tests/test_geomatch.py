import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.stats import rankdata

from matchdid import geomatch, impute
from matchdid.errors import DataValidationError
from matchdid.geomatch import (
    CaliperSpec,
    assignment_indices,
    average_ranks,
    haversine_km,
    match_country,
    optimal_pairing,
    rank_mahalanobis,
    read_pairs_csv,
    write_pairs_csv,
)
from matchdid.model import GeoPoint, Role
from matchdid.synth import generate

from conftest import COVERAGE_SCENARIO, make_cluster


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(12.5, -33.1)
        assert haversine_km(p, p) == 0.0

    def test_antipodal_on_equator(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 180)) == pytest.approx(
            20015.09, abs=0.01)

    def test_one_degree_longitude(self):
        assert haversine_km(GeoPoint(0, 0), GeoPoint(0, 1)) == pytest.approx(
            111.19, abs=0.01)

    def test_symmetric_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = GeoPoint(float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
            b = GeoPoint(float(rng.uniform(-89, 89)), float(rng.uniform(-179, 179)))
            d = haversine_km(a, b)
            assert abs(d - haversine_km(b, a)) < 1e-12
            assert d >= 0.0


def _oracle_rank_mahalanobis(early_coords, late_coords):
    """Straight-line re-implementation: average ranks, sample covariance,
    explicit solve per entry."""
    pooled = np.vstack([early_coords, late_coords])
    n = len(pooled)
    ranks = np.empty_like(pooled)
    for j in range(2):
        col = pooled[:, j]
        order = np.argsort(col, kind="stable")
        r = np.empty(n)
        i = 0
        sorted_vals = col[order]
        while i < n:
            k = i
            while k + 1 < n and sorted_vals[k + 1] == sorted_vals[i]:
                k += 1
            avg = (i + k) / 2.0 + 1.0   # average of 1-based positions
            for idx in order[i:k + 1]:
                r[idx] = avg
            i = k + 1
        ranks[:, j] = r
    diffs = ranks - ranks.mean(axis=0)
    cov = diffs.T @ diffs / (n - 1)
    ne = len(early_coords)
    out = np.empty((ne, n - ne))
    for i in range(ne):
        for j in range(n - ne):
            d = ranks[i] - ranks[ne + j]
            out[i, j] = np.sqrt(d @ np.linalg.solve(cov, d))
    return out


class TestRankMahalanobis:
    def _clusters(self, coords, role, year):
        return [make_cluster(f"{role.value}{i}", role=role, survey_year=year,
                             lat=lat, lon=lon)
                for i, (lat, lon) in enumerate(coords)]

    def test_identical_coordinates_zero(self):
        early = self._clusters([(5.0, 5.0)], Role.EARLY, 2003)
        late = self._clusters([(5.0, 5.0)], Role.LATE, 2012)
        d = rank_mahalanobis(early, late)
        assert d.values[0, 0] == 0.0

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            e = rng.uniform(-5, 5, size=(3, 2))
            l = rng.uniform(-5, 5, size=(3, 2))
            early = self._clusters(e, Role.EARLY, 2003)
            late = self._clusters(l, Role.LATE, 2012)
            # huge width disables the caliper so base distances are exposed
            d = rank_mahalanobis(early, late, CaliperSpec(width=10.0))
            expected = _oracle_rank_mahalanobis(e, l)
            assert np.max(np.abs(d.values - expected)) < 1e-10
            assert np.max(np.abs(d.base - expected)) < 1e-10

    def test_caliper_violation_adds_penalty(self):
        rng = np.random.default_rng(8)
        e = rng.uniform(-5, 5, size=(4, 2))
        l = rng.uniform(-5, 5, size=(4, 2))
        early = self._clusters(e, Role.EARLY, 2003)
        late = self._clusters(l, Role.LATE, 2012)
        # zero width: every pair with unequal propensities violates
        d = rank_mahalanobis(early, late, CaliperSpec(width=0.0, penalty=777.0))
        gap = np.abs(d.propensity_early[:, None] - d.propensity_late[None, :])
        violated = gap > 0.0
        assert violated.any()
        np.testing.assert_allclose(d.values[violated], d.base[violated] + 777.0)
        np.testing.assert_allclose(d.values[~violated], d.base[~violated])

    def test_default_width_rule(self):
        rng = np.random.default_rng(9)
        e = rng.uniform(-5, 5, size=(5, 2))
        l = rng.uniform(-5, 5, size=(5, 2))
        d = rank_mahalanobis(self._clusters(e, Role.EARLY, 2003),
                             self._clusters(l, Role.LATE, 2012))
        props = np.concatenate([d.propensity_early, d.propensity_late])
        assert d.caliper_width == pytest.approx(0.2 * props.std(ddof=1))
        assert d.caliper_penalty == pytest.approx(1000.0 * d.base.max())

    def test_empty_side_rejected(self):
        with pytest.raises(DataValidationError):
            rank_mahalanobis([], self._clusters([(0, 0)], Role.LATE, 2012))

    def test_propensity_fit_warns_at_newton_cap(self, monkeypatch, caplog):
        rng = np.random.default_rng(9)
        early = self._clusters(rng.uniform(-5, 5, size=(5, 2)), Role.EARLY, 2003)
        late = self._clusters(rng.uniform(-5, 5, size=(5, 2)), Role.LATE, 2012)
        caplog.set_level(logging.WARNING, logger="matchdid.geomatch")
        rank_mahalanobis(early, late)
        assert caplog.records == []
        monkeypatch.setattr(impute, "MAX_NEWTON_ITER", 1)
        d = rank_mahalanobis(early, late)
        [record] = caplog.records
        assert record.name == "matchdid.geomatch"
        assert record.getMessage().startswith(
            "propensity fit stopped at its cap of 1 Newton steps "
            "with max|gradient| ")
        # the last iterate still gives propensities
        assert np.all((d.propensity_early > 0) & (d.propensity_early < 1))

    def test_coverage_scenario_propensity_converges(self, caplog):
        # on raw (lat, lon) columns the gradient of this fit stalls at
        # about 1e-10; the shared Newton tests it on rms-rescaled columns
        data = generate(COVERAGE_SCENARIO, 7004)
        early, late = ([c for c in sorted(data.clusters,
                                          key=lambda c: c.cluster_id)
                        if c.country == "C01" and c.role is role]
                       for role in (Role.EARLY, Role.LATE))
        caplog.set_level(logging.DEBUG, logger="matchdid")
        rank_mahalanobis(early, late)
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith("propensity fit: ")
        assert record.getMessage().endswith(", converged")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.floats(allow_nan=False)),
                    min_size=1, max_size=40))
    def test_average_ranks_match_scipy(self, values):
        # small integers make ties likely; +-0.0 and infinities tie too
        values = np.array(values)
        got = average_ranks(values)
        assert np.array_equal(got, rankdata(values, method="average"))


def brute_force_assignment_cost(cost):
    n, m = cost.shape
    k = min(n, m)
    best = np.inf
    for rows in itertools.combinations(range(n), k):
        for perm in itertools.permutations(range(m), k):
            best = min(best, sum(cost[r, c] for r, c in zip(rows, perm)))
    return best


class TestOptimalPairing:
    def _matrix(self, cost, early_ids=None, late_ids=None):
        from matchdid.geomatch import DistanceMatrix
        n, m = cost.shape
        early_ids = tuple(early_ids or (f"e{i}" for i in range(n)))
        late_ids = tuple(late_ids or (f"l{j}" for j in range(m)))
        return DistanceMatrix(
            early_ids=early_ids, late_ids=late_ids,
            values=cost, base=cost,
            propensity_early=np.zeros(n), propensity_late=np.zeros(m),
            caliper_width=0.0, caliper_penalty=0.0,
        )

    def test_single_pair(self):
        d = self._matrix(np.array([[3.0]]))
        assert optimal_pairing(d) == [("e0", "l0")]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            cost = rng.random((n, m)) * 5
            pairs = assignment_indices(cost)
            total = sum(cost[i, j] for i, j in pairs)
            assert total == pytest.approx(brute_force_assignment_cost(cost),
                                          abs=1e-9)
            assert len(pairs) == min(n, m)
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)

    def test_rectangular_pair_count(self):
        cost = np.random.default_rng(3).random((5, 3))
        assert len(assignment_indices(cost)) == 3

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        cost = rng.random((4, 4))
        d1 = self._matrix(cost)
        base = optimal_pairing(d1)
        perm = rng.permutation(4)
        d2 = self._matrix(cost[perm][:, perm],
                          early_ids=[f"e{i}" for i in perm],
                          late_ids=[f"l{j}" for j in perm])
        renamed = optimal_pairing(d2)
        assert sorted(base) == sorted(renamed)

    def test_lexicographic_tie_break(self):
        # all-equal costs: the identity pairing is the smallest lexicographically
        d = self._matrix(np.ones((3, 3)))
        assert optimal_pairing(d) == [("e0", "l0"), ("e1", "l1"), ("e2", "l2")]

    def test_infinite_cost_rejected(self):
        with pytest.raises(DataValidationError):
            assignment_indices(np.array([[np.inf]]))


def _reference_lexicographic(cost):
    """The former O(n^2)-solve refinement: for each row in order, the
    smallest column whose forced choice still admits a completion within
    the tolerance, checked by re-solving the rest."""
    cost = np.asarray(cost, dtype=float)
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    tol = 1e-9 * max(1.0, abs(best))
    n, m = cost.shape
    remaining_rows = list(range(n))
    remaining_cols = list(range(m))
    pairs = []
    fixed = 0.0

    def completion_cost(row_idx, col_idx):
        if not row_idx or not col_idx:
            return 0.0
        sub = cost[np.ix_(row_idx, col_idx)]
        r, c = linear_sum_assignment(sub)
        return float(sub[r, c].sum())

    while len(pairs) < min(n, m):
        r = remaining_rows[0]
        rest_rows = remaining_rows[1:]
        for c in remaining_cols:
            rest_cols = [x for x in remaining_cols if x != c]
            total = fixed + cost[r, c] + completion_cost(rest_rows, rest_cols)
            if total <= best + tol:
                pairs.append((r, c))
                fixed += float(cost[r, c])
                remaining_cols = rest_cols
                break
        remaining_rows = rest_rows
    return pairs


def _brute_force_lexicographic(cost):
    """Lexicographically smallest sorted pair list among all
    min(n, m)-pair assignments within the tolerance of the optimum."""
    n, m = cost.shape
    k = min(n, m)
    candidates = [
        (sum(cost[r, c] for r, c in zip(rows, perm)), list(zip(rows, perm)))
        for rows in itertools.combinations(range(n), k)
        for perm in itertools.permutations(range(m), k)
    ]
    best = min(total for total, _ in candidates)
    tol = 1e-9 * max(1.0, abs(best))
    return min(pairs for total, pairs in candidates if total <= best + tol)


@st.composite
def tied_costs(draw):
    """Integer costs in 0..k times a scale, so optima tie. Near-ties may be
    added in steps of 1e-3 or 0.3 of the tolerance: the first stay ties,
    the second let a few accepted excesses use up the tolerance."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    k = draw(st.integers(0, 3))
    scale = draw(st.sampled_from([0.1, 1.0, 1e3]))
    cells = st.lists(st.integers(0, k), min_size=n * m, max_size=n * m)
    cost = np.array(draw(cells), dtype=float).reshape(n, m) * scale
    step = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    if step:
        rows, cols = linear_sum_assignment(cost)
        tol = 1e-9 * max(1.0, abs(float(cost[rows, cols].sum())))
        near = st.lists(st.integers(0, 2), min_size=n * m, max_size=n * m)
        cost = cost + np.array(draw(near), dtype=float).reshape(n, m) * step * tol
    return cost


def _count_solves(monkeypatch):
    calls = []

    def counted(cost):
        calls.append(np.shape(cost))
        return linear_sum_assignment(cost)
    monkeypatch.setattr(geomatch, "linear_sum_assignment", counted)
    return calls


class TestLexicographicAssignment:
    @settings(max_examples=300, deadline=None)
    @given(cost=tied_costs())
    def test_matches_reference_and_brute_force(self, cost):
        for oriented in (cost, cost.T):
            pairs = assignment_indices(oriented)
            assert pairs == _reference_lexicographic(oriented)
            assert pairs == _brute_force_lexicographic(oriented)

    def test_tie_free_instance_is_one_solve(self, monkeypatch):
        cost = np.random.default_rng(50).random((50, 50))
        calls = _count_solves(monkeypatch)
        pairs = assignment_indices(cost)
        assert calls == [(50, 50)]
        assert pairs == _reference_lexicographic(cost)

    def test_overlaid_zero_permutations_stay_one_solve(self, monkeypatch):
        n = 60
        rng = np.random.default_rng(60)
        cost = np.ones((n, n))
        for _ in range(3):
            cost[np.arange(n), rng.permutation(n)] = 0.0
        calls = _count_solves(monkeypatch)
        pairs = assignment_indices(cost)
        assert calls == [(n, n)]
        assert pairs == _reference_lexicographic(cost)


class TestMatchCountry:
    def _sides(self, data):
        country = data.clusters[0].country
        early = sorted((c for c in data.clusters
                        if c.country == country and c.role is Role.EARLY),
                       key=lambda c: c.cluster_id)
        late = sorted((c for c in data.clusters
                       if c.country == country and c.role is Role.LATE),
                      key=lambda c: c.cluster_id)
        return early, late

    def test_pairs_close_regions(self, scenario):
        early, late = self._sides(scenario[1])
        pairs = match_country(early, late)
        assert len(pairs) == min(len(early), len(late))
        # jitter keeps paired clusters a few km apart, regions ~50 km apart
        assert all(p.geo_distance_km < 15.0 for p in pairs)

    def test_rank_distance_survives_pairs_csv(self, scenario, tmp_path):
        early, late = self._sides(scenario[1])
        pairs = match_country(early, late)
        d = rank_mahalanobis(early, late)
        ids_e, ids_l = list(d.early_ids), list(d.late_ids)
        assert [p.rank_distance for p in pairs] == [
            d.values[ids_e.index(p.early.cluster_id),
                     ids_l.index(p.late.cluster_id)] for p in pairs]
        path = tmp_path / "pairs.csv"
        write_pairs_csv(pairs, path)
        by_id = {c.cluster_id: c for c in early + late}
        back = read_pairs_csv(path, by_id)
        assert back == pairs
        assert [p.rank_distance for p in back] == [p.rank_distance for p in pairs]
        write_pairs_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
