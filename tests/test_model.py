import pytest

from matchdid.errors import DataValidationError
from matchdid.model import (
    ClusterPair,
    GeoPoint,
    ModelSpec,
    PairCategory,
    Quadruple,
    Role,
    prevalence_year_for,
    validate_u_probabilities,
)

from conftest import make_birth, make_cluster


class TestGeoPoint:
    def test_valid(self):
        GeoPoint(0.0, 0.0)
        GeoPoint(-90.0, 180.0)
        GeoPoint(90.0, -179.999)

    @pytest.mark.parametrize("lat,lon", [
        (90.1, 0.0), (-90.1, 0.0), (0.0, 180.1), (0.0, -180.0),
    ])
    def test_out_of_range(self, lat, lon):
        with pytest.raises(DataValidationError):
            GeoPoint(lat, lon)


class TestClusterRecord:
    def test_covariate_ranges_enforced(self):
        with pytest.raises(DataValidationError):
            make_cluster(covariates={"floor": 3.5})
        with pytest.raises(DataValidationError):
            make_cluster(covariates={"mother_education": 2.5})
        with pytest.raises(DataValidationError):
            make_cluster(covariates={"urban": -0.1})

    def test_undefined_covariate_allowed(self):
        c = make_cluster(covariates={"toilet": None})
        assert not c.covariates_defined()
        with pytest.raises(DataValidationError):
            c.covariate_vector()

    def test_covariate_vector_order(self):
        c = make_cluster()
        assert c.covariate_vector() == (0.3, 1.8, 0.6, 0.2, 0.9, 0.15)

    def test_pfpr_range(self):
        with pytest.raises(DataValidationError):
            make_cluster(pfpr={2003: 1.2})

    def test_prevalence_year_rule(self):
        assert prevalence_year_for(1998) == 2000
        assert prevalence_year_for(1999) == 2000
        assert prevalence_year_for(2000) == 2000
        assert prevalence_year_for(2012) == 2012
        assert make_cluster(survey_year=1999).prevalence_year == 2000


class TestBirthRecord:
    def test_code_sets(self):
        with pytest.raises(DataValidationError):
            make_birth(birth_order_code=4)
        with pytest.raises(DataValidationError):
            make_birth(wealth_index=0)
        with pytest.raises(DataValidationError):
            make_birth(lbw=2)
        with pytest.raises(DataValidationError):
            make_birth(mother_age_years=0)

    def test_missing_fields_allowed(self):
        b = make_birth(reported_size=None, lbw=None)
        assert b.reported_size is None and b.lbw is None


class TestPairs:
    def test_roles_enforced(self):
        early = make_cluster("e", role=Role.EARLY)
        late = make_cluster("l", role=Role.LATE, survey_year=2012)
        ClusterPair(early=early, late=late)
        with pytest.raises(DataValidationError):
            ClusterPair(early=late, late=early)

    def test_same_country(self):
        early = make_cluster("e", country="C00")
        late = make_cluster("l", country="C01", role=Role.LATE, survey_year=2012)
        with pytest.raises(DataValidationError):
            ClusterPair(early=early, late=late)

    def test_quadruple_categories(self):
        early = make_cluster("e")
        late = make_cluster("l", role=Role.LATE, survey_year=2012)
        hl = ClusterPair(early=early, late=late, category=PairCategory.HIGH_LOW)
        hh = ClusterPair(early=early, late=late, category=PairCategory.HIGH_HIGH)
        Quadruple(treated=hl, control=hh)
        with pytest.raises(DataValidationError):
            Quadruple(treated=hh, control=hl)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert spec.cutoff_high == 0.4
        assert spec.cutoff_low == 0.2
        assert spec.highhigh_gap == 0.1
        assert spec.balance_threshold == 0.1
        assert spec.imputations == 500

    def test_invariants(self):
        with pytest.raises(DataValidationError):
            ModelSpec(cutoff_high=0.2, cutoff_low=0.4)
        with pytest.raises(DataValidationError):
            ModelSpec(imputations=1)


class TestSensitivityParams:
    """validate_u_probabilities on the sensitivity parameters (p1, p2)."""

    def test_valid(self):
        validate_u_probabilities(p1=10.0, p2=-10.0)
        validate_u_probabilities(p1=0.0, p2=0.0)

    @pytest.mark.parametrize("p1,p2", [
        (30.0, 30.0),      # joint probability 1.1
        (-60.0, 0.0),      # p1 alone pushes below 0
        (-60.0, 20.0),     # p1-only combination still invalid
        (0.0, 55.0),       # p2 alone pushes above 1
    ])
    def test_invalid(self, p1, p2):
        with pytest.raises(DataValidationError):
            validate_u_probabilities(p1=p1, p2=p2)
