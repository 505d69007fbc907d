"""Shared fixtures: a small synthetic scenario carried through matching,
imputation, and estimation once per session, plus record factories."""

import numpy as np
import pytest

from matchdid.cardmatch import cardinality_match
from matchdid.classify import classify_pairs
from matchdid.geomatch import match_country
from matchdid.impute import draw_imputations, fit_imputation_model
from matchdid.infer import build_design
from matchdid.ingest import filter_births
from matchdid.model import (
    BirthRecord,
    BirthSize,
    ClusterRecord,
    GeoPoint,
    PairCategory,
    Role,
)
from matchdid.synth import ScenarioConfig, generate


# acceptance criterion 7's scenario (tests/test_acceptance.py::test_07)
COVERAGE_SCENARIO = ScenarioConfig(
    n_countries=4, regions_per_country=12, births_per_cluster=12,
    covariate_imbalance=0.05, decline_fraction=0.5,
    stable_high_fraction=0.5, missingness="mcar", missing_rate=0.15,
)


def make_cluster(cluster_id="c1", country="C00", survey_year=2003,
                 role=Role.EARLY, lat=1.0, lon=10.0, covariates=None,
                 pfpr=None):
    covs = {
        "electricity": 0.3, "floor": 1.8, "toilet": 0.6, "urban": 0.2,
        "mother_education": 0.9, "contraception": 0.15,
    }
    if covariates:
        covs.update(covariates)
    return ClusterRecord(
        cluster_id=cluster_id, country=country, survey_year=survey_year,
        role=role, location=GeoPoint(lat, lon), covariates=covs,
        pfpr_by_year=pfpr if pfpr is not None else {survey_year if survey_year >= 2000 else 2000: 0.5},
    )


def make_birth(child_id="b1", cluster_id="c1", mother_age_years=25,
               birth_order_code=2, wealth_index=3, urban=0,
               mother_education=1, child_is_boy=1, married=1, antenatal=1,
               reported_size=BirthSize.AVERAGE, multiple_birth=0,
               child_age_years=1, lbw=0):
    return BirthRecord(
        child_id=child_id, cluster_id=cluster_id,
        mother_age_years=mother_age_years, birth_order_code=birth_order_code,
        wealth_index=wealth_index, urban=urban,
        mother_education=mother_education, child_is_boy=child_is_boy,
        married=married, antenatal=antenatal, reported_size=reported_size,
        multiple_birth=multiple_birth, child_age_years=child_age_years,
        lbw=lbw,
    )


@pytest.fixture(scope="session")
def scenario():
    cfg = ScenarioConfig(
        n_countries=3, regions_per_country=10, births_per_cluster=25,
        covariate_imbalance=0.15, missingness="covariate", missing_rate=0.45,
    )
    return cfg, generate(cfg, seed=11)


def classified_pairs(data):
    """Geographic pairing within each country, then classification."""
    pairs = []
    for country in sorted({c.country for c in data.clusters}):
        early = sorted((c for c in data.clusters
                        if c.country == country and c.role is Role.EARLY),
                       key=lambda c: c.cluster_id)
        late = sorted((c for c in data.clusters
                       if c.country == country and c.role is Role.LATE),
                      key=lambda c: c.cluster_id)
        pairs.extend(match_country(early, late))
    return classify_pairs(pairs)


@pytest.fixture(scope="session")
def matched(scenario):
    _, data = scenario
    classified = classified_pairs(data)
    treated = [p for p in classified if p.category is PairCategory.HIGH_LOW]
    control = [p for p in classified if p.category is PairCategory.HIGH_HIGH]
    quadruples, report = cardinality_match(treated, control, 0.1)
    return classified, quadruples, report


@pytest.fixture(scope="session")
def analysis(scenario, matched):
    _, data = scenario
    _, quadruples, _ = matched
    births, _ = filter_births(data.births)
    design = build_design(births, quadruples)
    observed = [r for r in design.records if r.lbw is not None]
    model = fit_imputation_model(observed)
    sets = draw_imputations(model, design.records, 20, seed=5)
    return design, model, sets
