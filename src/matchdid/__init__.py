"""Paired difference-in-differences pipeline over survey clusters.

Stages: geographic pairing of early/late clusters, prevalence-based pair
classification, balance-constrained cardinality matching of treated and
control pairs, multiple imputation of the missing binary outcome,
random-intercept linear probability estimation pooled by Rubin's rules,
and an omitted-variable sensitivity sweep. A synthetic scenario generator
with known ground truth makes every stage testable end to end.

The public names below load lazily (PEP 562): ``import matchdid`` imports
no submodule, numpy or scipy, and each name's submodule is imported the
first time the name is used.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "model": (
        "BirthRecord", "BirthSize", "ClusterPair", "ClusterRecord",
        "Coefficients", "GeoPoint", "ModelSpec", "PairCategory",
        "PrevalenceLevel", "Quadruple", "Role",
    ),
    "errors": (
        "ConfigError", "ConvergenceError", "DataValidationError",
        "MatchDidError",
    ),
    "geomatch": (
        "CaliperSpec", "DistanceMatrix", "haversine_km", "match_country",
        "optimal_pairing", "rank_mahalanobis",
    ),
    "classify": ("classify_pairs", "pair_category", "prevalence_level"),
    "cardmatch": (
        "BalanceReport", "cardinality_match", "pair_within_selection",
        "std_diff",
    ),
    "impute": (
        "ImputationModel", "draw_imputations", "fit_imputation_model",
    ),
    "infer": (
        "InferenceDesign", "MixedFit", "PooledEstimate", "PrimaryResult",
        "build_design", "did_contrasts", "fit_mixed_lpm", "rubin_combine",
        "run_primary_analysis",
    ),
    "ingest": ("StudySelection", "filter_births", "select_study_years"),
    "report": ("MatchDiagnostics", "match_diagnostics"),
    "sensan": (
        "SensitivityResult", "SensitivityRow", "sensitivity_fit",
        "sensitivity_grid",
    ),
    "synth": ("ScenarioConfig", "ScenarioData", "UTrue", "gen_scenario",
              "generate"),
}
_SUBMODULE = {name: sub for sub, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    # An AttributeError here for a submodule's own name (``cardmatch``)
    # lets ``from matchdid import cardmatch`` fall back to importing it.
    try:
        sub = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{sub}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
