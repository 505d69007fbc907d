"""Batch stages wiring the pipeline together.

Each stage reads its input artifacts from the output directory (or the
configured input paths), writes its own artifacts, and drops a manifest
with input/output hashes, the seed, and a config snapshot. Stages are
deterministic: re-running one with unchanged inputs and seed reproduces
its artifacts byte for byte.

Every stage takes a ``Workspace`` and the seed. The workspace parses the
input tables at most once, so the stages of one ``run_pipeline`` call
share a single parse; stage artifacts are read from disk on every call,
because later stages rewrite them.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ._util import flag, optional, read_csv, sha256_file, write_csv, write_json
from .cardmatch import (
    cardinality_match,
    read_quadruples_csv,
    write_balance_csv,
    write_quadruples_csv,
)
from .classify import classify_pairs
from .config import RunConfig
from .errors import DataValidationError
from .geomatch import match_country, read_pairs_csv, write_pairs_csv
from .impute import (
    ImputedSet,
    draw_imputations,
    fit_imputation_model,
    read_imputations_csv,
    write_imputations_csv,
)
from .infer import (
    InferenceDesign,
    build_design,
    run_primary_analysis,
    write_diagnostics_csv,
    write_results_csv,
)
from .ingest import (
    StudySelection,
    filter_births,
    read_births,
    read_clusters,
    select_study_years,
    write_births_csv,
)
from .model import ClusterPair, PairCategory, Quadruple
from .report import match_diagnostics, write_match_diagnostics_csv
from .sensan import sensitivity_grid, write_sensitivity_csv
from .synth import gen_scenario

# the years are StudySelection's fields, empty on an excluded country's row
STUDY_YEARS_COLUMNS = {
    "country": str,
    **dict.fromkeys(["early_year", "late_year", "prevalence_early_year",
                     "prevalence_late_year"], optional(int)),
    "included": flag,
}

INPUTS = ("clusters.csv", "prevalence.csv", "births.csv")
DESIGN_INPUTS = (*INPUTS, "pairs.csv", "quadruples.csv")

# the command that writes each stage artifact a later stage reads
PRODUCERS = {"study_years.csv": "ingest", "pairs.csv": "match-geo",
             "quadruples.csv": "match-card", "imputations.csv": "impute"}


class Workspace:
    """One run's config, output directory and input tables.

    The input tables are parsed on first use and kept; every stage
    artifact is read from disk each time it is asked for.
    """

    def __init__(self, cfg: RunConfig, out_dir) -> None:
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs = {
            name: Path(getattr(cfg.inputs, Path(name).stem) or self.out / name)
            for name in INPUTS
        }

    def path(self, name: str) -> Path:
        return self.inputs.get(name, self.out / name)

    def artifact(self, name: str) -> Path:
        """Path of an input table or stage artifact, refused if missing."""
        path = self.path(name)
        if path.exists():
            return path
        if name in self.inputs:
            raise DataValidationError(
                f"missing input {path.name}; run the simulate stage first "
                f"or set [inputs] paths")
        raise DataValidationError(
            f"missing artifact {name}; run the {PRODUCERS[name]} stage first")

    @cached_property
    def tables(self):
        """``(clusters, births, warnings)`` parsed from the input files."""
        paths = [self.artifact(name) for name in INPUTS]
        clusters, warnings_c = read_clusters(paths[0], paths[1])
        births, warnings_b = read_births(paths[2])
        return clusters, births, warnings_c + warnings_b

    def pairs(self, classified: bool = True) -> List[ClusterPair]:
        by_id = {c.cluster_id: c for c in self.tables[0]}
        pairs = read_pairs_csv(self.artifact("pairs.csv"), by_id)
        if classified and any(p.category is None for p in pairs):
            raise DataValidationError(
                "pairs.csv has unclassified pairs; run the classify stage first"
            )
        return pairs

    def quadruples(self) -> List[Quadruple]:
        pairs = {(p.early.cluster_id, p.late.cluster_id): p
                 for p in self.pairs()}
        return read_quadruples_csv(self.artifact("quadruples.csv"), pairs)

    def design(self) -> InferenceDesign:
        quadruples = self.quadruples()
        filtered, _ = filter_births(self.tables[1])
        analyzed = [r for r in filtered if self.cfg.filters.keep(r)]
        if not analyzed:
            raise DataValidationError("row filters removed every birth record")
        return build_design(analyzed, quadruples, self.cfg.model)

    def imputed(self, design: InferenceDesign) -> List[ImputedSet]:
        return read_imputations_csv(design.records,
                                    self.artifact("imputations.csv"),
                                    self.cfg.model.imputations)

    def manifest(self, stage: str, seed, inputs: Sequence[str],
                 outputs: Sequence[str]) -> Path:
        """Write ``<stage>_manifest.json`` hashing the named files."""
        manifest = {
            "stage": stage,
            "seed": seed,
            "preset": self.cfg.preset,
            "config": asdict(self.cfg),
            "inputs": {p.name: sha256_file(p) for p in map(self.path, inputs)},
            "outputs": {n: sha256_file(self.out / n) for n in outputs},
        }
        path = self.out / f"{stage}_manifest.json"
        write_json(path, manifest)
        return path


# ---------------------------------------------------------------------------
# stages


def stage_simulate(ws: Workspace, seed: int) -> Dict:
    truth = gen_scenario(ws.cfg.scenario, seed, ws.out)
    ws.__dict__.pop("tables", None)     # the input files were just rewritten
    ws.manifest("simulate", seed, [], [*INPUTS, "truth.json"])
    return truth


def stage_ingest(ws: Workspace, seed: int) -> Dict:
    clusters, births, warnings = ws.tables
    selections = select_study_years(clusters)
    filtered, counts = filter_births(births)

    write_csv(ws.out / "study_years.csv", STUDY_YEARS_COLUMNS, (
        [country, "", "", "", "", 0] if sel is None else
        [country, sel.early_year, sel.late_year, sel.prevalence_early_year,
         sel.prevalence_late_year, 1]
        for country, sel in sorted(selections.items())))

    write_births_csv(filtered, ws.out / "births_filtered.csv")

    summary = {
        "n_clusters": len(clusters),
        "n_countries": len(selections),
        "n_countries_included": sum(1 for s in selections.values() if s),
        "births_total": counts.total_in,
        "births_multiple_excluded": counts.multiple_births,
        "births_missing_size_excluded": counts.missing_reported_size,
        "births_remaining": counts.remaining,
        "warnings": warnings,
    }
    write_json(ws.out / "ingest_summary.json", summary)

    ws.manifest("ingest", seed, INPUTS, ["study_years.csv",
                                         "births_filtered.csv",
                                         "ingest_summary.json"])
    return summary


def _read_study_years(path: Path) -> Dict[str, Optional[StudySelection]]:
    selections: Dict[str, Optional[StudySelection]] = {}
    for line, row in read_csv(path, STUDY_YEARS_COLUMNS, unique=["country"]):
        country, included = row.pop("country"), row.pop("included")
        empty = [name for name, year in row.items() if year is None]
        if included and empty:
            raise DataValidationError(
                f"{path}:{line}: column {empty[0]!r} is empty on the row of "
                f"included country {country!r}")
        selections[country] = StudySelection(**row) if included else None
    return selections


def stage_geomatch(ws: Workspace, seed: int) -> List[ClusterPair]:
    clusters = ws.tables[0]
    selections = _read_study_years(ws.artifact("study_years.csv"))

    pairs: List[ClusterPair] = []
    for country in sorted(selections):
        sel = selections[country]
        if sel is None:
            continue
        early = sorted((c for c in clusters
                        if c.country == country and c.role.value == "early"
                        and c.survey_year == sel.early_year),
                       key=lambda c: c.cluster_id)
        late = sorted((c for c in clusters
                       if c.country == country and c.role.value == "late"
                       and c.survey_year == sel.late_year),
                      key=lambda c: c.cluster_id)
        if early and late:
            pairs.extend(match_country(early, late, ws.cfg.matching.caliper()))

    write_pairs_csv(pairs, ws.out / "pairs.csv")
    ws.manifest("geomatch", seed, [*INPUTS, "study_years.csv"], ["pairs.csv"])
    return pairs


def stage_classify(ws: Workspace, seed: int) -> List[ClusterPair]:
    classified = classify_pairs(ws.pairs(classified=False), ws.cfg.model)
    write_pairs_csv(classified, ws.out / "pairs.csv")
    # pairs.csv is rewritten in place, so it is listed only as an output
    ws.manifest("classify", seed, INPUTS, ["pairs.csv"])
    return classified


def stage_cardmatch(ws: Workspace, seed: int):
    eligible = [p for p in ws.pairs() if p.early.covariates_defined()
                and p.late.covariates_defined()]
    treated = [p for p in eligible if p.category is PairCategory.HIGH_LOW]
    control = [p for p in eligible if p.category is PairCategory.HIGH_HIGH]
    if not treated or not control:
        raise DataValidationError(
            "cardinality matching needs at least one treated (high-low) and "
            "one control (high-high) pair with all covariates defined"
        )
    quadruples, balance = cardinality_match(
        treated, control, ws.cfg.model.balance_threshold)
    write_quadruples_csv(quadruples, ws.out / "quadruples.csv")
    write_balance_csv(balance, ws.out / "balance.csv")
    ws.manifest("cardmatch", seed, [*INPUTS, "pairs.csv"],
                ["quadruples.csv", "balance.csv"])
    return quadruples, balance


def stage_impute(ws: Workspace, seed: int):
    design = ws.design()
    observed = [r for r in design.records if r.lbw is not None]
    model = fit_imputation_model(observed)
    sets = draw_imputations(model, design.records, ws.cfg.model.imputations,
                            seed)

    write_json(ws.out / "imputation_model.json", {
        "columns": list(model.column_names),
        "coefficients": [float(v) for v in model.coefficients],
        "prior_scales": [float(v) for v in model.prior_scales],
        "covariance": [[float(v) for v in row] for row in model.covariance],
        "n_observed": len(observed),
        "n_records": design.n_records,
    })
    write_imputations_csv(design.records, sets, ws.out / "imputations.csv")
    ws.manifest("impute", seed, DESIGN_INPUTS,
                ["imputation_model.json", "imputations.csv"])
    return model, sets


def stage_fit(ws: Workspace, seed: int):
    design = ws.design()
    result = run_primary_analysis(design, ws.imputed(design))

    write_results_csv(result.pooled, ws.out / "results.csv")
    write_diagnostics_csv(result.pooled, ws.out / "diagnostics.csv")
    write_json(ws.out / "fit_summary.json", {
        "m": result.m,
        "n_records": result.n_records,
        "n_clusters": result.n_clusters,
        "naive_k1": result.naive_k1,
        "naive_k2": result.naive_k2,
        "naive_k3": result.naive_k3,
        "covariate_drift": result.covariate_drift,
        "sigma0_sq_mean": result.sigma0_sq_mean,
        "sigma1_sq_mean": result.sigma1_sq_mean,
        "pooled_k1": result.pooled["low_prevalence"].estimate,
        "pooled_k1_ci": [result.pooled["low_prevalence"].ci_low,
                         result.pooled["low_prevalence"].ci_high],
    })
    ws.manifest("fit", seed, [*DESIGN_INPUTS, "imputations.csv"],
                ["results.csv", "diagnostics.csv", "fit_summary.json"])
    return result


def stage_sensitivity(ws: Workspace, seed: int):
    design = ws.design()
    rows = sensitivity_grid(design, ws.imputed(design), seed,
                            grid=ws.cfg.sensitivity.grid)
    write_sensitivity_csv(rows, ws.out / "sensitivity.csv")
    ws.manifest("sensitivity", seed, [*DESIGN_INPUTS, "imputations.csv"],
                ["sensitivity.csv"])
    return rows


def stage_report(ws: Workspace, seed: int):
    """Regenerate the presentation tables from the stage artifacts."""
    quadruples = ws.quadruples()
    matched_pairs = [q.treated for q in quadruples] + [q.control for q in quadruples]
    write_match_diagnostics_csv(match_diagnostics(matched_pairs),
                                ws.out / "match_diagnostics.csv")

    inputs, outputs = list(DESIGN_INPUTS), ["match_diagnostics.csv"]
    for source, target in (("balance.csv", "report_balance.csv"),
                           ("results.csv", "report_results.csv"),
                           ("sensitivity.csv", "report_sensitivity.csv")):
        src = ws.out / source
        if src.exists():
            (ws.out / target).write_bytes(src.read_bytes())
            inputs.append(source)
            outputs.append(target)
    ws.manifest("report", seed, inputs, outputs)
    return [ws.out / name for name in outputs]


def run_pipeline(ws: Workspace, seed: int) -> Dict:
    """All analysis stages in order (inputs must already exist)."""
    stage_ingest(ws, seed)
    stage_geomatch(ws, seed)
    stage_classify(ws, seed)
    stage_cardmatch(ws, seed)
    stage_impute(ws, seed)
    result = stage_fit(ws, seed)
    if ws.cfg.sensitivity.enabled:
        stage_sensitivity(ws, seed)
    stage_report(ws, seed)
    return {
        "pooled_k1": result.pooled["low_prevalence"].estimate,
        "ci": [result.pooled["low_prevalence"].ci_low,
               result.pooled["low_prevalence"].ci_high],
        "p_value": result.pooled["low_prevalence"].p_value,
        "naive_k1": result.naive_k1,
    }
