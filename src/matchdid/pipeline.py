"""Batch stages wiring the pipeline together.

Each stage reads its input artifacts from the output directory (or the
configured input paths), writes its own artifacts, and drops a manifest
with input/output hashes, the seed, and a config snapshot. Stages are
deterministic: re-running one with unchanged inputs and seed reproduces
its artifacts byte for byte.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ._util import sha256_file
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
    draw_imputations,
    fit_imputation_model,
    read_imputations_csv,
    write_imputations_csv,
)
from .infer import (
    build_design,
    run_primary_analysis,
    write_diagnostics_csv,
    write_results_csv,
)
from .ingest import (
    AvailabilityTable,
    CountryAvailability,
    StudySelection,
    filter_births,
    read_births,
    read_clusters,
    select_study_years,
    write_births_csv,
)
from .model import ClusterPair, PairCategory
from .report import match_diagnostics, write_match_diagnostics_csv
from .sensan import sensitivity_grid, write_sensitivity_csv
from .synth import gen_scenario

STUDY_YEARS_COLUMNS = ["country", "early_year", "late_year",
                       "prevalence_early_year", "prevalence_late_year",
                       "included"]


def _out(out_dir) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DataValidationError(
            f"missing artifact {path.name}; run the {producer} stage first"
        )
    return path


def _input_paths(cfg: RunConfig, out: Path) -> Dict[str, Path]:
    return {
        "clusters": Path(cfg.inputs.clusters or out / "clusters.csv"),
        "prevalence": Path(cfg.inputs.prevalence or out / "prevalence.csv"),
        "births": Path(cfg.inputs.births or out / "births.csv"),
    }


def _write_manifest(stage, out: Path, cfg: RunConfig, seed,
                    inputs: Sequence[Path], outputs: Sequence[Path]) -> Path:
    manifest = {
        "stage": stage,
        "seed": seed,
        "preset": cfg.preset,
        "config": cfg.snapshot(),
        "inputs": {p.name: sha256_file(p) for p in inputs},
        "outputs": {p.name: sha256_file(p) for p in outputs},
    }
    path = out / f"{stage}_manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# stages


def stage_simulate(cfg: RunConfig, seed: int, out_dir) -> Dict:
    out = _out(out_dir)
    truth = gen_scenario(cfg.scenario, seed, out)
    outputs = [out / n for n in ("clusters.csv", "prevalence.csv",
                                 "births.csv", "truth.json")]
    _write_manifest("simulate", out, cfg, seed, [], outputs)
    return truth


def _load_inputs(cfg: RunConfig, out: Path):
    paths = _input_paths(cfg, out)
    for name, path in paths.items():
        _require(path, "simulate (or provide [inputs] paths)")
    clusters, warnings_c = read_clusters(paths["clusters"], paths["prevalence"])
    births, warnings_b = read_births(paths["births"])
    return clusters, births, warnings_c + warnings_b, paths


def _availability(clusters) -> AvailabilityTable:
    dhs: Dict[str, set] = defaultdict(set)
    prevalence: Dict[str, set] = defaultdict(set)
    for c in clusters:
        dhs[c.country].add(c.survey_year)
        prevalence[c.country].update(c.pfpr_by_year.keys())
    return AvailabilityTable(countries={
        country: CountryAvailability(
            dhs_years=frozenset(dhs[country]),
            prevalence_years=frozenset(prevalence[country]),
        )
        for country in sorted(dhs)
    })


def stage_ingest(cfg: RunConfig, seed: int, out_dir) -> Dict:
    out = _out(out_dir)
    clusters, births, warnings, paths = _load_inputs(cfg, out)
    selections = select_study_years(_availability(clusters))
    filtered, counts = filter_births(births)

    years_path = out / "study_years.csv"
    with open(years_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STUDY_YEARS_COLUMNS)
        for country in sorted(selections):
            sel = selections[country]
            if sel is None:
                writer.writerow([country, "", "", "", "", 0])
            else:
                writer.writerow([country, sel.early_year, sel.late_year,
                                 sel.prevalence_early_year,
                                 sel.prevalence_late_year, 1])

    births_path = out / "births_filtered.csv"
    write_births_csv(filtered, births_path)

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
    summary_path = out / "ingest_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _write_manifest("ingest", out, cfg, seed, list(paths.values()),
                    [years_path, births_path, summary_path])
    return summary


def _read_study_years(path: Path) -> Dict[str, Optional[StudySelection]]:
    selections: Dict[str, Optional[StudySelection]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if list(reader.fieldnames or []) != STUDY_YEARS_COLUMNS:
            raise DataValidationError(f"{path}: unexpected study_years.csv header")
        for row in reader:
            if row["included"] == "1":
                selections[row["country"]] = StudySelection(
                    int(row["early_year"]), int(row["late_year"]),
                    int(row["prevalence_early_year"]),
                    int(row["prevalence_late_year"]),
                )
            else:
                selections[row["country"]] = None
    return selections


def stage_geomatch(cfg: RunConfig, seed: int, out_dir) -> List[ClusterPair]:
    out = _out(out_dir)
    clusters, _, _, paths = _load_inputs(cfg, out)
    years_path = _require(out / "study_years.csv", "ingest")
    selections = _read_study_years(years_path)

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
            pairs.extend(match_country(early, late, cfg.matching.caliper()))

    pairs_path = out / "pairs.csv"
    write_pairs_csv(pairs, pairs_path)
    _write_manifest("geomatch", out, cfg, seed,
                    list(paths.values()) + [years_path], [pairs_path])
    return pairs


def stage_classify(cfg: RunConfig, seed: int, out_dir) -> List[ClusterPair]:
    out = _out(out_dir)
    clusters, _, _, paths = _load_inputs(cfg, out)
    pairs_path = _require(out / "pairs.csv", "match-geo")
    by_id = {c.cluster_id: c for c in clusters}
    pairs = read_pairs_csv(pairs_path, by_id)
    classified = classify_pairs(pairs, cfg.model)
    write_pairs_csv(classified, pairs_path)
    _write_manifest("classify", out, cfg, seed, list(paths.values()),
                    [pairs_path])
    return classified


def _load_classified_pairs(cfg: RunConfig, out: Path):
    clusters, births, _, paths = _load_inputs(cfg, out)
    pairs_path = _require(out / "pairs.csv", "match-geo")
    pairs = read_pairs_csv(pairs_path, {c.cluster_id: c for c in clusters})
    if any(p.category is None for p in pairs):
        raise DataValidationError(
            "pairs.csv has unclassified pairs; run the classify stage first"
        )
    return clusters, births, pairs, paths, pairs_path


def stage_cardmatch(cfg: RunConfig, seed: int, out_dir):
    out = _out(out_dir)
    clusters, _, pairs, paths, pairs_path = _load_classified_pairs(cfg, out)
    treated = [p for p in pairs if p.category is PairCategory.HIGH_LOW
               and p.early.covariates_defined() and p.late.covariates_defined()]
    control = [p for p in pairs if p.category is PairCategory.HIGH_HIGH
               and p.early.covariates_defined() and p.late.covariates_defined()]
    if not treated or not control:
        raise DataValidationError(
            "cardinality matching needs at least one treated (high-low) and "
            "one control (high-high) pair with all covariates defined"
        )
    quadruples, balance = cardinality_match(
        treated, control, cfg.model.balance_threshold)
    quad_path = out / "quadruples.csv"
    balance_path = out / "balance.csv"
    write_quadruples_csv(quadruples, quad_path)
    write_balance_csv(balance, balance_path)
    _write_manifest("cardmatch", out, cfg, seed,
                    list(paths.values()) + [pairs_path],
                    [quad_path, balance_path])
    return quadruples, balance


def _load_design(cfg: RunConfig, out: Path):
    clusters, births, pairs, paths, pairs_path = _load_classified_pairs(cfg, out)
    quad_path = _require(out / "quadruples.csv", "match-card")
    pairs_by_ids = {(p.early.cluster_id, p.late.cluster_id): p for p in pairs}
    quadruples = read_quadruples_csv(quad_path, pairs_by_ids)
    filtered, _ = filter_births(births)
    analyzed = [r for r in filtered if cfg.filters.keep(r)]
    if not analyzed:
        raise DataValidationError("row filters removed every birth record")
    design = build_design(analyzed, quadruples, cfg.model)
    input_files = list(paths.values()) + [pairs_path, quad_path]
    return design, quadruples, input_files


def stage_impute(cfg: RunConfig, seed: int, out_dir):
    out = _out(out_dir)
    design, _, input_files = _load_design(cfg, out)
    observed = [r for r in design.records if r.lbw is not None]
    model = fit_imputation_model(observed)
    sets = draw_imputations(model, design.records, cfg.model.imputations, seed)

    model_path = out / "imputation_model.json"
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump({
            "columns": list(model.column_names),
            "coefficients": [float(v) for v in model.coefficients],
            "prior_scales": [float(v) for v in model.prior_scales],
            "covariance": [[float(v) for v in row] for row in model.covariance],
            "n_observed": len(observed),
            "n_records": design.n_records,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    imputations_path = out / "imputations.csv"
    write_imputations_csv(design.records, sets, imputations_path)
    _write_manifest("impute", out, cfg, seed, input_files,
                    [model_path, imputations_path])
    return model, sets


def _load_imputed(cfg: RunConfig, out: Path):
    design, _, input_files = _load_design(cfg, out)
    imputations_path = _require(out / "imputations.csv", "impute")
    sets = read_imputations_csv(design.records, imputations_path,
                                cfg.model.imputations)
    return design, sets, input_files + [imputations_path]


def stage_fit(cfg: RunConfig, seed: int, out_dir):
    out = _out(out_dir)
    design, sets, input_files = _load_imputed(cfg, out)
    result = run_primary_analysis(design, sets)

    results_path = out / "results.csv"
    diagnostics_path = out / "diagnostics.csv"
    write_results_csv(result.pooled, results_path)
    write_diagnostics_csv(result.pooled, diagnostics_path)
    summary_path = out / "fit_summary.json"
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({
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
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest("fit", out, cfg, seed, input_files,
                    [results_path, diagnostics_path, summary_path])
    return result


def stage_sensitivity(cfg: RunConfig, seed: int, out_dir):
    out = _out(out_dir)
    design, sets, input_files = _load_imputed(cfg, out)
    rows = sensitivity_grid(design, sets, seed, grid=cfg.sensitivity.grid)
    sens_path = out / "sensitivity.csv"
    write_sensitivity_csv(rows, sens_path)
    _write_manifest("sensitivity", out, cfg, seed, input_files, [sens_path])
    return rows


def stage_report(cfg: RunConfig, seed: int, out_dir):
    """Regenerate the presentation tables from the stage artifacts."""
    out = _out(out_dir)
    clusters, _, pairs, paths, pairs_path = _load_classified_pairs(cfg, out)
    quad_path = _require(out / "quadruples.csv", "match-card")
    pairs_by_ids = {(p.early.cluster_id, p.late.cluster_id): p for p in pairs}
    quadruples = read_quadruples_csv(quad_path, pairs_by_ids)

    matched_pairs = [q.treated for q in quadruples] + [q.control for q in quadruples]
    diag_path = out / "match_diagnostics.csv"
    write_match_diagnostics_csv(match_diagnostics(matched_pairs), diag_path)

    outputs = [diag_path]
    inputs = list(paths.values()) + [pairs_path, quad_path]
    for source, target in (("balance.csv", "report_balance.csv"),
                           ("results.csv", "report_results.csv"),
                           ("sensitivity.csv", "report_sensitivity.csv")):
        src = out / source
        if src.exists():
            dst = out / target
            dst.write_bytes(src.read_bytes())
            inputs.append(src)
            outputs.append(dst)
    _write_manifest("report", out, cfg, seed, inputs, outputs)
    return outputs


def run_pipeline(cfg: RunConfig, seed: int, out_dir) -> Dict:
    """All analysis stages in order (inputs must already exist)."""
    out = _out(out_dir)
    stage_ingest(cfg, seed, out)
    stage_geomatch(cfg, seed, out)
    stage_classify(cfg, seed, out)
    stage_cardmatch(cfg, seed, out)
    stage_impute(cfg, seed, out)
    result = stage_fit(cfg, seed, out)
    if cfg.sensitivity.enabled:
        stage_sensitivity(cfg, seed, out)
    stage_report(cfg, seed, out)
    return {
        "pooled_k1": result.pooled["low_prevalence"].estimate,
        "ci": [result.pooled["low_prevalence"].ci_low,
               result.pooled["low_prevalence"].ci_high],
        "p_value": result.pooled["low_prevalence"].p_value,
        "naive_k1": result.naive_k1,
    }
