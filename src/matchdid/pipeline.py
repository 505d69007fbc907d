"""Batch stages wiring the pipeline together.

Each stage reads its input artifacts from the output directory (or the
configured input paths), writes its own artifacts, and drops a manifest
with input/output hashes, the seed, and a config snapshot. Stages are
deterministic: re-running one with unchanged inputs and seed reproduces
its artifacts byte for byte.

Every stage takes a ``Workspace`` and the seed. The workspace keeps what
one stage derived for the stages after it, so the stages of one
``run_pipeline`` call parse the input tables once, build the inference
design once, never read back the imputations they drew, hash each file
once per write and fit the primary model once. A stage run on its own
reads and checks its input artifacts from disk.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ._util import (flag, optional, read_csv, read_json, sha256_file,
                    write_csv, write_json)
from .cardmatch import (
    cardinality_match,
    read_quadruples_csv,
    write_balance_csv,
    write_quadruples_csv,
)
from .classify import classify_pairs
from .config import RunConfig
from .errors import ConfigError, DataValidationError
from .geomatch import match_country, read_pairs_csv, write_pairs_csv
from .impute import (
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

# what a Workspace keeps, with the files each is derived from: a stage that
# rewrites one of those files drops it
KEPT = {"tables": INPUTS, "design": DESIGN_INPUTS,
        "imputed": (*DESIGN_INPUTS, "imputations.csv")}


class Workspace:
    """One run's config and output directory, and what one process keeps
    of the run.

    The input tables, the inference design and the (M, n) imputed outcome
    matrix are read or built on first use and kept; ``stage_impute`` keeps
    the matrix it drew. The SHA-256 of each file a manifest hashed is kept
    too. Writing a file through ``output`` drops its hash and whatever is
    derived from it (``KEPT``), so a later stage reads the new file. Every
    other stage artifact is read from disk each time it is asked for.
    """

    def __init__(self, cfg: RunConfig, out_dir) -> None:
        self.cfg = cfg
        self.out = Path(out_dir)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {self.out} as the output "
                              f"directory: {exc.strerror}") from None
        self._hashes: Dict[Path, str] = {}
        self.inputs = {
            name: Path(getattr(cfg.inputs, Path(name).stem) or self.out / name)
            for name in INPUTS
        }

    def path(self, name: str) -> Path:
        return self.inputs.get(name, self.out / name)

    def artifact(self, name: str) -> Path:
        """Path of an input table or stage artifact, refused unless a file."""
        path = self.path(name)
        if path.is_file():
            return path
        if path.exists():
            raise DataValidationError(f"{name} at {path} is not a file")
        if name in self.inputs:
            raise DataValidationError(
                f"missing input {path.name}; run the simulate stage first "
                f"or set [inputs] paths")
        raise DataValidationError(
            f"missing artifact {name}; run the {PRODUCERS[name]} stage first")

    def output(self, name: str) -> Path:
        """Path a stage writes ``name`` to, refused if it exists and is not
        a file. The kept hash of ``name`` and what ``KEPT`` derives from it
        are dropped."""
        path = self.out / name
        if path.exists() and not path.is_file():
            raise DataValidationError(f"{name} at {path} is not a file")
        self._hashes.pop(path, None)
        for kept, sources in KEPT.items():
            if name in sources:
                self.__dict__.pop(kept, None)
        return path

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

    @cached_property
    def design(self) -> InferenceDesign:
        quadruples = self.quadruples()
        filtered, counts = filter_births(self.tables[1])
        analyzed = [r for r in filtered if self.cfg.filters.keep(r)]
        if not analyzed:
            raise DataValidationError(
                f"no birth record is left to analyse: of {counts.total_in} "
                f"read, {counts.multiple_births} are multiple births, "
                f"{counts.missing_reported_size} more have no reported size, "
                f"and [filters] removed the other {counts.remaining}")
        return build_design(analyzed, quadruples, self.cfg.model)

    @cached_property
    def imputed(self):
        """The (M, n) int8 outcome matrix, read from ``imputations.csv``
        unless ``stage_impute`` kept the one it drew."""
        return read_imputations_csv(self.design.records,
                                    self.artifact("imputations.csv"),
                                    self.cfg.model.imputations)

    def sha256(self, path: Path) -> str:
        if path not in self._hashes:
            self._hashes[path] = sha256_file(path)
        return self._hashes[path]

    def manifest(self, stage: str, seed, inputs: Sequence[str],
                 outputs: Sequence[str]) -> Path:
        """Write ``<stage>_manifest.json`` hashing the named files."""
        manifest = {
            "stage": stage,
            "seed": seed,
            "preset": self.cfg.preset,
            "config": asdict(self.cfg),
            "inputs": {n: self.sha256(self.path(n)) for n in inputs},
            "outputs": {n: self.sha256(self.out / n) for n in outputs},
        }
        path = self.output(f"{stage}_manifest.json")
        write_json(path, manifest)
        return path

    def is_current(self, stage: str) -> bool:
        """Whether ``<stage>_manifest.json`` records this run's config and,
        for each input it lists, that file's hash as it is now. The hashes
        come from ``sha256``, so a file this process hashed already is not
        read again."""
        path = self.out / f"{stage}_manifest.json"
        if not path.is_file():
            return False
        recorded = read_json(path)
        if not isinstance(recorded, dict):
            return False
        inputs = recorded.get("inputs")
        # compared as the manifest writes it, where a tuple is a list
        return (json.dumps(recorded.get("config"), sort_keys=True)
                == json.dumps(asdict(self.cfg), sort_keys=True)
                and isinstance(inputs, dict)
                and all(self.path(name).is_file()
                        and self.sha256(self.path(name)) == digest
                        for name, digest in inputs.items()))


# ---------------------------------------------------------------------------
# stages


def stage_simulate(ws: Workspace, seed: int) -> Dict:
    outputs = [*INPUTS, "truth.json"]
    for name in outputs:
        ws.output(name)
    truth = gen_scenario(ws.cfg.scenario, seed, ws.out)
    ws.manifest("simulate", seed, [], outputs)
    return truth


def stage_ingest(ws: Workspace, seed: int) -> Dict:
    clusters, births, warnings = ws.tables
    selections = select_study_years(clusters)
    filtered, counts = filter_births(births)

    write_csv(ws.output("study_years.csv"), STUDY_YEARS_COLUMNS, (
        [country, "", "", "", "", 0] if sel is None else
        [country, sel.early_year, sel.late_year, sel.prevalence_early_year,
         sel.prevalence_late_year, 1]
        for country, sel in sorted(selections.items())))

    write_births_csv(filtered, ws.output("births_filtered.csv"))

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
    write_json(ws.output("ingest_summary.json"), summary)

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

    write_pairs_csv(pairs, ws.output("pairs.csv"))
    ws.manifest("geomatch", seed, [*INPUTS, "study_years.csv"], ["pairs.csv"])
    return pairs


def stage_classify(ws: Workspace, seed: int) -> List[ClusterPair]:
    classified = classify_pairs(ws.pairs(classified=False), ws.cfg.model)
    write_pairs_csv(classified, ws.output("pairs.csv"))
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
    write_quadruples_csv(quadruples, ws.output("quadruples.csv"))
    write_balance_csv(balance, ws.output("balance.csv"))
    ws.manifest("cardmatch", seed, [*INPUTS, "pairs.csv"],
                ["quadruples.csv", "balance.csv"])
    return quadruples, balance


def stage_impute(ws: Workspace, seed: int):
    design = ws.design
    observed = [r for r in design.records if r.lbw is not None]
    model = fit_imputation_model(observed)
    imputed = draw_imputations(model, design.records,
                               ws.cfg.model.imputations, seed)

    write_json(ws.output("imputation_model.json"), {
        "columns": list(model.column_names),
        "coefficients": [float(v) for v in model.coefficients],
        "prior_scales": [float(v) for v in model.prior_scales],
        "covariance": [[float(v) for v in row] for row in model.covariance],
        "n_observed": len(observed),
        "n_records": design.n_records,
    })
    write_imputations_csv(design.records, imputed,
                          ws.output("imputations.csv"))
    ws.imputed = imputed
    ws.manifest("impute", seed, DESIGN_INPUTS,
                ["imputation_model.json", "imputations.csv"])
    return model, imputed


def stage_fit(ws: Workspace, seed: int):
    result = run_primary_analysis(ws.design, ws.imputed)

    write_results_csv(result.pooled, ws.output("results.csv"))
    write_diagnostics_csv(result.pooled, ws.output("diagnostics.csv"))
    write_json(ws.output("fit_summary.json"), {
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
    rows = sensitivity_grid(ws.design, ws.imputed, seed,
                            grid=ws.cfg.sensitivity.grid)
    write_sensitivity_csv(rows, ws.output("sensitivity.csv"))
    ws.manifest("sensitivity", seed, [*DESIGN_INPUTS, "imputations.csv"],
                ["sensitivity.csv"])
    return rows


def stage_report(ws: Workspace, seed: int):
    """Regenerate the presentation tables from the stage artifacts.

    A table is copied to ``report_<table>`` only when the manifest of the
    stage that wrote it records this run's config and the current hash of
    every input it lists (``Workspace.is_current``); otherwise any earlier
    copy is removed, so a report never shows another run's table."""
    quadruples = ws.quadruples()
    matched_pairs = [q.treated for q in quadruples] + [q.control for q in quadruples]
    write_match_diagnostics_csv(match_diagnostics(matched_pairs),
                                ws.output("match_diagnostics.csv"))

    inputs, outputs = list(DESIGN_INPUTS), ["match_diagnostics.csv"]
    for source, stage in (("balance.csv", "cardmatch"), ("results.csv", "fit"),
                          ("sensitivity.csv", "sensitivity")):
        target = ws.output(f"report_{source}")
        if ws.path(source).exists() and ws.is_current(stage):
            target.write_bytes(ws.artifact(source).read_bytes())
            inputs.append(source)
            outputs.append(target.name)
        else:
            target.unlink(missing_ok=True)
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
