"""Child process of the benchmark: runs one operation, traced or not.

  worker.py pipeline --trace-out FILE -- <matchdid CLI arguments>
      runs the matchdid CLI in this process with every layer traced and
      exits with the CLI's exit code.
  worker.py coverage --first-seed S --seed K --out FILE [--trace]
      runs COVERAGE_REPLICATIONS replications of acceptance criterion 7's
      loop on scenario seeds S, S+1, ... and writes per-replication results
      (and the trace).

Both expect ``src`` on PYTHONPATH; ``run.py`` sets it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from matchdid import (  # noqa: E402
    cardmatch, classify, cli, geomatch, impute, infer, ingest, synth,
)
from matchdid.errors import MatchDidError  # noqa: E402
from matchdid.model import PairCategory, Role  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402
from workloads import (  # noqa: E402
    BALANCE_THRESHOLD, COVERAGE_M, COVERAGE_REPLICATIONS, COVERAGE_SCENARIO,
)

IMPORT_S = time.perf_counter() - STARTED


def traced_pipeline(trace_out: str, argv) -> int:
    tracer = Tracer()
    instrument(tracer)
    rc = cli.run(argv)
    tracer.dump(trace_out, {"rc": rc, "import_s": IMPORT_S})
    return rc


def _replicate(data, draw_seed: int, m: int, region):
    """The calls of tests/test_acceptance.py::_pipeline_once, each step in
    a span named after the pipeline stage that does the same work."""
    with region("pipeline.geomatch"):
        pairs = []
        for country in sorted({c.country for c in data.clusters}):
            early = sorted((c for c in data.clusters
                            if c.country == country and c.role is Role.EARLY),
                           key=lambda c: c.cluster_id)
            late = sorted((c for c in data.clusters
                           if c.country == country and c.role is Role.LATE),
                          key=lambda c: c.cluster_id)
            pairs.extend(geomatch.match_country(early, late))
    with region("pipeline.classify"):
        classified = classify.classify_pairs(pairs)
    with region("pipeline.cardmatch"):
        quads, balance = cardmatch.cardinality_match(
            [p for p in classified if p.category is PairCategory.HIGH_LOW],
            [p for p in classified if p.category is PairCategory.HIGH_HIGH],
            BALANCE_THRESHOLD)
    with region("pipeline.ingest"):
        births, _ = ingest.filter_births(data.births)
    with region("pipeline.impute"):
        design = infer.build_design(births, quads)
        model = impute.fit_imputation_model(
            [r for r in design.records if r.lbw is not None])
        sets = impute.draw_imputations(model, design.records, m, draw_seed)
    with region("pipeline.fit"):
        result = infer.run_primary_analysis(design, sets)
    k1 = result.pooled["low_prevalence"]
    return {
        "quads": len(quads),
        "max_stddiff_after": max(r.stddiff_after for r in balance.rows),
        "estimate": k1.estimate, "ci_low": k1.ci_low, "ci_high": k1.ci_high,
    }


def coverage(args) -> int:
    tracer = Tracer() if args.trace else None
    region = tracer.region if tracer else (lambda name: contextlib.nullcontext())
    cfg = synth.ScenarioConfig(**COVERAGE_SCENARIO)
    seeds = range(args.first_seed, args.first_seed + COVERAGE_REPLICATIONS)

    t0 = time.perf_counter()
    datasets = [synth.generate(cfg, s) for s in seeds]
    synth_s = time.perf_counter() - t0

    if tracer:
        instrument(tracer)
    reps = []
    loop_wall, loop_cpu = time.perf_counter(), time.process_time()
    for scenario_seed, data in zip(seeds, datasets):
        # --seed 0 reproduces acceptance 7's draws for these scenario seeds
        draw_seed = args.seed * 100_000 + scenario_seed
        t = time.perf_counter()
        try:
            rep = _replicate(data, draw_seed, COVERAGE_M, region)
        except MatchDidError as exc:
            rep = {"error": f"{type(exc).__name__}: {exc}"}
        rep["latency_s"] = time.perf_counter() - t
        rep["scenario_seed"] = scenario_seed
        reps.append(rep)
    loop_wall = time.perf_counter() - loop_wall
    loop_cpu = time.process_time() - loop_cpu

    record = {
        "replications": reps, "truth_k1": cfg.coefficients.k1,
        "loop_s": loop_wall, "loop_cpu_s": loop_cpu,
        "synth_s": synth_s, "import_s": IMPORT_S,
    }
    if tracer:
        tracer.dump(args.out, record)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["pipeline"]:
        split = argv.index("--")
        parser = argparse.ArgumentParser(prog="worker.py pipeline")
        parser.add_argument("--trace-out", required=True)
        args = parser.parse_args(argv[1:split])
        return traced_pipeline(args.trace_out, argv[split + 1:])
    parser = argparse.ArgumentParser(prog="worker.py coverage")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    return coverage(parser.parse_args(argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
