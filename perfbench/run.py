"""matchdid benchmark: runs one workload for a fixed time and checks it.

  python3 perfbench/run.py --workload quickstart --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
untraced and traced operations in turn and reports the per-layer metrics,
including the tracing overhead. --workload all runs every workload in turn.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from checks import (
    RerunLedger, artifact_digest, check_pipeline, check_replication,
    source_digest,
)
from tracer import STAGES
from workloads import COVERAGE_REPLICATIONS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable
INPUTS = ("clusters.csv", "prevalence.csv", "births.csv")
SETUP_RUNS = 5
BLAS_THREADS = 1        # pinned at or below nproc, the same on every commit
RUN_BUDGET_S = 170.0    # every child is killed past this point of a run

# the probe that records the environment; setup_s times only ``import matchdid``
ENV_PROBE = """\
import json, sys
import matchdid, numpy, scipy
try:
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (AttributeError, KeyError):
    blas = "unknown"
print(json.dumps({"matchdid": matchdid.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas}))
"""


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(cmd: List[str], log: Path, deadline: float,
              stdout: Optional[Path] = None) -> dict:
    """Run ``cmd`` to completion; wall time, CPU time and peak RSS are the
    child's own, read from wait4."""
    with open(log, "ab") as err, open(stdout or log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> Optional[tuple]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    i = len(ordered) - 11
    return 100.0 * (i + 1) / len(ordered), ordered[i]


# ---------------------------------------------------------------------------
# operations


def measure_setup(work: Path, runs: int, log: Path, deadline: float):
    """Fresh interpreter plus ``import matchdid``, timed ``runs`` times; then
    one untimed probe records the versions and where matchdid came from."""
    times, problems = [], []
    for _ in range(runs):
        child = run_child([PY, "-c", "import matchdid"], log, deadline)
        times.append(child["wall_s"])
        if child["rc"] != 0:
            problems.append(f"import matchdid failed (exit {child['rc']})")
    probe = work / "env.json"
    child = run_child([PY, "-c", ENV_PROBE], log, deadline, stdout=probe)
    try:
        env = json.loads(probe.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return times, {}, problems + [f"environment probe failed "
                                      f"(exit {child['rc']})"]
    if Path(env["matchdid"]).resolve().parent.parent != SRC.resolve():
        problems.append(f"imported matchdid from {env['matchdid']}, "
                        f"not from {SRC}")
    return times, env, problems


def pipeline_op(w: Workload, work: Path, k: int, seed: int, scenario_seed: int,
                traced: bool, log: Path, deadline: float) -> dict:
    out = work / f"op{k}"
    out.mkdir()
    for name in INPUTS:
        shutil.copyfile(work / "inputs" / name, out / name)
    cli = ["pipeline", "--preset", w.preset, "--config", str(work / "config.ini"),
           "--seed", str(seed), "--out-dir", str(out)]
    trace_path = work / f"trace{k}.json"
    if traced:
        cmd = [PY, str(HERE / "worker.py"), "pipeline",
               "--trace-out", str(trace_path), "--", *cli]
    else:
        cmd = [PY, "-m", "matchdid", *cli]
    child = run_child(cmd, log, deadline)
    problems = check_pipeline(w, out, child["rc"], scenario_seed)
    imputations = out / "imputations.csv"
    op = {**child, "traced": traced, "attempted": 1,
          "failed": int(bool(problems)), "problems": problems,
          "digest": artifact_digest(out) if not problems else None,
          "csv_mb": imputations.stat().st_size / 1e6
          if imputations.exists() else 0.0,
          "trace": None}
    if traced and trace_path.exists():
        op["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
    shutil.rmtree(out)
    return op


def coverage_op(w: Workload, work: Path, k: int, seed: int, scenario_seed: int,
                traced: bool, log: Path, deadline: float) -> dict:
    out = work / f"coverage{k}.json"
    cmd = [PY, str(HERE / "worker.py"), "coverage",
           "--first-seed", str(scenario_seed), "--seed", str(seed), "--out", str(out)]
    child = run_child(cmd + (["--trace"] if traced else []), log, deadline)
    op = {**child, "traced": traced, "attempted": COVERAGE_REPLICATIONS,
          "failed": COVERAGE_REPLICATIONS, "problems": [], "latencies": [],
          "digest": None, "csv_mb": 0.0, "trace": None}
    if child["rc"] != 0 or not out.exists():
        op["problems"].append(f"coverage worker exited with code {child['rc']}")
        return op
    record = json.loads(out.read_text(encoding="utf-8"))
    reps = record["replications"]
    failed = 0
    for rep in reps:
        found = check_replication(rep, rep["scenario_seed"])
        op["problems"] += found
        failed += bool(found)
    matched = sum(rep.get("quads", 0) for rep in reps)
    need = w.min_matched.get(scenario_seed, 1)
    if matched < need:
        op["problems"].append(f"{matched} quadruples over the block, "
                              f"recorded at least {need}")
        failed = len(reps)
    truth = record["truth_k1"]
    covered = sum(1 for rep in reps if "error" not in rep
                  and rep["ci_low"] <= truth <= rep["ci_high"])
    summary = [[rep.get(key) for key in ("quads", "estimate", "ci_low",
                                         "ci_high")] for rep in reps]
    op.update(
        wall_s=record["loop_s"], cpu_s=record["loop_cpu_s"],
        attempted=len(reps), failed=failed, covered=covered,
        latencies=[rep["latency_s"] for rep in reps],
        synth_s=record["synth_s"],
        digest=hashlib.sha256(json.dumps([covered, summary]).encode()).hexdigest(),
    )
    if traced:
        op["trace"] = record
    return op


def layer_metrics(op: dict, synth_s: float) -> Dict[str, float]:
    trace = op["trace"] or {"summary": {}, "counters": {}, "import_s": 0.0}
    spans, counters = trace["summary"], trace["counters"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    fits, points = calls("infer.fit"), calls("sensan.point")
    evals = counters.get("infer.profile_evals", 0)
    m = {f"pipeline.{stage}_s": total(f"pipeline.{stage}") for stage in STAGES}
    m.update({
        "pipeline.hash_s": total("pipeline.hash"),
        "pipeline.hash_mb": counters.get("pipeline.hash_bytes", 0) / 1e6,
        "ingest.reads": calls("ingest.read"),
        "ingest.read_s": total("ingest.read"),
        "geomatch.assign_s": total("geomatch.assign"),
        "geomatch.lsa_calls": counters.get("geomatch.lsa_calls", 0),
        # the selection is cardinality_match minus its pairing child span
        "cardmatch.select_s": spans.get("cardmatch.match", {}).get("self_s", 0.0),
        "cardmatch.pair_s": total("cardmatch.pair"),
        "impute.model_s": total("impute.model"),
        "impute.draw_s": total("impute.draw"),
        "impute.write_s": total("impute.write"),
        "impute.read_s": total("impute.read"),
        "impute.csv_mb": op["csv_mb"],
        "infer.fits": fits,
        "infer.fit_s": total("infer.fit"),
        "infer.fit_ms": 1000.0 * total("infer.fit") / fits if fits else 0.0,
        "infer.profile_evals": evals,
        "infer.evals_per_fit": evals / fits if fits else 0.0,
        "infer.pool_s": total("infer.pool"),
        "infer.setup_s": total("infer.setup"),
        "infer.rank_checks": counters.get("infer.rank_checks", 0),
        "sensan.points": points,
        "sensan.point_s": total("sensan.point") / points if points else 0.0,
        "setup.import_s": trace.get("import_s", 0.0),
        "synth.s": op.get("synth_s", synth_s),
    })
    for name in ("cardmatch.lsa_calls", "cardmatch.lp_calls",
                 "cardmatch.candidates", "cardmatch.matched"):
        m[name] = counters.get(name, 0)
    return m


def _counts_digest(trace: dict) -> str:
    """Span call counts and counters, which must repeat exactly."""
    calls = {name: row["calls"] for name, row in trace["summary"].items()}
    return hashlib.sha256(json.dumps([calls, trace["counters"]],
                                     sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# one workload


def bench(w: Workload, seed: int, scenario_seed: int, seconds: float,
          trace: bool, ledger: RerunLedger, ledger_key: str) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    work = OUT / "work" / f"{w.name}-{seed}-{os.getpid()}"
    log = OUT / "logs" / f"{w.name}-seed{seed}-trace{int(trace)}.log"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_bytes(b"")
    problems: List[str] = []
    ops: List[dict] = []
    setup: List[float] = []
    env: dict = {}
    synth_s = 0.0
    try:
        setup, env, found = measure_setup(work, 1 if trace else SETUP_RUNS,
                                          log, deadline)
        problems += found
        if w.kind == "pipeline":
            (work / "config.ini").write_text(w.config, encoding="utf-8")
            gen = run_child([PY, "-m", "matchdid", "simulate", "--preset",
                             w.preset, "--config", str(work / "config.ini"),
                             "--seed", str(scenario_seed),
                             "--out-dir", str(work / "inputs")], log, deadline)
            synth_s = gen["wall_s"]
            if gen["rc"] != 0:
                problems.append(f"matchdid simulate exited with code {gen['rc']}")
        run_op = pipeline_op if w.kind == "pipeline" else coverage_op

        measured = time.perf_counter()
        while not problems:
            begun = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                ops.append(run_op(w, work, len(ops), seed, scenario_seed,
                                  traced, log, deadline))
            now = time.perf_counter()
            if (now - measured >= seconds
                    or now + 1.5 * (now - begun) > deadline):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = f"{ledger_key}|{w.name}|{scenario_seed}|{seed}"
    for op in ops:
        problems += op["problems"]
        entries = [(key, op["digest"])]
        if op["trace"]:
            entries.append((f"{key}|trace counts", _counts_digest(op["trace"])))
        for entry, digest in entries:
            mismatch = digest and ledger.check(entry, digest)
            if mismatch:
                op["failed"] = op["attempted"]
                problems.append(mismatch)
    traced_ops = [op for op in ops if op["traced"]]
    plain = [op for op in ops if not op["traced"]]
    if trace:
        per_op = [layer_metrics(op, synth_s) for op in traced_ops]
        units = metric_units("per_layer")
        metrics = {name: median([m[name] for m in per_op])
                   for name in units if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = median(
            [t["wall_s"] / u["wall_s"] - 1.0 for u, t in zip(plain, traced_ops)])
    else:
        metrics = {
            "wall_s": median([op["wall_s"] for op in plain]),
            "cpu_s": median([op["cpu_s"] for op in plain]),
            "peak_rss_mb": median([op["rss_mb"] for op in plain]),
            "setup_s": median(setup),
        }
        units = metric_units("end_to_end")
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    samples = {
        "wall_s": [op["wall_s"] for op in plain],
        "setup_s": setup,
        # coverage only: the latency of one replication, printed, not a metric
        "replication": [x for op in plain for x in op.get("latencies", [])],
    }
    return {
        "workload": w.name, "seed": seed, "scenario_seed": scenario_seed,
        "trace": int(trace),
        "correct": not problems and attempted > 0 and failed == 0,
        "attempted": max(attempted, 1), "failed": failed if attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "samples": samples, "problems": problems,
        "ops": [{key: op[key] for key in ("traced", "rc", "wall_s", "cpu_s",
                                          "rss_mb", "attempted", "failed")}
                for op in ops],
        "covered": [op.get("covered") for op in ops if "covered" in op],
        "env": env, "run_s": time.perf_counter() - start,
    }


# ---------------------------------------------------------------------------
# reporting


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def print_report(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  scenario seed "
          f"{result['scenario_seed']}  trace {result['trace']}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"run {result['run_s']:.1f} s")
    def sample_note(values) -> str:
        text = f"   median of n={len(values)}"
        high = tail(values)
        return text + (f", p{high[0]:.0f}={high[1]:.4g}" if high else "")

    for name, metric in result["metrics"].items():
        line = f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}"
        values = result["samples"].get(name)
        print(line + (sample_note(values) if values else ""))
    replication = result["samples"]["replication"]
    if replication:
        print(f"  {'one replication':<24} {median(replication):>14.6g} s"
              + sample_note(replication))
    if result["covered"]:
        print(f"  covered (true k1 inside the CI): {result['covered']}")
    for problem in result["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="analysis seed: imputation and sensitivity draws")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep starting operations until this much time "
                             "has been measured (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="scenario seed (default: the workload's own; "
                             "each workload names a held-out one)")
    args = parser.parse_args(argv)

    if not (SRC / "matchdid" / "__init__.py").is_file():
        print(f"perfbench: no matchdid sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    src_digest = source_digest(SRC / "matchdid")
    # reruns compare only under the same program and benchmark sources
    ledger_key = source_digest(SRC / "matchdid", HERE)[:16]
    ledger = RerunLedger(OUT / "reruns.json")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        w = WORKLOADS[name]
        scenario_seed = (w.scenario_seed if args.scenario_seed is None
                         else args.scenario_seed)
        result = bench(w, args.seed, scenario_seed, args.seconds,
                       bool(args.trace), ledger, ledger_key)
        result["env"].update(
            nproc=os.cpu_count(), blas_threads=BLAS_THREADS,
            git_commit=git_commit(), source_sha256=src_digest,
            seed=args.seed, scenario_seed=scenario_seed,
            seconds=args.seconds)
        ledger.save()
        results.append(result)
        print_report(result)
        saved = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(json.dumps(result, indent=1), encoding="utf-8")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
