"""Output checks that any correct matchdid passes.

Each check returns a list of problems; an empty list means the operation
passed. A failed check counts the operation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional

from workloads import BALANCE_THRESHOLD, Workload

# rounding slack on the balance threshold, as in cardmatch's own check
_EPS = 1e-9


def _rows(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _interval_problems(name: str, est: float, lo: float, hi: float) -> List[str]:
    if not all(math.isfinite(v) for v in (est, lo, hi)):
        return [f"{name}: non-finite estimate or interval"]
    if not lo <= est <= hi:
        return [f"{name}: estimate {est} outside [{lo}, {hi}]"]
    return []


def check_pipeline(w: Workload, out: Path, rc: int,
                   scenario_seed: int) -> List[str]:
    if rc != 0:
        return [f"matchdid pipeline exited with code {rc}"]
    problems = []
    try:
        for row in _rows(out / "balance.csv"):
            if not float(row["stddiff_after"]) <= BALANCE_THRESHOLD + _EPS:
                problems.append(f"balance: {row['covariate']}/{row['period']} "
                                f"stddiff_after {row['stddiff_after']}")
        quads = len(_rows(out / "quadruples.csv"))
        need = w.min_matched.get(scenario_seed, 1)
        if quads < need:
            problems.append(f"{quads} quadruples, recorded at least {need}")
        for row in _rows(out / "results.csv"):
            problems += _interval_problems(
                f"results {row['regressor']}", float(row["estimate"]),
                float(row["ci_low"]), float(row["ci_high"]))
        if w.sensitivity_rows is not None:
            rows = _rows(out / "sensitivity.csv")
            if len(rows) != w.sensitivity_rows:
                problems.append(f"sensitivity.csv has {len(rows)} rows, "
                                f"expected {w.sensitivity_rows}")
            for row in rows:
                name = f"sensitivity ({row['p1']}, {row['p2']})"
                if row["note"]:
                    problems.append(f"{name}: {row['note']}")
                    continue
                problems += _interval_problems(
                    name, float(row["estimate"]), float(row["ci_low"]),
                    float(row["ci_high"]))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable artifact: {exc}")
    return problems


def check_replication(rep: dict, scenario_seed: int) -> List[str]:
    if "error" in rep:
        return [f"replication {scenario_seed}: {rep['error']}"]
    problems = _interval_problems(f"replication {scenario_seed}",
                                  rep["estimate"], rep["ci_low"], rep["ci_high"])
    if rep["quads"] < 1:
        problems.append(f"replication {scenario_seed}: no quadruple matched")
    if not rep["max_stddiff_after"] <= BALANCE_THRESHOLD + _EPS:
        problems.append(f"replication {scenario_seed}: stddiff_after "
                        f"{rep['max_stddiff_after']}")
    return problems


def artifact_digest(out: Path) -> str:
    """SHA-256 over every file a pipeline run left in ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def source_digest(*roots: Path) -> str:
    """Stands in for the commit id: a checkout need not be a git repo."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode() + b"\0"
                     + path.read_bytes())
    return h.hexdigest()


class RerunLedger:
    """Digests of earlier runs of the same source, workload and seeds, kept
    in a file inside the checkout: reruns of one commit must agree byte for
    byte."""

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.entries = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.entries = {}

    def check(self, key: str, digest: str) -> Optional[str]:
        earlier = self.entries.setdefault(key, digest)
        if earlier != digest:
            return f"outputs differ from an earlier run of the same source ({key})"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)
