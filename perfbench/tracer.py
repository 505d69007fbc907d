"""In-memory spans and counters around matchdid's public calls.

The tracer patches each name where the caller looks it up (for example
``pipeline.cardinality_match`` or ``cardmatch.linprog``), so no file of the
package changes. Spans hold name, start, end and parent; they stay in memory
and are written out once, when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

STAGES = ("ingest", "geomatch", "classify", "cardmatch", "impute", "fit",
          "sensitivity", "report")


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._open: List[int] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``;
        ``on_result(result, *args, **kwargs)`` may add counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def count(self, name, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call adds one to a counter; ``name`` may be
        a function of the tracer state that picks the counter."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name() if callable(name) else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- summaries ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds (the
        duration minus the part its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def dump(self, path, extra: Optional[dict] = None) -> None:
        record = {
            "spans": self.spans,
            "summary": self.summary(),
            "counters": dict(self.counters),
        }
        record.update(extra or {})
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp, path)


def instrument(tracer: Tracer) -> None:
    """Install spans and counters at every layer boundary of matchdid, for
    the rest of the process."""
    import numpy.linalg
    from matchdid import cardmatch, geomatch, impute, infer, pipeline, sensan

    for stage in STAGES:
        setattr(pipeline, f"stage_{stage}", tracer.span(
            f"pipeline.{stage}", getattr(pipeline, f"stage_{stage}")))

    def hashed(_, path):
        tracer.counters["pipeline.hash_bytes"] += os.path.getsize(path)
    pipeline.sha256_file = tracer.span(
        "pipeline.hash", pipeline.sha256_file, hashed)
    pipeline.read_clusters = tracer.span("ingest.read", pipeline.read_clusters)
    pipeline.read_births = tracer.span("ingest.read", pipeline.read_births)

    pipeline.optimal_pairing = geomatch.optimal_pairing = tracer.span(
        "geomatch.assign", geomatch.optimal_pairing)
    geomatch.linear_sum_assignment = tracer.count(
        lambda: ("cardmatch.lsa_calls" if tracer.inside("cardmatch.pair")
                 else "geomatch.lsa_calls"),
        geomatch.linear_sum_assignment)

    def matched(result, treated, control, *args, **kwargs):
        tracer.counters["cardmatch.candidates"] += len(treated) + len(control)
        tracer.counters["cardmatch.matched"] += len(result[0])
    pipeline.cardinality_match = cardmatch.cardinality_match = tracer.span(
        "cardmatch.match", cardmatch.cardinality_match, matched)
    cardmatch.pair_within_selection = tracer.span(
        "cardmatch.pair", cardmatch.pair_within_selection)
    cardmatch.linprog = tracer.count("cardmatch.lp_calls", cardmatch.linprog)

    pipeline.fit_imputation_model = impute.fit_imputation_model = tracer.span(
        "impute.model", impute.fit_imputation_model)
    pipeline.draw_imputations = impute.draw_imputations = tracer.span(
        "impute.draw", impute.draw_imputations)
    pipeline.write_imputations_csv = tracer.span(
        "impute.write", pipeline.write_imputations_csv)
    pipeline.read_imputations_csv = tracer.span(
        "impute.read", pipeline.read_imputations_csv)

    model = infer.MixedModelData
    model.__init__ = tracer.span("infer.setup", model.__init__)
    model.fit = tracer.span("infer.fit", model.fit)
    model.profile_criterion = tracer.count(
        "infer.profile_evals", model.profile_criterion)
    # infer calls np.linalg.matrix_rank, looked up on numpy.linalg itself
    numpy.linalg.matrix_rank = tracer.count(
        "infer.rank_checks", numpy.linalg.matrix_rank)
    infer.rubin_combine = sensan.rubin_combine = tracer.span(
        "infer.pool", infer.rubin_combine)
    sensan.sensitivity_fit = tracer.span(
        "sensan.point", sensan.sensitivity_fit)
