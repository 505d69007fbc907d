"""Batch command-line front end.

Subcommands: simulate, ingest, match-geo, classify, match-card, impute,
fit, sensitivity, pipeline, report. Exit codes: 0 success; 1 usage or
configuration error; 2 data validation error; 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .config import PRESETS, load_config
from .errors import ConfigError, ConvergenceError, DataValidationError
from . import pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchdid",
        description="Paired difference-in-differences pipeline over survey "
                    "clusters: geographic pairing, balance matching, outcome "
                    "imputation, pooled estimation, and sensitivity sweeps.",
    )
    parser.add_argument("command", choices=[
        "simulate", "ingest", "match-geo", "classify", "match-card",
        "impute", "fit", "sensitivity", "pipeline", "report",
    ])
    parser.add_argument("--config", default=None,
                        help="INI-style overrides applied on top of the preset")
    parser.add_argument("--preset", default="primary",
                        choices=sorted(PRESETS),
                        help="named analysis preset (default: primary)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="out",
                        help="directory holding stage artifacts")
    return parser


# pipeline functions of the commands not implemented by stage_<command>;
# looked up at call time so a patched pipeline function is the one called
_STAGES = {"match-geo": "stage_geomatch", "match-card": "stage_cardmatch",
           "pipeline": "run_pipeline"}


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, args.preset)
        stage = _STAGES.get(args.command, f"stage_{args.command}")
        ws = pipeline.Workspace(cfg, args.out_dir)
        getattr(pipeline, stage)(ws, args.seed)
    except ConfigError as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return 1
    except DataValidationError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
