"""The four benchmark workloads.

Each workload fixes a scenario (the synthetic data shape, generated from a
scenario seed) and a preset plus config overrides. The benchmark's
``--seed`` is the analysis seed: it keys the imputation draws and the
sensitivity U draws, so every seed does the same amount of matching work on
the same data. ``--scenario-seed`` switches to another scenario, such as the
held-out one named here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

# The quickstart preset's own scenario has no missing outcomes and yields no
# balanced quadruple on most seeds, so every pipeline workload overrides it.
_SCENARIO = """\
[scenario]
n_countries = {countries}
regions_per_country = {regions}
births_per_cluster = {births}
covariate_imbalance = 0.05
decline_fraction = 0.5
stable_high_fraction = 0.5
missingness = mcar
missing_rate = 0.3
"""

_NO_SENSITIVITY = """\
[sensitivity]
enabled = false
"""

# test_07_end_to_end_coverage's scenario (tests/test_acceptance.py)
COVERAGE_SCENARIO = dict(
    n_countries=4, regions_per_country=12, births_per_cluster=12,
    covariate_imbalance=0.05, decline_fraction=0.5,
    stable_high_fraction=0.5, missingness="mcar", missing_rate=0.15,
)
COVERAGE_REPLICATIONS = 20
COVERAGE_M = 20
BALANCE_THRESHOLD = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "pipeline" or "coverage"
    scenario_seed: int             # for coverage: the first of the block
    # quadruples recorded per scenario seed, the default one and a held-out
    # one (for coverage: summed over the block); a run must match at least
    # this many
    min_matched: Dict[int, int] = field(default_factory=dict)
    preset: str = ""
    config: str = ""
    sensitivity_rows: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="quickstart",
        kind="pipeline", scenario_seed=1,
        min_matched={1: 17, 2: 14},
        preset="quickstart",
        config=_SCENARIO.format(countries=3, regions=12, births=25),
        sensitivity_rows=32,
    ),
    Workload(
        name="primary",
        kind="pipeline", scenario_seed=1,
        min_matched={1: 17, 2: 14},
        preset="primary",
        config=_SCENARIO.format(countries=3, regions=12, births=25)
        + _NO_SENSITIVITY,
    ),
    Workload(
        name="match_scale",
        kind="pipeline", scenario_seed=1,
        min_matched={1: 188, 2: 193},
        preset="quickstart",
        config=_SCENARIO.format(countries=2, regions=200, births=5)
        + "[model]\nimputations = 5\n" + _NO_SENSITIVITY,
    ),
    Workload(
        name="coverage",
        kind="coverage", scenario_seed=5000,
        min_matched={5000: 370, 5020: 397},
    ),
)}
