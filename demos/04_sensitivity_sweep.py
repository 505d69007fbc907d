"""Walkthrough: the omitted-variable sensitivity sweep.

Regenerates a hypothetical binary confounder inside each imputed data set
over a grid of (p1, p2) shifts and shows how the low-prevalence
coefficient moves across the four sign cases.
"""

from matchdid.cardmatch import cardinality_match
from matchdid.classify import classify_pairs
from matchdid.geomatch import match_country
from matchdid.impute import draw_imputations, fit_imputation_model
from matchdid.infer import build_design, run_primary_analysis
from matchdid.ingest import filter_births
from matchdid.model import PairCategory, Role
from matchdid.sensan import sensitivity_grid
from matchdid.synth import ScenarioConfig, generate

cfg = ScenarioConfig(n_countries=3, regions_per_country=10,
                     births_per_cluster=25, covariate_imbalance=0.1,
                     missingness="mcar", missing_rate=0.4)
data = generate(cfg, seed=29)

pairs = []
for country in sorted({c.country for c in data.clusters}):
    early = sorted((c for c in data.clusters
                    if c.country == country and c.role is Role.EARLY),
                   key=lambda c: c.cluster_id)
    late = sorted((c for c in data.clusters
                   if c.country == country and c.role is Role.LATE),
                  key=lambda c: c.cluster_id)
    pairs.extend(match_country(early, late))
classified = classify_pairs(pairs)
quadruples, _ = cardinality_match(
    [p for p in classified if p.category is PairCategory.HIGH_LOW],
    [p for p in classified if p.category is PairCategory.HIGH_HIGH], 0.1)
births, _ = filter_births(data.births)
design = build_design(births, quadruples)
model = fit_imputation_model([r for r in design.records if r.lbw is not None])
sets = draw_imputations(model, design.records, m=20, seed=1)

result = run_primary_analysis(design, sets)
primary = result.pooled["low_prevalence"]
print(f"primary low-prevalence coefficient: {primary.estimate:+.4f} "
      f"[{primary.ci_low:+.4f}, {primary.ci_high:+.4f}]\n")

rows = sensitivity_grid(design, sets, seed=8)
print(f"{'case':4s} {'p1':>6s} {'p2':>6s} {'estimate':>9s} "
      f"{'95% CI':>22s} {'p':>7s}")
current = None
for row in rows:
    if row.case != current:
        current = row.case
        print(f"-- case {current}")
    ci = f"[{row.ci_low:+.4f}, {row.ci_high:+.4f}]"
    print(f"{row.case:4d} {row.p1:6.1f} {row.p2:6.1f} {row.estimate:+9.4f} "
          f"{ci:>22s} {row.p_value:7.3f}")
