import re
from dataclasses import replace

import numpy as np
import pytest

from matchdid.errors import DataValidationError
from matchdid.ingest import (
    StudySelection,
    filter_births,
    read_births,
    read_clusters,
    select_study_years,
    write_births_csv,
    write_clusters_csv,
    write_prevalence_csv,
)
from matchdid.model import BirthSize
from matchdid.synth import ScenarioConfig, generate

from conftest import make_birth, make_cluster


def avail(dhs, prevalence=None):
    """One country's clusters: one per survey year in ``dhs``, each with a
    prevalence estimate in every year of ``prevalence``."""
    if prevalence is None:
        prevalence = set(range(2000, 2016))
    return [(year, {p: 0.5 for p in prevalence}) for year in dhs]


def table(**countries):
    return [make_cluster(cluster_id=f"{country}-{year}", country=country,
                         survey_year=year, pfpr=pfpr)
            for country, surveys in countries.items()
            for year, pfpr in surveys]


class TestSelectStudyYears:
    def test_benin_like(self):
        # two-year spans arrive as one canonical year in the table
        out = select_study_years(table(BJ=avail({2001, 2012})))
        assert out["BJ"] == StudySelection(2001, 2012, 2001, 2012)

    def test_late_only_excluded(self):
        out = select_study_years(table(XX=avail({2009})))
        assert out["XX"] is None

    def test_fallback_1999_prevalence_from_2000(self):
        out = select_study_years(table(TZ=avail({1999, 2015})))
        assert out["TZ"] == StudySelection(1999, 2015, 2000, 2015)

    def test_fallback_1998(self):
        out = select_study_years(table(CI=avail({1998, 2012})))
        assert out["CI"] == StudySelection(1998, 2012, 2000, 2012)

    def test_earliest_early_latest_late(self):
        out = select_study_years(table(A=avail({2001, 2003, 2010, 2014})))
        assert out["A"] == StudySelection(2001, 2014, 2001, 2014)

    def test_window_survey_beats_fallback(self):
        out = select_study_years(table(A=avail({1999, 2004, 2010})))
        assert out["A"] == StudySelection(2004, 2010, 2004, 2010)

    def test_missing_prevalence_excludes(self):
        out = select_study_years(
            table(A=avail({2003, 2012}, prevalence={2003}))
        )
        assert out["A"] is None

    def test_deterministic_and_idempotent(self):
        t = table(A=avail({2001, 2012}), B=avail({2009}))
        assert select_study_years(t) == select_study_years(t)

    def test_years_outside_study_range_are_inert(self):
        # availability years start at 1998, and 1998/1999 are the early
        # fallback, so the only inert additions are post-2015 surveys
        rng = np.random.default_rng(4)
        for _ in range(50):
            years = set(int(y) for y in rng.choice(
                range(1998, 2016), size=rng.integers(1, 6), replace=False))
            base = select_study_years(table(A=avail(years)))
            extra = int(rng.choice([2016, 2017, 2020, 2024]))
            augmented = select_study_years(table(A=avail(years | {extra})))
            assert base == augmented


class TestFilterBirths:
    def test_exclusion_counts(self):
        records = (
            [make_birth(child_id=f"m{i}", multiple_birth=1) for i in range(3)]
            + [make_birth(child_id=f"s{i}", reported_size=None) for i in range(2)]
            + [make_birth(child_id=f"k{i}") for i in range(15)]
            + [make_birth(child_id="both", multiple_birth=1, reported_size=None)]
        )
        kept, counts = filter_births(records)
        assert counts.total_in == 21
        assert counts.multiple_births == 4     # multiples drop first
        assert counts.missing_reported_size == 2
        assert counts.remaining == len(kept) == 15

    def test_no_exclusions_identity(self):
        records = [make_birth(child_id=f"k{i}") for i in range(5)]
        kept, counts = filter_births(records)
        assert kept == records
        assert counts.multiple_births == counts.missing_reported_size == 0

    def test_order_preserved(self):
        records = [make_birth(child_id=f"k{i}",
                              multiple_birth=1 if i % 3 == 0 else 0)
                   for i in range(12)]
        kept, _ = filter_births(records)
        ids = [r.child_id for r in kept]
        assert ids == sorted(ids, key=lambda s: int(s[1:]))


@pytest.fixture(scope="module")
def data():
    cfg = ScenarioConfig(n_countries=2, regions_per_country=4,
                         births_per_cluster=8, missingness="mcar",
                         missing_rate=0.3, missing_size_rate=0.1)
    return generate(cfg, seed=21)


class TestCsvRoundTrip:
    def test_clusters_round_trip(self, tmp_path, data):
        write_clusters_csv(data.clusters, tmp_path / "clusters.csv")
        write_prevalence_csv(data.clusters, tmp_path / "prevalence.csv")
        back, warnings = read_clusters(tmp_path / "clusters.csv",
                                       tmp_path / "prevalence.csv")
        assert warnings == []
        assert back == data.clusters

    def test_births_round_trip(self, tmp_path, data):
        write_births_csv(data.births, tmp_path / "births.csv")
        back, warnings = read_births(tmp_path / "births.csv")
        assert warnings == []
        assert back == data.births

    def test_missing_cells_round_trip(self, tmp_path):
        births = [make_birth(child_id="a", reported_size=None, lbw=None),
                  make_birth(child_id="b", reported_size=BirthSize.LARGE, lbw=1)]
        write_births_csv(births, tmp_path / "births.csv")
        back, _ = read_births(tmp_path / "births.csv")
        assert back == births

    @pytest.mark.parametrize("table, edit, reason", [
        pytest.param("births", lambda row: row.replace(",", ";;", 1),
                     "column 'lbw' is missing (13 cells for 14 columns)",
                     id="births-separator"),
        pytest.param("births",
                     lambda row: re.sub(r"^([^,]*,[^,]*),\d+", r"\1,old", row),
                     "column 'mother_age_years': invalid literal for int() "
                     "with base 10: 'old'", id="births-bad-cell"),
        pytest.param("births", lambda row: ",".join(row.split(",")[:3]),
                     "column 'birth_order_code' is missing (3 cells for 14 "
                     "columns)", id="births-cut-to-3-cells"),
        pytest.param("births", lambda row: row + ",1",
                     "a cell follows the last column 'lbw' (15 cells for 14 "
                     "columns)", id="births-extra-cell"),
        pytest.param("clusters", lambda row: ",".join(row.split(",")[:3]),
                     "column 'role' is missing (3 cells for 12 columns)",
                     id="clusters-cut-to-3-cells"),
    ])
    def test_corrupt_row_skipped_with_warning(self, tmp_path, data, table,
                                              edit, reason):
        write_clusters_csv(data.clusters, tmp_path / "clusters.csv")
        write_prevalence_csv(data.clusters, tmp_path / "prevalence.csv")
        write_births_csv(data.births, tmp_path / "births.csv")
        path = tmp_path / f"{table}.csv"
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])   # break one row
        path.write_text("\n".join(lines) + "\n")
        if table == "births":
            (back, warnings), records = read_births(path), data.births
        else:
            back, warnings = read_clusters(path, tmp_path / "prevalence.csv")
            records = data.clusters
        assert back == records[:2] + records[3:]
        assert warnings == [f"{path}:4: skipped {table[:-1]} row: {reason}"]

    def test_warning_names_physical_line(self, tmp_path):
        # the first row's quoted child_id spans lines 2-3, so the bad row
        # is on line 4
        births = [make_birth(child_id="a\nb"), make_birth(child_id="c")]
        write_births_csv(births, tmp_path / "b.csv")
        text = (tmp_path / "b.csv").read_bytes()
        assert text.count(b"\n") == 4
        (tmp_path / "b.csv").write_bytes(text.replace(b"c,c1,25", b"c,c1,old"))
        back, warnings = read_births(tmp_path / "b.csv")
        assert back == births[:1]
        assert len(warnings) == 1 and "b.csv:4:" in warnings[0]

    def test_duplicate_cluster_id_rejected(self, tmp_path, data):
        clusters = [data.clusters[0], data.clusters[1],
                    replace(data.clusters[2],
                            cluster_id=data.clusters[0].cluster_id)]
        write_clusters_csv(clusters, tmp_path / "clusters.csv")
        # one trajectory per id: a repeated prevalence row is its own error
        write_prevalence_csv(clusters[:2], tmp_path / "prevalence.csv")
        with pytest.raises(DataValidationError) as err:
            read_clusters(tmp_path / "clusters.csv",
                          tmp_path / "prevalence.csv")
        message = str(err.value)
        assert f"clusters.csv:4: cluster_id {clusters[0].cluster_id!r}" in message
        assert "also on line 2" in message

    def test_repeated_prevalence_year_rejected(self, tmp_path, data):
        write_clusters_csv(data.clusters, tmp_path / "clusters.csv")
        write_prevalence_csv(data.clusters, tmp_path / "prevalence.csv")
        lines = (tmp_path / "prevalence.csv").read_text().splitlines()
        cluster_id, year, _ = lines[1].split(",")
        lines.append(f"{cluster_id},{year},0.99")
        (tmp_path / "prevalence.csv").write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(DataValidationError) as err:
            read_clusters(tmp_path / "clusters.csv",
                          tmp_path / "prevalence.csv")
        assert (f"prevalence.csv:{len(lines)}: cluster_id {cluster_id!r}, "
                f"year {year} is also on line 2") in str(err.value)

    def test_rate_outside_0_1_is_skipped_before_the_repeat_check(
            self, tmp_path, data):
        write_clusters_csv(data.clusters, tmp_path / "clusters.csv")
        write_prevalence_csv(data.clusters, tmp_path / "prevalence.csv")
        lines = (tmp_path / "prevalence.csv").read_text().splitlines()
        cluster_id, year, _ = lines[1].split(",")
        lines.append(f"{cluster_id},{year},1.5")
        (tmp_path / "prevalence.csv").write_text("\r\n".join(lines) + "\r\n")
        back, warnings = read_clusters(tmp_path / "clusters.csv",
                                       tmp_path / "prevalence.csv")
        assert back == data.clusters
        assert warnings == [f"{tmp_path / 'prevalence.csv'}:{len(lines)}: "
                            "skipped prevalence row: column 'pfpr': 1.5 "
                            "outside [0, 1]"]

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "births.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataValidationError):
            read_births(tmp_path / "births.csv")

    def test_missing_assigned_prevalence_year_warns(self, tmp_path, data):
        write_clusters_csv(data.clusters, tmp_path / "clusters.csv")
        write_prevalence_csv(data.clusters, tmp_path / "prevalence.csv")
        victim = data.clusters[0]
        year = victim.prevalence_year
        lines = (tmp_path / "prevalence.csv").read_text().splitlines()
        kept = [l for l in lines
                if not l.startswith(f"{victim.cluster_id},{year},")]
        (tmp_path / "prevalence.csv").write_text("\r\n".join(kept) + "\r\n")
        back, warnings = read_clusters(tmp_path / "clusters.csv",
                                       tmp_path / "prevalence.csv")
        assert len(back) == len(data.clusters)   # kept, only flagged
        assert any(victim.cluster_id in w and str(year) in w
                   for w in warnings)
