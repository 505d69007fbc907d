import contextlib
import csv
import hashlib
import io
import json
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from matchdid import cli
from matchdid.config import PRESETS, load_config
from matchdid.errors import ConvergenceError
from matchdid.infer import MixedModelData
from matchdid.ingest import filter_births, read_births

QUICK_CONFIG = """
[model]
imputations = 8

[scenario]
n_countries = 3
regions_per_country = 12
births_per_cluster = 10
covariate_imbalance = 0.05
decline_fraction = 0.5
stable_high_fraction = 0.5
missingness = mcar
missing_rate = 0.3

[sensitivity]
grid = 2.5,5 ; -2.5,-5
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "quick.ini"
    cfg_path.write_text(QUICK_CONFIG)
    return root, cfg_path


def run_cli(*args):
    return cli.run([str(a) for a in args])


class TestPresets:
    def test_paper_defaults_in_primary(self):
        primary = PRESETS["primary"]
        assert primary.model.cutoff_high == 0.4
        assert primary.model.cutoff_low == 0.2
        assert primary.model.highhigh_gap == 0.1
        assert primary.model.balance_threshold == 0.1
        assert primary.model.imputations == 500

    def test_quickstart_lowers_m(self):
        assert PRESETS["quickstart"].model.imputations == 50

    def test_sa_presets(self):
        assert PRESETS["sa1"].filters.max_child_age == 1
        assert PRESETS["sa2"].filters.first_born_only
        assert (PRESETS["sa3"].model.cutoff_high,
                PRESETS["sa3"].model.cutoff_low) == (0.45, 0.15)
        assert (PRESETS["sa4"].model.cutoff_high,
                PRESETS["sa4"].model.cutoff_low) == (0.5, 0.1)

    def test_config_overrides(self, workdir):
        _, cfg_path = workdir
        cfg = load_config(str(cfg_path), "primary")
        assert cfg.model.imputations == 8
        assert cfg.scenario.n_countries == 3
        assert cfg.scenario.decline_fraction == 0.5
        assert cfg.sensitivity.grid == ((2.5, 5.0), (-2.5, -5.0))

    def test_matching_overrides(self, tmp_path):
        path = tmp_path / "m.ini"
        path.write_text("[matching]\ncaliper_width = 0.05\n"
                        "caliper_penalty = 500\n")
        cfg = load_config(str(path), "primary")
        assert cfg.matching.caliper().width == 0.05
        assert cfg.matching.caliper().penalty == 500.0

    def test_removed_exact_limit_rejected(self, tmp_path):
        from matchdid.errors import ConfigError
        path = tmp_path / "old.ini"
        path.write_text("[matching]\nexact_limit = 20\n")
        with pytest.raises(ConfigError, match="exact_limit"):
            load_config(str(path), "primary")
        assert run_cli("simulate", "--config", path,
                       "--out-dir", tmp_path / "out") == 1

    def test_unknown_key_rejected(self, tmp_path):
        from matchdid.errors import ConfigError
        path = tmp_path / "bad.ini"
        path.write_text("[model]\nfrobnicate = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path), "primary")


class TestExitCodes:
    def test_unknown_preset_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--preset", "nope",
                       "--out-dir", tmp_path) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("simulate", "--config", tmp_path / "absent.ini",
                       "--out-dir", tmp_path) == 1

    @pytest.mark.parametrize("text, reason", [
        ("[model]\nimputations = 1\n", "imputations M must be >= 2"),
        ("[model]\ncutoff_low = 0.5\n", "cutoffs must satisfy 0 <= low < high"),
        ("[scenario]\nmissing_rate = 1.5\n", "missing_rate must be in [0, 1)"),
        ("[scenario]\nmultiple_birth_rate = 1.5\n",
         "multiple_birth_rate must be in [0, 1]"),
        ("[scenario]\nmissing_size_rate = -0.2\n",
         "missing_size_rate must be in [0, 1]"),
        ("[matching]\ncaliper_penalty = -5\n",
         "caliper penalty must be finite and >= 0, got -5.0"),
        ("[matching]\ncaliper_penalty = inf\n",
         "caliper penalty must be finite and >= 0, got inf"),
        ("[matching]\ncaliper_width = nan\n",
         "caliper width must be finite and >= 0, got nan"),
        ("[matching]\ncaliper_width = -1\n",
         "caliper width must be finite and >= 0, got -1.0"),
        ("[scenario]\nsigma0 = nan\n",
         "variance components must be finite and nonnegative, got nan"),
        ("[scenario]\nsigma0 = inf\n",
         "variance components must be finite and nonnegative, got inf"),
        ("[scenario]\nk1 = inf\n", "coefficients k0..k3 and beta must be finite"),
        ("[scenario]\nk0 = nan\n", "coefficients k0..k3 and beta must be finite"),
        ("[scenario]\nbeta = 0, nan, 0, 0, 0, 0, 0, 0, 0, 0\n",
         "coefficients k0..k3 and beta must be finite"),
        ("[scenario]\nlate_ses_drift = inf\n", "late_ses_drift must be finite, got inf"),
        ("[scenario]\ncovariate_imbalance = inf\n",
         "covariate_imbalance must be finite, got inf"),
        ("[scenario]\ncovariate_imbalance = nan\n",
         "covariate_imbalance must be finite, got nan"),
        ("[model]\nbalance_threshold = nan\n",
         "gap and balance threshold must be finite and positive"),
        ("[model]\nbalance_threshold = inf\n",
         "gap and balance threshold must be finite and positive"),
        ("[model]\nhighhigh_gap = nan\n",
         "gap and balance threshold must be finite and positive"),
        ("imputations = 3\n", "File contains no section headers"),
        ("[model]\nimputations = 3\nimputations = 4\n",
         "option 'imputations' in section 'model' already exists"),
    ])
    def test_refused_config_is_config_error(self, tmp_path, capsys, text,
                                            reason):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("simulate", "--config", path,
                       "--out-dir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error (config): bad config in {path}: ")
        assert reason in err

    def test_percent_in_an_inputs_path_is_taken_literally(self, workdir,
                                                          tmp_path):
        _, cfg_path = workdir
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
        births = (out / "births.csv").rename(out / "births_100%.csv")
        path = tmp_path / "percent.ini"
        path.write_text(f"{cfg_path.read_text()}\n[inputs]\nbirths = {births}\n")
        assert run_cli("ingest", "--config", path, "--out-dir", out) == 0

    def test_fit_without_impute_is_data_error(self, workdir, tmp_path, capsys):
        _, cfg_path = workdir
        out = tmp_path / "partial"
        assert run_cli("simulate", "--config", cfg_path, "--out-dir", out) == 0
        assert run_cli("ingest", "--config", cfg_path, "--out-dir", out) == 0
        assert run_cli("match-geo", "--config", cfg_path, "--out-dir", out) == 0
        assert run_cli("classify", "--config", cfg_path, "--out-dir", out) == 0
        assert run_cli("match-card", "--config", cfg_path, "--out-dir", out) == 0
        code = run_cli("fit", "--config", cfg_path, "--out-dir", out)
        assert code == 2
        assert "imputations.csv" in capsys.readouterr().err

    def test_filters_removing_every_birth_is_data_error(self, finished,
                                                        tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        births, _ = read_births(out / "births.csv")
        kept, counts = filter_births(births)
        path = tmp_path / "nobody.ini"
        path.write_text(QUICK_CONFIG + "\n[filters]\nmax_child_age = -1\n")
        assert run_cli("impute", "--config", path, "--out-dir", out) == 2
        assert (f"of {counts.total_in} read, {counts.multiple_births} are "
                f"multiple births, {counts.missing_reported_size} more have "
                f"no reported size, and [filters] removed the other "
                f"{len(kept)}") in capsys.readouterr().err

    def test_only_multiple_births_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "twins.ini"
        path.write_text(QUICK_CONFIG.replace(
            "[scenario]\n", "[scenario]\nmultiple_birth_rate = 1\n"))
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", path, "--out-dir", out) == 0
        assert run_cli("pipeline", "--config", path, "--out-dir", out) == 2
        assert ("of 720 read, 720 are multiple births, 0 more have no "
                "reported size, and [filters] removed the other 0"
                ) in capsys.readouterr().err

    def test_match_card_before_classify_is_data_error(self, workdir, tmp_path,
                                                      capsys):
        _, cfg_path = workdir
        out = tmp_path / "unclassified"
        run_cli("simulate", "--config", cfg_path, "--out-dir", out)
        run_cli("ingest", "--config", cfg_path, "--out-dir", out)
        run_cli("match-geo", "--config", cfg_path, "--out-dir", out)
        assert run_cli("match-card", "--config", cfg_path,
                       "--out-dir", out) == 2
        assert "classify" in capsys.readouterr().err

    def test_missing_inputs_name_the_file(self, tmp_path, capsys):
        assert run_cli("ingest", "--out-dir", tmp_path / "empty") == 2
        assert ("missing input clusters.csv; run the simulate stage first "
                "or set [inputs] paths") in capsys.readouterr().err

    def test_input_path_that_is_a_directory_is_data_error(self, finished,
                                                           tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("clusters.csv", "prevalence.csv"):
            shutil.copyfile(finished / name, out / name)
        path = tmp_path / "dir.ini"
        path.write_text(f"{QUICK_CONFIG}\n[inputs]\nbirths = {tmp_path}\n")
        assert run_cli("ingest", "--config", path, "--out-dir", out) == 2
        assert (f"births.csv at {tmp_path} is not a file"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, command", [
        ("study_years.csv", "ingest"),
        ("ingest_manifest.json", "ingest"),
        ("truth.json", "simulate"),
        ("results.csv", "report"),
        ("report_sensitivity.csv", "report"),
    ])
    def test_output_path_that_is_a_directory_is_data_error(
            self, workdir, finished, tmp_path, capsys, name, command):
        # a file the command writes, or a table report copies
        _, cfg_path = workdir
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        (out / name).unlink()
        (out / name).mkdir()
        assert run_cli(command, "--config", cfg_path, "--seed", 5,
                       "--out-dir", out) == 2
        assert (f"error (data): {name} at {out / name} is not a file"
                in capsys.readouterr().err)

    def test_out_dir_that_is_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert run_cli("simulate", "--out-dir", out) == 1
        assert (f"error (config): cannot use {out} as the output directory"
                in capsys.readouterr().err)

    def test_removed_threads_option_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "--threads", 2,
                       "--out-dir", tmp_path) == 1
        assert "--threads" in capsys.readouterr().err

    def test_convergence_maps_to_exit_3(self, monkeypatch, tmp_path):
        def boom(ws, seed):
            raise ConvergenceError("did not converge")
        monkeypatch.setattr(cli.pipeline, "stage_simulate", boom)
        assert run_cli("simulate", "--out-dir", tmp_path) == 3

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        done = subprocess.run(
            [sys.executable, "-m", "matchdid", "simulate",
             "--out-dir", str(tmp_path / "m")],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "m" / "clusters.csv").exists()
        bad = subprocess.run(
            [sys.executable, "-m", "matchdid", "not-a-command"],
            capture_output=True, text=True)
        assert bad.returncode == 1


@pytest.fixture(scope="module")
def finished(workdir, tmp_path_factory):
    _, cfg_path = workdir
    out = tmp_path_factory.mktemp("run")
    assert run_cli("simulate", "--config", cfg_path, "--seed", 5,
                   "--out-dir", out) == 0
    assert run_cli("pipeline", "--config", cfg_path, "--seed", 5,
                   "--out-dir", out) == 0
    return out


class TestPipeline:
    def test_all_artifacts_present(self, finished):
        expected = [
            "clusters.csv", "prevalence.csv", "births.csv", "truth.json",
            "study_years.csv", "births_filtered.csv", "ingest_summary.json",
            "pairs.csv", "quadruples.csv", "balance.csv",
            "imputation_model.json", "imputations.csv",
            "results.csv", "diagnostics.csv", "fit_summary.json",
            "sensitivity.csv", "match_diagnostics.csv",
            "report_balance.csv", "report_results.csv",
            "report_sensitivity.csv",
        ]
        for name in expected:
            assert (finished / name).exists(), name

    def test_manifest_hashes_consistent(self, finished):
        # walk stages in execution order; the final hash on disk must match
        # the last stage that wrote each artifact (classify rewrites
        # pairs.csv after match-geo to fill the category column)
        final = {}
        for stage in ("ingest", "geomatch", "classify", "cardmatch",
                      "impute", "fit", "sensitivity", "report"):
            manifest = json.loads((finished / f"{stage}_manifest.json").read_text())
            for name, digest in manifest["outputs"].items():
                final[name] = (stage, digest)
        for name, (stage, digest) in final.items():
            actual = hashlib.sha256((finished / name).read_bytes()).hexdigest()
            assert actual == digest, (stage, name)

    def test_manifest_keys_inputs_by_artifact_name(self, workdir, finished,
                                                   tmp_path):
        # three [inputs] paths that share a basename
        _, cfg_path = workdir
        inputs, lines = {}, ["[inputs]"]
        for folder, name in zip("abc", ("clusters.csv", "prevalence.csv",
                                        "births.csv")):
            (tmp_path / folder).mkdir()
            inputs[name] = tmp_path / folder / "data.csv"
            shutil.copyfile(finished / name, inputs[name])
            lines.append(f"{name[:-4]} = {inputs[name]}")
        path = tmp_path / "inputs.ini"
        path.write_text(cfg_path.read_text() + "\n" + "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("ingest", "--config", path, "--out-dir", out) == 0
        manifest = json.loads((out / "ingest_manifest.json").read_text())
        assert manifest["inputs"] == {
            name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in inputs.items()}

    def test_stage_by_stage_matches_pipeline(self, workdir, finished,
                                             tmp_path_factory):
        _, cfg_path = workdir
        out = tmp_path_factory.mktemp("stepwise")
        for cmd in ("simulate", "ingest", "match-geo", "classify",
                    "match-card", "impute", "fit", "sensitivity", "report"):
            assert run_cli(cmd, "--config", cfg_path, "--seed", 5,
                           "--out-dir", out) == 0, cmd
        names = sorted(p.name for p in finished.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == \
                (finished / name).read_bytes(), name

    def test_report_copies_match_sources(self, finished):
        assert (finished / "report_results.csv").read_bytes() == \
            (finished / "results.csv").read_bytes()

    def test_report_leaves_out_another_runs_sweep(self, workdir, finished,
                                                  tmp_path):
        # a sweep-on run, then a sweep-off run of another seed in one
        # directory: the first run's sensitivity.csv stays on disk, and the
        # second run's report neither copies nor lists it
        _, cfg_path = workdir
        out = tmp_path / "out"
        out.mkdir()
        for name in ("clusters.csv", "prevalence.csv", "births.csv"):
            shutil.copyfile(finished / name, out / name)
        off = tmp_path / "off.ini"
        off.write_text(cfg_path.read_text().replace(
            "[sensitivity]\n", "[sensitivity]\nenabled = false\n"))
        for seed, path in ((1, cfg_path), (2, off)):
            assert run_cli("pipeline", "--preset", "quickstart", "--config",
                           path, "--seed", seed, "--out-dir", out) == 0
            manifest = json.loads((out / "report_manifest.json").read_text())
            assert ("report_sensitivity.csv" in manifest["outputs"]) == (seed == 1)
        assert (out / "sensitivity.csv").exists()
        assert not (out / "report_sensitivity.csv").exists()
        assert "sensitivity.csv" not in manifest["inputs"]
        assert sorted(manifest["outputs"]) == [
            "match_diagnostics.csv", "report_balance.csv", "report_results.csv"]
        assert (out / "report_results.csv").read_bytes() == \
            (out / "results.csv").read_bytes()

    def test_report_leaves_out_a_sweep_of_other_imputations(
            self, workdir, finished, tmp_path):
        # the same config, but imputations and fit of another seed: the
        # sensitivity manifest's imputations.csv hash is stale
        _, cfg_path = workdir
        out = tmp_path / "out"
        shutil.copytree(finished, out)
        for cmd in ("impute", "fit", "report"):
            assert run_cli(cmd, "--config", cfg_path, "--seed", 6,
                           "--out-dir", out) == 0, cmd
        manifest = json.loads((out / "report_manifest.json").read_text())
        assert (out / "sensitivity.csv").exists()
        assert not (out / "report_sensitivity.csv").exists()
        assert sorted(manifest["outputs"]) == [
            "match_diagnostics.csv", "report_balance.csv", "report_results.csv"]
        assert (out / "report_results.csv").read_bytes() == \
            (out / "results.csv").read_bytes()

    def test_rerun_reproduces_results_exactly(self, workdir, finished,
                                              tmp_path_factory):
        _, cfg_path = workdir
        again = tmp_path_factory.mktemp("rerun")
        run_cli("simulate", "--config", cfg_path, "--seed", 5,
                "--out-dir", again)
        run_cli("pipeline", "--config", cfg_path, "--seed", 5,
                "--out-dir", again)
        for name in ("results.csv", "sensitivity.csv", "quadruples.csv"):
            assert (finished / name).read_bytes() == (again / name).read_bytes()

    def test_sa_presets_filter_rows(self, workdir, finished, tmp_path_factory):
        _, cfg_path = workdir
        out = tmp_path_factory.mktemp("sa")
        for name in ("clusters.csv", "prevalence.csv", "births.csv"):
            (out / name).write_bytes((finished / name).read_bytes())
        for cmd in ("ingest", "match-geo", "classify", "match-card",
                    "impute", "fit"):
            assert run_cli(cmd, "--config", cfg_path, "--preset", "sa2",
                           "--seed", 5, "--out-dir", out) == 0, cmd
        base = json.loads((finished / "fit_summary.json").read_text())
        sa2 = json.loads((out / "fit_summary.json").read_text())
        assert sa2["n_records"] < base["n_records"]   # first-born only
        assert sa2["m"] == 8

    def test_undefined_covariates_disqualify_from_step2(self, workdir,
                                                        finished,
                                                        tmp_path_factory):
        _, cfg_path = workdir
        out = tmp_path_factory.mktemp("undef")
        for name in ("clusters.csv", "prevalence.csv", "births.csv"):
            (out / name).write_bytes((finished / name).read_bytes())
        run_cli("ingest", "--config", cfg_path, "--seed", 5, "--out-dir", out)
        run_cli("match-geo", "--config", cfg_path, "--seed", 5,
                "--out-dir", out)
        run_cli("classify", "--config", cfg_path, "--seed", 5,
                "--out-dir", out)
        # blank the electricity mean of one matched treated cluster
        quad_rows = (finished / "quadruples.csv").read_text().splitlines()
        victim = quad_rows[1].split(",")[0]
        lines = (out / "clusters.csv").read_text().splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[0] == victim:
                cells[7] = ""   # electricity column
                lines[i] = ",".join(cells)
        (out / "clusters.csv").write_text("\n".join(lines) + "\r\n")
        assert run_cli("match-card", "--config", cfg_path, "--seed", 5,
                       "--out-dir", out) == 0
        quads = (out / "quadruples.csv").read_text()
        assert victim not in quads   # still step-1 paired, never step-2


# Each corruption below edits the rows of imputations.csv and returns the
# index of the row on which the file first departs from the writer's bytes.
def _outcomes_not_binary(rows, observed):
    rows[1][2] = "7"
    return 1


def _observed_outcome_changed(rows, observed):
    i = next(i for i, r in enumerate(rows) if i and observed.get(r[1]))
    rows[i][2] = "1" if rows[i][2] == "0" else "0"
    return i


def _duplicate_row(rows, observed):
    rows.append(list(rows[1]))
    return len(rows) - 1


def _replicates_doubled(rows, observed):
    for row in rows[1:]:
        row[0] = str(2 * int(row[0]))
    return 1


def _replicate_missing(rows, observed):
    rows[1:] = [r for r in rows[1:] if r[0] != "3"]
    return next(i for i, r in enumerate(rows) if r[0] == "4")


def _rows_reordered(rows, observed):
    rows[1], rows[2] = rows[2], rows[1]
    return 1


def _lf_line_ends(rows, observed):
    return 0        # the header, once the file is written with LF ends


def _final_row_cut_short(rows, observed):
    del rows[-1][2]
    return len(rows) - 1


class TestCorruptedImputations:
    # each id keeps the name the case has long been reported under
    @pytest.mark.parametrize("corrupt, terminator", [
        pytest.param(_outcomes_not_binary, "\r\n",
                     id="_outcomes_not_binary-'7' is not 0 or 1"),
        pytest.param(_observed_outcome_changed, "\r\n",
                     id="_observed_outcome_changed-observed outcome"),
        pytest.param(_duplicate_row, "\r\n", id="_duplicate_row-duplicate row"),
        pytest.param(_replicates_doubled, "\r\n",
                     id="_replicates_doubled-is not in 1..8"),
        pytest.param(_replicate_missing, "\r\n",
                     id="_replicate_missing-replicate 3 does not cover every "
                        "record"),
        pytest.param(_rows_reordered, "\r\n",
                     id="_rows_reordered-line 2: not the layout "
                        "write_imputations_csv"),
        pytest.param(_lf_line_ends, "\n",
                     id="_lf_line_ends-line 1: not the layout "
                        "write_imputations_csv"),
        pytest.param(_final_row_cut_short, "\r\n",
                     id="_final_row_cut_short-outcome None is not 0 or 1"),
    ])
    def test_fit_refuses_corrupted_file(self, workdir, finished, tmp_path,
                                        capsys, corrupt, terminator):
        """The refusal names the physical line of the first departing byte
        and shows that line as found."""
        _, cfg_path = workdir
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        with open(out / "births.csv", newline="") as fh:
            observed = {r["child_id"]: r["lbw"] for r in csv.DictReader(fh)}
        with open(out / "imputations.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        i = corrupt(rows, observed)
        with open(out / "imputations.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator=terminator).writerows(rows)
        found = io.StringIO()
        csv.writer(found, lineterminator=terminator).writerow(rows[i])
        assert run_cli("fit", "--config", cfg_path, "--seed", 5,
                       "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error (data): {out / 'imputations.csv'}:"
                              f"{i + 1}: expected ")
        assert err.endswith(f", found {found.getvalue()!r}\n")


class TestRefusedArtifacts:
    """A file a stage cannot read as its artifact format exits 2 and names
    the file."""

    def _run_on_copy(self, workdir, finished, tmp_path, command, name, edit):
        _, cfg_path = workdir
        out = tmp_path / "run"
        shutil.copytree(finished, out)
        (out / name).write_bytes(edit((out / name).read_bytes()))
        return run_cli(command, "--config", cfg_path, "--seed", 5,
                       "--out-dir", out)

    @pytest.mark.parametrize("name, command", [
        ("births.csv", "ingest"),
        ("pairs.csv", "classify"),
    ])
    def test_undecodable_byte(self, workdir, finished, tmp_path, capsys,
                              name, command):
        code = self._run_on_copy(
            workdir, finished, tmp_path, command, name,
            lambda data: data.replace(b"\r\n", b"\r\n\xff", 1))
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and "not readable as UTF-8 CSV" in err

    def test_oversized_field(self, workdir, finished, tmp_path, capsys):
        # the csv module refuses a field over 131,072 characters
        code = self._run_on_copy(
            workdir, finished, tmp_path, "ingest", "births.csv",
            lambda data: data.replace(b"\r\n", b"\r\n" + b"x" * 200_000, 1))
        assert code == 2
        assert ("births.csv: not readable as UTF-8 CSV (field larger than "
                "field limit") in capsys.readouterr().err

    @pytest.mark.parametrize("name, command, new_row, reason", [
        pytest.param("prevalence.csv", "ingest",
                     lambda rows: rows[1][:2] + ["0.99"],
                     "cluster_id '{0}', year {1} is also on line 2",
                     id="prevalence-repeat"),
        pytest.param("pairs.csv", "match-card", lambda rows: rows[1],
                     "early_id '{1}' is also on line 2", id="pairs-repeat"),
        pytest.param("study_years.csv", "match-geo",
                     lambda rows: rows[1][:1] + ["", "", "", "", "0"],
                     "country '{0}' is also on line 2",
                     id="study-years-repeat"),
        pytest.param("quadruples.csv", "fit",
                     lambda rows: rows[1][:2] + rows[2][2:],
                     "treated_early_id '{0}' is also on line 2",
                     id="quadruples-treated-repeat"),
        pytest.param("clusters.csv", "ingest",
                     lambda rows: ["NEW", rows[1][1], "1990", *rows[1][3:]],
                     "cluster 'NEW' has years before 1998: [1990]",
                     id="clusters-1990-survey"),
        pytest.param("pairs.csv", "match-card",
                     lambda rows: [rows[1][0], "NO-E", "NO-L", *rows[1][3:]],
                     "pair references unknown cluster 'NO-E'",
                     id="pairs-unknown-cluster"),
        pytest.param("quadruples.csv", "impute",
                     lambda rows: ["NO-E", "NO-L", "NO-E", "NO-L"],
                     "quadruple references unknown pair ('NO-E', 'NO-L')",
                     id="quadruples-unknown-pair"),
    ])
    def test_refused_row(self, workdir, finished, tmp_path, capsys, name,
                         command, new_row, reason):
        """One row appended to the file: a repeated key, a survey year
        before 1998, or an id no upstream artifact holds. The message names
        the new row's line; ``reason`` is formatted with the cells of the
        first row."""
        with open(finished / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        code = self._run_on_copy(
            workdir, finished, tmp_path, command, name,
            lambda data: data + ",".join(new_row(rows)).encode() + b"\r\n")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error (data): {tmp_path / 'run' / name}:{len(rows) + 1}: "
            f"{reason.format(*rows[1])}\n")

    @pytest.mark.parametrize("name, command", [
        ("study_years.csv", "match-geo"),
        ("pairs.csv", "classify"),
        ("quadruples.csv", "impute"),
    ])
    def test_wrong_header(self, workdir, finished, tmp_path, capsys,
                          name, command):
        code = self._run_on_copy(
            workdir, finished, tmp_path, command, name,
            lambda data: b"a,b" + data[data.index(b"\r\n"):])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{name}: expected header [" in err
        assert "found header ['a', 'b']" in err

    @pytest.mark.parametrize("name, command, edit, reason", [
        ("pairs.csv", "classify",
         lambda cells: cells[:4] + ["abc"] + cells[5:],
         "column 'haversine_km': could not convert string to float: 'abc'"),
        ("pairs.csv", "match-card", lambda cells: cells[:5] + ["zzz"],
         "column 'category': 'zzz' is not a valid PairCategory"),
        ("pairs.csv", "classify", lambda cells: cells[:3],
         "column 'rank_distance' is missing (3 cells for 6 columns)"),
        ("quadruples.csv", "impute", lambda cells: cells + ["x"],
         "a cell follows the last column 'control_late_id' (5 cells for 4 "
         "columns)"),
        ("study_years.csv", "match-geo",
         lambda cells: cells[:1] + ["20x"] + cells[2:],
         "column 'early_year': invalid literal for int() with base 10: '20x'"),
        ("study_years.csv", "match-geo", lambda cells: cells[:5] + ["2"],
         "column 'included': '2' is not 0 or 1"),
    ])
    def test_malformed_row(self, workdir, finished, tmp_path, capsys, name,
                           command, edit, reason):
        def edit_line_2(data):
            lines = data.split(b"\r\n")
            lines[1] = b",".join(c.encode() for c in edit(
                lines[1].decode().split(",")))
            return b"\r\n".join(lines)
        code = self._run_on_copy(workdir, finished, tmp_path, command, name,
                                 edit_line_2)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error (data): {tmp_path / 'run' / name}:2: {reason}\n"


# the command that reads each CSV of a finished run
READERS = {"clusters.csv": "ingest", "prevalence.csv": "ingest",
           "births.csv": "ingest", "study_years.csv": "match-geo",
           "pairs.csv": "match-card", "quadruples.csv": "impute",
           "imputations.csv": "fit"}


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_csv_exits_0_or_2(workdir, finished, data):
    """One cell replaced by a drawn string, one cell dropped, or the file
    cut at a drawn byte: the stage reading the file runs or refuses it."""
    _, cfg_path = workdir
    name = data.draw(st.sampled_from(sorted(READERS)), label="file")
    raw = (finished / name).read_bytes()
    how = data.draw(st.sampled_from(["replace", "drop", "cut"]), label="how")
    if how == "cut":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="byte")]
    else:
        rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
        i = data.draw(st.integers(0, len(rows) - 1), label="row")
        j = data.draw(st.integers(0, len(rows[i]) - 1), label="cell")
        if how == "drop":
            del rows[i][j]
        else:
            rows[i][j] = data.draw(st.text(max_size=12), label="text")
        text = io.StringIO(newline="")
        csv.writer(text).writerows(rows)
        raw = text.getvalue().encode()
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(shutil.copytree(finished, Path(tmp) / "run"))
        (out / name).write_bytes(raw)
        with contextlib.redirect_stderr(stderr):
            code = run_cli(READERS[name], "--config", cfg_path, "--seed", 5,
                           "--out-dir", out)
    assert code in (0, 2), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()


def test_pipeline_parses_inputs_once(workdir, tmp_path, monkeypatch):
    _, cfg_path = workdir
    out = tmp_path / "once"
    assert run_cli("simulate", "--config", cfg_path, "--seed", 5,
                   "--out-dir", out) == 0
    calls = {"read_clusters": 0, "read_births": 0}

    def counted(name):
        original = getattr(cli.pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli.pipeline, name, counted(name))
    assert run_cli("pipeline", "--config", cfg_path, "--seed", 5,
                   "--out-dir", out) == 0
    assert calls == {"read_clusters": 1, "read_births": 1}

    # a workspace whose inputs simulate rewrote parses them again
    ws = cli.pipeline.Workspace(load_config(str(cfg_path), "primary"),
                                tmp_path / "resim")
    cli.pipeline.stage_simulate(ws, 1)
    first = ws.tables
    cli.pipeline.stage_simulate(ws, 2)
    second = ws.tables
    assert calls == {"read_clusters": 3, "read_births": 3}
    assert second[1] != first[1]
    assert second == cli.pipeline.Workspace(ws.cfg, ws.out).tables


# perfbench's quickstart workload: the quickstart preset's own scenario
# yields no balanced quadruple on most seeds
QUICKSTART_SCENARIO = """
[scenario]
n_countries = 3
regions_per_country = 12
births_per_cluster = 25
covariate_imbalance = 0.05
decline_fraction = 0.5
stable_high_fraction = 0.5
missingness = mcar
missing_rate = 0.3
"""


def test_pipeline_computes_each_thing_once(tmp_path, monkeypatch):
    """One quickstart pipeline process builds the design and its one REML
    model once, never reads back the imputations it drew, fits the primary
    model once (33 fits with the 32 grid points) and hashes each input once
    and each file once per write; classify rewrites pairs.csv. A
    sensitivity stage run on its own builds one model and fits only the 32
    grid points."""
    config = tmp_path / "quickstart.ini"
    config.write_text(QUICKSTART_SCENARIO)
    out = tmp_path / "out"
    args = ("--preset", "quickstart", "--config", config, "--seed", 1,
            "--out-dir", out)
    assert run_cli("simulate", *args) == 0
    calls, hashed = Counter(), Counter()

    def spy(owner, name, record):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("read_imputations_csv", "build_design"):
        spy(cli.pipeline, name, lambda *_, name=name: calls.update([name]))
    for name in ("__init__", "fit"):
        spy(MixedModelData, name, lambda *_, name=name: calls.update([name]))
    spy(cli.pipeline, "sha256_file",
        lambda path: hashed.update([Path(path).name]))
    assert run_cli("pipeline", *args) == 0
    assert [calls[name] for name in (
        "read_imputations_csv", "build_design", "__init__", "fit")] == [
        0, 1, 1, 33]
    written = Counter(p.name for p in out.iterdir()
                      if not p.name.endswith("_manifest.json"))
    assert hashed == written - Counter(["truth.json"]) + Counter(["pairs.csv"])
    calls.clear()
    assert run_cli("sensitivity", *args) == 0
    assert [calls["__init__"], calls["fit"]] == [1, 32]
