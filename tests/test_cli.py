from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import pytest
import yaml

from multiendpoint import cli
from multiendpoint.cli import (
    EXIT_ANALYSIS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NOT_FOUND,
    EXIT_OK,
    KEYS,
    build_parser,
    main,
    resolve,
)
from multiendpoint.report import format_p, read_results_csv, write_results_csv
from multiendpoint.results import InferenceMode, TestResult as Result


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@pytest.fixture
def replica(actg_csv_path):
    return str(actg_csv_path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestAnalyze:
    def test_analyze_writes_tables_and_is_deterministic(self, replica, tmp_path, capsys):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            code = run_cli(
                "analyze", "--input", replica, "--out", str(out),
                "--replicates", "80", "--seed", "7",
            )
            assert code == EXIT_OK
        for name in ("baseline.txt", "baseline.csv", "results.txt", "results.csv"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        stdout = capsys.readouterr().out
        assert "rank_sum" in stdout and "win_ratio" in stdout

    def test_results_csv_round_trips_exactly(self, replica, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--input", replica, "--out", str(out),
            "--replicates", "60", "--seed", "3", "--methods", "fs,global_u",
        ) == EXIT_OK
        results = read_results_csv(out / "results.csv")
        assert [r.method for r in results] == ["fs", "global_u"]

        again = tmp_path / "roundtrip.csv"
        write_results_csv(results, again)
        assert (out / "results.csv").read_bytes() == again.read_bytes()

    def test_asymptotic_mode(self, replica, tmp_path):
        out = tmp_path / "asym"
        assert run_cli(
            "analyze", "--input", replica, "--out", str(out),
            "--mode", "asymptotic", "--methods", "rank_sum",
        ) == EXIT_OK
        (result,) = read_results_csv(out / "results.csv")
        assert result.inference_mode is InferenceMode.ASYMPTOTIC

    def test_methods_individually_match_joint_run(self, replica, tmp_path):
        joint = tmp_path / "joint"
        solo = tmp_path / "solo"
        run_cli("analyze", "--input", replica, "--out", str(joint),
                "--replicates", "60", "--seed", "11", "--methods", "fs,multirank")
        run_cli("analyze", "--input", replica, "--out", str(solo),
                "--replicates", "60", "--seed", "11", "--methods", "multirank")
        joint_results = {r.method: r for r in read_results_csv(joint / "results.csv")}
        (solo_result,) = read_results_csv(solo / "results.csv")
        from support import results_equal

        assert results_equal(joint_results["multirank"], solo_result)

    def test_zero_methods_is_config_error(self, replica, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"input": replica, "methods": []}))
        assert run_cli("analyze", "--config", str(cfg)) == EXIT_CONFIG

    def test_unknown_method_is_config_error(self, replica):
        assert run_cli("analyze", "--input", replica, "--methods", "bogus") == EXIT_CONFIG

    def test_missing_input_file(self, tmp_path):
        assert run_cli("analyze", "--input", str(tmp_path / "no.csv")) == EXIT_NOT_FOUND

    def test_schema_mismatch_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run_cli("analyze", "--input", str(bad)) == EXIT_DATA

    def test_bad_contrast_is_data_error(self, replica):
        assert run_cli("analyze", "--input", replica, "--contrast", "9_vs_0") == EXIT_DATA

    def test_config_file_with_flag_override(self, replica, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {
                    "input": replica,
                    "methods": ["fs"],
                    "inference": {"mode": "permutation", "replicates": 50, "seed": 1},
                }
            )
        )
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", str(cfg), "--out", str(out),
                       "--methods", "rank_sum") == EXIT_OK
        (result,) = read_results_csv(out / "results.csv")
        assert result.method == "rank_sum"  # flag wins over file

    def test_env_var_config_path(self, replica, tmp_path, monkeypatch):
        cfg = tmp_path / "env.yaml"
        cfg.write_text(yaml.safe_dump({"input": replica, "methods": ["fs"],
                                       "inference": {"replicates": 40}}))
        monkeypatch.setenv("MULTIENDPOINT_CONFIG", str(cfg))
        out = tmp_path / "out"
        assert run_cli("analyze", "--out", str(out)) == EXIT_OK
        (result,) = read_results_csv(out / "results.csv")
        assert result.method == "fs"


class TestSummarize:
    def test_summarize_prints_counts(self, replica, capsys):
        assert run_cli("summarize", "--input", replica) == EXIT_OK
        out = capsys.readouterr().out
        assert "2467" in out
        assert "male" in out

    def test_summarize_writes_files(self, replica, tmp_path):
        out = tmp_path / "sum"
        assert run_cli("summarize", "--input", replica, "--out", str(out)) == EXIT_OK
        assert (out / "baseline.txt").exists()
        assert (out / "baseline.csv").exists()


class TestSimulate:
    def test_simulate_writes_reports(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {
                    "sim": {
                        "n_per_group": 8,
                        "n_trials": 25,
                        "alpha": 0.05,
                        "methods": ["fs"],
                        "replicates": 39,
                        "seed": 5,
                    }
                }
            )
        )
        out = tmp_path / "study"
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        assert (out / "rejection_fs.csv").exists()
        summary = (out / "simulation_summary.txt").read_text()
        assert "fs: rejection rate" in summary

    def test_simulate_deterministic(self, tmp_path):
        cfg = tmp_path / "sim.yaml"
        cfg.write_text(
            yaml.safe_dump(
                {"sim": {"n_per_group": 6, "n_trials": 10, "methods": ["global_u"],
                         "replicates": 19, "seed": 2}}
            )
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_OK
            outs.append((out / "rejection_global_u.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_file(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "none.yaml")) == EXIT_NOT_FOUND


def edited_replica(
    replica: str, path: Path, column: str, token: str, arm: str | None = None
) -> str:
    """A copy of the replica with ``column`` of its first row (its first row
    in ``arm``, when given) set to ``token``."""
    with open(replica, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if arm is None or r["arms"] == arm)
    row[column] = token
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


class TestBadData:
    @pytest.mark.parametrize(
        "column, token, names",
        [
            ("days", "inf", "subject '11043'"),
            ("days", "NAN", "subject '11043'"),
            ("cd420", "-inf", "subject '11043'"),
            ("cd420", "1e400", "subject '11043'"),
            ("cd40", "inf", "subject '11043'"),
            ("arms", "2.5", "row 1, column 'arms'"),
            ("arms", "inf", "row 1, column 'arms'"),
            ("pidnum", "11335", "'11335'"),
            ("cens", "2", "row 1, column 'cens': malformed value (event indicator must be 0/1)"),
            ("days", "", "row 1, column 'days': malformed value (required field is missing)"),
            ("cd420", "x", "row 1, column 'cd420': malformed value (not a number: 'x')"),
            (None, None, "edited.csv: no header row"),  # an empty file
        ],
        ids=[
            "days-inf", "days-NAN", "cd420--inf", "cd420-1e400", "cd40-inf", "arms-2.5",
            "arms-inf", "pidnum-11335", "cens-2", "days-empty", "cd420-x", "empty_file",
        ],
    )
    def test_rejected_value_is_data_error(self, replica, tmp_path, capsys, column, token, names):
        path = tmp_path / "edited.csv"
        if column is None:
            path.write_text("")
        else:
            edited_replica(replica, path, column, token)
        code = run_cli("analyze", "--input", str(path), "--mode", "asymptotic", "--methods", "fs")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and names in err

    @pytest.mark.parametrize(
        "column, token, message",
        [("days", "inf", "'11043' is inf"), ("pidnum", "11335", "duplicate subject id '11335'")],
    )
    def test_rejected_value_in_a_dropped_arm_is_data_error(
        self, replica, tmp_path, capsys, column, token, message
    ):
        # The 1_vs_0 contrast drops arms 2 and 3, but every parsed row is
        # checked: row 1 (id 11043, arm 2) gets the bad value or the id of
        # row 2 (arm 3).
        path = edited_replica(replica, tmp_path / "edited.csv", column, token, arm="2")
        code = run_cli("analyze", "--input", path, "--mode", "asymptotic", "--methods", "fs",
                       "--contrast", "1_vs_0")
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err

    def test_empty_group_names_the_contrast(self, replica, tmp_path, capsys):
        with open(replica, newline="") as fh:
            lines = fh.read().splitlines(True)
        arm = lines[0].strip().split(",").index("arms")
        arm0 = [line for line in lines[1:] if line.strip().split(",")[arm] == "0"][:10]
        path = tmp_path / "arm0.csv"
        path.write_text(lines[0] + "".join(arm0))
        code = run_cli("analyze", "--input", str(path), "--mode", "asymptotic", "--methods", "fs")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "data error: contrast 'rest_vs_0' left an empty group (treatment=0, control=10)\n"
        )

    def test_directory_input_is_not_found(self, tmp_path, capsys):
        assert run_cli("analyze", "--input", str(tmp_path)) == EXIT_NOT_FOUND
        assert capsys.readouterr().err.startswith("not found: ")

    def test_non_utf8_input_is_data_error(self, replica, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(Path(replica).read_bytes().replace(b"11043", b"11043\xe9", 1))
        assert run_cli("analyze", "--input", str(path)) == EXIT_DATA
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("contrast, method", [("rest_vs_0", "rank_sum"), ("2_vs_1", "global_u")])
    def test_too_few_subjects_is_data_error(self, replica, tmp_path, capsys, contrast, method):
        # The replica's first 12 rows leave one complete case in the control
        # group, and one subject in arm 2.
        path = tmp_path / "small.csv"
        path.write_text("".join(Path(replica).read_text().splitlines(True)[:13]))
        code = run_cli("analyze", "--input", str(path), "--mode", "asymptotic",
                       "--methods", method, "--contrast", contrast)
        assert code == EXIT_DATA
        assert "needs at least 2 subjects per group" in capsys.readouterr().err

    def test_all_zero_global_u_weights_is_config_error(self, replica, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        weights = {"composite_event": 0, "cd4_change_20wk": 0, "cd4_week96": 0}
        path.write_text(yaml.safe_dump({"input": replica, "global_u": {"weights": weights}}))
        code = run_cli("analyze", "--config", str(path), "--mode", "asymptotic",
                       "--methods", "global_u")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: global_u.weights: ")

    @pytest.mark.parametrize(
        "weights, message",
        [
            ({"composite_event": -1.0}, "weight of 'composite_event' must be finite and >= 0"),
            ({"cd4_week20": 1.0}, "unknown endpoint(s) ['cd4_week20']"),
        ],
        ids=["negative", "unknown-endpoint"],
    )
    @pytest.mark.parametrize("method", ["global_u", "rank_sum"])
    def test_bad_global_u_weights_are_config_error(
        self, replica, tmp_path, capsys, weights, message, method
    ):
        # Checked once, before any method runs, whether global U runs or not.
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"input": replica, "global_u": {"weights": weights}}))
        code = run_cli("analyze", "--config", str(path), "--mode", "asymptotic",
                       "--methods", method, "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: global_u.weights: {message}")
        assert not (tmp_path / "out").exists()

    def test_column_named_twice_is_data_error(self, replica, tmp_path, capsys):
        with open(replica, newline="") as fh:
            rows = [row + row[3:4] for row in csv.reader(fh)]
        path = tmp_path / "repeated.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("summarize", "--input", str(path)) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {path}: column(s) named more than once ['{rows[0][3]}']\n"
        )

    def test_exact_plan_over_the_cap_fails_before_any_test(
        self, replica, tmp_path, capsys, monkeypatch
    ):
        def no_test(*args, **kwargs):
            raise AssertionError("a test ran")

        monkeypatch.setattr(cli, "run_method", no_test)
        code = run_cli("analyze", "--input", replica, "--mode", "exact",
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_ANALYSIS
        assert capsys.readouterr() == (
            "", "analysis error: C(2467, 1848) = 6.719e+601 exceeds the "
            "exact-enumeration cap 200000\n",
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_row_of_the_wrong_length_is_data_error(self, replica, tmp_path, capsys, edit):
        # The id column moved to the end, past the end of the short row.
        with open(replica, newline="") as fh:
            rows = list(csv.reader(fh))
        rows = [row[1:] + row[:1] for row in rows]
        rows[1] = rows[1][:-1] if edit == "short" else rows[1] + ["7"]
        path = tmp_path / "edited.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run_cli("summarize", "--input", str(path)) == EXIT_DATA
        more = "fewer" if edit == "short" else "more"
        assert capsys.readouterr().err == (
            f"data error: row 1: malformed row ({more} fields than the header)\n"
        )


# Study settings small enough that a config error the parser misses still
# ends quickly, in exit 0 instead of 2.
TINY_STUDY = {"n_per_group": 5, "n_trials": 1, "replicates": 9, "methods": ["fs"]}


class TestMistypedConfig:
    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("analyze", {"inference": {"replicates": "abc"}}),
            ("analyze", {"inference": {"seed": 1.5}}),
            ("analyze", {"include_week96": "false"}),
            ("simulate", {"sim": {"n_trials": "x"}}),
            ("simulate", {"sim": {"alpha": "x"}}),
            ("simulate", {"sim": {"alpha": 2}}),
            ("simulate", {"sim": {"replicates": 0}}),
            ("simulate", {"sim": {"correlation": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]}}),
            ("analyze", {"methods": 5}),
            ("analyze", {"global_u": {"weights": "x"}}),
            ("analyze", {"columns": 5}),
            ("analyze", {"inference": 5}),
            ("simulate", {"sim": {"methods": 5}}),
            ("analyze", {"methodz": ["fs"]}),
            ("analyze", {"inference": {"replicatse": 50}}),
            ("analyze", {"inference.replicates": 50}),
            ("simulate", {"sim": {"n_trails": 3, **TINY_STUDY}}),
            ("analyze", {"contrast": 5}),
            ("summarize", {"contrast": 5}),
            ("analyze", {"input": 5}),
            ("analyze", {"out": 5}),
            ("simulate", {"out": 5, "sim": TINY_STUDY}),
            ("analyze", {"global_u": {"weights": {"composite_event": True}}}),
            ("analyze", {"columns": {"subject_id": 5}}),
            ("simulate", {"sim": {"seed": -1, **TINY_STUDY}}),
            ("analyze", {"inference": {"seed": 2**64}}),
            ("simulate", {"sim": {"correlation": [[1, 0], [0, 1]]}}),
            ("simulate", {"sim": {"correlation": [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]}}),
            ("simulate", {"sim": {"hazard_control": 10**400}}),
            ("analyze", {"columns": {"covariates": {"cd4_baseline": "cd420"}}}),
            ("summarize", {"columns": {"covariates": {"arm": "arms"}}}),
            ("analyze", ["fs"]),
            ("simulate", {"sim": {"censor_horizon": 0, **TINY_STUDY}}),
            ("simulate", {"sim": {**TINY_STUDY, "n_per_group": 0}}),
        ],
        ids=[
            "replicates_str", "seed_float", "include_week96_str", "n_trials_str", "alpha_str",
            "alpha_range", "replicates_zero", "correlation_str", "methods_int", "weights_str",
            "columns_int", "section_int", "sim_methods_int", "unknown_top_key",
            "unknown_inference_key", "dotted_key", "unknown_sim_key", "contrast_int",
            "summarize_contrast_int", "input_int", "out_int", "simulate_out_int", "weight_bool",
            "subject_id_int", "sim_seed_negative", "seed_past_64_bits", "correlation_2x2",
            "correlation_not_psd", "hazard_past_float_range", "covariate_shadows_baseline", "covariate_shadows_arm",
            "top_level_list", "censor_horizon_zero", "n_per_group_zero",
        ],
    )
    def test_wrong_yaml_type_is_config_error(self, replica, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.yaml"
        if isinstance(cfg, dict):
            cfg = {"input": replica, "methods": ["fs"], **cfg}
        path.write_text(yaml.safe_dump(cfg))
        code = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize(
        "column, message",
        [
            ("cd4_baseline", "dataset lacks the 'cd4_baseline' covariate"),
            ("cd4_week96", "dataset lacks endpoint 'cd4_week96'"),
        ],
    )
    def test_unmapped_derivation_column_is_data_error(
        self, replica, tmp_path, capsys, column, message
    ):
        # The mapping may leave these columns out, but deriving the
        # endpoints needs them: the data, not the config, fails.
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"input": replica, "columns": {column: None}}))
        code = run_cli("analyze", "--config", str(path), "--mode", "asymptotic", "--methods", "fs")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize(
        "text", [b"methods: [fs\n", b"methods: [fs]\n# caf\xe9\n"],
        ids=["unclosed_flow_list", "not_utf8"],
    )
    def test_unreadable_config_is_config_error(self, replica, tmp_path, capsys, text):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(text)
        code = run_cli("analyze", "--config", str(path), "--input", replica, "--mode", "asymptotic")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: not valid YAML: ")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    @pytest.mark.parametrize("command", ["analyze", "summarize", "simulate"])
    def test_unusable_out_is_config_error(self, replica, tmp_path, capsys, command, under):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"input": replica, "sim": TINY_STUDY}))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out" if under else taken
        args = ["--mode", "asymptotic", "--methods", "fs"] if command == "analyze" else []
        code = run_cli(command, "--config", str(path), "--out", str(out), *args)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: out: cannot make directory ")

    def test_unusable_out_fails_before_any_test(self, replica, tmp_path, capsys, monkeypatch):
        def no_test(*args, **kwargs):
            raise AssertionError("a test ran")

        monkeypatch.setattr(cli, "run_method", no_test)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_cli("analyze", "--input", replica, "--out", str(taken))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: out: cannot make directory ")

    def test_marker_overflow_is_config_error(self, tmp_path, capsys):
        # mean + SD x z past float range: a setting the key checks cannot
        # rule out, reported as a config error without numpy's warning.
        path = tmp_path / "cfg.yaml"
        sim = {**TINY_STUDY, "marker_sd_treatment": 1.7e308, "marker_sd_control": 1.7e308}
        path.write_text(yaml.safe_dump({"sim": sim}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: sim.marker_mean_* / sim.marker_sd_*: the simulated marker overflows"
        )
        assert [w.message for w in caught] == []

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        code = run_cli("simulate", "--seed", "-1", "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sim.seed")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("command, key", [("analyze", "inference"), ("simulate", "sim")])
    def test_seed_outside_64_bits_is_config_error(
        self, replica, tmp_path, capsys, command, key, seed
    ):
        # 2**64 would alias seed 0: the same p-values under another seed.
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"input": replica, "sim": TINY_STUDY}))
        code = run_cli(command, "--config", str(path), "--seed", str(seed),
                       "--out", str(tmp_path / "out"))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {key}.seed: must be in [0, 2**64), got {seed}\n"
        )

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_largest_seed_runs(self, replica, tmp_path, command):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "input": replica, "methods": ["fs"], "inference": {"replicates": 9},
            "sim": TINY_STUDY,
        }))
        out = tmp_path / "out"
        code = run_cli(command, "--config", str(path), "--seed", str(2**64 - 1), "--out", str(out))
        assert code == EXIT_OK
        table = "results.csv" if command == "analyze" else "rejection_fs.csv"
        assert str(2**64 - 1) in (out / table).read_text()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_resolve(path):
    data = yaml.safe_load(path.read_text())
    command = "simulate" if "sim" in data else "analyze"
    cfg = resolve(build_parser().parse_args([command, "--config", str(path)]))
    assert cfg["out"] == data["out"]


def test_flags_override_their_dest_key(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"sim": {"seed": 3, "n_trials": 10}}))
    args = build_parser().parse_args(
        ["simulate", "--config", str(path), "--trials", "4", "--methods", "fs, global_u"]
    )
    cfg = resolve(args)
    assert (cfg["sim.seed"], cfg["sim.n_trials"]) == (3, 4)
    assert cfg["sim.methods"] == ["fs", "global_u"]
    assert cfg["sim.alpha"] == 0.05


def test_readme_lists_every_key():
    readme = (ROOT / "README.md").read_text()
    missing = [path for path in KEYS if f"`{path}`" not in readme]
    assert not missing, f"README lacks config key(s) {missing}"


class TestFormatting:
    def test_p_floor(self):
        assert format_p(5e-5) == "<0.0001"
        assert format_p(0.1234567) == "0.1235"
        assert format_p(1.0) == "1"
        assert format_p(math.nan) == "n/a"

    def test_round_trip_handles_nan_and_inf(self, tmp_path):
        r = Result("demo", math.inf, math.nan, math.nan, 0.5,
                       InferenceMode.PERMUTATION, {"x": [1.5, None], "flag": True})
        path = tmp_path / "r.csv"
        write_results_csv([r], path)
        (back,) = read_results_csv(path)
        assert back.method == "demo"
        assert back.statistic == math.inf
        assert math.isnan(back.variance) and math.isnan(back.z)
        assert back.p_two_sided == 0.5
        assert back.metadata == {"x": [1.5, None], "flag": True}
