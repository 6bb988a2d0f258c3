import argparse
import hashlib
import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eusearch.cli as cli
import eusearch.exact as exact
import eusearch.experiment as experiment
from eusearch.cli import main
from eusearch.experiment import ExperimentConfig
from eusearch.minimin import MAX_LOOKAHEAD, ResourceLimits, _value_table
from eusearch.perfmodel import load_model
from eusearch.seeds import subseed
from eusearch.utility import default_utility_model


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_goal_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--instance", "1 2 3 4 5 6 7 8 0")
        assert code == 0
        assert "length 0" in out

    def test_one_move(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--instance", "1 2 3 4 5 6 7 0 8")
        assert code == 0
        assert "length 1" in out
        assert "path R" in out

    def test_bfs_algorithm(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", "1 2 3 4 5 6 0 7 8", "--algorithm", "bfs"
        )
        assert code == 0
        assert "length 2" in out

    def test_invalid_state_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--instance", "1 1 2 3 4 5 6 7 8")
        assert code == 2
        assert "error" in err.lower() or "permutation" in err

    def test_unsolvable_instance_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--instance", "2 1 3 4 5 6 7 8 0")
        assert code == 2

    @pytest.mark.parametrize("token", ["\u0668", "0_8", "+8"])
    def test_only_ascii_digit_tokens(self, capsys, token):
        # int() reads each of these as 8, which would make the goal state.
        code, out, err = run_cli(capsys, "solve", "--instance", f"1 2 3 4 5 6 7 {token} 0")
        assert code == 2
        assert out == ""
        assert err.startswith("eusearch: ValueError: tile labels")


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "conquer")
        assert code == 1

    def test_bad_choice(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve", "--instance", "1 2 3 4 5 6 7 8 0", "--algorithm", "magic"
        )
        assert code == 1

    def test_workers_flag_is_gone(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--workers", "2", "--instances", "1", "--quiet")
        assert (code, out) == (1, "")


class TestMinimin:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimin",
            "--instance",
            "1 2 3 4 5 6 0 7 8",
            "--lookahead",
            "2",
        )
        assert code == 0
        assert "path_length 2" in out
        assert "solved 1" in out

    def test_scored_run(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "minimin",
            "--instance",
            "1 2 3 4 5 6 0 7 8",
            "--lookahead",
            "2",
            "--score",
        )
        assert code == 0
        assert "utility" in out

    def test_utility_config_unlike_the_calibration_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "attributes:\n"
            "  path_length: {best: 30, bound: 100, curve: free}\n"
            "  time_units: {bound: 10}\n"
            "  space_units: {bound: 10}\n"
            "equivalence_rows:\n"
            "  - {path_length: 20, time_units: 8}\n"
            "  - {path_length: 68, time_units: 6}\n"
        )
        code, out, err = run_cli(
            capsys,
            "minimin",
            "--instance",
            "1 2 3 4 5 6 0 7 8",
            "--lookahead",
            "2",
            "--utility",
            str(bad),
            "--score",
        )
        assert code == 2
        assert out == ""  # the model is read before the run
        assert err.startswith(f"eusearch: ValueError: {bad} path_length: with equivalence_rows")

    def test_deep_width4_lookahead_finishes(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys,
            "minimin",
            "--instance",
            "0 2 4 8 1 7 3 6 10 5 11 12 9 14 13 15",
            "--lookahead",
            str(MAX_LOOKAHEAD),
        )
        assert code == 0
        assert "solved 0" in out
        assert time.perf_counter() - start < 5.0

    def test_deep_3x3_lookahead_finishes(self, capsys):
        # The first decision pays for the value table's build.
        _value_table.cache_clear()
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys,
            "minimin",
            "--instance",
            "8 6 7 2 5 4 3 0 1",
            "--lookahead",
            str(MAX_LOOKAHEAD),
        )
        assert code == 0
        assert "time_units 2125760\n" in out
        assert time.perf_counter() - start < 5.0

    def test_node_budget_is_checked_between_decisions(self, capsys):
        # The one decision runs to the end, so time exceeds the budget of 50.
        code, out, _ = run_cli(
            capsys,
            "minimin",
            "--instance",
            "8 6 7 2 5 4 3 0 1",
            "--lookahead",
            "18",
            "--node-budget",
            "50",
            "--max-moves",
            "1",
        )
        assert code == 0
        assert "time_units 78728\n" in out
        assert "solved 0" in out


MINIMIN = ("minimin", "--instance", "1 2 3 4 5 6 0 7 8", "--lookahead", "2", "--score")
ACCURACY = ("accuracy",)
FIT = ("fit", "--out", "m.yaml")
SELECT = ("select", "--depth", "4", "--model", "m.yaml")
EXPERIMENT = ("experiment", "--instances", "1", "--quiet")


class TestUnitRates:
    """Each shared setting fails by the config's check, with one line, from every command."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch, tmp_path):
        def no_work(*args, **kwargs):
            pytest.fail("a run, model read, suite or walk started")

        for name in ("minimin_run", "load_model", "run_experiment"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(experiment, "instance_of_depth", no_work)  # every suite's generator
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("flag", ["--gens-per-minute", "--nodes-per-megabyte"])
    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("command", [MINIMIN, SELECT, EXPERIMENT])
    def test_bad_rate_fails_before_any_run(self, capsys, command, flag, value):
        code, out, err = run_cli(capsys, *command, flag, value)
        assert code == 2
        assert out == ""
        rate = flag[2:].replace("-", "_")
        assert err == f"eusearch: ValueError: {rate} must be finite and > 0, got {float(value)!r}\n"

    @pytest.mark.parametrize("command", [MINIMIN, FIT, EXPERIMENT], ids=lambda c: c[0])
    def test_zero_max_moves_fails_before_any_run(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, *command, "--max-moves", "0")
        assert (code, out, err) == (2, "", "eusearch: ValueError: resource limits must be positive\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("width", ["5", "1"])
    @pytest.mark.parametrize("command", [ACCURACY, FIT, EXPERIMENT], ids=lambda c: c[0])
    def test_width_other_than_2_3_or_4_fails_before_any_suite(self, capsys, tmp_path, command, width):
        code, out, err = run_cli(capsys, *command, "--width", width)
        assert (code, out, err) == (2, "", f"eusearch: ValueError: width must be 2, 3 or 4, got {width}\n")
        assert list(tmp_path.iterdir()) == []

    # minimin takes one level, as --lookahead.
    @pytest.mark.parametrize(
        "argv",
        [(*MINIMIN, "--lookahead", "25")]
        + [(*c, "--levels", "25") for c in (ACCURACY, FIT, SELECT, EXPERIMENT)],
        ids=lambda argv: argv[0],
    )
    def test_level_25_fails_before_any_run(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv)
        message = f"lookahead level must be in 1..{MAX_LOOKAHEAD}, got 25"
        assert (code, out, err) == (2, "", f"eusearch: ValueError: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("levels", ["1,x", "1-x", "x"])
    @pytest.mark.parametrize("command", [ACCURACY, FIT, SELECT, EXPERIMENT], ids=lambda c: c[0])
    def test_non_integer_levels_fail_before_any_run(self, capsys, tmp_path, command, levels):
        code, out, err = run_cli(capsys, *command, "--levels", levels)
        message = f"levels must be integers, got {levels!r}"
        assert (code, out, err) == (2, "", f"eusearch: ValueError: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("depths: [true, 4]", "depths must be integers, got (True, 4)"),
            ("depths: [4, 2.5]", "depths must be integers, got (4, 2.5)"),
            ("levels: [1, 2.5]", "levels must be integers, got (1, 2.5)"),
            ("instances_per_depth: 2.5", "instances_per_depth must be an integer, got 2.5"),
            ("train_instances_per_depth: 2.5", "train_instances_per_depth must be an integer, got 2.5"),
            ("gen_attempts: 2.5", "gen_attempts must be an integer, got 2.5"),
            ("workers: 2", "has unknown key 'workers'"),
            ("seed: 0.5", "seed must be an integer, got 0.5"),
            ("width: true", "width must be an integer, got True"),
            ("width: 5", "width must be 2, 3 or 4, got 5"),
            ("width: 1", "width must be 2, 3 or 4, got 1"),
            ("limits: {max_moves: 2.5}", "max_moves must be an integer, got 2.5"),
            ("limits: {node_budget: '5'}", "node_budget must be an integer, got '5'"),
            ("depths: 4", "depths must be integers, got 4"),
            ('depths: "4,8"', "depths must be integers, got '4,8'"),
            ("limits: 5", "limits must be ResourceLimits, got 5"),
            ("utility_config: 0", "utility_config must be a string or None, got 0"),
            ("utility_config: 5", "utility_config must be a string or None, got 5"),
            ("gens_per_minute: true", "gens_per_minute must be a number, got True"),
            ('gens_per_minute: "fast"', "gens_per_minute must be a number, got 'fast'"),
        ],
    )
    def test_config_value_of_a_wrong_type_fails_before_any_run(self, capsys, tmp_path, text, message):
        (tmp_path / "cfg.yaml").write_text(text + "\n")
        code, out, err = run_cli(capsys, "experiment", "--config", "cfg.yaml", "--quiet")
        assert (code, out, err) == (2, "", f"eusearch: ValueError: cfg.yaml {message}\n")

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", [ACCURACY, FIT, EXPERIMENT], ids=lambda c: c[0])
    def test_nonpositive_gen_attempts_fail_before_any_suite(self, capsys, tmp_path, command, value):
        code, out, err = run_cli(capsys, *command, "--gen-attempts", value)
        assert (code, out, err) == (2, "", "eusearch: ValueError: gen_attempts must be >= 1\n")
        assert list(tmp_path.iterdir()) == []

    def test_fit_flags_reach_the_suite_and_the_fit(self, capsys, monkeypatch):
        generated, fits = [], []

        def fake_instance_of_depth(depth, width, seed, attempts):
            generated.append((depth, width, seed, attempts))

        monkeypatch.setattr(experiment, "instance_of_depth", fake_instance_of_depth)

        def fake_fit_empirical(suite, levels, limits, sample_meta):
            fits.append((sorted(suite), levels, limits, sample_meta))
            raise _Stop

        monkeypatch.setattr(experiment, "fit_empirical", fake_fit_empirical)
        code, out, err = run_cli(
            capsys, "fit", "--kind", "empirical", "--train-per-depth", "5",
            "--attempts", "13", "--max-moves", "17", "--out", "m.yaml",
        )
        assert (code, out) == (2, "") and err.startswith("eusearch: _Stop")
        depths = ExperimentConfig.depths
        # Each depth's 5 training instances, at width 3 from seed 0, with 13 attempts each.
        assert generated == [(d, 3, subseed(0, "train", d, i), 13) for d in depths for i in range(5)]
        limits = ResourceLimits(max_moves=17, node_budget=200_000)
        assert fits == [(list(depths), tuple(range(1, 13)), limits, {"seed": 0})]


@pytest.mark.parametrize(
    "argv",
    [
        ("experiment", "--instances", "1", "--quiet", "--summary-csv"),
        ("experiment", "--instances", "1", "--quiet", "--out"),
        ("fit", "--out"),
        ("select", "--depth", "4", "--model", "m.yaml", "--csv"),
        ("summarize", "--report", "runs.csv", "--csv"),
    ],
    ids=lambda argv: f"{argv[0]} {argv[-1]}",
)
@pytest.mark.parametrize(
    "name, fault",
    [
        ("missing/out.csv", "FileNotFoundError: [Errno 2] No such file or directory"),
        ("", "IsADirectoryError: [Errno 21] Is a directory"),
    ],
    ids=["missing directory", "directory"],
)
def test_unwritable_output_path_fails_before_any_work(capsys, monkeypatch, tmp_path, argv, name, fault):
    def no_work(*args, **kwargs):
        pytest.fail("a suite, fit, model read, report read or run started")

    for attr in ("run_experiment", "fit_model", "load_model", "read_report_csv"):
        monkeypatch.setattr(cli, attr, no_work)
    monkeypatch.setattr(experiment, "instance_of_depth", no_work)
    path = str(tmp_path / name) if name else str(tmp_path)
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out, err) == (2, "", f"eusearch: {fault}: {path!r}\n")


def test_flags_of_shared_settings_default_to_the_config():
    # An unset flag must leave its ExperimentConfig or ResourceLimits field as
    # it is (see _settings).  solve's --node-budget is IDA*'s own budget.
    names = {f.name for cls in (ExperimentConfig, ResourceLimits) for f in fields(cls)}
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shadowed = [
        (command, name)
        for command, parser in commands.choices.items()
        if command != "solve"
        for name in sorted(names)
        if parser.get_default(name) is not None
    ]
    assert shadowed == []


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (("fit", "--out", "m.yaml", "--kind", "empirical"), "model_kind", "empirical"),
        (("fit", "--out", "m.yaml", "--model-kind", "empirical"), "model_kind", "empirical"),
        (("fit", "--out", "m.yaml", "--attempts", "13"), "gen_attempts", 13),
        (("fit", "--out", "m.yaml", "--gen-attempts", "13"), "gen_attempts", 13),
        (("fit", "--out", "m.yaml", "--accuracy-states", "9"), "accuracy_states_per_level", 9),
        (("accuracy", "--attempts", "13"), "gen_attempts", 13),
        (("accuracy", "--gen-attempts", "13"), "gen_attempts", 13),
        (("select", "--depth", "4", "--model", "m.yaml", "--samples", "11"), "predict_samples", 11),
        (("select", "--depth", "4", "--model", "m.yaml", "--predict-samples", "11"), "predict_samples", 11),
        (("select", "--depth", "4", "--model", "m.yaml", "--utility", "u.yaml"), "utility_config", "u.yaml"),
        (("experiment", "--gen-attempts", "13"), "gen_attempts", 13),
        (("experiment", "--attempts", "13"), "gen_attempts", 13),
        (("experiment", "--predict-samples", "11"), "predict_samples", 11),
        (("experiment", "--samples", "11"), "predict_samples", 11),
        (("experiment", "--model-kind", "empirical"), "model_kind", "empirical"),
        (("experiment", "--kind", "empirical"), "model_kind", "empirical"),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v),
)
def test_each_spelling_of_a_setting_reaches_its_field(argv, name, value):
    args = cli.build_parser().parse_args(argv)
    assert getattr(cli._settings(args, ExperimentConfig()), name) == value


def test_experiment_flags_set_every_config_field():
    # A field added to ExperimentConfig or ResourceLimits gets its experiment flag unasked.
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in commands.choices["experiment"]._actions}
    settings = dests - {"help", "config", "out", "summary_csv", "quiet"}
    fields_ = {f.name for cls in (ExperimentConfig, ResourceLimits) for f in fields(cls)}
    assert settings == fields_ - {"limits"}


CONFIG = ("experiment", "--quiet", "--config")
MODEL = ("select", "--depth", "4", "--model")
UTILITY = ("minimin", "--instance", "1 2 3 4 5 6 0 7 8", "--lookahead", "2", "--utility")


@pytest.mark.parametrize("text, held", [("", "NoneType"), ("- 4\n", "list")], ids=["empty", "list"])
@pytest.mark.parametrize("argv", [CONFIG, MODEL, UTILITY], ids=lambda argv: argv[0])
def test_yaml_file_without_a_mapping_fails_with_one_line(capsys, tmp_path, argv, text, held):
    path = tmp_path / "file.yaml"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"eusearch: ValueError: {path} must hold a YAML mapping, got {held}\n"


HEADER = ",".join(experiment.REPORT_COLUMNS) + "\n"
HEADER_WITHOUT_UTILITY = ",".join(experiment.REPORT_COLUMNS[:-1]) + "\n"


@pytest.mark.parametrize(
    "argv, text, fault",
    [
        (CONFIG, "depths: [4, 8\n", "line 2: expected ',' or ']', but got '<stream end>'"),
        (CONFIG, "foo: 1\n", "has unknown key 'foo'"),
        (CONFIG, "limits: {foo: 1}\n", "has unknown key 'foo'"),
        (MODEL, "kind: markov\naccuracy: {1: 0.9}\n", "lacks key 'branching'"),
        (MODEL, "kind: empirical\ncells:\n- {depth: 4, level: 1}\n", "lacks key 'outcomes'"),
        (
            MODEL,
            "kind: empirical\ncells:\n- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 12}]}\n",
            "lacks key 'space_units'",
        ),
        (UTILITY, "attributes:\n  path_length: {best: 0}\n", "lacks key 'bound'"),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20}\n  - {path_length: 68, time_units: 6}\n",
            "lacks key 'time_units'",
        ),
        (MODEL, "kind: markov\naccuracy: [0.9]\nbranching: {1: 2}\n", "accuracy must be a mapping, got list"),
        (MODEL, "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: 2}\nfoo: 3\n", "has unknown key 'foo'"),
        (UTILITY, "tag: mine\nfoo: 3\n", "has unknown key 'foo'"),
        (("summarize", "--report"), HEADER_WITHOUT_UTILITY + "4,0,1,1,1,4,12,7,1\n", "lacks column 'utility'"),
        (("summarize", "--report"), HEADER + "4,0,1,1,1,4,12,7,1,0.5\n4,0,1,2,1,4,x,7,1,0.5\n",
         "line 3: could not convert string to float: 'x'"),
        (("summarize", "--report"), HEADER + "4,0,1,1,1,4,12,7,1\n", "line 2: row has fewer cells than the header"),
        (UTILITY, "attributes: [1]\n", "attributes must be a mapping, got list"),
        (UTILITY, "attributes:\n  path_length: {bound: 100}\nweights: [1]\n", "weights must be a mapping, got list"),
        (MODEL, "kind: markov\naccuracy: {x: 0.9}\nbranching: {1: 2}\n", "accuracy level must be an integer, got str"),
        (MODEL, "kind: markov\naccuracy: {1: 0.3}\nbranching: {1: 2}\n", "accuracy p_1=0.3 outside (0.5, 1]"),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n"
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n",
            "bounds must include 'time_units'",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 10, time_units: 1}\n  - {path_length: 10, time_units: 9}\n",
            "rows are inconsistent with a multiplicative utility (no solution reached variance < 1e-12)",
        ),
        (("summarize", "--report"), HEADER + "4,0,1,1,1,4,12,7,1,nan\n", "line 2: utility must lie in [0, 1], got nan"),
        (("summarize", "--report"), HEADER + "4,0,1,1,1,4,12,7,1,1.7\n", "line 2: utility must lie in [0, 1], got 1.7"),
        (("summarize", "--report"), HEADER + "4,0,1,30,1,4,12,7,1,0.5\n", "lookahead level must be in 1..24, got 30"),
        (UTILITY, "attributes: {path_length: 5}\n", "path_length must be a mapping, got int"),
        (UTILITY, "equivalence_rows: [1, 2]\n", "equivalence_rows entry must be a mapping, got int"),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\nform: multilinear\ninteractions: [1]\n",
            "interactions must be a mapping, got list",
        ),
        (UTILITY, "equivalence_rows: 5\n", "equivalence_rows must be a list, got int"),
        (UTILITY, "equivalence_rows: {a: 1, b: 2}\n", "equivalence_rows must be a list, got dict"),
        (UTILITY, "attributes:\n  path_length: {bound: 100}\nmaster_k: [1]\n", "master_k must be a number, got list"),
        (UTILITY, "attributes:\n  path_length: {bound: x}\n", "path_length bound must be a number, got str"),
        (MODEL, "kind: empirical\ncells: 7\n", "cells must be a list, got int"),
        (MODEL, "kind: empirical\ncells:\n- {depth: 4, level: 1, outcomes: [5]}\n", "outcome must be a mapping, got int"),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: '4', time_units: 12, space_units: 7}]}\n",
            "path_length must be a number, got str",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 12, space_units: 7, solved: 'false'}]}\n",
            "solved must be a boolean, got str",
        ),
        (("summarize", "--report"), HEADER + "4,0,1,1,1,4,12,7,x,0.5\n", "line 2: solved must be 0 or 1, got 'x'"),
        (MODEL, "kind: markov\naccuracy: {1: '0.9'}\nbranching: {1: 2}\n", "accuracy 1 must be a number, got str"),
        (MODEL, "kind: markov\naccuracy: {1: x}\nbranching: {1: 2}\n", "accuracy 1 must be a number, got str"),
        (MODEL, "kind: markov\naccuracy: {1: true}\nbranching: {1: 2}\n", "accuracy 1 must be a number, got bool"),
        (
            MODEL,
            "kind: markov\naccuracy: {1.5: 0.9}\nbranching: {1: 2}\n",
            "accuracy level must be an integer, got float",
        ),
        (MODEL, "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: x}\n", "branching 1 must be a number, got str"),
        (
            MODEL,
            "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: 2}\nsample_sizes: {1: 2.5}\n",
            "sample_sizes 1 must be an integer, got float",
        ),
        (
            MODEL,
            "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: 2}\nmax_len: true\n",
            "max_len must be an integer, got bool",
        ),
        (
            MODEL,
            "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: 2}\nmax_len: 2.5\n",
            "max_len must be an integer, got float",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1.5, outcomes: [{path_length: 4, time_units: 12, space_units: 7}]}\n",
            "level must be an integer, got float",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: x, level: 1, outcomes: [{path_length: 4, time_units: 12, space_units: 7}]}\n",
            "depth must be an integer, got str",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 10, space_units: 5, solvd: false}]}\n",
            "has unknown key 'solvd'",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 10, space_units: 5, extra: {cost: x}}]}\n",
            "extra cost must be a number, got str",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100, points: [[0, 1, 2]]}\n",
            "path_length knot must be a [value, utility] pair, got [0, 1, 2]",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 10, space_units: 5}]}\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 9, time_units: 30, space_units: 8}]}\n",
            "cells has two cells for depth 4, level 1",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, outcomes: [{path_length: 4, time_units: 10, space_units: 5, extra: {1: 2}}]}\n",
            "extra key must be a string, got int",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n- {depth: 4, level: 1, outcomes:\n"
            "  [{path_length: 4, time_units: 10, space_units: 5, extra: {1: 2, cost: 3}}]}\n",
            "extra key must be a string, got int",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\n  space_units: {bound: 10}\n"
            "weights: {path_length: 0.5, time_units: 0.5, spce_units: 3}\n",
            "has unknown key 'spce_units'",
        ),
        (UTILITY, "attributes:\n  path_length: {bound: 100, bogus: 1}\n", "has unknown key 'bogus'"),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\nweights: {path_length: 1}\ntag: [1, 2]\n",
            "tag must be a string, got list",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\nform: multilinear\n"
            "weights: {path_length: 0.5, time_units: 0.4}\ninteractions: {path_length: 0.1}\n",
            "bad interaction pair (path_length, )",
        ),
        (
            MODEL,
            "kind: empirical\ncells:\n"
            "- {depth: 4, level: 1, foo: 9, outcomes: [{path_length: 4, time_units: 12, space_units: 7}]}\n",
            "has unknown key 'foo'",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8, bogus: 1}\n  - {path_length: 68, time_units: 6}\n",
            "has unknown key 'bogus'",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\n"
            "weights: {path_length: 0.5, time_units: 0.5}\ninteractions: {path_length*time_units: 0.1}\n",
            "interactions need form multilinear, got additive",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\nweights: {path_length: 1}\n"
            "interactions: {path_length*time_units: 0.5}\n",
            "interactions need form multilinear, got additive",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\nform: multiplicative\n"
            "weights: {path_length: 0.5, time_units: 0.5}\nmaster_k: 0.1\ninteractions: {path_length*time_units: 0.1}\n",
            "interactions need form multilinear, got multiplicative",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n"
            "form: multiplicative\n",
            "has 'form' beside equivalence_rows, which calibrate the model",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n"
            "weights: {path_length: 1}\n",
            "has 'weights' beside equivalence_rows, which calibrate the model",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n"
            "master_k: 0.5\n",
            "has 'master_k' beside equivalence_rows, which calibrate the model",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n"
            "interactions: {path_length*time_units: 0.1}\n",
            "has 'interactions' beside equivalence_rows, which calibrate the model",
        ),
        (
            UTILITY,
            "equivalence_rows:\n  - {path_length: 20, time_units: 8}\n  - {path_length: 68, time_units: 6}\n"
            "tag: mine\n",
            "has 'tag' beside equivalence_rows, which calibrate the model",
        ),
        (UTILITY, "attributes:\n  path_length: {bound: 100}\nweights: {path_length: .nan}\n", "weights must be nonnegative"),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: .nan, curve: free}\nweights: {path_length: 1}\n",
            "path_length: bound must exceed the best value",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\nform: multiplicative\n"
            "weights: {path_length: 0.5, time_units: 0.5}\nmaster_k: .nan\n",
            "multiplicative form needs K > -1, K != 0",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100, points: [[0, 1], [.nan, 0.5]]}\nweights: {path_length: 1}\n",
            "path_length: knot values must increase",
        ),
        (
            UTILITY,
            "attributes:\n  path_length: {bound: 100}\n  time_units: {bound: 10}\nform: multilinear\n"
            "weights: {path_length: 0.5, time_units: 0.5}\ninteractions: {path_length*time_units: .nan}\n",
            "multilinear weights plus interactions must sum to 1",
        ),
        (MODEL, "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: .nan}\n", "effective branching must exceed 1"),
        (
            MODEL,
            "kind: markov\naccuracy: {1: 0.9}\nbranching: {1: .inf}\n",
            "branching 1 gives no finite node count per decision",
        ),
        (
            MODEL,
            "kind: markov\naccuracy: {1: 0.8, 2: 0.9}\nbranching: {1: 1.5, 2: 1.0e+200}\nmax_len: 100\n",
            "branching 2 gives no finite node count per decision",
        ),
    ],
    ids=[
        "config-parse", "config-unknown", "limits-unknown", "markov-branching", "empirical-outcomes",
        "outcome-space", "utility-bound", "row-time", "markov-shape", "markov-unknown", "utility-unknown",
        "report-utility", "report-cell", "report-short", "attributes-shape", "weights-shape", "markov-level",
        "markov-accuracy", "utility-bounds", "utility-rows", "report-nan-utility", "report-utility-range",
        "report-level", "block-shape", "row-shape", "interactions-shape", "rows-number", "rows-mapping",
        "master-k", "bound-text", "cells-number", "outcome-shape", "outcome-text", "outcome-solved",
        "report-solved", "accuracy-quoted", "accuracy-text", "accuracy-bool", "level-float", "branching-text",
        "sample-sizes-float", "max-len-bool", "max-len-float", "cell-level", "cell-depth", "outcome-unknown",
        "outcome-extra", "knot-pair", "cells-twice", "extra-key", "extra-keys-mixed", "weights-unknown",
        "block-unknown", "tag-list", "interactions-pair", "cell-unknown", "row-unknown",
        "interactions-additive", "interactions-unknown-attribute", "interactions-multiplicative",
        "rows-form", "rows-weights", "rows-master-k", "rows-interactions", "rows-tag",
        "weights-nan", "bound-nan", "master-k-nan", "knot-nan", "interactions-nan", "branching-nan",
        "branching-inf", "branching-overflow",
    ],
)
def test_file_fault_fails_with_one_line_naming_the_file(capsys, tmp_path, argv, text, fault):
    path = tmp_path / "file"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"eusearch: ValueError: {path} {fault}\n")


class TestAccuracy:
    def test_small_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "accuracy",
            "--levels",
            "1,2",
            "--depth",
            "4",
            "--samples",
            "5",
            "--seed",
            "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,accuracy,n"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "flags, error",
        [
            (("--samples", "0"), "EmptySample"),
            (("--depth", "0"), "ValueError: depth 0 not in 1..31 at width 3"),
            (("--depth", "40"), "ValueError: depth 40 not in 1..31 at width 3"),
        ],
    )
    def test_failure_prints_no_header(self, capsys, monkeypatch, flags, error):
        walks = []
        monkeypatch.setattr(experiment, "instance_of_depth", lambda *a, **k: walks.append(a))
        code, out, err = run_cli(capsys, "accuracy", "--levels", "1,2", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith(f"eusearch: {error}")
        assert walks == []  # the depth is checked before any walk


class TestFitSelect:
    def test_markov_fit_then_select(self, capsys, tmp_path):
        model_path = str(tmp_path / "model.yaml")
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--kind",
            "markov",
            "--depths",
            "4,6",
            "--train-per-depth",
            "3",
            "--levels",
            "1-3",
            "--seed",
            "2",
            "--out",
            model_path,
        )
        assert code == 0

        code, out, _ = run_cli(
            capsys,
            "select",
            "--depth",
            "5",
            "--model",
            model_path,
            "--levels",
            "1-3",
            "--samples",
            "500",
        )
        assert code == 0
        assert "chosen_level" in out
        assert out.splitlines()[1:3] == [
            "model markov[levels 1..3]",
            "utility multiplicative-calibrated",
        ]

    def test_empirical_fit_then_select_csv(self, capsys, tmp_path):
        model_path = str(tmp_path / "emp.yaml")
        csv_path = str(tmp_path / "select.csv")
        code, _, _ = run_cli(
            capsys,
            "fit",
            "--kind",
            "empirical",
            "--depths",
            "4",
            "--train-per-depth",
            "3",
            "--levels",
            "1-2",
            "--out",
            model_path,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "select",
            "--depth",
            "4",
            "--model",
            model_path,
            "--levels",
            "1-2",
            "--csv",
            csv_path,
        )
        assert code == 0
        assert out.splitlines()[1:3] == [
            "model empirical[levels 1..2]",
            "utility multiplicative-calibrated",
        ]
        header = open(csv_path).read().splitlines()[0]
        assert header == "level,expected_utility,chosen"

    @pytest.mark.parametrize("kind", ["markov", "empirical"])
    @pytest.mark.parametrize(
        "depths, width, message",
        [
            ("4,4", "3", "depths must not repeat, got [4, 4]"),
            ("0", "3", "depth 0 not in 1..31 at width 3"),
            ("40", "3", "depth 40 not in 1..31 at width 3"),
            ("8,81", "4", "depth 81 not in 1..80 at width 4"),
        ],
    )
    def test_fit_checks_depths_as_experiment_does_before_any_suite(
        self, capsys, tmp_path, monkeypatch, kind, depths, width, message
    ):
        self._fit_fails_before_any_suite(
            capsys, tmp_path, monkeypatch, message,
            "--kind", kind, "--depths", depths, "--width", width,
        )

    @pytest.mark.parametrize("kind", ["markov", "empirical"])
    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_fit_checks_counts_as_experiment_does_before_any_suite(
        self, capsys, tmp_path, monkeypatch, kind, count
    ):
        self._fit_fails_before_any_suite(
            capsys, tmp_path, monkeypatch, "instance counts must be positive",
            "--kind", kind, "--train-per-depth", count,
        )

    @staticmethod
    def _fit_fails_before_any_suite(capsys, tmp_path, monkeypatch, message, *flags):
        built = []
        monkeypatch.setattr(experiment, "instance_of_depth", lambda *a, **k: built.append(a))
        model_path = tmp_path / "model.yaml"
        code, out, err = run_cli(capsys, "fit", *flags, "--levels", "1-2", "--out", str(model_path))
        assert (code, out, err) == (2, "", f"eusearch: ValueError: {message}\n")
        assert built == [] and not model_path.exists()

    def test_select_rejects_huge_samples_before_reading_the_model(self, capsys, monkeypatch):
        read = []
        monkeypatch.setattr(cli, "load_model", read.append)
        code, out, err = run_cli(
            capsys, "select", "--depth", "4", "--model", "m.yaml", "--samples", "1000001"
        )
        assert code == 2
        assert out == "" and read == []
        assert err == "eusearch: ValueError: predict_samples must be in 1..1000000\n"

    def test_fit_model_and_select_csv_bytes_are_pinned(self, capsys, tmp_path):
        # SHA-256 of a small model file of each kind and of the selection CSV
        # made from it, then a scored run's output.  The markov pair holds for
        # a fit that scores up to ``accuracy_states_per_level`` (400) decisions
        # per level drawn by the per-depth "fit" subseed, and a selection of
        # ``predict_samples`` (8,000) walks seeded by the "predict" subseed.
        pins = {
            "markov": (
                "da3b11534f7c0c0e1c5213b885b558f260a3cb091c346ae36083ed5d1fadcb0a",
                "625a8bc40d33eba80db693d273d8e790051fb84b868048116c198f74533b71c9",
            ),
            "empirical": (
                "808f70dd7a4a9727774b25f5b46866db030f3acbd4dcea17ee9d321170a76c9b",
                "473628c73f599a4e9b4a7280697ddb1e8c6ce7a1fa80e29c09c7a097507ea0ef",
            ),
        }
        for kind, (model_sha, csv_sha) in pins.items():
            model_path, csv_path = tmp_path / f"{kind}.yaml", tmp_path / f"{kind}.csv"
            code, _, _ = run_cli(
                capsys, "fit", "--kind", kind, "--depths", "4,8", "--train-per-depth", "5",
                "--levels", "1-4", "--out", str(model_path),
            )
            assert code == 0
            code, _, _ = run_cli(
                capsys, "select", "--depth", "6", "--model", str(model_path), "--levels", "1-4",
                "--csv", str(csv_path),
            )
            assert code == 0
            assert (sha256(model_path), sha256(csv_path)) == (model_sha, csv_sha)
        code, out, _ = run_cli(
            capsys, "minimin", "--instance", "1 3 0 4 8 2 7 5 6", "--lookahead", "6", "--score"
        )
        assert (code, out) == (
            0, "path_length 32\ntime_units 3305\nspace_units 30\nsolved 1\nutility 0.7863803952042627\n"
        )

    def test_fit_then_select_reproduce_a_desk_depths_selection(self, capsys, tmp_path):
        # With every other flag at its default, fit and select take the
        # experiment's settings and per-depth seeds.
        model_path, csv_path = tmp_path / "m.yaml", tmp_path / "eu.csv"
        assert run_cli(capsys, "fit", "--depths", "16", "--out", str(model_path))[0] == 0
        code, _, _ = run_cli(
            capsys, "select", "--depth", "16", "--model", str(model_path), "--csv", str(csv_path)
        )
        assert code == 0
        desk = experiment.run_experiment(ExperimentConfig(depths=(16,), instances_per_depth=1))
        selection = desk.selections[16]
        assert selection.chosen_level == 10
        assert csv_path.read_text().splitlines()[1:] == [
            f"{level},{eu!r},{int(level == 10)}" for level, eu in sorted(selection.eu_by_level.items())
        ]

    def test_fit_then_select_reproduce_a_non_default_selection(self, capsys, tmp_path):
        # fit and select take any flag of a setting they read, accuracy_states_per_level
        # included, so they remake the selection of the experiment so configured.
        model_path, csv_path = tmp_path / "m.yaml", tmp_path / "eu.csv"
        code, _, _ = run_cli(
            capsys, "fit", "--depths", "16", "--train-per-depth", "10", "--accuracy-states", "150",
            "--levels", "1-8", "--out", str(model_path),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "select", "--depth", "16", "--model", str(model_path), "--levels", "1-8",
            "--samples", "2000", "--csv", str(csv_path),
        )
        assert code == 0
        cfg = ExperimentConfig(
            depths=(16,), instances_per_depth=1, levels=tuple(range(1, 9)),
            train_instances_per_depth=10, accuracy_states_per_level=150, predict_samples=2000,
        )
        selection = experiment.run_experiment(cfg).selections[16]
        assert selection.chosen_level == 6
        assert csv_path.read_text().splitlines()[1:] == [
            f"{level},{eu!r},{int(level == 6)}" for level, eu in sorted(selection.eu_by_level.items())
        ]

    @pytest.mark.parametrize("kind", ["markov", "empirical"])
    def test_stages_one_by_one_reproduce_each_depth_of_the_experiment(self, capsys, tmp_path, monkeypatch, kind):
        # fit, select and the evaluation stage, called one after another as the
        # CLI calls them, give run_experiment's model, selection and rows per depth.
        cfg = ExperimentConfig(
            depths=(4, 6), instances_per_depth=3, levels=(1, 2, 3), seed=11,
            train_instances_per_depth=3, predict_samples=300, model_kind=kind,
        )
        fit, models = experiment.fit_model, {}
        monkeypatch.setattr(experiment, "fit_model", lambda c, depths: models.setdefault(depths, fit(c, depths)))
        report = experiment.run_experiment(cfg)
        utility = default_utility_model()
        for depth in cfg.depths:
            model_path = tmp_path / f"{kind}{depth}.yaml"
            code, _, _ = run_cli(
                capsys, "fit", "--kind", kind, "--depths", str(depth), "--train-per-depth", "3",
                "--levels", "1-3", "--seed", "11", "--out", str(model_path),
            )
            assert code == 0
            model = load_model(str(model_path))
            assert fit(cfg, (depth,)) == models[(depth,)] == model
            selection = experiment.select_level(cfg, model, utility, depth)
            assert selection == report.selections[depth]
            rows = experiment.evaluate(cfg, utility, depth, selection.chosen_level)
            assert rows == [row for row in report.rows if row.depth == depth]

    @pytest.mark.parametrize("depth", ["0", "-3"])
    def test_select_rejects_a_bad_depth_before_reading_the_model(self, capsys, monkeypatch, depth):
        monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail("the model was read"))
        code, out, err = run_cli(capsys, "select", "--depth", depth, "--model", "m.yaml")
        assert (code, out, err) == (2, "", f"eusearch: ValueError: depth must be >= 1, got {depth}\n")

    def test_select_missing_model_file(self, capsys):
        code, _, err = run_cli(
            capsys, "select", "--depth", "4", "--model", "/nonexistent.yaml"
        )
        assert code == 2


class TestExperimentCommand:
    def test_small_experiment_and_summarize(self, capsys, tmp_path):
        runs_csv = str(tmp_path / "runs.csv")
        summary_csv = str(tmp_path / "summary.csv")
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--depths",
            "4",
            "--instances",
            "2",
            "--levels",
            "1-2",
            "--seed",
            "4",
            "--out",
            runs_csv,
            "--summary-csv",
            summary_csv,
            "--quiet",
        )
        assert code == 0
        assert "fraction highest utility" in out
        assert "reference" in out

        code, out2, _ = run_cli(capsys, "summarize", "--report", runs_csv)
        assert code == 0
        assert "fraction highest utility" in out2

    def test_summarize_a_width4_report(self, capsys, tmp_path):
        # Depth 40 lies past the 3x3 diameter; the runs CSV has no width column.
        rows = [",".join(experiment.REPORT_COLUMNS)]
        for i, utilities in enumerate(((0.5, 0.25), (0.25, 0.75))):
            for level, utility in zip((1, 2), utilities):
                rows.append(f"40,{i},{7 + i},{level},1,40,{900 * level},{level + 60},1,{utility}")
        runs_csv = tmp_path / "runs.csv"
        runs_csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        summary_csv = tmp_path / "summary.csv"
        code, out, err = run_cli(capsys, "summarize", "--report", str(runs_csv), "--csv", str(summary_csv))
        assert (code, err) == (0, "")
        assert "fraction highest utility" in out
        assert summary_csv.read_text(encoding="utf-8").splitlines()[2] == (
            "depth,40,2,1,0.5,1.0,1,0.3333333333333333,0.375,2,0.5"
        )

    def test_summarize_a_report_without_rows(self, capsys, tmp_path):
        runs_csv = tmp_path / "runs.csv"
        runs_csv.write_text(",".join(experiment.REPORT_COLUMNS) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "summarize", "--report", str(runs_csv))
        assert (code, out) == (2, "")
        assert err == "eusearch: IncompleteReport: report has no rows\n"

    def test_config_file(self, capsys, tmp_path):
        import yaml

        cfg_path = str(tmp_path / "cfg.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(
                {
                    "depths": [4],
                    "instances_per_depth": 1,
                    "levels": [1, 2],
                    "seed": 9,
                    "train_instances_per_depth": 2,
                    "predict_samples": 100,
                },
                fh,
            )
        code, out, _ = run_cli(capsys, "experiment", "--config", cfg_path, "--quiet")
        assert code == 0

    def test_width4_verification_out_of_budget_names_the_depth(self, capsys, monkeypatch):
        def out_of_budget(p, node_budget=exact.DEFAULT_NODE_BUDGET):
            raise exact.BudgetExhausted(f"idastar exceeded node budget of {node_budget}")

        monkeypatch.setattr(exact, "idastar", out_of_budget)
        code, out, err = run_cli(capsys, "experiment", "--width", "4", "--depths", "8", "--instances", "1", "--quiet")
        assert (code, out) == (2, "")
        assert err == (
            "eusearch: GenerationFailed: depth-8 attempt 0 could not be verified "
            f"(width 4, seed {subseed(0, 'train', 8, 0)}): idastar exceeded node budget of 50000000\n"
        )

    def test_config_file_level_out_of_range_fails_before_any_suite(
        self, capsys, tmp_path, monkeypatch
    ):
        generated = []
        monkeypatch.setattr(
            experiment, "instance_of_depth", lambda *a, **k: generated.append(a)
        )
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("depths: [4]\nlevels: [1, 25]\n")
        code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path), "--quiet")
        assert code == 2
        assert err.startswith(f"eusearch: ValueError: {cfg_path} lookahead level")
        assert generated == []

    @pytest.mark.parametrize("flag", ["--predict-samples", "--accuracy-states"])
    def test_zero_count_fails_before_any_suite(self, capsys, flag):
        code, out, err = run_cli(capsys, "experiment", flag, "0", "--instances", "1")
        assert code == 2
        assert out == ""
        assert "generating training suite" not in err
        assert err.startswith("eusearch: ValueError: ")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--depths", "4,4"), "depths must not repeat, got [4, 4]"),
            (("--depths", "0"), "depth 0 not in 1..31 at width 3"),
            (("--depths", "4,,8"), "depths must be integers, got '4,,8'"),
        ],
    )
    def test_repeated_or_zero_depths_fail_before_any_suite(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "experiment", *flags, "--instances", "1")
        assert (code, out) == (2, "")
        assert err == f"eusearch: ValueError: {message}\n"

    def test_config_file_repeated_levels_fail_before_any_suite(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("depths: [4]\nlevels: [1, 1, 2]\n")
        code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
        assert (code, out) == (2, "")
        assert err == f"eusearch: ValueError: {cfg_path} levels must not repeat, got [1, 1, 2]\n"

    def test_summarize_a_report_with_a_repeated_row(self, capsys, tmp_path):
        # Each (depth, instance, level) cell is one run; a second copy is not
        # averaged in or dropped, it fails the report.
        row = "4,0,7,1,1,4,900,61,1,0.5"
        runs_csv = tmp_path / "runs.csv"
        runs_csv.write_text("\n".join([",".join(experiment.REPORT_COLUMNS), row, row]) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "summarize", "--report", str(runs_csv))
        assert (code, out) == (2, "")
        assert err == "eusearch: IncompleteReport: instance (4, 0) repeats level 1\n"

    def test_huge_predict_samples_fail_before_any_suite(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "--predict-samples", "1000001", "--instances", "1"
        )
        assert code == 2
        assert out == ""
        assert "generating training suite" not in err
        assert err.startswith("eusearch: ValueError: predict_samples must be in 1..1000000")


class _Stop(Exception):
    pass


class TestExperimentOverrides:
    """Each `experiment` flag sets the config field it names."""

    @pytest.fixture
    def record(self, monkeypatch):
        seen = []

        def fake_run_experiment(cfg, csv_path=None, progress=None):
            seen.append(cfg)
            raise _Stop

        monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)

        def run(*argv):
            assert main(["experiment", "--quiet", *argv]) == 2
            return seen.pop()

        return run

    @pytest.fixture
    def cfg_file(self, tmp_path):
        import yaml

        path = tmp_path / "cfg.yaml"
        path.write_text(
            yaml.safe_dump(
                {
                    "depths": [6],
                    "instances_per_depth": 4,
                    "levels": [2, 3],
                    "seed": 9,
                    "limits": {"max_moves": 50, "node_budget": 5000},
                    "predict_samples": 100,
                    "utility_config": "file.yaml",
                }
            )
        )
        return str(path)

    def test_no_flags_gives_defaults(self, record):
        assert record() == ExperimentConfig()

    def test_every_flag(self, record, cfg_file):
        cfg = record(
            "--config", cfg_file,
            "--depths", "4,8",
            "--instances", "3",
            "--levels", "1-3,5",
            "--seed", "7",
            "--model-kind", "empirical",
            "--utility", "u.yaml",
            "--width", "3",
            "--train-per-depth", "5",
            "--accuracy-states", "9",
            "--predict-samples", "11",
            "--gens-per-minute", "1.5",
            "--nodes-per-megabyte", "2.5",
            "--gen-attempts", "13",
            "--max-moves", "17",
            "--node-budget", "19",
        )
        assert cfg == ExperimentConfig(
            width=3,
            depths=(4, 8),
            instances_per_depth=3,
            levels=(1, 2, 3, 5),
            seed=7,
            limits=ResourceLimits(max_moves=17, node_budget=19),
            model_kind="empirical",
            gens_per_minute=1.5,
            nodes_per_megabyte=2.5,
            train_instances_per_depth=5,
            accuracy_states_per_level=9,
            predict_samples=11,
            gen_attempts=13,
            utility_config="u.yaml",
        )

    def test_config_file_fields_not_overridden_stay(self, record, cfg_file):
        cfg = record("--config", cfg_file, "--max-moves", "17", "--depths", "", "--levels", "")
        assert cfg.limits == ResourceLimits(max_moves=17, node_budget=5000)
        assert (cfg.depths, cfg.levels, cfg.instances_per_depth) == ((6,), (2, 3), 4)
        assert (cfg.seed, cfg.predict_samples, cfg.utility_config) == (9, 100, "file.yaml")
        assert cfg.train_instances_per_depth == ExperimentConfig.train_instances_per_depth


class TestLevelsParsing:
    def test_huge_range_fails_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "experiment", "--levels", "1-1000000000", "--quiet")
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "lookahead level" in err

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789-, _+x", max_size=20) | st.text(max_size=12))
    def test_any_text_gives_valid_levels_or_value_error(self, text):
        try:
            levels = cli._parse_levels(text)
        except ValueError:
            return
        assert levels
        assert list(levels) == sorted(set(levels))
        assert all(1 <= level <= MAX_LOOKAHEAD for level in levels)


def well_formed(tokens):
    """A solvable permutation of 0..n-1 on a 2x2 or 3x3 board, by the parity invariant.

    Every token must be ASCII decimal digits, as ``parse_state`` requires.

    Each move swaps the blank with a tile, so it flips the parity of the
    permutation relative to the goal and moves the blank one cell: a state is
    reachable when the two parities agree.
    """
    if not all(re.fullmatch("[0-9]+", t) for t in tokens):
        return False
    tiles = [int(t) for t in tokens]
    n = len(tiles)
    if n not in (4, 9) or sorted(tiles) != list(range(n)):
        return False
    width = 3 if n == 9 else 2
    goal_index = [t - 1 if t else n - 1 for t in tiles]
    inversions = sum(a > b for i, a in enumerate(goal_index) for b in goal_index[i + 1 :])
    row, col = divmod(tiles.index(0), width)
    return inversions % 2 == (width - 1 - row + width - 1 - col) % 2


_TOKEN = st.one_of(
    st.integers(0, 8).map(str),
    st.integers(-3, 12).map(str),
    st.sampled_from(["x", "1.5", "--", "+3", "0x1", "", "08", "1_0", "nan", "٣"]),
)


class TestInstanceParsing:
    # At most 9 tokens: no 4x4 board, so every solve is a quick 2x2 or 3x3 one.
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_TOKEN, max_size=9).map(" ".join)
        | st.permutations(range(4)).map(lambda p: " ".join(map(str, p)))
        | st.permutations(range(9)).map(lambda p: " ".join(map(str, p)))
    )
    def test_any_instance_text_keeps_the_exit_code_contract(self, text):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", f"--instance={text}"])
        if well_formed(text.split()):
            assert code == 0
            assert out.getvalue().startswith("length ") and err.getvalue() == ""
        else:
            assert code == 2
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("eusearch: ")
