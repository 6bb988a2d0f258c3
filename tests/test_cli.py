from eusearch.cli import main


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
