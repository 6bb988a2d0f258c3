from dataclasses import asdict, replace
from pathlib import Path

import pytest

from eusearch.experiment import (
    REPORT_COLUMNS,
    ExperimentConfig,
    ExperimentReport,
    IncompleteReport,
    config_from_dict,
    fit_model,
    load_experiment_config,
    read_report_csv,
    run_experiment,
    summarize,
    summary_csv_text,
    summary_table,
    to_user_units,
)
from eusearch.minimin import _value_table
from eusearch.perfmodel import load_model
from eusearch.puzzle import goal_state
from eusearch.utility import Outcome, default_utility_model, joint_utility
from reports import make_report, report_csv_text

SMALL = ExperimentConfig(
    depths=(4, 6),
    instances_per_depth=3,
    levels=(1, 2, 3),
    seed=11,
    train_instances_per_depth=3,
    predict_samples=300,
)


class TestConfig:
    def test_round_trip(self):
        d = asdict(SMALL)
        assert config_from_dict(d) == SMALL

    def test_desk_config_file_holds_the_defaults(self):
        path = Path(__file__).parents[1] / "configs" / "experiment_desk.yaml"
        assert load_experiment_config(str(path)) == ExperimentConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(depths=())
        with pytest.raises(ValueError):
            ExperimentConfig(instances_per_depth=0)
        with pytest.raises(ValueError):
            ExperimentConfig(model_kind="psychic")
        with pytest.raises(ValueError):
            ExperimentConfig(depths=(40,), width=3)

    @pytest.mark.parametrize("field", ["gens_per_minute", "nodes_per_megabyte"])
    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -1.0, float("inf")])
    def test_unit_rates_must_be_finite_and_positive(self, field, rate):
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            ExperimentConfig(**{field: rate})

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError, match="lookahead level"):
            config_from_dict({"levels": [1, 25]})
        with pytest.raises(ValueError, match="lookahead level"):
            config_from_dict({"levels": [0]})

    def test_to_user_units(self):
        o = Outcome(10, 40_000, 5_000)
        converted = to_user_units(o, 20_000, 10_000)
        assert converted.time_units == 2.0
        assert converted.space_units == 0.5
        assert converted.path_length == 10


class TestRunExperiment:
    def test_trivial_config(self):
        cfg = ExperimentConfig(
            depths=(1,),
            instances_per_depth=1,
            levels=(1,),
            seed=5,
            train_instances_per_depth=2,
            predict_samples=100,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.chosen == 1
        assert row.outcome.path_length == 1
        assert row.utility > 0

    def test_desk_fits_equal_the_recorded_models(self):
        # The benchmark's select_sweep loads the five seed-0 desk models from
        # perfbench/data; a fit that changed any of them would show here.
        cfg = ExperimentConfig()
        data = Path(__file__).parents[1] / "perfbench" / "data"
        for depth in cfg.depths:
            model = fit_model(cfg, (depth,))
            assert model == load_model(str(data / f"markov_d{depth}.yaml"))

    def test_deterministic_csv(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL)
        assert report_csv_text(a) == report_csv_text(b)

    def test_table_state_does_not_change_the_report(self, policy_builds):
        cfg = replace(SMALL, levels=(2, 7, 9))
        _value_table.cache_clear()
        cold = run_experiment(cfg)
        assert _value_table.cache_info().currsize == 1
        # The fit and the evaluation runs build each level's policy table once.
        rows = _value_table(cfg.width, goal_state(cfg.width).tiles)[0]
        assert sorted(policy_builds, key=lambda build: build[1]) == [(rows, 2), (rows, 7), (rows, 9)]
        warm = run_experiment(cfg)
        assert _value_table.cache_info().hits
        assert len(policy_builds) == 3
        assert warm == cold

    def test_csv_flushed_to_disk(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        report = run_experiment(SMALL, csv_path=path)
        on_disk = open(path).read()
        assert on_disk == report_csv_text(report)

    def test_empirical_model_kind(self):
        cfg = config_from_dict({**asdict(SMALL), "model_kind": "empirical"})
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 3 * 3

    def test_rescoring_from_raw_csv_matches(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        run_experiment(SMALL, csv_path=path)
        utility = default_utility_model()
        import csv as csvmod

        with open(path) as fh:
            for rec in csvmod.DictReader(fh):
                outcome = Outcome(
                    path_length=float(rec["path_length"]),
                    time_units=float(rec["time_units"]),
                    space_units=float(rec["space_units"]),
                    solved=rec["solved"] == "1",
                )
                rescored = joint_utility(
                    to_user_units(outcome, SMALL.gens_per_minute, SMALL.nodes_per_megabyte),
                    utility,
                )
                assert rescored == float(rec["utility"])

    def test_read_report_reads_each_solved_spelling(self, tmp_path):
        path = tmp_path / "runs.csv"
        cells = ["1", "True", "true", "0", "False", "false"]
        rows = "".join(f"4,{i},1,1,1,4,12,7,{cell},0.5\n" for i, cell in enumerate(cells))
        path.write_text(",".join(REPORT_COLUMNS) + "\n" + rows)
        assert [row.outcome.solved for row in read_report_csv(str(path)).rows] == [True] * 3 + [False] * 3

    def test_read_report_round_trip(self, tmp_path):
        path = str(tmp_path / "runs.csv")
        report = run_experiment(SMALL, csv_path=path)
        loaded = read_report_csv(path)
        assert summarize(loaded) == summarize(report)

    def test_partial_results_flushed_on_failure(self, tmp_path):
        from eusearch.exact import GenerationFailed

        cfg = config_from_dict(
            {
                **asdict(SMALL),
                "depths": (4, 19),
                "gen_attempts": 1,  # depth 19 cannot generate in one attempt
            }
        )
        path = str(tmp_path / "partial.csv")
        with pytest.raises(GenerationFailed):
            run_experiment(cfg, csv_path=path)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("depth,")
        assert len(lines) > 1  # depth-4 rows made it to disk before the abort


class TestSummarize:
    def test_all_chosen_best(self):
        layout_data = {
            (4, 0): (2, {1: 0.5, 2: 0.9, 3: 0.7}),
            (4, 1): (2, {1: 0.1, 2: 0.8, 3: 0.2}),
        }
        s = summarize(make_report(layout_data))
        assert s.fraction_highest == 1.0
        assert s.within_one == 1.0
        assert s.max_level_error == 0
        assert s.mean_utility_gap == 0.0

    def test_hand_built_miss_by_two(self):
        layout_data = {
            (4, 0): (1, {1: 0.9, 2: 0.5, 3: 0.4}),  # hit
            (4, 1): (1, {1: 0.8, 2: 0.6, 3: 0.3}),  # hit
            (4, 2): (1, {1: 0.5, 2: 0.7, 3: 0.9}),  # miss by two levels
        }
        s = summarize(make_report(layout_data))
        assert s.fraction_highest == pytest.approx(2 / 3)
        assert s.within_one == pytest.approx(2 / 3)
        assert s.max_level_error == 2
        expected_gap = ((0.9 - 0.5) / 0.9) / 3
        assert s.mean_utility_gap == pytest.approx(expected_gap)

    def test_ties_resolve_in_selectors_favor(self):
        layout_data = {(4, 0): (3, {1: 0.9, 2: 0.5, 3: 0.9})}
        s = summarize(make_report(layout_data))
        assert s.fraction_highest == 1.0
        assert s.max_level_error == 0

    def test_order_invariance(self):
        layout_data = {
            (4, 0): (1, {1: 0.9, 2: 0.5, 3: 0.4}),
            (4, 1): (1, {1: 0.2, 2: 0.6, 3: 0.3}),
            (6, 0): (2, {1: 0.1, 2: 0.6, 3: 0.7}),
        }
        report = make_report(layout_data)
        shuffled = ExperimentReport(config=report.config, rows=list(reversed(report.rows)))
        assert summarize(report) == summarize(shuffled)

    def test_fraction_highest_never_exceeds_within_one(self):
        layout_data = {
            (4, i): (1 + i % 3, {1: 0.1 * i, 2: 0.5, 3: 0.3}) for i in range(6)
        }
        s = summarize(make_report(layout_data))
        assert s.fraction_highest <= s.within_one

    def test_incomplete_report_rejected(self):
        layout_data = {(4, 0): (1, {1: 0.9, 2: 0.5, 3: 0.4})}
        report = make_report(layout_data)
        report.rows.pop()
        with pytest.raises(IncompleteReport):
            summarize(report)

    @pytest.mark.parametrize(
        "chosen, message",
        [((1, 2), "has conflicting chosen levels"), ((5, 5), "lacks its chosen level 5")],
        ids=["two-chosen", "chosen-row-missing"],
    )
    def test_inconsistent_chosen_level_rejected(self, chosen, message):
        report = make_report({(4, 0): (chosen[0], {1: 0.9, 2: 0.5, 3: 0.4})})
        report.rows[-1] = replace(report.rows[-1], chosen=chosen[1])
        with pytest.raises(IncompleteReport, match=message):
            summarize(report)

    def test_empty_report_rejected(self):
        report = ExperimentReport(config=SMALL, rows=[])
        with pytest.raises(IncompleteReport):
            summarize(report)

    def test_per_depth_best_fixed_level(self):
        layout_data = {
            (4, 0): (1, {1: 0.9, 2: 0.8, 3: 0.1}),
            (4, 1): (1, {1: 0.7, 2: 0.8, 3: 0.1}),
        }
        s = summarize(make_report(layout_data))
        depth = s.per_depth[0]
        assert depth.best_fixed_level == 1  # means tie at 0.8; smaller level wins
        assert depth.mean_chosen_utility == pytest.approx(0.8)

    def test_tables_render(self):
        layout_data = {(4, 0): (1, {1: 0.9, 2: 0.5, 3: 0.4})}
        s = summarize(make_report(layout_data))
        text = summary_table(s)
        assert "fraction highest utility" in text
        assert "reference" in text
        csv_text = summary_csv_text(s)
        assert csv_text.splitlines()[0].startswith("scope,")
        assert "overall" in csv_text
