import pytest

from eusearch.experiment import to_user_units
from eusearch.perfmodel import EmpiricalTable, MarkovParams, predict
from eusearch.selector import SelectionReport, select_lookahead
from eusearch.utility import (
    AttributeMissing,
    AttributeUtility,
    Lottery,
    Outcome,
    UtilityModel,
    choose_max_eu,
    default_utility_model,
    expected_utility,
)
from oracles import markov_predict_oracle


def hand_joint(model, path, minutes):
    """Independent multiplicative combination for cross-checking."""
    k_p, k_t, _ = model.weights
    u_p = 1.0 - path / 100.0
    u_t = 1.0 - minutes / 10.0
    num = (1 + model.k * k_p * u_p) * (1 + model.k * k_t * u_t) - 1
    den = (1 + model.k * k_p) * (1 + model.k * k_t) - 1
    return num / den


def assert_each_entry_converted_once_into_one_lottery(monkeypatch, model, d, **kwargs):
    """``select_lookahead`` over levels 1-3 passes each of ``predict``'s entries
    through ``convert`` once and builds one ``Lottery`` per level, none by ``Lottery.of``."""
    levels = [1, 2, 3]
    sizes = [len(predict(model, d, l, **kwargs).entries) for l in levels]
    converted, built = [], []
    post_init = Lottery.__post_init__

    def counted(lottery):
        built.append(lottery)
        post_init(lottery)

    def convert(o):
        converted.append(o)
        return to_user_units(o, 20_000.0, 10_000.0)

    def no_repass(pairs):
        raise AssertionError("Lottery.of re-passes built entries")

    with monkeypatch.context() as patch:
        patch.setattr(Lottery, "__post_init__", counted)
        patch.setattr(Lottery, "of", no_repass)
        select_lookahead(d, model, default_utility_model(), levels, convert=convert, **kwargs)
    assert len(converted) == sum(sizes)
    assert [len(lottery.entries) for lottery in built] == sizes
    assert [o for lottery in built for o, _ in lottery.entries] == [
        to_user_units(o, 20_000.0, 10_000.0) for o in converted
    ]


class TestSelectLookahead:
    def test_single_level(self):
        table = EmpiricalTable(cells={(10, 3): (Outcome(12, 1.0, 1.0),)})
        report = select_lookahead(10, table, default_utility_model(), [3])
        assert report.chosen_level == 3

    def test_hand_built_two_level_choice(self):
        # level 2 predicts a coin flip between 40 and 80 moves at 2 minutes;
        # level 8 predicts 22 moves guaranteed but at 9.5 minutes
        u = default_utility_model()
        table = EmpiricalTable(
            cells={
                (19, 2): (Outcome(40, 2.0, 1.0), Outcome(80, 2.0, 1.0)),
                (19, 8): (Outcome(22, 9.5, 1.0),),
            }
        )
        report = select_lookahead(19, table, u, [2, 8])
        eu2 = 0.5 * hand_joint(u, 40, 2.0) + 0.5 * hand_joint(u, 80, 2.0)
        eu8 = hand_joint(u, 22, 9.5)
        assert report.eu_by_level[2] == pytest.approx(eu2, abs=1e-9)
        assert report.eu_by_level[8] == pytest.approx(eu8, abs=1e-9)
        assert eu2 > eu8
        assert report.chosen_level == 2

    def test_dominating_level_wins(self):
        u = default_utility_model()
        table = EmpiricalTable(
            cells={
                (10, 1): (Outcome(60, 5.0, 1.0),),
                (10, 2): (Outcome(30, 2.0, 1.0),),
            }
        )
        report = select_lookahead(10, table, u, [1, 2])
        assert report.chosen_level == 2

    def test_tie_breaks_to_smaller_level(self):
        u = default_utility_model()
        same = (Outcome(30, 2.0, 1.0),)
        table = EmpiricalTable(cells={(10, 4): same, (10, 7): same})
        report = select_lookahead(10, table, u, [7, 4])
        assert report.chosen_level == 4

    def test_subset_consistency(self):
        u = default_utility_model()
        cells = {
            (10, l): (Outcome(60 - 5 * l, 0.2 * l, 1.0),) for l in range(1, 7)
        }
        table = EmpiricalTable(cells=cells)
        full = select_lookahead(10, table, u, [1, 2, 3, 4, 5, 6])
        subset = select_lookahead(10, table, u, [1, full.chosen_level, 6])
        assert subset.chosen_level == full.chosen_level

    def test_eu_values_in_unit_interval(self):
        params = MarkovParams(
            accuracy={1: 0.7, 2: 0.8}, branching={1: 2.7, 2: 2.4}, max_len=100
        )
        u = default_utility_model()
        report = select_lookahead(
            8,
            params,
            u,
            [1, 2],
            samples=500,
            seed=3,
            convert=lambda o: Outcome(
                o.path_length, o.time_units / 20000.0, o.space_units / 10000.0, o.solved
            ),
        )
        assert all(0.0 <= eu <= 1.0 for eu in report.eu_by_level.values())

    def test_argmax_invariant_under_affine_transform(self):
        u = default_utility_model()
        cells = {(10, l): (Outcome(60 - 5 * l, 0.2 * l, 1.0),) for l in (1, 3, 5)}
        report = select_lookahead(10, EmpiricalTable(cells=cells), u, [1, 3, 5])
        transformed = {l: 0.25 * eu + 0.1 for l, eu in report.eu_by_level.items()}
        assert max(transformed, key=transformed.get) == report.chosen_level

    def test_markov_levels_convert_each_entry_once_into_one_lottery(self, monkeypatch):
        params = MarkovParams(
            accuracy={1: 0.6, 2: 0.8, 3: 1.0}, branching={1: 2.7, 2: 2.4, 3: 2.2}, max_len=100
        )
        assert_each_entry_converted_once_into_one_lottery(monkeypatch, params, 12, samples=500, seed=5)

    def test_empirical_levels_convert_each_entry_once_into_one_lottery(self, monkeypatch):
        cells = {(d, l): (Outcome(40 + d, 2e4 * l, 3e4), Outcome(50 + d, 1e4 * l, 2e4)) for d in (8, 16) for l in (1, 2)}
        cells[(16, 3)] = (Outcome(60, 9e4, 4e4),)
        for d in (8, 11, 16, 20):  # at a cell, between two, beyond the table
            assert_each_entry_converted_once_into_one_lottery(monkeypatch, EmpiricalTable(cells), d, extrapolate=True)

    def test_empirical_levels_score_their_converted_predictions(self):
        u = default_utility_model()
        cells = {(d, l): (Outcome(40 + d, 2e4 * l, 3e4), Outcome(50 + d, 1e4 * l, 2e4)) for d in (8, 16) for l in (1, 2)}
        table = EmpiricalTable(cells=cells)

        def convert(o):
            return to_user_units(o, 20_000.0, 10_000.0)

        for d in (8, 11, 16):
            report = select_lookahead(d, table, u, [1, 2], convert=convert)
            for level in (1, 2):
                lottery = Lottery.of((convert(o), p) for o, p in predict(table, d, level).entries)
                assert repr(report.eu_by_level[level]) == repr(expected_utility(lottery, u))

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            SelectionReport(chosen_level=1, eu_by_level={1: 0.2, 2: 0.9})

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            select_lookahead(5, MarkovParams({1: 0.8}, {1: 2.0}), default_utility_model(), [])


class TestCompareAlgorithms:
    def test_guaranteed_fast_vs_cheap_slow(self):
        # X: 35 minutes of computation, 7500 dollars to execute.
        # Y: two weeks of computation, 1250 dollars.  Time bound: one day.
        u = UtilityModel(
            attributes=(
                AttributeUtility.linear("time_units", 0.0, 1440.0),
                AttributeUtility.linear("cost_dollars", 0.0, 10_000.0),
            ),
            form="additive",
            weights=(0.5, 0.5),
        )
        x = Lottery.of([(Outcome(0, 35.0, 0, extra={"cost_dollars": 7500.0}), 1.0)])
        y = Lottery.of([(Outcome(0, 20160.0, 0, extra={"cost_dollars": 1250.0}), 1.0)])
        best, eus = choose_max_eu([x, y], u)
        assert best == 0
        assert eus[1] == 0.0  # Y exceeds the one-day computation bound
        assert eus[0] == pytest.approx(0.5 * (1 - 35 / 1440) + 0.5 * 0.25)

    def test_identical_candidates_first_wins(self):
        u = default_utility_model()
        lot = Lottery.of([(Outcome(30, 2.0, 1.0), 1.0)])
        best, _ = choose_max_eu([lot, lot], u)
        assert best == 0

    def test_hand_computed_order(self):
        curve = AttributeUtility.linear("path_length", 0.0, 100.0)
        u = UtilityModel((curve,), "additive", (1.0,))
        a = Lottery.of([(Outcome(60, 0, 0), 1.0)])  # utility 0.4
        b = Lottery.of([(Outcome(10, 0, 0), 1.0)])  # utility 0.9
        best, eus = choose_max_eu([a, b], u)
        assert best == 1
        assert eus[0] == pytest.approx(0.4)
        assert eus[1] == pytest.approx(0.9)

    def test_attribute_missing_propagates(self):
        u = UtilityModel(
            (AttributeUtility.linear("cost_dollars", 0.0, 100.0),),
            "additive",
            (1.0,),
        )
        lot = Lottery.of([(Outcome(1, 1, 1), 1.0)])
        with pytest.raises(AttributeMissing):
            choose_max_eu([lot], u)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            choose_max_eu([], default_utility_model())


class TestSharedWalkSelection:
    def test_eus_equal_oracle_lotteries_by_repr(self):
        u = default_utility_model()
        levels = (1, 2, 3, 4, 5, 6)

        def convert(o):
            return to_user_units(o, 20_000.0, 10_000.0)

        models = [
            MarkovParams(
                accuracy=dict(zip(levels, accuracies)),
                branching={l: 2.5 - 0.1 * l for l in levels},
                max_len=100,
            )
            for accuracies in (
                (0.7,) * 6,
                (0.55, 0.6, 0.6, 0.8, 0.95, 0.95),
                (0.6, 0.75, 1.0, 1.0, 1.0, 1.0),
            )
        ]
        for depth in (1, 6, 17, 30):
            for model in models:
                report = select_lookahead(
                    depth, model, u, levels, samples=400, seed=depth, convert=convert
                )
                for level in levels:
                    lottery = markov_predict_oracle(model, depth, level, 400, depth)
                    lottery = Lottery.of((convert(o), p) for o, p in lottery.entries)
                    want = expected_utility(lottery, u)
                    assert repr(report.eu_by_level[level]) == repr(want)
