from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eusearch.exact import instance_of_depth
from eusearch.minimin import EmptySample, decision_accuracy, minimin_trace
from eusearch.perfmodel import (
    _ACCURACY_FLOOR,
    _entries,
    _first_passage,
    _geometric,
    _isotonic,
    _solve_branching,
    EmpiricalTable,
    MarkovParams,
    MissingAccuracy,
    OutOfRange,
    fit_empirical,
    fit_markov,
    load_model,
    markov_predict,
    model_from_dict,
    model_to_dict,
    nodes_per_decision,
    predict,
    save_model,
)
from eusearch.puzzle import ProblemInstance, State, goal_state
from eusearch.seeds import subseed
from eusearch.selector import select_lookahead
from eusearch.utility import Lottery, Outcome, default_utility_model
from oracles import apply_op, empirical_predict_oracle, legal_ops, markov_predict_oracle
from replay import tile_pairs


def simple_params(p=0.75, levels=(1, 2, 3, 4), max_len=1000):
    acc = {l: min(1.0, p + 0.05 * (l - levels[0])) for l in levels}
    return MarkovParams(
        accuracy=acc,
        branching={l: 1.7 for l in levels},
        max_len=max_len,
    )


class TestMarkovParams:
    def test_accuracy_range_enforced(self):
        with pytest.raises(ValueError):
            MarkovParams(accuracy={1: 0.4}, branching={1: 1.7})
        with pytest.raises(ValueError):
            MarkovParams(accuracy={1: 1.1}, branching={1: 1.7})

    def test_monotone_accuracy_enforced(self):
        with pytest.raises(ValueError):
            MarkovParams(accuracy={1: 0.9, 2: 0.7}, branching={1: 1.7, 2: 1.7})

    def test_branching_must_exceed_one(self):
        with pytest.raises(ValueError):
            MarkovParams(accuracy={1: 0.8}, branching={1: 1.0})

    def test_nodes_per_decision_geometric(self):
        params = simple_params()
        b = 1.7
        assert nodes_per_decision(params, 3) == pytest.approx(b + b**2 + b**3)


class TestMarkovPredict:
    def test_perfect_accuracy_is_deterministic_depth(self):
        params = MarkovParams(accuracy={2: 1.0}, branching={2: 1.7})
        lot = markov_predict(params, d=7, level=2, samples=500, seed=1)
        assert len(lot.entries) == 1
        outcome, prob = lot.entries[0]
        assert prob == 1.0 and outcome.path_length == 7 and outcome.solved

    def test_depth_one_minimum_path(self):
        params = simple_params(p=0.6)
        lot = markov_predict(params, d=1, level=1, samples=2000, seed=2)
        assert min(o.path_length for o, _ in lot.entries) == 1

    def test_parity_preserved(self):
        params = simple_params(p=0.8)
        lot = markov_predict(params, d=6, level=1, samples=1000, seed=3)
        for o, _ in lot.entries:
            if o.solved:
                assert int(o.path_length) % 2 == 0

    def test_hitting_time_mean(self):
        params = simple_params(p=0.75, levels=(1,))
        lot = markov_predict(params, d=20, level=1, samples=100_000, seed=4)
        mean = sum(o.path_length * p for o, p in lot.entries)
        assert mean == pytest.approx(40.0, rel=0.02)

    def test_deterministic_given_seed(self):
        params = simple_params()
        a = markov_predict(params, d=10, level=2, samples=3000, seed=5)
        b = markov_predict(params, d=10, level=2, samples=3000, seed=5)
        assert a == b

    def test_missing_accuracy(self):
        params = simple_params(levels=(1, 2))
        with pytest.raises(MissingAccuracy):
            markov_predict(params, d=5, level=9)

    def test_truncation_yields_unsolved(self):
        params = MarkovParams(accuracy={1: 0.501}, branching={1: 1.7}, max_len=10)
        lot = markov_predict(params, d=9, level=1, samples=4000, seed=6)
        unsolved = [o for o, _ in lot.entries if not o.solved]
        assert unsolved and all(o.path_length == 10 for o in unsolved)

    def test_absorbed_at_max_len_comes_before_truncated(self):
        # From depth 8 with max_len 10, walks end at step 8, at step 10, or alive.
        params = MarkovParams(accuracy={1: 0.6}, branching={1: 1.7}, max_len=10)
        lot = markov_predict(params, d=8, level=1, samples=200, seed=0)
        at_cap = [o for o, _ in lot.entries if o.path_length == 10]
        assert [o.solved for o in at_cap] == [True, False]
        assert [o for o, _ in lot.entries[-2:]] == at_cap
        assert lot.entries == markov_predict_oracle(params, 8, 1, 200, 0).entries

    def test_probabilities_sum_to_one(self):
        params = simple_params(p=0.55)
        lot = markov_predict(params, d=8, level=1, samples=5000, seed=7)
        assert abs(sum(p for _, p in lot.entries) - 1.0) <= 1e-9

    def test_stochastic_dominance_under_coupling(self):
        low = MarkovParams(accuracy={1: 0.6}, branching={1: 1.7})
        high = MarkovParams(accuracy={1: 0.8}, branching={1: 1.7})
        lot_low = markov_predict(low, d=10, level=1, samples=5000, seed=8)
        lot_high = markov_predict(high, d=10, level=1, samples=5000, seed=8)

        def cdf(lot, t):
            return sum(p for o, p in lot.entries if o.path_length <= t)

        for t in range(0, 1001, 10):
            assert cdf(lot_high, t) >= cdf(lot_low, t) - 1e-12


# The Markov models that the desk protocol fits at seed 0, one per depth, as the benchmark keeps them.
DESK_MODELS = [Path(__file__).parents[1] / "perfbench" / "data" / f"markov_d{d}.yaml" for d in (4, 8, 12, 16, 20)]


def oracle_counts(params, d, samples, seed):
    """``_first_passage``'s counts from one ``markov_predict_oracle`` walk per accuracy.

    Row i holds how many of the i-th lowest accuracy's walks are first at 0 after
    k steps (entry k) or alive at ``max_len`` (entry 0), and every row is as long
    as the lowest accuracy's walk.
    """
    rows = []
    for p in sorted(set(params.accuracy.values())):
        level = min(l for l, a in params.accuracy.items() if a == p)
        row = {0: 0}
        for o, prob in markov_predict_oracle(params, d, level, samples, seed).entries:
            row[int(o.path_length) if o.solved else 0] = round(prob * samples)
        rows.append(row)
    counts = np.zeros((len(rows), 1 + (params.max_len if rows[0][0] else max(rows[0]))), dtype=np.intp)
    for i, row in enumerate(rows):
        for k, n in row.items():
            counts[i, k] = n
    return counts


@pytest.fixture
def drawn_rows(monkeypatch):
    """The size of each row of uniforms that a generator made during the test draws."""
    rows = []
    make_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def random(self, n):
            rows.append(n)
            return self.rng.random(n)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    return rows


class TestSharedWalk:
    """``_entries`` reads all the levels it is given from one coupled walk per call."""

    @settings(max_examples=150, deadline=None)
    @given(
        accuracies=st.lists(
            st.sampled_from([0.501, 0.55, 0.6, 0.75, 0.9, 0.999, 1.0]),
            min_size=1,
            max_size=6,
        ),
        max_len=st.sampled_from([1, 5, 100, 1000]),
        samples=st.integers(1, 200),
        depths=st.lists(st.integers(1, 31), min_size=1, max_size=2),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_per_level_oracle(self, accuracies, max_len, samples, depths, seed, data):
        # Sorted draws give nondecreasing accuracies with ties and p = 1.0.
        levels = range(1, len(accuracies) + 1)
        params = MarkovParams(
            accuracy=dict(zip(levels, sorted(accuracies))),
            branching={l: 1.5 for l in levels},
            max_len=max_len,
        )
        # Any subset of the levels, in any order: a level's row depends only on its
        # accuracy, since the rows share the uniform draws and an emptied row stays 0.
        chosen = data.draw(st.lists(st.sampled_from(list(levels)), min_size=1, unique=True))
        for d in depths:
            want = {level: markov_predict_oracle(params, d, level, samples, seed).entries for level in levels}
            for level in levels:
                assert markov_predict(params, d, level, samples=samples, seed=seed).entries == want[level]
            got = [Lottery.of(entries).entries for entries in _entries(params, d, chosen, samples, seed, False)]
            assert got == [want[level] for level in chosen]

    SPREAD = MarkovParams(accuracy={1: 0.6, 2: 0.8, 3: 1.0}, branching={1: 1.5, 2: 1.5, 3: 1.5}, max_len=1000)

    def test_walk_stops_when_lowest_p_is_absorbed(self, drawn_rows):
        _entries(self.SPREAD, 6, self.SPREAD.levels, 300, 4, False)
        walk_rows = len(drawn_rows)
        drawn_rows.clear()
        markov_predict_oracle(self.SPREAD, 6, 1, 300, 4)
        # The lowest p needs as many rows as its own loop, and it dies out
        # long before max_len, so a walk that ran on to max_len is caught.
        assert walk_rows == len(drawn_rows) < self.SPREAD.max_len

    def test_one_level_walks_only_its_own_accuracy(self, drawn_rows):
        # p = 1.0 takes every walk from depth 6 straight down, in 6 rows.
        lot = predict(self.SPREAD, 6, 3, samples=300, seed=4)
        assert len(drawn_rows) == 6
        assert [(o.path_length, p) for o, p in lot.entries] == [(6.0, 1.0)]

    def test_selection_walks_until_its_lowest_accuracy_is_absorbed(self, drawn_rows):
        select_lookahead(6, self.SPREAD, default_utility_model(), [3, 2], samples=300, seed=4)
        walk_rows = len(drawn_rows)
        drawn_rows.clear()
        markov_predict_oracle(self.SPREAD, 6, 2, 300, 4)
        assert walk_rows == len(drawn_rows) > 6

    @pytest.mark.parametrize(
        "accuracies",
        [
            (0.543, 0.543, 0.615, 1.0),
            (0.6, 0.6, 0.75, 0.75, 0.9),
            (0.501, 0.55, 0.55, 0.7625, 0.999, 1.0),
            (0.543, 0.615, 0.615, 0.74375, 0.74375, 0.7625, 1.0),
        ],
    )
    def test_matches_oracle_at_desk_scale(self, accuracies):
        # The desk's regime: 8,000 samples, the 100-move cap, deep depths.
        levels = range(1, len(accuracies) + 1)
        params = MarkovParams(
            accuracy=dict(zip(levels, accuracies)),
            branching={l: 1.5 for l in levels},
            max_len=100,
        )
        for d in (16, 20, 31):
            for level in levels:
                got = markov_predict(params, d, level, samples=8000, seed=d)
                want = markov_predict_oracle(params, d, level, 8000, d)
                assert got.entries == want.entries

    @pytest.mark.parametrize("max_len", [1, 127, 128, 255, 256, 1000])
    def test_counter_dtype_edges_match_oracle(self, max_len):
        # Depths past the cap absorb nothing; from depth 300 the absorbing
        # count (d + step) // 2 is above 255, whatever the counter's dtype.
        params = MarkovParams(
            accuracy={1: 0.501, 2: 0.6, 3: 0.6, 4: 1.0},
            branching={l: 1.5 for l in range(1, 5)},
            max_len=max_len,
        )
        ps = (0.501, 0.6, 1.0)
        for d in sorted({1, max_len - 1 or 1, max_len, max_len + 1, 300, 700}):
            for level in params.levels:
                got = markov_predict(params, d, level, samples=300, seed=max_len)
                want = markov_predict_oracle(params, d, level, 300, max_len)
                assert got.entries == want.entries
            counts = _first_passage(d, ps, max_len, 300, max_len)
            assert counts.sum(axis=1).tolist() == [300] * len(ps)
            solved = 300 - counts[:, 0]
            assert (np.diff(solved) >= 0).all()
            assert counts.shape[1] <= max_len + 1

    @pytest.mark.parametrize("samples", [1, 7, 9, 8000])
    def test_padding_never_counts_as_a_live_walk(self, samples):
        # The alive flags are padded to whole 8-byte words for the popcount.
        params = MarkovParams(
            accuracy={1: 0.501, 2: 0.75, 3: 1.0}, branching={l: 1.5 for l in (1, 2, 3)}, max_len=12
        )
        ps = (0.501, 0.75, 1.0)
        for d in (1, 6, 11, 20):
            for level in params.levels:
                got = markov_predict(params, d, level, samples=samples, seed=d)
                assert got.entries == markov_predict_oracle(params, d, level, samples, d).entries
            counts = _first_passage(d, ps, params.max_len, samples, d)
            assert (counts >= 0).all() and counts.sum(axis=1).tolist() == [samples] * 3
        # From depth 20 no walk reaches 0 in 12 steps: every walk, and no more, is alive at the cap.
        assert counts[:, 0].tolist() == [samples] * 3

    @staticmethod
    def walk_matches_oracle(params, d, samples, seed):
        """Every level's entries and the walk's counts, shape included, against the oracle."""
        for level in params.levels:
            got = markov_predict(params, d, level, samples=samples, seed=seed)
            assert got.entries == markov_predict_oracle(params, d, level, samples, seed).entries
        ps = tuple(sorted(set(params.accuracy.values())))
        counts = _first_passage(d, ps, params.max_len, samples, seed)
        np.testing.assert_array_equal(counts, oracle_counts(params, d, samples, seed))
        return counts

    @pytest.mark.parametrize(
        "seed, last_steps",
        [(0, [49, 25, 19]), (116, [21, 21, 13]), (21, [33, 13, 13])],
        ids=["each-row-its-own-step", "lowest-two-rows-together", "top-two-rows-together"],
    )
    def test_rows_that_empty_at_chosen_steps(self, seed, last_steps):
        # The rows stop being walked as they empty: one at a time, or two at one step.
        params = MarkovParams(
            accuracy={1: 0.7, 2: 0.8, 3: 0.9}, branching={l: 1.5 for l in (1, 2, 3)}, max_len=1000
        )
        counts = self.walk_matches_oracle(params, 5, 20, seed)
        assert [np.flatnonzero(row).max() for row in counts] == last_steps
        assert counts[:, 0].tolist() == [0, 0, 0]

    def test_certain_row_drops_at_depth_while_lower_rows_reach_the_cap(self):
        params = MarkovParams(
            accuracy={1: 0.501, 2: 0.6, 3: 1.0}, branching={l: 1.5 for l in (1, 2, 3)}, max_len=100
        )
        counts = self.walk_matches_oracle(params, 20, 500, 9)
        assert counts.shape == (3, 101)
        assert counts[2, 20] == 500 and counts[0, 0] > 0 and counts[1, 0] > 0

    @pytest.mark.parametrize("max_len", [100, 1000])
    def test_depth_at_and_past_the_cap(self, max_len):
        # From d = max_len only the all-down walks reach 0, at the cap; past it none do.
        params = MarkovParams(
            accuracy={1: 0.501, 2: 0.75, 3: 1.0}, branching={l: 1.5 for l in (1, 2, 3)}, max_len=max_len
        )
        at_cap = self.walk_matches_oracle(params, max_len, 200, 3)
        assert at_cap[:, 0].tolist() == [200, 200, 0] and at_cap[2, max_len] == 200
        for d in (max_len + 1, max_len + 2):
            past = self.walk_matches_oracle(params, d, 200, 3)
            assert past.shape == (3, max_len + 1) and past[:, 0].tolist() == [200] * 3

    @pytest.mark.parametrize("path", DESK_MODELS, ids=lambda path: path.stem)
    def test_desk_models_match_oracle(self, path):
        # The five seed-0 desk models, read-only, at the desk's samples and prediction seeds.
        params = load_model(str(path))
        for d in (1, 16, 31):
            self.walk_matches_oracle(params, d, 8000, subseed(0, "predict", d))

    def test_counts_are_sized_by_the_steps_walked(self):
        params = MarkovParams(accuracy={1: 1.0}, branching={1: 1.5}, max_len=10**6)
        lot = markov_predict(params, 31, 1, samples=1000, seed=0)
        assert [(o.path_length, o.solved, p) for o, p in lot.entries] == [(31.0, True, 1.0)]
        assert _first_passage(31, (1.0,), 10**6, 1000, 0).shape == (1, 32)


class TestFitMarkov:
    def test_goal_adjacent_training_is_perfect(self):
        goal = goal_state(3)
        training = [
            ProblemInstance(apply_op(goal, op), goal) for op in legal_ops(goal)
        ]
        params = fit_markov(training, [1, 2, 3])
        assert all(p == 1.0 for p in params.accuracy.values())

    def test_accuracy_nondecreasing(self):
        training = [instance_of_depth(10, 3, seed=200 + i) for i in range(8)]
        params = fit_markov(training, [1, 2, 3, 4, 5])
        levels = sorted(params.accuracy)
        for a, b in zip(levels, levels[1:]):
            assert params.accuracy[b] >= params.accuracy[a]

    def test_empty_training_rejected(self):
        with pytest.raises(EmptySample):
            fit_markov([], [1, 2])

    def test_deterministic_refit(self):
        training = [instance_of_depth(8, 3, seed=300 + i) for i in range(5)]
        a = fit_markov(training, [1, 2], seed=9)
        b = fit_markov(training, [1, 2], seed=9)
        assert a == b

    def test_branching_regression(self):
        # frozen from a seeded fit: depth-12 instances, inverse-move pruning
        training = [instance_of_depth(12, 3, seed=1000 + i) for i in range(10)]
        params = fit_markov(training, [1, 2, 3, 4], seed=0)
        assert params.branching[1] == pytest.approx(2.7633, abs=1e-3)
        assert params.branching[4] == pytest.approx(2.0404, abs=1e-3)
        for level in (1, 2, 3, 4):
            assert params.branching[level] > 1.0

    @staticmethod
    def assert_fit_equals_decision_accuracy(width, depths, levels, cap, seed):
        # The fit scores the decisions its runs recorded; rerunning the
        # lookahead with decision_accuracy on the same subsample agrees.
        goal = goal_state(width)
        training = [instance_of_depth(depth, width, seed=40 + depth) for depth in depths]
        params = fit_markov(training, levels, max_states_per_level=cap, seed=seed)

        rng = np.random.default_rng(subseed(seed, "fit-markov"))
        raw, sizes = [], []
        for level in levels:
            pool = []
            for inst in training:
                trace = minimin_trace(inst, level)[1]
                if width <= 3:
                    trace = tile_pairs(inst.initial.tiles, trace)
                pool += [State(tiles, width) for tiles, _ in trace]
            assert len(pool) > cap
            idx = rng.choice(len(pool), size=cap, replace=False)
            pool = [pool[i] for i in sorted(idx.tolist())]
            raw.append(decision_accuracy(level, pool, goal))
            sizes.append(len(pool))
        adjusted = _isotonic(raw, sizes)
        assert params.accuracy == {
            l: min(1.0, max(_ACCURACY_FLOOR, a)) for l, a in zip(levels, adjusted)
        }
        assert params.sample_sizes == dict(zip(levels, sizes))
        assert len(set(raw)) > 1  # not a trivial sample: the levels score differently

    def test_equals_decision_accuracy_on_its_sample(self):
        # At width 3 the fit scores state keys, and decision_accuracy reruns from the
        # tiles that the replay script's tile_pairs decodes from the keys' blank moves.
        self.assert_fit_equals_decision_accuracy(3, (6, 10, 14), (1, 2, 3, 5, 7), 25, 11)

    def test_equals_decision_accuracy_on_its_sample_at_width_4(self):
        # At width 4 both score tiles, by IDA* solves.
        self.assert_fit_equals_decision_accuracy(4, (6, 8, 10), (1, 2, 4), 20, 11)

    def test_mixed_goals_rejected(self):
        goal = goal_state(3)
        other = apply_op(goal, legal_ops(goal)[0])
        training = [
            ProblemInstance(apply_op(goal, legal_ops(goal)[0]), goal),
            ProblemInstance(goal, other),
        ]
        with pytest.raises(ValueError):
            fit_markov(training, [1])


class TestEmpirical:
    def test_depth_zero_cells_are_zero_outcomes(self):
        goal = goal_state(3)
        suite = {0: [ProblemInstance(goal, goal)] * 3}
        table = fit_empirical(suite, [1, 2])
        for outcomes in table.cells.values():
            assert all(o == Outcome(0, 0, 0, True) for o in outcomes)

    def test_refit_identical(self):
        suite = {6: [instance_of_depth(6, 3, seed=400 + i) for i in range(4)]}
        a = fit_empirical(suite, [1, 2])
        b = fit_empirical(suite, [1, 2])
        assert a.cells == b.cells

    def test_deeper_cells_not_shorter_than_horizon(self):
        insts = [instance_of_depth(8, 3, seed=500 + i) for i in range(6)]
        table = fit_empirical({8: insts}, [1, 8])
        mean_l1 = np.mean([o.path_length for o in table.cells[(8, 1)]])
        mean_horizon = np.mean([o.path_length for o in table.cells[(8, 8)]])
        assert mean_l1 >= mean_horizon

    def test_empty_suite_rejected(self):
        with pytest.raises(EmptySample):
            fit_empirical({}, [1])
        with pytest.raises(EmptySample):
            fit_empirical({3: []}, [1])

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalTable(cells={(3, 1): ()})


class TestPredict:
    def test_markov_delegation_matches(self):
        params = simple_params()
        a = predict(params, d=9, level=2, samples=2000, seed=11)
        b = markov_predict(params, d=9, level=2, samples=2000, seed=11)
        assert a == b

    def test_single_outcome_cell_degenerate(self):
        o = Outcome(5, 100, 10)
        table = EmpiricalTable(cells={(5, 2): (o,)})
        lot = predict(table, d=5, level=2)
        assert lot.entries == ((o, 1.0),)

    def test_interpolation_midpoint_mean(self):
        o1 = Outcome(10, 100, 10)
        o2 = Outcome(20, 300, 10)
        table = EmpiricalTable(cells={(8, 1): (o1,), (12, 1): (o2,)})
        lot = predict(table, d=10, level=1)
        mean_path = sum(o.path_length * p for o, p in lot.entries)
        assert mean_path == pytest.approx(15.0)

    def test_out_of_range(self):
        table = EmpiricalTable(cells={(8, 1): (Outcome(10, 100, 10),)})
        with pytest.raises(OutOfRange):
            predict(table, d=20, level=1)
        clamped = predict(table, d=20, level=1, extrapolate=True)
        assert clamped.entries[0][0].path_length == 10

    def test_unknown_level(self):
        table = EmpiricalTable(cells={(8, 1): (Outcome(10, 100, 10),)})
        with pytest.raises(MissingAccuracy):
            predict(table, d=8, level=3)

    @given(
        cells=st.dictionaries(
            st.tuples(st.integers(1, 30), st.integers(1, 3)),
            st.lists(
                st.builds(Outcome, st.integers(0, 60), st.integers(0, 10**6), st.integers(0, 90), st.booleans()),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_empirical_matches_oracle_by_repr(self, cells):
        # Depths below, at, between and above the cells, a level the table
        # lacks, with and without extrapolation; errors compare by type and message.
        table = EmpiricalTable(cells={key: tuple(outcomes) for key, outcomes in cells.items()})

        def answer(call):
            try:
                return repr(call())
            except (MissingAccuracy, OutOfRange) as exc:
                return repr(exc)

        for level in (1, 2, 3, 4):
            for d in range(0, 33):
                for extrapolate in (False, True):
                    got = answer(lambda: predict(table, d, level, extrapolate=extrapolate))
                    assert got == answer(lambda: empirical_predict_oracle(table, d, level, extrapolate))


class TestSerialization:
    def test_markov_round_trip(self, tmp_path):
        params = simple_params()
        path = str(tmp_path / "model.yaml")
        save_model(params, path)
        loaded = load_model(path)
        assert loaded == params

    def test_empirical_round_trip(self, tmp_path):
        table = EmpiricalTable(
            cells={
                (4, 1): (
                    Outcome(4, 12, 6),
                    Outcome(6, 18, 7, solved=False),
                    Outcome(4, 14, 6, extra={"cost": 2.5}),
                )
            },
            sample_meta={"seed": 3},
        )
        path = str(tmp_path / "table.yaml")
        save_model(table, path)
        loaded = load_model(path)
        assert loaded.cells == table.cells
        assert loaded.sample_meta == dict(table.sample_meta)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "mystery"})

    def test_dict_round_trip(self):
        params = simple_params()
        assert model_from_dict(model_to_dict(params)) == params


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MarkovParams({}, {}), ValueError, "accuracy map must not be empty"),
        (lambda: MarkovParams({1: 0.9, 2: 0.9}, {1: 2.0}), ValueError, "branching factor missing for level 2"),
        (lambda: MarkovParams({1: 0.9}, {1: 2.0}, max_len=0), ValueError, "max_len must be positive"),
        (lambda: markov_predict(simple_params(), 0, 1), ValueError, "depth must be >= 1"),
        (lambda: markov_predict(simple_params(), 4, 1, samples=0), ValueError, "samples must be in 1..1000000"),
        (
            lambda: fit_markov([ProblemInstance(goal_state(3), goal_state(3))], (1, 2)),
            EmptySample,
            "no decisions observed at level 1",
        ),
    ],
    ids=["no-accuracy", "no-branching", "max-len-0", "predict-d-0", "predict-samples-0", "goal-only-fit"],
)
def test_bad_model_input_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "mean, level, branching",
    [(2.0, 3, 1.0 + 1e-9), (3.0, 3, 1.0 + 1e-9), (_geometric(10.0, 2), 2, 10.0), (_geometric(5.5, 3), 3, 5.5)],
)
def test_solve_branching_clamps_low_means_and_widens_for_high_ones(mean, level, branching):
    # Means above _geometric(4, level) need the upper bracket doubled first.
    assert _solve_branching(mean, level) == pytest.approx(branching, rel=1e-9)
