import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eusearch.minimin as minimin
from eusearch.exact import idastar, instance_of_depth
from eusearch.experiment import ExperimentConfig
from eusearch.minimin import (
    MAX_LOOKAHEAD,
    EmptySample,
    Outcome,
    ResourceLimits,
    decision_accuracy,
    minimin_decide,
    minimin_run,
    minimin_trace,
    _decision_memo,
    _decisions,
    _ranked_decisions,
)
from eusearch.puzzle import (
    Op,
    ProblemInstance,
    State,
    apply_op,
    goal_state,
    legal_ops,
    manhattan,
    random_walk,
)
from oracles import bfs_distances, exhaustive_lookahead

GOAL3 = goal_state(3)
GOAL2 = goal_state(2)
GOAL4 = goal_state(4)


def sample_states(count, max_steps, seed=0, width=3):
    rng = random.Random(seed)
    goal = goal_state(width)
    out = []
    while len(out) < count:
        s = random_walk(goal, rng.randrange(1, max_steps + 1), seed=rng.randrange(1 << 30))
        if s != goal:
            out.append(s)
    return out


class TestOutcome:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Outcome(path_length=-1, time_units=0, space_units=0)

    def test_extra_dict_normalized(self):
        o = Outcome(1, 2, 3, extra={"cost": 5.0})
        assert o.extra == (("cost", 5.0),)
        assert o.extra_value("cost") == 5.0
        assert o.extra_value("nope") is None

    def test_limits_validation(self):
        with pytest.raises(ValueError):
            ResourceLimits(max_moves=0)


class TestDecide:
    def test_goal_one_away_any_level(self):
        s = apply_op(GOAL3, Op.UP)
        for level in (1, 2, 5, 10):
            op, value, nodes = minimin_decide(s, GOAL3, level)
            assert apply_op(s, op) == GOAL3
            assert value == 1
            assert nodes >= len(legal_ops(s))

    def test_level_one_is_greedy(self):
        for s in sample_states(30, 20, seed=1):
            op, value, _ = minimin_decide(s, GOAL3, 1)
            best = min(
                (1 + manhattan(apply_op(s, o), GOAL3), int(o)) for o in legal_ops(s)
            )
            assert (value, int(op)) == best

    def test_matches_exhaustive_oracle(self):
        for i, s in enumerate(sample_states(40, 24, seed=2)):
            level = 1 + i % 4
            op, value, _ = minimin_decide(s, GOAL3, level)
            oracle_op, oracle_value, *_ = exhaustive_lookahead(s, GOAL3, level)
            assert (op, value) == (oracle_op, oracle_value)

    def test_rejects_goal_state(self):
        with pytest.raises(ValueError):
            minimin_decide(GOAL3, GOAL3, 2)

    def test_rejects_bad_level(self):
        s = apply_op(GOAL3, Op.UP)
        with pytest.raises(ValueError):
            minimin_decide(s, GOAL3, 0)
        with pytest.raises(ValueError):
            minimin_decide(s, GOAL3, 99)

    def test_monotone_effort(self):
        for s in sample_states(10, 18, seed=4):
            prev = 0
            for level in (1, 2, 3, 4, 5):
                _, _, nodes = minimin_decide(s, GOAL3, level)
                assert nodes >= prev
                prev = nodes


def assert_kernel_matches_oracle(s, goal, level, kernel=_ranked_decisions):
    """Ranking, values, children, node count and peak all equal the oracle's."""
    oracle_op, oracle_value, table, oracle_nodes, oracle_peak = exhaustive_lookahead(
        s, goal, level
    )
    ranked, nodes, peak = kernel(s.tiles, s.blank, goal.tiles, s.width, level)
    assert [(value, op) for value, op, _, _ in ranked] == sorted(
        (value, int(op)) for op, value in table.items()
    )
    for _, op, child, child_blank in ranked:
        assert State(child, s.width) == apply_op(s, Op(op))
        assert child[child_blank] == 0
    assert (nodes, peak) == (oracle_nodes, oracle_peak)
    assert minimin_decide(s, goal, level) == (oracle_op, oracle_value, oracle_nodes)


def walked_state(goal, steps, seed):
    s = random_walk(goal, steps, seed)
    return s if s != goal else apply_op(goal, legal_ops(goal)[0])


class TestKernelOracle:
    """The lookahead kernel against the tree enumeration in ``oracles``."""

    @settings(max_examples=120, deadline=None)
    @given(
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 12),
    )
    def test_width3_every_level(self, steps, seed, level):
        assert_kernel_matches_oracle(walked_state(GOAL3, steps, seed), GOAL3, level)

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.integers(1, 6),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 12),
    )
    def test_width3_goal_cutoffs(self, steps, seed, level):
        # The goal lies inside most of these trees, which cuts their branches.
        assert_kernel_matches_oracle(walked_state(GOAL3, steps, seed), GOAL3, level)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 6),
    )
    def test_width4(self, steps, seed, level):
        assert_kernel_matches_oracle(walked_state(GOAL4, steps, seed), GOAL4, level)

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(1, 10),
        seed=st.integers(0, 2**30),
        level=st.integers(13, 16),
    )
    def test_width3_deep_goal_cutoffs(self, steps, seed, level):
        # Deep trees the goal cuts: most paths reach it with moves to spare.
        assert_kernel_matches_oracle(walked_state(GOAL3, steps, seed), GOAL3, level)

    @settings(max_examples=6, deadline=None)
    @given(
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**30),
        level=st.integers(7, 9),
    )
    def test_width4_deep(self, steps, seed, level):
        assert_kernel_matches_oracle(walked_state(GOAL4, steps, seed), GOAL4, level)

    def test_every_2x2_state(self):
        for tiles, d in bfs_distances(GOAL2).items():
            if d == 0:
                continue
            for level in range(1, MAX_LOOKAHEAD + 1):
                assert_kernel_matches_oracle(State(tiles, 2), GOAL2, level)

    def test_goal_free_trees_have_the_tabulated_size(self):
        # With h0 >= level no goal is expanded, so the whole tree is generated.
        for goal, steps in ((GOAL3, 30), (GOAL4, 60)):
            size = minimin._kernel_tables(goal.width, goal.tiles)[2]
            for seed in range(4):
                s = walked_state(goal, steps, seed)
                for level in range(1, min(manhattan(s, goal), MAX_LOOKAHEAD) + 1):
                    _, nodes, peak = _ranked_decisions(
                        s.tiles, s.blank, goal.tiles, s.width, level
                    )
                    assert nodes == size[level][s.blank][minimin._ROOT]
                    assert peak == level + 1

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(1, 12),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 14),
    )
    def test_count_walk_enters_only_nodes_below_the_bound(self, steps, seed, level):
        # Below a node whose h is at least its moves left, the goal can only
        # be a leaf, so its subtree is taken from the table, not walked.
        s = walked_state(GOAL3, steps, seed)
        assert walk_entries(s, GOAL3, level) == nodes_with_h_below_moves_left(s, GOAL3, level)


def walk_entries(s, goal, level):
    """(depth, h, moves left) of each node the kernel's count walk enters, sorted."""
    entries = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "walk" and code.co_filename == minimin.__file__:
            entries.append((frame.f_locals["g"], frame.f_locals["hval"], frame.f_locals["left"]))

    sys.setprofile(hook)
    try:
        _ranked_decisions(s.tiles, s.blank, goal.tiles, s.width, level)
    finally:
        sys.setprofile(None)
    return sorted(entries)


def nodes_with_h_below_moves_left(s, goal, level):
    """(depth, h, moves left) of each tree node on whose path 0 < h < moves left holds."""
    found = []

    def visit(state, depth, last):
        h = manhattan(state, goal)
        if not 0 < h < level - depth:
            return
        found.append((depth, h, level - depth))
        for op in legal_ops(state):
            if last is None or op != last.inverse:
                visit(apply_op(state, op), depth + 1, op)

    visit(s, 0, None)
    return sorted(found)


def fresh_memo(width, goal):
    memo = _decision_memo(width, goal.tiles)
    memo.clear()
    return memo


def decide_both(s, goal, level):
    """The decision from the memoised entry point and from the kernel."""
    args = (s.tiles, s.blank, goal.tiles, s.width, level)
    return _decisions(*args), _ranked_decisions(*args)


class TestDecisionMemo:
    """The memoised entry point returns exactly what the kernel returns."""

    @settings(max_examples=120, deadline=None)
    @given(
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 12),
    )
    def test_miss_and_hit_equal_the_kernel(self, steps, seed, level):
        s = walked_state(GOAL3, steps, seed)
        memo = fresh_memo(3, GOAL3)
        miss, expected = decide_both(s, GOAL3, level)
        assert miss == expected
        assert len(memo) == (level >= minimin._MEMO_FLOOR)
        hit, _ = decide_both(s, GOAL3, level)
        assert hit == expected
        assert_kernel_matches_oracle(s, GOAL3, level, _decisions)

    def test_equal_after_eviction(self, monkeypatch):
        monkeypatch.setattr(minimin, "_MEMO_CAP", 3)
        memo = fresh_memo(3, GOAL3)
        states = sample_states(8, 24, seed=13)
        for _ in range(2):
            for s in states:
                for level in (8, 8, 9, 9):  # a miss or a hit, then a hit
                    got, expected = decide_both(s, GOAL3, level)
                    assert got == expected
                    assert 1 <= len(memo) <= 3

    def test_goals_never_share_entries(self):
        other = State((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
        memo, other_memo = fresh_memo(3, GOAL3), fresh_memo(3, other)
        assert memo is not other_memo
        s = walked_state(GOAL3, 12, 5)
        got, expected = decide_both(s, GOAL3, 8)
        assert got == expected
        assert len(memo) == 1 and not other_memo
        got, expected_other = decide_both(s, other, 8)
        assert got == expected_other != expected
        assert len(memo) == len(other_memo) == 1
        assert decide_both(s, GOAL3, 8)[0] == expected

    def test_width4_and_shallow_levels_bypass_the_memo(self):
        memo4, memo3 = fresh_memo(4, GOAL4), fresh_memo(3, GOAL3)
        s4 = walked_state(GOAL4, 30, 1)
        got, expected = decide_both(s4, GOAL4, minimin._MEMO_FLOOR)
        assert got == expected and not memo4
        s3 = walked_state(GOAL3, 20, 1)
        for level in range(1, minimin._MEMO_FLOOR):
            got, expected = decide_both(s3, GOAL3, level)
            assert got == expected
        assert not memo3

    def test_entries_that_would_not_fit_are_not_packed(self):
        moves = ((0, 1), (3, 5))
        assert minimin._pack([(63, 3, (), 5), (63, 0, (), 1)], 10, 31, moves) is not None
        assert minimin._pack([(64, 3, (), 5), (9, 0, (), 1)], 10, 3, moves) is None
        assert minimin._pack([(9, 3, (), 5), (9, 0, (), 1)], 10, 32, moves) is None

    def test_runs_stay_within_the_cap(self, monkeypatch):
        instances = [instance_of_depth(16, 3, seed=40 + i) for i in range(4)]
        monkeypatch.setattr(minimin, "_MEMO_FLOOR", MAX_LOOKAHEAD + 1)
        unmemoised = [minimin_run(inst, 8) for inst in instances]
        monkeypatch.setattr(minimin, "_MEMO_FLOOR", 7)
        monkeypatch.setattr(minimin, "_MEMO_CAP", 5)
        memo = fresh_memo(3, GOAL3)
        for _ in range(2):
            for inst, expected in zip(instances, unmemoised):
                assert minimin_run(inst, 8) == expected
                assert 1 <= len(memo) <= 5


class TestRun:
    def test_identity(self):
        out = minimin_run(ProblemInstance(GOAL3, GOAL3), 3)
        assert out == Outcome(0, 0, 0, True)

    def test_depth_one(self):
        inst = instance_of_depth(1, 3, seed=5)
        for level in (1, 4):
            out = minimin_run(inst, level)
            assert out.solved and out.path_length == 1

    def test_lookahead_at_horizon_is_optimal(self):
        # lookahead >= true depth reproduces an optimal path
        for i in range(6):
            inst = instance_of_depth(10, 3, seed=100 + i)
            out = minimin_run(inst, 10)
            assert out.solved
            assert out.path_length == 10 == idastar(inst).length

    def test_accounting_conservation(self):
        # replaying the decisions must reproduce the run's total node count
        inst = instance_of_depth(12, 3, seed=21)
        for level in (2, 5):
            out, states = minimin_trace(inst, level, ResourceLimits())
            assert out.solved
            assert len(states) == out.path_length
            total = 0
            for s in states:
                _, _, nodes = minimin_decide(s, GOAL3, level)
                total += nodes
            assert total == out.time_units

    def test_accounting_conservation_unsolved(self):
        # conservation also holds for capped runs
        inst = instance_of_depth(12, 3, seed=6)
        out, states = minimin_trace(inst, 2, ResourceLimits())
        assert not out.solved
        total = 0
        for s in states:
            _, _, nodes = minimin_decide(s, GOAL3, 2)
            total += nodes
        assert total == out.time_units

    def test_unsolved_is_outcome_not_error(self):
        inst = instance_of_depth(14, 3, seed=7)
        limits = ResourceLimits(max_moves=5, node_budget=1_000_000)
        out = minimin_run(inst, 1, limits)
        assert not out.solved
        assert out.path_length == limits.max_moves

    def test_node_budget_stops_run(self):
        inst = instance_of_depth(16, 3, seed=8)
        limits = ResourceLimits(max_moves=1000, node_budget=50)
        out = minimin_run(inst, 2, limits)
        assert not out.solved
        assert out.path_length == limits.max_moves

    def test_determinism(self):
        inst = instance_of_depth(13, 3, seed=9)
        a = minimin_run(inst, 4)
        b = minimin_run(inst, 4)
        assert a == b

    def test_2x2_levels_never_hurt(self):
        # on the tiny domain, larger lookahead never lengthens the solution
        goal = goal_state(2)
        for tiles, d in bfs_distances(goal).items():
            if d == 0:
                continue
            inst = ProblemInstance(State(tiles, 2), goal)
            lengths = [
                minimin_run(inst, level).path_length for level in (1, 2, 3, 4, 6)
            ]
            assert all(a >= b for a, b in zip(lengths, lengths[1:]))
            assert lengths[-1] == d

    def test_level_24_width4_run_finishes(self):
        # One level-24 decision overruns the desk node budget, so the run
        # stops after it, and its time is that decision's count.
        s = random_walk(GOAL4, 12, seed=2)
        start = time.perf_counter()
        out = minimin_run(ProblemInstance(s, GOAL4), MAX_LOOKAHEAD, ExperimentConfig().limits)
        elapsed = time.perf_counter() - start
        _, _, nodes = minimin_decide(s, GOAL4, MAX_LOOKAHEAD)
        assert not out.solved
        assert out.time_units == nodes > ExperimentConfig().limits.node_budget
        assert elapsed < 2.0

    def test_loop_avoidance_escapes(self):
        # level-1 greedy must still solve moderately deep instances given room
        inst = instance_of_depth(12, 3, seed=3)
        out = minimin_run(inst, 1, ResourceLimits(max_moves=2000, node_budget=10**7))
        assert out.solved


class TestDecisionAccuracy:
    def test_one_away_is_perfect(self):
        states = [apply_op(GOAL3, op) for op in legal_ops(GOAL3)]
        assert decision_accuracy(1, states, GOAL3) == 1.0

    def test_horizon_reaches_goal_is_perfect(self):
        states = sample_states(15, 6, seed=10)
        assert decision_accuracy(8, states, GOAL3) == 1.0

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            decision_accuracy(2, [], GOAL3)

    def test_matches_oracle_substitution(self):
        # recomputing with the exhaustive oracle in place of minimin_decide
        # yields the identical fraction
        states = sample_states(200, 12, seed=11)
        cache = {}
        p = decision_accuracy(2, states, GOAL3, dstar_cache=cache)

        def dstar(s):
            if s.tiles not in cache:
                cache[s.tiles] = idastar(ProblemInstance(s, GOAL3)).length
            return cache[s.tiles]

        hits = 0
        for s in states:
            op, *_ = exhaustive_lookahead(s, GOAL3, 2)
            hits += dstar(apply_op(s, op)) == dstar(s) - 1
        assert p == hits / len(states)

    def test_in_unit_interval(self):
        states = sample_states(25, 16, seed=12)
        p = decision_accuracy(1, states, GOAL3)
        assert 0.0 <= p <= 1.0
