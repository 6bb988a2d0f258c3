import ast
import hashlib
import random
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eusearch.exact as exact
import eusearch.minimin as minimin
from eusearch.exact import _distance_table, _state_index, exact_distance, idastar, instance_of_depth
from eusearch.experiment import ExperimentConfig, run_experiment
from eusearch.minimin import (
    MAX_LOOKAHEAD,
    EmptySample,
    ResourceLimits,
    decision_accuracy,
    minimin_decide,
    minimin_run,
    minimin_trace,
    _policy_table,
    _ranked_decisions,
    _value_table,
)
from eusearch.puzzle import (
    Op,
    ProblemInstance,
    State,
    _state_key,
    delta_moves,
    goal_state,
    random_walk,
)
from eusearch.utility import AttributeMissing, Outcome, attribute_value
from oracles import (
    apply_op,
    bfs_distances,
    exhaustive_lookahead,
    inverse,
    legal_ops,
    manhattan_tally,
    minimin_run_oracle,
)
from replay import tile_pairs

GOAL3 = goal_state(3)
GOAL2 = goal_state(2)
GOAL4 = goal_state(4)
TABLE_FINGERPRINT = "7501450e7afac3cd102200413a80bff8930043f87bcf1f93b22a9189a4a6085a"
RANKING_FINGERPRINT = "1385bf612a018cef81e4a4c0aa640c084cd3c84c85fe91809eaef4da1b0945b3"


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

    @pytest.mark.parametrize("field", ["path_length", "time_units", "space_units"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError):
            Outcome(**{"path_length": 0, "time_units": 0, "space_units": 0, field: float("nan")})

    def test_extra_dict_normalized(self):
        o = Outcome(1, 2, 3, extra={"cost": 5.0})
        assert o.extra == (("cost", 5.0),)
        assert attribute_value(o, "cost") == 5.0
        with pytest.raises(AttributeMissing):
            attribute_value(o, "nope")

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
                (1 + manhattan_tally(apply_op(s, o), GOAL3), int(o)) for o in legal_ops(s)
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


def searched_decision(tiles, blank, goal, width, level):
    """``_ranked_decisions`` on a board of ``tiles``, called as ``table_decision`` is.

    The kernel searches the board in place; it must hand it back unchanged.
    """
    board = list(tiles)
    h0 = manhattan_tally(State(tiles, width), State(goal, width))
    result = _ranked_decisions(board, blank, h0, delta_moves(width, goal), minimin._tree_sizes(width), level)
    assert board == list(tiles)
    return result


def assert_kernel_matches_oracle(s, goal, level, kernel=searched_decision):
    """Ranking, values, children, child h, node count and peak all equal the oracle's."""
    oracle_op, oracle_value, table, oracle_nodes, oracle_peak = exhaustive_lookahead(
        s, goal, level
    )
    ranked, nodes, peak = kernel(s.tiles, s.blank, goal.tiles, s.width, level)
    assert [(value, op) for value, op, *_ in ranked] == sorted(
        (value, int(op)) for op, value in table.items()
    )
    for _, op, child_blank, child_h in ranked:
        child = apply_op(s, Op(op))
        assert child.blank == child_blank
        assert child_h == manhattan_tally(child, goal)
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
            size = minimin._tree_sizes(goal.width)
            for seed in range(4):
                s = walked_state(goal, steps, seed)
                for level in range(1, min(manhattan_tally(s, goal), MAX_LOOKAHEAD) + 1):
                    _, nodes, peak = searched_decision(
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

    def test_table_walk_enters_only_trees_with_a_goal_above_the_frontier(self):
        # A goal at the frontier is a leaf either way, so it cuts nothing; a
        # tree whose goals all lie there is taken from the size table.
        for s in sample_states(12, 12, seed=29):
            for level in range(1, 15):
                expected = sorted(
                    (depth, _state_key(tiles)[:2], left)
                    for depth, tiles, left in nodes_with_a_goal_above_the_frontier(s, GOAL3, level)
                )
                assert walk_entries(s, GOAL3, level, cold_table_decision) == expected

    def test_a_repeated_table_decision_walks_nothing(self):
        # The first decision at a (level, state) walks and keeps its counts;
        # the next one reads them back.
        counted = _value_table(3, GOAL3.tiles)[3]
        walked = 0
        for s in sample_states(12, 12, seed=29):
            for level in range(1, 15):
                args = (s.tiles, s.blank, GOAL3.tiles, 3, level)
                cold = cold_table_decision(*args)
                walked += bool(counted[level])
                assert walk_entries(s, GOAL3, level, table_decision) == []
                assert table_decision(*args) == cold == searched_decision(*args)
        assert walked > 0


def walk_entries(s, goal, level, kernel=searched_decision):
    """(depth, node, moves left) of each node ``kernel``'s count walk enters, sorted.

    A node is its tiles in ``_tree_counts``' walk and its (blank, k) in
    ``_goal_counts``', which carries no tiles.
    """
    entries = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event != "call" or code.co_filename != minimin.__file__ or code.co_name != "walk":
            return
        local = frame.f_locals
        node = tuple(local["board"]) if "board" in local else (local["b"], local["k"])
        entries.append((local["g"], node, local["left"]))

    sys.setprofile(hook)
    try:
        kernel(s.tiles, s.blank, goal.tiles, s.width, level)
    finally:
        sys.setprofile(None)
    return sorted(entries)


def nodes_with_h_below_moves_left(s, goal, level):
    """(depth, tiles, moves left) of each tree node on whose path 0 < h < moves left holds."""
    found = []

    def visit(state, depth, last):
        h = manhattan_tally(state, goal)
        if not 0 < h < level - depth:
            return
        found.append((depth, state.tiles, level - depth))
        for op in legal_ops(state):
            if last is None or op != inverse(last):
                visit(apply_op(state, op), depth + 1, op)

    visit(s, 0, None)
    return sorted(found)


def nodes_with_a_goal_above_the_frontier(s, goal, level):
    """(depth, tiles, moves left) of each tree node on whose path every node
    has a goal strictly above the frontier below it, by enumerating the tree."""

    def children(state, last):
        return [(apply_op(state, op), op) for op in legal_ops(state) if last is None or op != inverse(last)]

    def goal_within(state, moves, last):
        # Whether the goal lies at most ``moves`` moves down this node's tree.
        if state == goal:
            return True
        return moves > 0 and any(goal_within(c, moves - 1, op) for c, op in children(state, last))

    found = []

    def visit(state, depth, last):
        left = level - depth
        if state == goal or not goal_within(state, left - 1, last):
            return
        found.append((depth, state.tiles, left))
        for child, op in children(state, last):
            visit(child, depth + 1, op)

    visit(s, 0, None)
    return sorted(found)


def state_key(tiles):
    """The key a 2x2 or 3x3 run traces a state by: blank << 16 | k."""
    blank, k, _ = _state_key(tiles)
    return blank << 16 | k


def table_decisions(s, goal, levels):
    """Each level's decision at ``s`` as a 2x2 or 3x3 run makes it, in ``_ranked_decisions``' form.

    Each first move's (value, op, new blank, child h) is read from the value
    table's words, h and ranks, and sorted.  The node count and stack peak
    are a one-move ``_table_loop`` run's, whose traced top child must be the
    first of those moves.
    """
    rows, h = _value_table(s.width, goal.tiles)[:2]
    _, k, _ = _state_key(s.tiles)
    p = ProblemInstance(s, goal)
    decisions = []
    for level in levels:
        mask = (1 << (level - 1)) - 1
        ranked = sorted(
            (1 + h[j][ranks[k]] + 2 * (words[ranks[k]] & mask).bit_count(), op, j, h[j][ranks[k]])
            for op, j, words, ranks in rows[s.blank][minimin._ROOT]
        )
        trace = []
        outcome = minimin._table_loop(p, level, ResourceLimits(1, 1), trace)
        assert trace == [(state_key(s.tiles), state_key(apply_op(s, Op(ranked[0][1])).tiles))]
        # After one move the run stores its stack peak and the two states entered.
        decisions.append((ranked, outcome.time_units, outcome.space_units - 2))
    return decisions


def table_decision(tiles, blank, goal, width, level):
    """``table_decisions`` at one level, called as ``searched_decision`` is."""
    return table_decisions(State(tiles, width), State(goal, width), [level])[0]


def forget_counts(width, goal):
    """Empty the count memo of the value table of (width, goal tiles)."""
    for known in _value_table(width, goal)[3]:
        known.clear()


def cold_table_decision(tiles, blank, goal, width, level):
    """``table_decision`` with an empty count memo, so its run walks every goal-cut tree."""
    forget_counts(width, goal)
    return table_decision(tiles, blank, goal, width, level)


def assert_counted_only_goal_cut_trees(width, goal):
    """Every state in (width, goal)'s count memo has 0 < d* < its level; returns their number."""
    dstar = _distance_table(width, goal.tiles)[0]
    entries = [
        (level, dstar[key >> 16][key & 0xFFFF])
        for level, known in enumerate(_value_table(width, goal.tiles)[3])
        for key in known
    ]
    assert all(0 < d < level for level, d in entries)
    return len(entries)


def both_kernels(s, goal, level):
    """The decision read from the value table and the one searched by branch and bound."""
    args = (s.tiles, s.blank, goal.tiles, s.width, level)
    return table_decision(*args), searched_decision(*args)


def other_class(s):
    """``s`` with its first two tiles swapped: a state of the other parity class."""
    tiles = list(s.tiles)
    i, j = [k for k, t in enumerate(tiles) if t][:2]
    tiles[i], tiles[j] = tiles[j], tiles[i]
    return State(tuple(tiles), s.width)


def table_bytes(table):
    """Bytes held by a value table's profile words, rank maps and h rows."""
    rows, h = table[:2]
    # Each move is a root move once; moves that share a map's array count it once.
    moves = [move for row in rows for move in row[minimin._ROOT]]
    maps = {id(ranks.obj): ranks.nbytes for *_, ranks in moves}
    return sum(words.nbytes for *_, words, _ in moves) + sum(maps.values()) + sum(row.nbytes for row in h)


class TestValueTable:
    """Decisions read from ``_value_table`` equal the oracle's and the search's."""

    def test_every_2x2_state(self):
        for tiles, d in bfs_distances(GOAL2).items():
            if d == 0:
                continue
            for level in range(1, MAX_LOOKAHEAD + 1):
                assert_kernel_matches_oracle(State(tiles, 2), GOAL2, level, table_decision)

    def test_every_3x3_state_at_levels_1_to_3(self, distances3):
        for tiles, d in distances3.items():
            if d == 0:
                continue
            s = State(tiles, 3)
            expected = [searched_decision(tiles, s.blank, GOAL3.tiles, 3, level) for level in (1, 2, 3)]
            assert table_decisions(s, GOAL3, (1, 2, 3)) == expected

    def test_every_state_near_the_goal_counts_as_the_search(self, distances3):
        # The goal cuts the trees of these states, so the walk runs on most of
        # them; levels 15-24 are sampled in test_deep_levels_equal_the_search.
        # The first pass walks on an empty count memo, the second reads it.
        near = [tiles for tiles, d in distances3.items() if 0 < d <= 12]
        assert len(near) == 1849
        expected = [
            [searched_decision(tiles, tiles.index(0), GOAL3.tiles, 3, level)[1:] for level in range(1, 15)]
            for tiles in near
        ]
        forget_counts(3, GOAL3.tiles)
        for _ in ("cold", "warm"):
            for tiles, counts in zip(near, expected):
                decisions = table_decisions(State(tiles, 3), GOAL3, range(1, 15))
                assert [(nodes, peak) for _, nodes, peak in decisions] == counts
            assert assert_counted_only_goal_cut_trees(3, GOAL3) > 0

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**30),
        level=st.integers(1, MAX_LOOKAHEAD),
    )
    def test_sampled_3x3_states_equal_the_search(self, steps, seed, level):
        got, expected = both_kernels(walked_state(GOAL3, steps, seed), GOAL3, level)
        assert got == expected

    def test_every_decision_of_an_experiment(self, monkeypatch):
        # Each run, carried as (blank, k), moves, counts and traces as the
        # search loop does from the same instance: its trace holds the keys
        # of the search loop's tiles.
        levels = []
        run_loop = minimin._run_loop

        def checked(p, level, limits, trace=None):
            outcome = run_loop(p, level, limits, trace)
            searched = [] if trace is not None else None
            assert minimin._search_loop(p, level, limits, searched) == outcome
            if searched is not None:
                searched = [(state_key(tiles), state_key(child)) for tiles, child in searched]
            assert searched == trace
            levels.append(level)
            return outcome

        monkeypatch.setattr(minimin, "_run_loop", checked)
        cfg = ExperimentConfig(
            depths=(6, 14),
            instances_per_depth=2,
            levels=tuple(range(1, 13)),
            seed=5,
            train_instances_per_depth=2,
            predict_samples=100,
        )
        run_experiment(cfg)
        assert set(levels) == set(cfg.levels)

    def test_runs_never_mix_the_table_and_the_search(self, monkeypatch):
        # Only reachable states start a run, and moves keep them reachable:
        # every decision of a 2x2 or 3x3 run reads the table, and a 4x4 run
        # searches each distinct state it decides at, once (the last case
        # re-enters states before the move cap).  Both agree with the oracle's run,
        # the key traces of 2x2 and 3x3 runs read as tiles.
        calls = []
        searched = minimin._ranked_decisions
        monkeypatch.setattr(
            minimin, "_ranked_decisions", lambda *args: calls.append(args) or searched(*args)
        )
        with pytest.raises(ValueError):
            ProblemInstance(other_class(walked_state(GOAL3, 12, 5)), GOAL3)
        cases = [
            (GOAL2, 9, 1, ResourceLimits(10, 100)),
            (GOAL3, 14, 2, ResourceLimits(100, 10**6)),
            (GOAL3, 20, 3, ResourceLimits(100, 500)),
            (GOAL4, 30, 3, ResourceLimits(30, 10**6)),
            (GOAL4, 30, 3, ResourceLimits(100, 10**6)),
        ]
        for goal, steps, level, limits in cases:
            s = walked_state(goal, steps, 7)
            calls.clear()
            outcome, trace = minimin_trace(ProblemInstance(s, goal), level, limits)
            if goal.width <= 3:
                trace = tile_pairs(s.tiles, trace)
            expected = minimin_run_oracle(s, goal, level, limits.max_moves, limits.node_budget)
            got = (outcome.path_length, outcome.time_units, outcome.space_units, outcome.solved)
            assert (got, trace) == expected
            assert len(calls) == (len({tiles for tiles, _ in trace}) if goal.width > 3 else 0)

    def test_states_that_cannot_reach_the_goal_are_searched(self):
        for seed in (5, 6, 7):
            s = other_class(walked_state(GOAL3, 12, seed))
            for level in (1, 6, 18):
                oracle_op, oracle_value, _, oracle_nodes, _ = exhaustive_lookahead(s, GOAL3, level)
                assert minimin_decide(s, GOAL3, level) == (oracle_op, oracle_value, oracle_nodes)

    def test_single_decisions_build_no_table(self, policy_builds):
        _value_table.cache_clear()
        s = walked_state(GOAL3, 12, 5)
        for state in (s, other_class(s)):
            for level in (1, 6, 18):
                minimin_decide(state, GOAL3, level)
        assert _value_table.cache_info().misses == 0
        assert policy_builds == []

    def test_goals_never_share_a_table(self, policy_builds):
        other = State((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
        _value_table.cache_clear()
        s = walked_state(GOAL3, 12, 5)
        got, expected = both_kernels(s, GOAL3, 8)
        got_other, expected_other = both_kernels(s, other, 8)
        assert got == expected != expected_other == got_other
        assert _value_table.cache_info().currsize == 2
        assert _value_table(3, GOAL3.tiles) is not _value_table(3, other.tiles)
        # Nor a policy table: each goal builds its own level 8 from its own rows.
        tables = [_value_table(3, goal.tiles) for goal in (GOAL3, other)]
        assert policy_builds == [(tables[0][0], 8), (tables[1][0], 8)]
        assert tables[0][4] is not tables[1][4] and tables[0][4][8] != tables[1][4][8]
        # Nor a count memo: each holds its own goal's goal-cut trees, which a
        # 2x2 table's keys would alias, and keeps counting as the search.
        for goal in (GOAL3, other, GOAL2):
            for steps in range(1, 9):
                for seed in range(3):
                    s = walked_state(goal, steps, seed)
                    got, expected = both_kernels(s, goal, 10)
                    assert got == expected
        memos = [_value_table(goal.width, goal.tiles)[3] for goal in (GOAL3, other, GOAL2)]
        assert len({id(known) for counted in memos for known in counted}) == 3 * (MAX_LOOKAHEAD + 1)
        for goal in (GOAL3, other, GOAL2):
            assert assert_counted_only_goal_cut_trees(goal.width, goal) > 0
        rows = [_value_table(goal.width, goal.tiles)[0] for goal in (GOAL3, other, GOAL2)]
        assert sorted((rows.index(built), level) for built, level in policy_builds) == [
            (0, 8), (0, 10), (1, 8), (1, 10), (2, 10)
        ]

    def test_width4_never_builds_a_table(self, policy_builds):
        _value_table.cache_clear()
        s = walked_state(GOAL4, 30, 1)
        for level in (1, 7):
            assert_kernel_matches_oracle(s, GOAL4, level)
        minimin_run(ProblemInstance(s, GOAL4), 3)
        assert _value_table.cache_info().misses == 0
        assert policy_builds == []

    def test_distance_queries_never_build_a_table(self, policy_builds):
        # Instance generation and d* lookups are all deep_generation and
        # select_sweep do; they must not pay for the build.
        _value_table.cache_clear()
        inst = instance_of_depth(20, 3, seed=1)
        assert exact_distance(inst.initial, inst.goal) == 20
        assert _value_table.cache_info().misses == 0
        assert policy_builds == []

    def test_resident_size_is_bounded(self):
        assert table_bytes(_value_table(3, GOAL3.tiles)) <= 3 * 2**20

    def test_deep_levels_equal_the_search(self):
        rows = _value_table(3, GOAL3.tiles)[0]
        # Some values still rise past level 17, so bits above 15 are read.
        assert any(max(words) >> 16 for row in rows for *_, words, _ in row[minimin._ROOT])
        for s in sample_states(10, 60, seed=17):
            for level in (17, 18, MAX_LOOKAHEAD):
                got, expected = both_kernels(s, GOAL3, level)
                assert got == expected

    def test_build_raises_on_an_inconsistent_heuristic(self, monkeypatch):
        doubled = tuple(tuple(2 * d for d in row) for row in exact.dist_table(2, GOAL2.tiles))
        monkeypatch.setattr(exact, "dist_table", lambda width, goal: doubled)
        monkeypatch.setattr(minimin, "_state_index", exact._state_index.__wrapped__)  # h from the doubled table
        with pytest.raises(RuntimeError):
            _value_table.__wrapped__(2, GOAL2.tiles)


def ranked_moves(rows, h, blank, k, level):
    """State (blank, k)'s root moves ranked from the value table: (W, index, child's key)
    sorted by W = h + 2 * popcount(word & mask), then by index."""
    mask = (1 << (level - 1)) - 1
    return sorted(
        (h[j][ranks[k]] + 2 * (words[ranks[k]] & mask).bit_count(), i, j << 16 | ranks[k])
        for i, (_, j, words, ranks) in enumerate(rows[blank][minimin._ROOT])
    )


def ranked_entry(rows, h, blank, k, level):
    """The policy entry of state (blank, k), packed from ``ranked_moves``: the top move's
    index plus 4 iff its W + 1 >= level, the second's index times 8 and the third's times 32."""
    (best, top, _), *rest = ranked_moves(rows, h, blank, k, level)
    return top | (best + 1 >= level) << 2 | sum(i << shift for (_, i, _), shift in zip(rest, (3, 5)))


def assert_policy_is_the_ranking(rows, h, level, states):
    """``_policy_table(rows, h, level)`` holds ``ranked_entry`` at each (blank, k) in ``states``."""
    policy = _policy_table(rows, h, level)
    assert [(b, k) for b, k in states if policy[b][k] != ranked_entry(rows, h, b, k, level)] == []


def sampled_keys(h, count, rng):
    """``count`` (blank, k) pairs drawn uniformly over the blank cells, then over k."""
    return [(b, rng.randrange(len(h[b]))) for b in (rng.randrange(len(h)) for _ in range(count))]


class TestPolicyTable:
    """Each entry of a level's policy table is the value table's ranking of the root moves."""

    def test_every_3x3_state_at_levels_1_12_24(self):
        rows, h = _value_table(3, GOAL3.tiles)[:2]
        every = [(b, k) for b in range(9) for k in range(len(h[b]))]
        assert len(every) == 181_440
        for level in (1, 12, MAX_LOOKAHEAD):
            assert_policy_is_the_ranking(rows, h, level, every)

    def test_every_2x2_state_at_every_level(self):
        rows, h = _value_table(2, GOAL2.tiles)[:2]
        every = [(b, k) for b in range(4) for k in range(len(h[b]))]
        for level in range(1, MAX_LOOKAHEAD + 1):
            assert_policy_is_the_ranking(rows, h, level, every)

    def test_sampled_3x3_states_at_every_level(self):
        rows, h = _value_table(3, GOAL3.tiles)[:2]
        rng = random.Random(33)
        for level in range(1, MAX_LOOKAHEAD + 1):
            assert_policy_is_the_ranking(rows, h, level, sampled_keys(h, 2000, rng))

    def test_every_value_the_words_can_hold(self):
        # A 3x3 table's values stay below 32, but its words hold up to 23
        # bits and h up to 22, so W * 4 + 3 can pass 255 at levels 22-24.
        # Words with nearly every bit set reach there.
        rows, h = _value_table(3, GOAL3.tiles)[:2]
        gen = np.random.default_rng(33)
        full = (1 << (MAX_LOOKAHEAD - 1)) - 1

        def dense(n):
            words = full ^ (1 << gen.integers(0, MAX_LOOKAHEAD - 1, n)).astype(np.uint32)
            return memoryview(np.where(gen.random(n) < 0.5, words, gen.integers(0, full + 1, n)).astype(np.uint32))

        fake = {}
        rows = tuple(tuple(
            tuple((op, j, fake.setdefault(id(words), dense(len(words))), ranks) for op, j, words, ranks in after)
            for after in row
        ) for row in rows)
        h = tuple(memoryview(gen.integers(0, 23, len(row)).astype(np.uint8)) for row in h)
        rng = random.Random(34)
        for level in range(1, MAX_LOOKAHEAD + 1):
            assert_policy_is_the_ranking(rows, h, level, sampled_keys(h, 2000, rng))

    def test_loop_avoidance_decodes_each_move_once(self):
        # The order ``_table_loop`` walks when the top move is blocked, by its own
        # expression: with the top move, every index of the cell's root moves once.
        loop = next(
            node for node in ast.walk(ast.parse(open(minimin.__file__).read()))
            if isinstance(node, ast.FunctionDef) and node.name == "_table_loop"
        )
        (walk,) = [node.iter for node in ast.walk(loop) if isinstance(node, ast.For)]
        rest = compile(ast.Expression(walk), "_table_loop", "eval")
        for width, levels in ((2, range(1, MAX_LOOKAHEAD + 1)), (3, (1, 12, MAX_LOOKAHEAD))):
            rows, h = _value_table(width, goal_state(width).tiles)[:2]
            for level in levels:
                for b, entries in enumerate(_policy_table(rows, h, level)):
                    row = rows[b][minimin._ROOT]
                    for entry in set(entries):
                        order = [entry & 3, *eval(rest, {"entry": entry, "row": row})]
                        assert sorted(order) == list(range(len(row))), (width, level, b, entry)

    def test_runs_keep_one_table_per_level_with_the_value_table(self, policy_builds):
        _value_table.cache_clear()
        p = ProblemInstance(walked_state(GOAL3, 30, 3), GOAL3)
        minimin_run(p, 9)
        rows, _, _, _, policies = _value_table(3, GOAL3.tiles)
        assert [level for level, policy in enumerate(policies) if policy] == [9]
        assert policy_builds == [(rows, 9)]
        for level in range(1, MAX_LOOKAHEAD + 1):
            minimin_run(p, level)
            minimin_trace(p, level)
        assert sorted(level for _, level in policy_builds) == list(range(1, MAX_LOOKAHEAD + 1))
        assert policies[0] is None
        for policy in policies[1:]:
            assert [type(cell) for cell in policy] == [bytes] * 9
            assert sum(map(len, policy)) == 9 * 20160
        _value_table.cache_clear()
        minimin_run(p, 9)
        assert _value_table(3, GOAL3.tiles)[4] is not policies
        assert len(policy_builds) == MAX_LOOKAHEAD + 1


def table_digest(width, goal) -> tuple[bytes, bytes]:
    """SHA-256 over freshly built tables of one (width, goal): the state index's maps, the
    d* rows and parity, the value table's words per ``rows[b][last]`` move and its h rows,
    and bits 0-2 of the policy entries of levels 1-24 (the top move and the full-tree
    flag); then SHA-256 over those whole entries, the ranking of every move."""
    digest = hashlib.sha256()
    parity, ranks, _ = _state_index.__wrapped__(width, goal)
    digest.update(bytes(parity))
    for b, op in sorted(ranks):
        digest.update(bytes((b, op)) + ranks[b, op].tobytes())
    dist, dist_parity = _distance_table.__wrapped__(width, goal)
    digest.update(bytes(dist_parity) + b"".join(map(bytes, dist)))
    rows, h = _value_table.__wrapped__(width, goal)[:2]
    for row in rows:
        for moves in row:
            for op, j, words, _ in moves:
                digest.update(bytes((op, j)) + bytes(words))
    digest.update(b"".join(map(bytes, h)))
    entries = b"".join(b"".join(_policy_table(rows, h, level)) for level in range(1, MAX_LOOKAHEAD + 1))
    digest.update(np.frombuffer(entries, np.uint8) & 7)
    return digest.digest(), hashlib.sha256(entries).digest()


class TestTableBytes:
    def test_tables_keep_their_bytes(self):
        # Recorded from the tables' first builds; any faster build must keep every byte.
        # The policy tables enter the first digest by their top move and flag, which
        # were the whole entry before entries held the rest of the ranking; the second
        # digest, recorded when they did, covers the whole entries.
        digest, rankings = hashlib.sha256(), hashlib.sha256()
        for width in (2, 3):
            for goal in (goal_state(width).tiles, tuple(range(width * width))):
                tables, entries = table_digest(width, goal)
                digest.update(tables)
                rankings.update(entries)
        assert digest.hexdigest() == TABLE_FINGERPRINT
        assert rankings.hexdigest() == RANKING_FINGERPRINT


def assert_table_run_is_the_search(p, level, limits):
    """A run carried as (blank, k) and the search loop's agree in outcome and trace: its
    trace holds the state keys of the search loop's tiles."""
    outcome, trace = minimin_trace(p, level, limits)
    searched = []
    assert minimin._search_loop(p, level, limits, searched) == outcome
    assert [(state_key(tiles), state_key(child)) for tiles, child in searched] == trace
    assert minimin_run(p, level, limits) == outcome
    return outcome, trace


def overrides(trace):
    """Decisions whose executed child, the next decision's tiles, is not the top-ranked one."""
    return sum(child != after for (_, child), (after, _) in zip(trace, trace[1:]))


class TestTableLoop:
    """Runs from the value table's parity class equal the search loop's."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**30),
        level=st.integers(1, MAX_LOOKAHEAD),
    )
    def test_sampled_3x3_runs(self, steps, seed, level):
        p = ProblemInstance(walked_state(GOAL3, steps, seed), GOAL3)
        assert_table_run_is_the_search(p, level, ResourceLimits())

    def test_deep_levels(self):
        for s in sample_states(4, 60, seed=31):
            for level in (17, 20, MAX_LOOKAHEAD):
                assert_table_run_is_the_search(ProblemInstance(s, GOAL3), level, ResourceLimits())

    def test_loop_avoidance_overrides(self):
        # Shallow lookahead from deep states revisits them, so runs take the
        # next-best move, and some never escape before the move cap.
        taken = unsolved = 0
        for seed in range(4):
            p = instance_of_depth(20, 3, seed=seed)
            for level in (1, 2, 3):
                outcome, trace = assert_table_run_is_the_search(p, level, ResourceLimits())
                taken += overrides(trace)
                unsolved += not outcome.solved
        assert taken > 0 and unsolved > 0

    def test_loop_avoidance_takes_the_third_and_fourth_ranked_moves(self):
        # Most overrides take the second-ranked move; the first seeded runs that
        # take the third and the fourth (read from the ranking, not the entry's
        # bits) are run against the search loop.
        rows, h = _value_table(3, GOAL3.tiles)[:2]
        found = {}
        for seed in range(40):
            p = instance_of_depth(20, 3, seed=seed)
            for level in range(1, 13):
                _, trace = minimin_trace(p, level)
                for (key, top), (after, _) in zip(trace, trace[1:]):
                    if after != top:
                        ranked = [child for *_, child in ranked_moves(rows, h, key >> 16, key & 0xFFFF, level)]
                        found.setdefault(ranked.index(after) + 1, (p, level))
            if 3 in found and 4 in found:
                break
        assert 3 in found and 4 in found
        for rank in (3, 4):
            p, level = found[rank]
            assert_table_run_is_the_search(p, level, ResourceLimits())

    def test_node_budget_stops(self):
        for seed in range(3):
            p = instance_of_depth(22, 3, seed=seed)
            for level, budget in ((6, 500), (10, 5_000), (MAX_LOOKAHEAD, 50)):
                outcome, _ = assert_table_run_is_the_search(p, level, ResourceLimits(1000, budget))
                assert not outcome.solved and outcome.time_units >= budget
        # A budget met exactly stops the run before its next decision.
        _, trace = minimin_trace(p, 6, ResourceLimits(1000, 10**9))
        trace = tile_pairs(p.initial.tiles, trace[:5])
        spent = sum(minimin_decide(State(tiles, 3), GOAL3, 6)[2] for tiles, _ in trace)
        outcome, trace = assert_table_run_is_the_search(p, 6, ResourceLimits(1000, spent))
        assert (outcome.time_units, len(trace)) == (spent, 5)

    def test_every_2x2_state_at_every_level(self):
        for tiles in bfs_distances(GOAL2):
            for level in range(1, MAX_LOOKAHEAD + 1):
                p = ProblemInstance(State(tiles, 2), GOAL2)
                assert_table_run_is_the_search(p, level, ResourceLimits())


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
            for tiles, _ in tile_pairs(inst.initial.tiles, states):
                _, _, nodes = minimin_decide(State(tiles, 3), GOAL3, level)
                total += nodes
            assert total == out.time_units

    def test_accounting_conservation_unsolved(self):
        # conservation also holds for capped runs
        inst = instance_of_depth(12, 3, seed=6)
        out, states = minimin_trace(inst, 2, ResourceLimits())
        assert not out.solved
        total = 0
        for tiles, _ in tile_pairs(inst.initial.tiles, states):
            _, _, nodes = minimin_decide(State(tiles, 3), GOAL3, 2)
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

    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**30),
        level=st.integers(1, 4),
        max_moves=st.integers(1, 100),
        node_budget=st.integers(1, 10_000),
    )
    def test_width4_runs_equal_the_oracle(self, steps, seed, level, max_moves, node_budget):
        # A 4x4 run carries one board and its h from decision to decision, and
        # reuses a revisited state's decision; it must move, count, stop and
        # trace as a run that re-derives and re-searches each state.
        s = walked_state(GOAL4, steps, seed)
        outcome, trace = minimin_trace(ProblemInstance(s, GOAL4), level, ResourceLimits(max_moves, node_budget))
        got = (outcome.path_length, outcome.time_units, outcome.space_units, outcome.solved)
        assert (got, trace) == minimin_run_oracle(s, GOAL4, level, max_moves, node_budget)

    @settings(max_examples=30, deadline=None)
    @given(
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**30),
        level=st.integers(5, 7),
        max_moves=st.integers(1, 12),
        node_budget=st.integers(1, 200_000),
    )
    def test_width4_runs_at_the_benchmark_levels_equal_the_oracle(self, steps, seed, level, max_moves, node_budget):
        # The levels of the benchmark's slower runs, with short move caps to
        # keep the oracle's re-searches cheap.
        s = walked_state(GOAL4, steps, seed)
        outcome, trace = minimin_trace(ProblemInstance(s, GOAL4), level, ResourceLimits(max_moves, node_budget))
        got = (outcome.path_length, outcome.time_units, outcome.space_units, outcome.solved)
        assert (got, trace) == minimin_run_oracle(s, GOAL4, level, max_moves, node_budget)

    def test_width5_runs_equal_the_oracle(self):
        # A 5x5 run keys its states by 5 bits per cell, not 4.  One walk is
        # solved and the other stops at the move cap; at levels 1 and 2 both
        # runs override moves.
        goal = goal_state(5)
        limits = ResourceLimits(40, 10**6)
        for steps, seed in ((14, 2), (16, 3)):
            s = walked_state(goal, steps, seed)
            for level in (1, 2, 3):
                outcome, trace = minimin_trace(ProblemInstance(s, goal), level, limits)
                got = (outcome.path_length, outcome.time_units, outcome.space_units, outcome.solved)
                assert (got, trace) == minimin_run_oracle(s, goal, level, limits.max_moves, limits.node_budget)
                assert overrides(trace) > 0 or level == 3

    @pytest.mark.parametrize("width, bits, steps, seed, level", [(4, 4, 20, 4, 2), (5, 5, 14, 2, 2)])
    def test_search_loop_keys_states_by_packed_tiles(self, width, bits, steps, seed, level):
        # Tile t at cell c adds t << bits * c: every tile fits in its field,
        # so no two states share a key.  These runs are solved after
        # overrides, so they enter each decided state and the goal.
        goal = goal_state(width)
        s = walked_state(goal, steps, seed)
        visits, trace = [], []

        def hook(frame, event, arg):
            if event == "return" and frame.f_code is minimin._search_loop.__code__:
                visits.append(frame.f_locals["visits"])

        sys.setprofile(hook)
        try:
            outcome = minimin._search_loop(ProblemInstance(s, goal), level, ResourceLimits(), trace)
        finally:
            sys.setprofile(None)
        assert outcome.solved and overrides(trace) > 0
        entered = {tiles for tiles, _ in trace} | {goal.tiles}
        assert set(visits[0]) == {sum(t << bits * c for c, t in enumerate(tiles)) for tiles in entered}

    def test_width4_run_searches_each_state_once(self, monkeypatch):
        # A level-4 run that wanders to the move cap re-enters states.  It
        # searches each distinct state once, charges every decision its
        # count as the oracle does, and keeps nothing for the next run.
        calls = []
        searched = minimin._ranked_decisions
        monkeypatch.setattr(
            minimin, "_ranked_decisions", lambda *args: calls.append(args) or searched(*args)
        )
        s = walked_state(GOAL4, 30, 7)
        limits = ResourceLimits(100, 10**6)
        expected = minimin_run_oracle(s, GOAL4, 4, limits.max_moves, limits.node_budget)
        searches = []
        for _ in range(2):
            calls.clear()
            outcome, trace = minimin_trace(ProblemInstance(s, GOAL4), 4, limits)
            got = (outcome.path_length, outcome.time_units, outcome.space_units, outcome.solved)
            assert (got, trace) == expected
            searches.append(len(calls))
        assert got == (100, 5825, 72, False)
        assert overrides(trace) > 0
        assert searches == [len({tiles for tiles, _ in trace})] * 2 == [66, 66]
        assert len(trace) == 100

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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: minimin_decide(goal_state(2), goal_state(3), 2), "different widths"),
        (
            lambda: decision_accuracy(2, [random_walk(goal_state(3), 6, 1), goal_state(3)], goal_state(3)),
            "sample contains the goal",
        ),
    ],
    ids=["decide-2x2-state-3x3-goal", "accuracy-sample-holds-goal"],
)
def test_decision_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
