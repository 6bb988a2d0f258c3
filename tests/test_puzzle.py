import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eusearch.puzzle import (
    _ROOT,
    Op,
    ProblemInstance,
    State,
    delta_moves,
    dist_table,
    format_state,
    goal_state,
    is_reachable,
    make_state,
    manhattan,
    moves_after,
    parse_state,
    random_walk,
)
from oracles import (
    apply_op,
    bfs_distances,
    cell_moves,
    cycle_count_reachable,
    inverse,
    legal_ops,
    manhattan_tally,
    random_walk_oracle,
    tile_distance,
)

GOAL3 = goal_state(3)


def walk_states(width: int, seed: int, count: int, max_steps: int = 40) -> list[State]:
    rng = random.Random(seed)
    goal = goal_state(width)
    return [
        random_walk(goal, rng.randrange(max_steps + 1), seed=rng.randrange(1 << 30))
        for _ in range(count)
    ]


class TestState:
    def test_goal_layout(self):
        assert GOAL3.tiles == (1, 2, 3, 4, 5, 6, 7, 8, 0)
        assert GOAL3.blank == 8

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            State((1, 1, 2, 3, 4, 5, 6, 7, 8), 3)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            State((1, 0), 1)

    def test_parse_round_trip(self):
        s = parse_state("1 2 3 4 5 6 7 8 0")
        assert s == GOAL3
        assert parse_state(format_state(s)) == s

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_state("1 2 3 4")  # wrong count for any board? 4 = 2x2, but dupes
        with pytest.raises(ValueError):
            parse_state("1 2 3 4 5 6 7 8")  # not a square count
        with pytest.raises(ValueError):
            parse_state("1 2 3 4 5 6 7 8 8 0 11 12 13 14 15 10")
        with pytest.raises(ValueError):
            parse_state("one 2 3 0")
        with pytest.raises(ValueError):
            parse_state("")

    def test_parse_infers_width(self):
        assert parse_state("0 1 2 3").width == 2
        assert parse_state("1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 0").width == 4


class TestOps:
    """The oracles' move rule against facts worked out by hand."""

    def test_corner_has_two_ops(self):
        # blank bottom-right corner of the 3x3 goal
        assert len(legal_ops(GOAL3)) == 2

    def test_center_has_four_ops(self):
        s = make_state([1, 2, 3, 4, 0, 5, 6, 7, 8])
        assert len(legal_ops(s)) == 4

    def test_edge_has_three_ops(self):
        s = make_state([1, 2, 3, 4, 5, 6, 7, 0, 8])
        assert len(legal_ops(s)) == 3

    def test_2x2_always_two_ops(self):
        for tiles in bfs_distances(goal_state(2)):
            assert len(legal_ops(State(tiles, 2))) == 2

    def test_2x2_reachable_space_is_12(self):
        assert len(bfs_distances(goal_state(2))) == 12

    def test_apply_single_swap(self):
        # goal 3x3, blank bottom-right; moving the blank Left swaps tile 8
        s = apply_op(GOAL3, Op.LEFT)
        assert s.tiles == (1, 2, 3, 4, 5, 6, 7, 0, 8)

    def test_apply_illegal_raises(self):
        with pytest.raises(ValueError, match="DOWN moves the blank off the board"):
            apply_op(GOAL3, Op.DOWN)

    def test_apply_then_inverse_restores(self):
        assert [inverse(op) for op in Op] == [Op.DOWN, Op.UP, Op.RIGHT, Op.LEFT]
        for s in walk_states(3, seed=1, count=20):
            for op in legal_ops(s):
                assert apply_op(apply_op(s, op), inverse(op)) == s

    def test_op_letters(self):
        assert [o.letter for o in Op] == ["U", "D", "L", "R"]


class TestManhattan:
    def test_goal_is_zero(self):
        assert manhattan(GOAL3, GOAL3) == 0

    def test_one_move_is_one(self):
        for op in legal_ops(GOAL3):
            assert manhattan(apply_op(GOAL3, op), GOAL3) == 1

    def test_matches_independent_tally(self):
        scrambled = make_state([8, 6, 7, 2, 5, 4, 3, 0, 1])
        assert manhattan(scrambled, GOAL3) == manhattan_tally(scrambled, GOAL3)
        for s in walk_states(3, seed=2, count=50):
            assert manhattan(s, GOAL3) == manhattan_tally(s, GOAL3)

    def test_admissible_on_2x2(self):
        goal = goal_state(2)
        for tiles, d in bfs_distances(goal).items():
            assert manhattan(State(tiles, 2), goal) <= d

    def test_consistency_step_of_one(self):
        for s in walk_states(3, seed=3, count=30):
            h = manhattan(s, GOAL3)
            for op in legal_ops(s):
                hn = manhattan(apply_op(s, op), GOAL3)
                assert abs(h - hn) <= 1


class TestReachability:
    def test_goal_reaches_itself(self):
        assert is_reachable(GOAL3, GOAL3)

    def test_swap_two_tiles_unreachable(self):
        swapped = make_state([2, 1, 3, 4, 5, 6, 7, 8, 0])
        assert not is_reachable(swapped, GOAL3)
        with pytest.raises(ValueError):
            ProblemInstance(swapped, GOAL3)

    def test_apply_preserves_class(self):
        for s in walk_states(3, seed=4, count=30):
            assert is_reachable(s, GOAL3)
            for op in legal_ops(s):
                assert is_reachable(apply_op(s, op), GOAL3)

    def test_matches_2x2_enumeration(self):
        # Every 2x2 state against every 2x2 goal.
        for goal_tiles in permutations(range(4)):
            goal = State(goal_tiles, 2)
            reachable = set(bfs_distances(goal))
            for tiles in permutations(range(4)):
                assert is_reachable(State(tiles, 2), goal) == (tiles in reachable)

    def test_every_3x3_permutation(self, distances3):
        # The BFS set is the default goal's class.  The blank-first goal with
        # tiles 1 and 2 swapped lies in the other class, so it reaches the rest.
        other = State((0, 2, 1, 3, 4, 5, 6, 7, 8), 3)
        assert other.tiles not in distances3
        for tiles in permutations(range(9)):
            s = State(tiles, 3)
            reachable = tiles in distances3
            assert is_reachable(s, GOAL3) == reachable
            assert is_reachable(s, other) != reachable

    def test_sampled_4x4_pairs_match_the_cycle_count(self):
        rng = random.Random(14)
        outcomes = set()
        for _ in range(5000):
            a, b = (State(tuple(rng.sample(range(16), 16)), 4) for _ in range(2))
            reachable = cycle_count_reachable(a, b)
            assert is_reachable(a, b) == reachable
            outcomes.add(reachable)
        assert outcomes == {False, True}


class TestRandomWalk:
    def test_zero_steps_is_goal(self):
        assert random_walk(GOAL3, 0, seed=5) == GOAL3

    def test_one_step_is_neighbor(self):
        s = random_walk(GOAL3, 1, seed=6)
        assert manhattan(s, GOAL3) == 1

    def test_deterministic(self):
        assert random_walk(GOAL3, 25, seed=7) == random_walk(GOAL3, 25, seed=7)
        assert random_walk(GOAL3, 25, seed=7) != random_walk(GOAL3, 25, seed=8)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            random_walk(GOAL3, -1, seed=0)

    @pytest.mark.parametrize("width, steps, seed, tiles", [
        (2, 7, 1, (2, 3, 0, 1)),
        (3, 30, 11, (3, 8, 0, 2, 1, 6, 5, 4, 7)),
        (3, 31, 4, (6, 8, 2, 0, 3, 7, 5, 1, 4)),
        (4, 50, 5, (11, 13, 4, 3, 2, 1, 6, 0, 5, 9, 7, 8, 10, 14, 15, 12)),
        (4, 80, 2, (10, 2, 6, 15, 1, 0, 4, 5, 13, 14, 12, 9, 11, 8, 3, 7)),
    ])
    def test_pinned_walks(self, width, steps, seed, tiles):
        assert random_walk(goal_state(width), steps, seed).tiles == tiles

    @given(width=st.integers(2, 4), steps=st.integers(0, 80), seed=st.integers(0, 2**64))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_choice_oracle(self, width, steps, seed):
        goal = goal_state(width)
        assert random_walk(goal, steps, seed) == random_walk_oracle(goal, steps, seed)

    @given(steps=st.integers(0, 30), seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_walk_stays_reachable_and_bounded(self, steps, seed):
        s = random_walk(GOAL3, steps, seed=seed)
        assert is_reachable(s, GOAL3)
        assert manhattan(s, GOAL3) <= steps


class TestMovesAfter:
    """The move tables that every search of the package reads, on every cell,
    against the oracles' row and column arithmetic."""

    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    def test_every_move_but_the_inverse_of_arrival(self, width):
        after = moves_after(width)
        assert len(after) == width * width
        for b in range(width * width):
            moves = cell_moves(width, b)
            assert after[b][_ROOT] == moves
            for last in Op:
                assert after[b][last] == tuple((op, j) for op, j in moves if op != inverse(last))


class TestDeltaMoves:
    @pytest.mark.parametrize("width", [2, 3, 4, 5])
    @pytest.mark.parametrize("blank_first", [False, True])
    def test_rows_are_moves_after_with_each_slides_h_step(self, width, blank_first):
        goal = goal_state(width)
        if blank_first:  # another goal: the blank in the first cell
            goal = State((0,) + goal.tiles[:-1], width)
        cells = range(width * width)
        dists = dist_table(width, goal.tiles)
        assert [list(row) for row in dists] == [[tile_distance(goal, t, i) for i in cells] for t in cells]
        rows = delta_moves(width, goal.tiles)
        for b, after in enumerate(moves_after(width)):
            for last in range(_ROOT + 1):
                assert tuple((op, j) for op, j, _ in rows[b][last]) == after[last]
            for op, j, delta in rows[b][_ROOT]:
                assert delta == tuple(
                    tile_distance(goal, t, b) - tile_distance(goal, t, j) if t else 0 for t in cells
                )
        for s in walk_states(width, seed=width, count=30):
            for op, j, delta in rows[s.blank][_ROOT]:
                step = manhattan_tally(apply_op(s, op), goal) - manhattan_tally(s, goal)
                assert step == delta[s.tiles[j]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: manhattan(goal_state(2), goal_state(3)),
        lambda: is_reachable(goal_state(2), goal_state(3)),
        lambda: ProblemInstance(goal_state(3), goal_state(2)),
    ],
    ids=["manhattan", "is_reachable", "ProblemInstance"],
)
def test_states_of_different_widths_are_rejected(call):
    with pytest.raises(ValueError, match="different widths"):
        call()
