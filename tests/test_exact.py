import random
from collections import Counter
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eusearch.exact as exact
import eusearch.minimin as minimin
import eusearch.puzzle as puzzle
from eusearch.exact import (
    BudgetExhausted,
    ExactResult,
    GenerationFailed,
    _UNREACHED,
    _distance_table,
    _state_index,
    bfs_optimal,
    exact_distance,
    idastar,
    instance_of_depth,
)
from eusearch.minimin import _value_table
from eusearch.puzzle import (
    Op,
    ProblemInstance,
    State,
    _reachable_parity,
    _state_key,
    goal_state,
    make_state,
    random_walk,
)
from oracles import (
    apply_op,
    bfs_distances,
    cell_moves,
    cycle_parity,
    idastar_oracle,
    inverse,
    lehmer_rank,
    manhattan_tally,
    replay,
)

GOAL2 = goal_state(2)
GOAL3 = goal_state(3)
GOAL4 = goal_state(4)


def seeded_instances(count, max_steps, seed=0):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        s = random_walk(GOAL3, rng.randrange(max_steps + 1), seed=rng.randrange(1 << 30))
        out.append(ProblemInstance(s, GOAL3))
    return out


class TestBfs:
    def test_identity_instance(self):
        r = bfs_optimal(ProblemInstance(GOAL3, GOAL3))
        assert r.length == 0 and r.path.moves == ()

    def test_one_move(self):
        s = random_walk(GOAL3, 1, seed=3)
        r = bfs_optimal(ProblemInstance(s, GOAL3))
        assert r.length == 1

    def test_path_replays_to_goal(self):
        inst = seeded_instances(1, 18, seed=5)[0]
        r = bfs_optimal(inst)
        assert replay(inst.initial, r.path.moves) == GOAL3

    def test_budget_exhaustion(self):
        inst = ProblemInstance(random_walk(GOAL3, 20, seed=9), GOAL3)
        with pytest.raises(BudgetExhausted):
            bfs_optimal(inst, node_budget=10)

    def test_2x2_minimality_exhaustive(self):
        goal = goal_state(2)
        for tiles, true_d in bfs_distances(goal).items():
            r = bfs_optimal(ProblemInstance(State(tiles, 2), goal))
            assert r.length == true_d
            assert replay(State(tiles, 2), r.path.moves) == goal


class TestIdastar:
    def test_identity_instance(self):
        r = idastar(ProblemInstance(GOAL3, GOAL3))
        assert r.length == 0 and r.nodes_generated == 0

    def test_agrees_with_bfs(self):
        for inst in seeded_instances(20, 16, seed=1):
            assert idastar(inst).length == bfs_optimal(inst).length

    def test_path_replays_to_goal(self):
        inst = seeded_instances(1, 20, seed=8)[0]
        r = idastar(inst)
        assert replay(inst.initial, r.path.moves) == GOAL3

    def test_2x2_minimality_exhaustive(self):
        goal = goal_state(2)
        for tiles, true_d in bfs_distances(goal).items():
            r = idastar(ProblemInstance(State(tiles, 2), goal))
            assert r.length == true_d

    def test_budget_monotone(self):
        inst = ProblemInstance(random_walk(GOAL3, 14, seed=4), GOAL3)
        small = idastar(inst, node_budget=10_000_000)
        large = idastar(inst, node_budget=50_000_000)
        assert small.length == large.length
        assert small.path.moves == large.path.moves

    def test_budget_exhaustion(self):
        inst = ProblemInstance(random_walk(GOAL3, 24, seed=6), GOAL3)
        with pytest.raises(BudgetExhausted):
            idastar(inst, node_budget=5)

    def test_deterministic_node_counts(self):
        inst = seeded_instances(1, 16, seed=13)[0]
        a = idastar(inst)
        b = idastar(inst)
        assert (a.length, a.nodes_generated, a.peak_stored) == (
            b.length,
            b.nodes_generated,
            b.peak_stored,
        )

    @pytest.mark.parametrize("tiles, expected", [
        ((6, 5, 3, 4, 7, 2, 1, 8, 0), (24, 11742, 25, "LURULLDRURDLULDDRUULDRDR")),
        ((6, 1, 5, 7, 0, 8, 2, 3, 4), (22, 1291, 23, "DRULLDRUULDRURDLULDDRR")),
        ((6, 8, 5, 2, 1, 4, 10, 7, 0, 13, 3, 11, 14, 9, 15, 12),
         (32, 15786, 33, "RDLURRUULDRRULLLDRDRURULDLURDDRD")),
        ((7, 0, 2, 8, 1, 13, 4, 10, 5, 9, 3, 14, 15, 6, 12, 11),
         (33, 2428, 34, "LDDRUURDDRUULDLLDRDLUURDRRDLLURRD")),
        ((6, 5, 9, 3, 13, 2, 11, 10, 1, 8, 15, 4, 14, 12, 7, 0),
         (42, 570668, 43, "LLULUURDDRUULDRRDDLLUURDDLLURULURRRDDLURDD")),
    ])
    def test_pinned_results(self, tiles, expected):
        # Length, nodes generated, peak stored and path, as ``eusearch solve`` prints them.
        initial = make_state(tiles)
        r = idastar(ProblemInstance(initial, goal_state(initial.width)))
        assert (r.length, r.nodes_generated, r.peak_stored, r.path.letters) == expected

    @given(
        width=st.sampled_from((2, 3, 4)),
        steps=st.integers(0, 40),
        seed=st.integers(0, 10_000),
        budget=st.sampled_from((1, 20, 300, 3_000, 20_000)),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_tuple_walking_oracle(self, width, steps, seed, budget):
        # Same length, counts and path, or the same exception, on the same budget;
        # a solved search also on a budget of exactly its node count, and one less.
        goal = goal_state(width)
        inst = ProblemInstance(random_walk(goal, steps, seed), goal)

        def both(budget):
            results = []
            for solve in (idastar_oracle, idastar):
                try:
                    r = solve(inst, node_budget=budget)
                except BudgetExhausted:
                    r = BudgetExhausted
                if isinstance(r, ExactResult):
                    r = (r.length, r.nodes_generated, r.peak_stored, r.path.letters)
                results.append(r)
            assert results[0] == results[1]
            return results[0]

        expected = both(budget)
        if expected is not BudgetExhausted and expected[1]:
            assert both(expected[1]) == expected
            assert both(expected[1] - 1) is BudgetExhausted

    def test_walk30_regression(self):
        # fixed-seed 30-step walk; d* frozen from the BFS oracle
        s = random_walk(GOAL3, 30, seed=30)
        inst = ProblemInstance(s, GOAL3)
        bfs_len = bfs_optimal(inst).length
        assert idastar(inst).length == bfs_len
        assert bfs_len == WALK30_DSTAR


# Frozen once from bfs_optimal on random_walk(goal3, 30, seed=30).
WALK30_DSTAR = 24


def swapped(goal, a, b):
    """``goal`` with two tiles exchanged: the other parity class."""
    tiles = list(goal.tiles)
    tiles[a], tiles[b] = tiles[b], tiles[a]
    return State(tuple(tiles), goal.width)


# Every 2x2 state of the parity class that cannot reach the goal.
OTHER_2X2 = [State(p, 2) for p in sorted(set(permutations(range(4))) - set(bfs_distances(GOAL2)))]


class TestExactDistance:
    def test_every_3x3_state(self, distances3):
        assert len(distances3) == 181_440
        for tiles, d in distances3.items():
            assert exact_distance(ProblemInstance(State(tiles, 3), GOAL3)) == d

    def test_3x3_histogram_ends_at_31(self, distances3):
        hist = Counter(exact_distance(ProblemInstance(State(tiles, 3), GOAL3)) for tiles in distances3)
        assert sum(hist.values()) == 181_440
        assert max(hist) == 31 and hist[31] == 2
        assert sorted(hist) == list(range(32))
        rows = _distance_table(3, GOAL3.tiles)
        assert all(max(row) < _UNREACHED for row in rows)  # every (blank, k) reached

    def test_every_2x2_state(self):
        goal = goal_state(2)
        truth = bfs_distances(goal)
        assert len(truth) == 12
        for tiles, d in truth.items():
            assert exact_distance(ProblemInstance(State(tiles, 2), goal)) == d

    def test_every_state_of_a_blank_first_goal(self):
        # The goal's blank cell and tile order set its index's parity and k.
        goal = State((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
        truth = bfs_distances(goal)
        assert len(truth) == 181_440
        for tiles, d in truth.items():
            assert exact_distance(ProblemInstance(State(tiles, 3), goal)) == d

    def test_other_goal_matches_idastar(self):
        # Tables are per goal: a blank-first goal gets its own.
        goal = State((0, 1, 2, 3, 4, 5, 6, 7, 8), 3)
        rng = random.Random(17)
        for _ in range(30):
            s = random_walk(goal, rng.randrange(25), seed=rng.randrange(1 << 30))
            p = ProblemInstance(s, goal)
            assert exact_distance(p) == idastar(p).length

    def test_width4_matches_idastar(self):
        rng = random.Random(4)
        for _ in range(15):
            s = random_walk(GOAL4, rng.randrange(1, 25), seed=rng.randrange(1 << 30))
            p = ProblemInstance(s, GOAL4)
            assert exact_distance(p) == idastar(p).length

    @pytest.mark.parametrize(
        "goal, states",
        [pytest.param(g, [swapped(g, 0, 1)], id=str(g.width)) for g in (GOAL2, GOAL3, GOAL4)]
        + [pytest.param(GOAL2, OTHER_2X2, id="2-every")],
    )
    def test_unreachable_state_raises(self, goal, states):
        # The query takes an instance, so the instance refuses the state before any lookup.
        for s in states:
            with pytest.raises(ValueError, match="not reachable"):
                exact_distance(ProblemInstance(s, goal))

    def test_width_mismatch_raises(self):
        with pytest.raises(ValueError, match="different widths"):
            exact_distance(ProblemInstance(apply_op(GOAL3, Op.UP), GOAL4))
        with pytest.raises(ValueError, match="different widths"):
            exact_distance(ProblemInstance(goal_state(2), GOAL3))


class TestInstanceOfDepth:
    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            instance_of_depth(-1)

    def test_depth_zero(self):
        inst = instance_of_depth(0, width=3, seed=0)
        assert inst.initial == inst.goal

    def test_depth_one(self):
        inst = instance_of_depth(1, width=3, seed=0)
        assert manhattan_tally(inst.initial, GOAL3) == 1

    def test_depth_verified_exactly(self):
        for d in (5, 10, 19):
            inst = instance_of_depth(d, width=3, seed=42)
            assert idastar(inst).length == d

    def test_instances_of_a_width_share_one_goal(self):
        for width, d in ((2, 3), (3, 12), (4, 6)):
            a, b = (instance_of_depth(d, width=width, seed=seed) for seed in (1, 2))
            assert a.initial != b.initial and a.goal is b.goal is goal_state(width)

    def test_deterministic(self):
        a = instance_of_depth(12, width=3, seed=7)
        b = instance_of_depth(12, width=3, seed=7)
        assert a.initial == b.initial

    def test_generation_failure(self):
        with pytest.raises(GenerationFailed):
            instance_of_depth(19, width=3, seed=0, attempts=1)

    def test_width_4(self):
        inst = instance_of_depth(8, width=4, seed=3)
        assert idastar(inst).length == 8

    def test_width_4_verification_out_of_budget_names_the_depth(self, monkeypatch):
        def out_of_budget(p, node_budget=exact.DEFAULT_NODE_BUDGET):
            raise BudgetExhausted(f"idastar exceeded node budget of {node_budget}")

        monkeypatch.setattr(exact, "idastar", out_of_budget)
        message = "depth-8 attempt 0 could not be verified (width 4, seed 3): idastar exceeded node budget of 50000000"
        with pytest.raises(GenerationFailed) as failed:
            instance_of_depth(8, width=4, seed=3)
        assert str(failed.value) == message
        assert isinstance(failed.value.__cause__, BudgetExhausted)

    @pytest.mark.parametrize("depth", [8, 16, 24])
    def test_an_attempt_reads_one_state_key(self, monkeypatch, depth):
        # Each attempt builds one instance, whose key the d* lookup reads, and
        # the accepted attempt returns that instance: one key read per walk.
        _distance_table(3, GOAL3.tiles)
        for b in range(9):
            _reachable_parity(GOAL3.tiles, b)
        walks, reads = [], []

        def walk(*args):
            walks.append(args)
            return random_walk(*args)

        def key(tiles):
            reads.append(tiles)
            return _state_key(tiles)

        monkeypatch.setattr(exact, "random_walk", walk)
        monkeypatch.setattr(exact, "_state_key", key)
        monkeypatch.setattr(puzzle, "_state_key", key)
        p = instance_of_depth(depth, 3, seed=depth)
        assert len(reads) == len(walks) > 0
        assert exact_distance(p) == depth


def oracle_key(tiles):
    """A state's (blank, k, parity) from the oracles: k is its tile order's rank >> 1."""
    order = [t - 1 for t in tiles if t]
    return tiles.index(0), lehmer_rank(order) >> 1, cycle_parity(order)


class TestStateKey:
    def test_every_2x2_permutation(self):
        for tiles in permutations(range(4)):
            assert _state_key(tiles) == oracle_key(tiles)

    def test_every_3x3_order_with_the_blank_in_the_middle(self):
        for order in permutations(range(1, 9)):
            tiles = order[:4] + (0,) + order[4:]
            assert _state_key(tiles) == oracle_key(tiles)

    @given(st.permutations(range(9)))
    def test_3x3_sample_over_every_blank_cell(self, tiles):
        assert _state_key(tuple(tiles)) == oracle_key(tuple(tiles))

    def test_an_instance_keeps_its_start_k(self):
        for width in (2, 3, 4):
            goal = goal_state(width)
            for seed in range(20):
                p = ProblemInstance(random_walk(goal, seed, seed), goal)
                assert p.k == _state_key(p.initial.tiles)[1]

    def test_a_replaced_start_gets_its_own_k(self):
        p = ProblemInstance(random_walk(GOAL3, 20, 3), GOAL3)
        start = random_walk(GOAL3, 21, 4)
        moved = replace(p, initial=start)
        assert moved.k == _state_key(start.tiles)[1] != p.k
        with pytest.raises(ValueError, match="not reachable"):
            replace(p, initial=swapped(start, start.tiles.index(1), start.tiles.index(2)))


class TestStateIndex:
    @pytest.mark.parametrize("width", [2, 3])
    def test_every_move_maps_k_to_the_childs(self, width, distances3):
        goal = goal_state(width)
        states = distances3 if width == 3 else bfs_distances(goal)
        ranks, h = _state_index(width, goal.tiles)
        assert set(ranks) == {(b, op) for b in range(width * width) for op, _ in cell_moves(width, b)}
        k = {tiles: oracle_key(tiles)[1] for tiles in states}
        for tiles in states:
            b = tiles.index(0)
            assert h[b][k[tiles]] == manhattan_tally(State(tiles, width), goal)
            for op, j in cell_moves(width, b):
                child = list(tiles)
                child[b], child[j] = child[j], 0
                assert ranks[b, op][k[tiles]] == k[tuple(child)]
        assert not any(m.flags.writeable for m in (*ranks.values(), *h))
        horizontal = {id(m) for (_, op), m in ranks.items() if op in (Op.LEFT, Op.RIGHT)}
        assert len(horizontal) == 1
        assert all(len(m) == len(states) // width**2 for m in ranks.values())

    @pytest.mark.parametrize("width", [2, 3])
    def test_each_vertical_move_back_inverts_the_move(self, width):
        goal = goal_state(width)
        ranks, _ = _state_index.__wrapped__(width, goal.tiles)
        vertical = [(b, op, j) for b in range(width**2) for op, j in cell_moves(width, b) if abs(j - b) > 1]
        assert len(vertical) == 2 * width * (width - 1)
        for b, op, j in vertical:
            there = ranks[b, op]
            assert np.array_equal(ranks[j, inverse(op)][there], np.arange(len(there)))

    def test_the_tile_orders_are_built_once_per_goal(self, monkeypatch):
        # The index sums h beside its maps, so the value table builds no orders of its own.
        builds = []
        build = exact._tile_orders

        def spy(cells):
            builds.append(cells)
            return build(cells)

        monkeypatch.setattr(exact, "_tile_orders", spy)
        monkeypatch.setattr(minimin, "_tile_orders", spy, raising=False)  # should minimin import it again
        for table in (_state_index, _distance_table, _value_table):
            table.cache_clear()
        _distance_table(3, GOAL3.tiles)
        _value_table(3, GOAL3.tiles)
        assert builds == [9]

    def test_generation_builds_no_value_table(self, policy_builds):
        _value_table.cache_clear()
        instance_of_depth(20, 3, seed=1)
        assert _value_table.cache_info().currsize == 0
        assert policy_builds == []
