"""Exact shortest-path solvers and verified-depth instance generation.

``bfs_optimal`` is the brute-force oracle; ``idastar`` is the working exact
solver (memory-linear, deterministic Up < Down < Left < Right expansion
order).  ``exact_distance`` answers true-distance queries: from a table of
every state's distance for width <= 3, with ``idastar`` for width 4.
``instance_of_depth`` rejection-samples random walks until the verified
optimal depth matches the target exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .puzzle import (
    _COL_DELTA,
    _INVERSE,
    _ROW_DELTA,
    Op,
    ProblemInstance,
    SolutionPath,
    State,
    dist_table,
    goal_state,
    manhattan,
    moves_table,
    random_walk,
)
from .seeds import subseed

DEFAULT_NODE_BUDGET = 50_000_000
# Widest board whose distances are tabulated: 9! entries at width 3, 16! at 4.
_TABLE_MAX_WIDTH = 3
_UNREACHED = 255
# States expanded per numpy step while building a table; bounds temporaries.
_BFS_CHUNK = 4096


class BudgetExhausted(Exception):
    """The node-generation budget ran out before the goal was found."""


class GenerationFailed(Exception):
    """No instance of the requested depth was found within the attempt limit."""


@dataclass(frozen=True)
class ExactResult:
    """A provably shortest path plus the search effort that produced it."""

    path: SolutionPath
    nodes_generated: int
    peak_stored: int

    @property
    def length(self) -> int:
        return self.path.length


def bfs_optimal(p: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Breadth-first search with duplicate detection; exact but memory-hungry.

    Intended for width <= 3 or shallow 4x4 instances.
    """
    start = p.initial.tiles
    goal = p.goal.tiles
    if start == goal:
        return ExactResult(SolutionPath(()), 0, 1)
    table = moves_table(p.width)
    visited: dict[tuple[int, ...], tuple[tuple[int, ...] | None, int]] = {
        start: (None, -1)
    }
    frontier: deque[tuple[tuple[int, ...], int]] = deque([(start, start.index(0))])
    generated = 0
    while frontier:
        tiles, blank = frontier.popleft()
        for op, j in table[blank]:
            generated += 1
            if generated > node_budget:
                raise BudgetExhausted(
                    f"bfs exceeded node budget of {node_budget}"
                )
            child = list(tiles)
            child[blank], child[j] = child[j], child[blank]
            child_t = tuple(child)
            if child_t in visited:
                continue
            visited[child_t] = (tiles, op)
            if child_t == goal:
                return ExactResult(
                    _reconstruct(visited, child_t), generated, len(visited)
                )
            frontier.append((child_t, j))
    raise BudgetExhausted("state space exhausted without reaching the goal")


def _reconstruct(
    visited: dict[tuple[int, ...], tuple[tuple[int, ...] | None, int]],
    end: tuple[int, ...],
) -> SolutionPath:
    ops: list[Op] = []
    cur: tuple[int, ...] | None = end
    while cur is not None:
        parent, op = visited[cur]
        if parent is None:
            break
        ops.append(Op(op))
        cur = parent
    ops.reverse()
    return SolutionPath(tuple(ops))


def idastar(p: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Iterative-deepening A* on Manhattan distance; returns a shortest path.

    The heuristic is updated incrementally from the one tile each move slides.
    """
    start = p.initial.tiles
    goal = p.goal.tiles
    if start == goal:
        return ExactResult(SolutionPath(()), 0, 1)

    table = moves_table(p.width)
    dists = dist_table(p.width, goal)

    generated = 0
    peak_depth = 0
    path_ops: list[int] = []
    found = False
    INF = float("inf")

    def dfs(tiles: tuple[int, ...], blank: int, g: int, hval: int, bound: int, last_op: int) -> float:
        nonlocal generated, peak_depth, found
        f = g + hval
        if f > bound:
            return f
        if tiles == goal:
            found = True
            return f
        next_bound = INF
        for op, j in table[blank]:
            if last_op >= 0 and op == _INVERSE[last_op]:
                continue
            generated += 1
            if generated > node_budget:
                raise BudgetExhausted(f"idastar exceeded node budget of {node_budget}")
            child = list(tiles)
            child[blank], child[j] = child[j], child[blank]
            child_t = tuple(child)
            moved = tiles[j]
            child_h = hval + dists[moved][blank] - dists[moved][j]
            if g + 1 > peak_depth:
                peak_depth = g + 1
            path_ops.append(op)
            t = dfs(child_t, j, g + 1, child_h, bound, op)
            if found:
                return t
            path_ops.pop()
            if t < next_bound:
                next_bound = t
        return next_bound

    h0 = sum(dists[t][i] for i, t in enumerate(start) if t)
    bound = h0
    blank0 = start.index(0)
    while True:
        t = dfs(start, blank0, 0, h0, bound, -1)
        if found:
            return ExactResult(
                SolutionPath(tuple(Op(o) for o in path_ops)),
                generated,
                peak_depth + 1,
            )
        if t == INF:
            raise BudgetExhausted("no solution within any bound (unreachable goal?)")
        bound = int(t)


def _lehmer_rank(tiles: tuple[int, ...]) -> int:
    """Lexicographic rank of a permutation of 0..n-1 (its Lehmer code)."""
    n = len(tiles)
    rank = 0
    seen = 0  # bit t set once tile t has been ranked
    for i in range(n - 1):
        t = tiles[i]
        # Tiles after position i that are smaller than t: t minus those before it.
        rank = rank * (n - i) + t - (seen & ((1 << t) - 1)).bit_count()
        seen |= 1 << t
    return rank


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """``_lehmer_rank`` of each row of ``perms``."""
    n = perms.shape[1]
    ranks = np.zeros(len(perms), dtype=np.int64)
    for i in range(n - 1):
        ranks = ranks * (n - i) + (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
    return ranks


@lru_cache(maxsize=4)
def _distance_table(width: int, goal: tuple[int, ...]) -> memoryview:
    """Distance to ``goal`` of every permutation, indexed by Lehmer rank.

    Built by breadth-first search from the goal, ``_BFS_CHUNK`` states at a
    time; unreachable permutations hold ``_UNREACHED``.  The read-only view
    indexes to plain ints.
    """
    table = bytearray([_UNREACHED]) * factorial(width * width)
    dist = np.frombuffer(table, dtype=np.uint8)
    frontier = np.array([goal], dtype=np.uint8)
    dist[_lehmer_ranks(frontier)] = 0
    depth = 0
    while len(frontier):
        depth += 1
        found = []
        for lo in range(0, len(frontier), _BFS_CHUNK):
            chunk = frontier[lo : lo + _BFS_CHUNK]
            blank = (chunk == 0).argmax(axis=1)
            row, col = np.divmod(blank, width)
            for dr, dc in zip(_ROW_DELTA, _COL_DELTA):
                legal = (0 <= row + dr) & (row + dr < width) & (0 <= col + dc) & (col + dc < width)
                children = chunk[legal]
                at = np.arange(len(children))
                src = blank[legal]
                dst = src + dr * width + dc
                children[at, src] = children[at, dst]
                children[at, dst] = 0
                ranks = _lehmer_ranks(children)
                new = dist[ranks] == _UNREACHED
                ranks, first = np.unique(ranks[new], return_index=True)
                dist[ranks] = depth
                found.append(children[new][first])
        frontier = np.concatenate(found)
    return memoryview(table).toreadonly()


def exact_distance(
    state: State, goal: State, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """True distance from ``state`` to ``goal``.

    Width <= 3 reads a table of every state's distance, built on the first
    query for that goal; width 4 solves with ``idastar`` under
    ``node_budget``.  Raises ValueError when the widths differ or ``state``
    cannot reach ``goal``.
    """
    if state.width != goal.width:
        raise ValueError("state and goal have different widths")
    if state.width > _TABLE_MAX_WIDTH:
        return idastar(ProblemInstance(state, goal), node_budget=node_budget).length
    d = _distance_table(state.width, goal.tiles)[_lehmer_rank(state.tiles)]
    if d == _UNREACHED:
        raise ValueError("state is not reachable from the goal")
    return d


def instance_of_depth(
    d: int,
    width: int = 3,
    seed: int = 0,
    attempts: int = 500,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ProblemInstance:
    """Generate an instance whose verified optimal depth is exactly ``d``.

    Rejection-samples seeded random walks of length ``d`` (walks backtrack, so
    the walked distance is only an upper bound) and verifies each candidate
    with ``exact_distance`` until one matches: a table lookup for width <= 3,
    an ``idastar`` solve under ``node_budget`` for width 4.
    """
    if d < 0:
        raise ValueError("depth must be >= 0")
    goal = goal_state(width)
    if d == 0:
        return ProblemInstance(goal, goal)
    for k in range(attempts):
        s = random_walk(goal, d, subseed(seed, "walk", k))
        if s.tiles == goal.tiles:
            continue
        if manhattan(s, goal) > d:
            continue
        if exact_distance(s, goal, node_budget) == d:
            return ProblemInstance(s, goal)
    raise GenerationFailed(
        f"no depth-{d} instance found in {attempts} attempts (width {width}, seed {seed})"
    )
