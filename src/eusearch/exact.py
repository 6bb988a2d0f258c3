"""Exact shortest-path solvers and verified-depth instance generation.

``bfs_optimal`` is the brute-force oracle; ``idastar`` is the working exact
solver (memory-linear, deterministic Up < Down < Left < Right expansion
order).  All three take a ``ProblemInstance``, whose construction is the one
reachability check.  ``exact_distance`` answers true-distance queries with
``idastar`` for width 4, and for width <= 3 reads the instance's (blank cell,
k) in a table of every state's distance by ``_state_index``, the one index
of the states that reach a goal and of their h, which ``minimin``'s value
table and traced runs share.
``instance_of_depth`` rejection-samples random walks, one instance each,
until the verified optimal depth matches the target exactly.  Walks read
``puzzle.moves_after``; ``idastar`` walks one board over ``puzzle.delta_moves``,
the same moves with each slide's h step, as Minimin's search does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .puzzle import _ROOT, Op, ProblemInstance, SolutionPath, _reachable_parity, _state_key
from .puzzle import _INVERSE, delta_moves, dist_table, goal_state, manhattan, moves_after, random_walk
from .seeds import subseed

DEFAULT_NODE_BUDGET = 50_000_000
# Widest board whose distances are tabulated: 9!/2 states at width 3, 16!/2 at 4.
_TABLE_MAX_WIDTH = 3
_UNREACHED = 255


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
    table = [moves[_ROOT] for moves in moves_after(p.width)]
    visited: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {start: (start, _ROOT)}
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
                ops: list[Op] = []
                while child_t != start:
                    child_t, op = visited[child_t]
                    ops.append(Op(op))
                ops.reverse()
                return ExactResult(SolutionPath(tuple(ops)), generated, len(visited))
            frontier.append((child_t, j))
    raise BudgetExhausted("state space exhausted without reaching the goal")


def idastar(p: ProblemInstance, node_budget: int = DEFAULT_NODE_BUDGET) -> ExactResult:
    """Iterative-deepening A* on Manhattan distance; returns a shortest path.

    The search walks one board in place over ``puzzle.delta_moves``, which
    gives h's change for the one tile each move slides; h == 0 is the goal.
    A slide moves one tile one cell, so f = g + h rises by 0 or 2 per move:
    every node cut off by a bound has f = bound + 2, the next bound.
    """
    after = delta_moves(p.width, p.goal.tiles)
    board = list(p.initial.tiles)
    generated = 0
    peak_depth = 0
    path_ops: list[int] = []  # the goal's path, last move first

    def dfs(b: int, hval: int, g: int, last: int) -> bool:
        # Whether a goal lies within ``bound`` below this node (0 < hval, g + hval <= bound).
        nonlocal generated, peak_depth
        g += 1
        if g > peak_depth:
            peak_depth = g
        for op, j, delta in after[b][last]:
            generated += 1
            if generated > node_budget:
                raise BudgetExhausted(f"idastar exceeded node budget of {node_budget}")
            t = board[j]
            h = hval + delta[t]
            if g + h <= bound:
                board[b] = t
                board[j] = 0
                if not h or dfs(j, h, g, op):
                    path_ops.append(op)
                    return True
                board[j] = t
                board[b] = 0
        return False

    bound = h0 = manhattan(p.initial, p.goal)
    if h0:
        while not dfs(p.initial.blank, h0, 0, _ROOT):
            bound += 2
    return ExactResult(
        SolutionPath(tuple(Op(o) for o in reversed(path_ops))), generated, peak_depth + 1
    )


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank (Lehmer code) of each row of ``perms``, orders of 0..n-1."""
    cols = np.ascontiguousarray(perms.T)
    n = len(cols)
    ranks = np.zeros(len(perms), dtype=np.int64)
    for i in range(n - 1):
        ranks = ranks * (n - i) + (cols[i + 1 :] < cols[i]).sum(axis=0, dtype=np.uint8)
    return ranks


def _tile_orders(cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Every order of tiles 0..cells-2 by Lehmer rank: the even ones, the odd ones."""
    orders, odd = np.zeros((1, 0), np.uint8), np.zeros(1, bool)
    for n in range(1, cells):  # put each e first, before the orders of the rest
        orders = np.concatenate([np.insert(orders + (orders >= e), 0, e, axis=1) for e in range(n)])
        odd = np.concatenate([odd ^ bool(e & 1) for e in range(n)])
    return orders[~odd], orders[odd]


@lru_cache(maxsize=None)
def _identity_map(n: int) -> np.ndarray:
    """The read-only map of ``n`` keys to themselves; a build may skip gathering through it."""
    same = np.arange(n, dtype=np.uint16)
    same.flags.writeable = False
    return same


@lru_cache(maxsize=4)
def _state_index(width: int, goal: tuple[int, ...]):
    """One index of every state that reaches ``goal``, for width <= 3.

    ``_state_key`` gives a state's blank cell b, its k and the parity of its
    tile order; only orders of the parity ``_reachable_parity`` gives blank
    cell b reach the goal.  Ranks 2k and 2k + 1 differ by a swap of the last
    two tiles, so state (b, k) has the order in row k of that parity's half
    of ``_tile_orders(width * width)``.  Read-only ``ranks[b, op][k]`` is the
    child's k for every move.  A horizontal move keeps the order, so it keeps
    k: all horizontal moves share one ``_identity_map``.  A vertical move
    carries a tile past width - 1 others; its map is ranked from the moved
    orders when the move back has no map yet, else it is that map inverted.
    Read-only ``h[b][k]`` is state (b, k)'s Manhattan distance to ``goal``:
    summed tile by tile for a blank in column 0 and stepped one cell right
    from there.  Returns (ranks, h); the orders are not kept.
    """
    cells = width * width
    orders = _tile_orders(cells)
    dists = np.array(dist_table(width, goal), np.uint8)
    same = _identity_map(len(orders[0]))
    ranks, h = {}, []
    for b, moves in enumerate(moves_after(width)):
        order = orders[_reachable_parity(goal, b)]
        if b % width:  # (b, k) is (b - 1, k) after the tile at cell b moves to b - 1
            h.append(h[-1] + (dists[1:, b - 1] - dists[1:, b]).take(order[:, b - 1]))
        else:  # the tile at position i of the order sits in cell i + (i >= b)
            h.append(sum(dists[1:, i + (i >= b)].take(order[:, i]) for i in range(cells - 1)))
        h[-1].flags.writeable = False
        for op, j in moves[_ROOT]:
            back = ranks.get((j, _INVERSE[op]))
            if abs(j - b) == 1:
                m = same
            elif back is not None:
                m = np.empty_like(back)
                m[back] = same
            else:
                src = j - (j > b)
                moved = np.insert(np.delete(order, src, axis=1), b - (b > j), order[:, src], axis=1)
                m = (_lehmer_ranks(moved) >> 1).astype(np.uint16)
            m.flags.writeable = False
            ranks[b, op] = m
    return ranks, tuple(h)


@lru_cache(maxsize=4)
def _distance_table(width: int, goal: tuple[int, ...]):
    """Distance to ``goal`` of every state in ``_state_index``.

    Built by breadth-first search, one level at a time, which reaches every
    state of the goal's parity class; a move whose map is ``_identity_map``
    carries its frontier row over as it is.  Returns the rows: ``rows[b][k]`` is
    state (b, k)'s distance, as a plain int from a read-only view.
    """
    ranks, _ = _state_index(width, goal)
    goal_blank, goal_k, _ = _state_key(goal)
    dist = np.full((width * width, factorial(width * width - 1) // 2), _UNREACHED, np.uint8)
    same = _identity_map(dist.shape[1])
    dist[goal_blank, goal_k] = 0
    frontier = dist == 0
    depth = 0
    while frontier.any():
        depth += 1
        reached = np.zeros_like(frontier)
        for b, moves in enumerate(moves_after(width)):
            at = np.flatnonzero(frontier[b])
            for op, j in moves[_ROOT]:
                if ranks[b, op] is same:
                    reached[j] |= frontier[b]
                else:
                    reached[j, ranks[b, op][at]] = True
        frontier = reached & (dist == _UNREACHED)
        dist -= frontier * np.uint8(_UNREACHED - depth)  # the frontier held _UNREACHED
    dist.flags.writeable = False
    return tuple(memoryview(row) for row in dist)


def exact_distance(p: ProblemInstance) -> int:
    """True distance from ``p.initial`` to ``p.goal``.

    Width <= 3 reads the instance's (blank cell, k) in a table of every
    state's distance, built on the first query for that goal; width 4 solves
    with ``idastar`` under ``DEFAULT_NODE_BUDGET``.
    """
    if p.width > _TABLE_MAX_WIDTH:
        return idastar(p).length
    return _distance_table(p.width, p.goal.tiles)[p.initial.blank][p.k]


def instance_of_depth(
    d: int,
    width: int = 3,
    seed: int = 0,
    attempts: int = 500,
) -> ProblemInstance:
    """Generate an instance whose verified optimal depth is exactly ``d``.

    Rejection-samples seeded random walks of length ``d`` (walks backtrack, so
    the walked distance is only an upper bound) and verifies each candidate
    with ``exact_distance`` until one matches: a table lookup for width <= 3,
    an ``idastar`` solve for width 4.  A solve that runs out of its node budget
    raises ``GenerationFailed`` naming the depth and the attempt.
    """
    if d < 0:
        raise ValueError("depth must be >= 0")
    goal = goal_state(width)
    if d == 0:
        return ProblemInstance(goal, goal)
    for k in range(attempts):
        p = ProblemInstance(random_walk(goal, d, subseed(seed, "walk", k)), goal)
        try:
            if exact_distance(p) == d:
                return p
        except BudgetExhausted as exc:
            raise GenerationFailed(
                f"depth-{d} attempt {k} could not be verified (width {width}, seed {seed}): {exc}"
            ) from exc
    raise GenerationFailed(
        f"no depth-{d} instance found in {attempts} attempts (width {width}, seed {seed})"
    )
