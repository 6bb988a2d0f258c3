"""On-line Minimin search: fixed-depth lookahead with full resource accounting.

Each decision scores a depth-limited, full-width lookahead tree (the inverse
of the arc just taken is pruned, the goal ends a branch) by f = g + manhattan
at its frontier, backs the minimum up to the root, and commits to one move.
Runs record node generations (time), peak stored nodes (space), and executed
moves, counted as if the whole tree were walked.  The kernel walks only part
of it: each first move's value comes from a branch and bound on f, and the
counts from a table of tree sizes plus a walk of the nodes the goal could cut.
Deep decisions on boards of width <= 3 are memoised per goal in packed
entries, at most ``_MEMO_CAP`` of them; a decision served from the memo
reports the nodes and stack peak its search had.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

# ``idastar`` is looked up here by the benchmark's tracer (perfbench/tracing.py).
from .exact import _lehmer_rank, exact_distance, idastar  # noqa: F401
from .puzzle import (
    _INVERSE,
    Op,
    ProblemInstance,
    State,
    dist_table,
    moves_table,
)

MAX_LOOKAHEAD = 24


class EmptySample(Exception):
    """An accuracy estimate was requested over an empty state sample."""


@dataclass(frozen=True)
class ResourceLimits:
    """Caps on executed moves and total node generations for one run.

    Both are checked between decisions: a decision that starts under the
    budget runs to the end, so a run's ``time_units`` can exceed
    ``node_budget`` by up to its last decision's node count.
    """

    max_moves: int = 100
    node_budget: int = 200_000

    def __post_init__(self) -> None:
        if self.max_moves <= 0 or self.node_budget <= 0:
            raise ValueError("resource limits must be positive")


@dataclass(frozen=True)
class Outcome:
    """The attribute tuple of one run: moves, computation, peak space.

    ``time_units`` counts node generations and ``space_units`` peak stored
    nodes for real runs; converted outcomes (minutes, megabytes) use the same
    fields.  ``extra`` holds optional additional attributes (e.g. monetary
    cost) as a name -> value mapping.
    """

    path_length: float
    time_units: float
    space_units: float
    solved: bool = True
    extra: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.extra, dict):
            object.__setattr__(self, "extra", tuple(sorted(self.extra.items())))
        if self.path_length < 0 or self.time_units < 0 or self.space_units < 0:
            raise ValueError("outcome attributes must be nonnegative")

    def extra_value(self, name: str) -> float | None:
        for key, value in self.extra:
            if key == name:
                return value
        return None


def check_level(level: int) -> int:
    if not 1 <= level <= MAX_LOOKAHEAD:
        raise ValueError(f"lookahead level must be in 1..{MAX_LOOKAHEAD}, got {level}")
    return level


# Arrival index of the root in ``_kernel_tables``: no inverse move to leave out.
_ROOT = 4


@lru_cache(maxsize=16)
def _kernel_tables(width: int, goal: tuple[int, ...]):
    """Move, heuristic and tree-size tables for the lookahead kernel on one (width, goal).

    ``after[b][last]`` lists the (op, new blank, delta row) moves from blank
    cell ``b`` when the blank arrived by op ``last`` (or ``_ROOT``), with the
    inverse of ``last`` left out.  ``delta[t]`` is the change in Manhattan
    distance when tile ``t`` slides from the new blank cell into ``b``.
    ``size[left][b][last]`` counts the nodes generated below such a node when
    ``left`` moves remain and no goal cuts the tree: the shape follows the
    blank's path alone.  It is built from ``after`` up to ``MAX_LOOKAHEAD``.
    """
    dists = dist_table(width, goal)
    cells = range(width * width)
    after = []
    for b, moves in enumerate(moves_table(width)):
        delta = {j: tuple(dists[t][b] - dists[t][j] if t else 0 for t in cells) for _, j in moves}
        after.append(tuple(
            tuple((op, j, delta[j]) for op, j in moves if last == _ROOT or op != _INVERSE[last])
            for last in range(_ROOT + 1)
        ))
    size = [((0,) * (_ROOT + 1),) * len(cells)]
    for _ in range(MAX_LOOKAHEAD):
        below = size[-1]
        size.append(tuple(
            tuple(sum(1 + below[j][op] for op, j, _ in after[b][last]) for last in range(_ROOT + 1))
            for b in cells
        ))
    return tuple(after), dists, tuple(size)


def _ranked_decisions(
    tiles: tuple[int, ...],
    blank: int,
    goal: tuple[int, ...],
    width: int,
    level: int,
) -> tuple[list[tuple[int, int, tuple[int, ...], int]], int, int]:
    """All first moves ranked by backed-up f (ties by op order).

    Returns (ranked entries (value, op, child tiles, child blank),
    nodes generated, peak lookahead stack depth), exactly as a walk of the
    whole tree would find them, without walking it.  Manhattan distance is
    consistent, so f = g + h moves by 0 or +2 per move and a node's f bounds
    every frontier f below it.  A first move's value comes from a branch and
    bound that tries the h-decreasing children first and stops at that
    bound; a goal caps its branch at f = g.  The counts come from a walk that
    enters only nodes with h < moves left: below any other node no goal can
    be expanded, so its subtree is the full one in ``size``.  Both searches
    swap the blank in and back on one board list.
    """
    after, dists, size = _kernel_tables(width, goal)
    board = list(tiles)
    nodes = 0
    deepest = 0  # depth of the deepest expanded node

    def bound(b: int, hval: int, g: int, left: int, last: int, best: int) -> int:
        # The least frontier f below this node (0 < hval, left >= 1 moves
        # remain, g + hval < best) if that is below ``best``, else ``best``.
        f = g + hval
        moves = after[b][last]
        for op, j, delta in moves:
            t = board[j]
            if delta[t] < 0:
                if hval == 1 or left == 1:
                    return f  # a goal or a frontier leaf at the bound
                if left == 2:
                    # The child's leaves keep f if one of its moves lowers h.
                    for _, k, delta2 in after[j][op]:
                        if delta2[board[k]] < 0:
                            return f
                    if f + 2 < best:
                        best = f + 2
                    continue
                board[b] = t
                board[j] = 0
                value = bound(j, hval - 1, g + 1, left - 1, op, best)
                board[j] = t
                board[b] = 0
                if value < best:
                    if value == f:
                        return f
                    best = value
        if f + 2 >= best:
            return best
        for op, j, delta in moves:
            t = board[j]
            if delta[t] > 0:
                if left == 1:
                    return f + 2
                if left == 2:
                    for _, k, delta2 in after[j][op]:
                        if delta2[board[k]] < 0:
                            return f + 2
                    if f + 4 < best:
                        best = f + 4
                    continue
                board[b] = t
                board[j] = 0
                value = bound(j, hval + 1, g + 1, left - 1, op, best)
                board[j] = t
                board[b] = 0
                if value < best:
                    if value == f + 2:
                        return value
                    best = value
        return best

    def walk(b: int, hval: int, g: int, left: int, last: int) -> None:
        # Count the nodes generated below a node with hval < left moves
        # remaining, whose tree the goal may cut; a child with h >= its moves
        # left is counted whole from ``size``.
        nonlocal nodes, deepest
        if g > deepest:
            deepest = g
        moves = after[b][last]
        nodes += len(moves)
        left -= 1
        for op, j, delta in moves:
            t = board[j]
            h = hval + delta[t]
            if h >= left:
                nodes += size[left][j][op]
                if g + left > deepest:
                    deepest = g + left
            elif h:
                board[b] = t
                board[j] = 0
                walk(j, h, g + 1, left, op)
                board[j] = t
                board[b] = 0

    h0 = sum(dists[t][i] for i, t in enumerate(tiles) if t)
    if h0 >= level:
        nodes, deepest = size[level][blank][_ROOT], level - 1
    else:
        walk(blank, h0, 0, level, _ROOT)
    ranked: list[tuple[int, int, tuple[int, ...], int]] = []
    for op, j, delta in after[blank][_ROOT]:
        t = board[j]
        board[blank] = t
        board[j] = 0
        child_h = h0 + delta[t]
        if level == 1 or not child_h:
            value = 1 + child_h
        else:
            value = bound(j, child_h, 1, level - 1, op, 1 << 30)
        ranked.append((value, op, tuple(board), j))
        board[j] = t
        board[blank] = 0
    ranked.sort(key=lambda e: (e[0], e[1]))
    return ranked, nodes, deepest + 2


# Decisions of width <= 3 at levels >= _MEMO_FLOOR are memoised.  Shallow
# decisions are cheap to search, and leaving them out keeps the memo small.
_MEMO_FLOOR = 7
_MEMO_CAP = 1 << 16  # entries per (width, goal), about 6 MB; a full memo is cleared
_NODES_SHIFT = 5 + 4 * 8  # above the peak and four ranked moves


@lru_cache(maxsize=4)
def _decision_memo(width: int, goal: tuple[int, ...]) -> dict[int, int]:
    """Packed ``_ranked_decisions`` results on one (width, goal).

    Keyed by ``_lehmer_rank(tiles) * 32 + level``.  An entry holds, from the
    low bits up: the stack peak (5 bits); for each ranked first move, its
    index in ``moves_table(width)[blank]`` (2 bits) and its backed-up value
    (6 bits); then the node count.  Children are rebuilt from the moves.
    """
    return {}


def _pack(
    ranked: list[tuple[int, int, tuple[int, ...], int]],
    nodes: int,
    peak: int,
    moves: tuple[tuple[int, int], ...],
) -> int | None:
    """The memo entry for one decision, or None if a field would not fit."""
    if peak >= 32:
        return None
    fields = 0
    for value, op, _, j in reversed(ranked):
        if value >= 64:
            return None
        fields = fields << 8 | value << 2 | moves.index((op, j))
    return nodes << _NODES_SHIFT | fields << 5 | peak


def _decisions(
    tiles: tuple[int, ...],
    blank: int,
    goal: tuple[int, ...],
    width: int,
    level: int,
) -> tuple[list[tuple[int, int, tuple[int, ...], int]], int, int]:
    """What ``_ranked_decisions`` returns, served from the decision memo if it can be."""
    if width > 3 or level < _MEMO_FLOOR:
        return _ranked_decisions(tiles, blank, goal, width, level)
    memo = _decision_memo(width, goal)
    key = _lehmer_rank(tiles) * 32 + level
    moves = moves_table(width)[blank]
    packed = memo.get(key)
    if packed is None:
        ranked, nodes, peak = _ranked_decisions(tiles, blank, goal, width, level)
        packed = _pack(ranked, nodes, peak, moves)
        if packed is not None:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key] = packed
        return ranked, nodes, peak
    ranked = []
    field = packed >> 5
    for _ in moves:
        op, j = moves[field & 3]
        board = list(tiles)
        board[blank] = board[j]
        board[j] = 0
        ranked.append((field >> 2 & 63, op, tuple(board), j))
        field >>= 8
    return ranked, packed >> _NODES_SHIFT, packed & 31


def minimin_decide(s: State, goal: State, level: int) -> tuple[Op, int, int]:
    """One Minimin decision: depth-``level`` lookahead from ``s``.

    Returns (chosen operator, backed-up f value, nodes generated by this
    decision).  Ties between first moves break by Up < Down < Left < Right.
    """
    check_level(level)
    if s.width != goal.width:
        raise ValueError("state and goal have different widths")
    if s.tiles == goal.tiles:
        raise ValueError("state is already the goal; no decision to make")
    ranked, nodes, _ = _decisions(s.tiles, s.blank, goal.tiles, s.width, level)
    value, op, _, _ = ranked[0]
    return Op(op), value, nodes


def _run_loop(
    p: ProblemInstance,
    level: int,
    limits: ResourceLimits,
    record: list[State] | None = None,
    tops: list[tuple[int, ...]] | None = None,
) -> Outcome:
    goal = p.goal.tiles
    width = p.width
    tiles = p.initial.tiles
    blank = p.initial.blank
    visits: dict[tuple[int, ...], int] = {tiles: 1}
    moves = 0
    total_nodes = 0
    peak_space = 0
    while tiles != goal:
        if moves >= limits.max_moves or total_nodes >= limits.node_budget:
            return Outcome(
                path_length=limits.max_moves,
                time_units=total_nodes,
                space_units=peak_space,
                solved=False,
            )
        if record is not None:
            record.append(State(tiles, width))
        ranked, nodes, stack_peak = _decisions(tiles, blank, goal, width, level)
        total_nodes += nodes
        if tops is not None:
            tops.append(ranked[0][2])
        chosen = None
        for entry in ranked:
            if visits.get(entry[2], 0) < 2:
                chosen = entry
                break
        if chosen is None:
            chosen = ranked[0]
        _, _, tiles, blank = chosen
        visits[tiles] = visits.get(tiles, 0) + 1
        moves += 1
        stored = stack_peak + len(visits)
        if stored > peak_space:
            peak_space = stored
    return Outcome(
        path_length=moves,
        time_units=total_nodes,
        space_units=peak_space,
        solved=True,
    )


def minimin_run(
    p: ProblemInstance,
    level: int,
    limits: ResourceLimits = ResourceLimits(),
) -> Outcome:
    """Iterate decide/act until the goal or a resource limit.

    Loop avoidance: entering a state already executed twice is overridden by
    the next-best first move.  Unsolved runs are outcomes (path_length pinned
    to the move cap), not errors; they score zero utility downstream.
    """
    check_level(level)
    return _run_loop(p, level, limits)


def minimin_trace(
    p: ProblemInstance,
    level: int,
    limits: ResourceLimits = ResourceLimits(),
    tops: list[tuple[int, ...]] | None = None,
) -> tuple[Outcome, list[State]]:
    """Like ``minimin_run`` but also returns the states where decisions were made.

    If ``tops`` is given, the tiles of each decision's top-ranked child are
    appended to it, in step with the returned states.  That is the move
    ``decision_accuracy`` scores; loop avoidance may execute another one.
    """
    check_level(level)
    record: list[State] = []
    outcome = _run_loop(p, level, limits, record, tops)
    return outcome, record


def decision_accuracy(
    level: int,
    sample: Sequence[State],
    goal: State,
    dstar_cache: dict[tuple[int, ...], int] | None = None,
) -> float:
    """Fraction of sampled states whose chosen move strictly reduces true distance.

    The chosen move is the top-ranked first move of a depth-``level``
    lookahead.  True distances come from ``exact_distance``: a table lookup at
    width <= 3, an IDA* solve at width 4, amortized across calls by a shared
    ``dstar_cache``.  Scored by ``decision_hit_rate``.
    """
    if not sample:
        raise EmptySample("decision_accuracy needs at least one state")
    check_level(level)
    decisions = []
    for s in sample:
        ranked, _, _ = _decisions(s.tiles, s.blank, goal.tiles, s.width, level)
        decisions.append((s, ranked[0][2]))
    return decision_hit_rate(decisions, goal, dstar_cache)


def decision_hit_rate(
    decisions: Sequence[tuple[State, tuple[int, ...]]],
    goal: State,
    dstar_cache: dict[tuple[int, ...], int] | None = None,
) -> float:
    """Fraction of (state, chosen child tiles) pairs whose child is one step closer.

    True distances come from ``exact_distance``; pass a shared ``dstar_cache``
    to amortize repeated solves across calls.
    """
    if not decisions:
        raise EmptySample("decision_hit_rate needs at least one decision")
    cache = dstar_cache if dstar_cache is not None else {}

    def dstar(tiles: tuple[int, ...]) -> int:
        hit = cache.get(tiles)
        if hit is None:
            hit = exact_distance(State(tiles, goal.width), goal)
            cache[tiles] = hit
        return hit

    hits = 0
    for s, child in decisions:
        if s.tiles == goal.tiles:
            raise ValueError("sample contains the goal state; no decision exists")
        if dstar(child) == dstar(s.tiles) - 1:
            hits += 1
    return hits / len(decisions)
