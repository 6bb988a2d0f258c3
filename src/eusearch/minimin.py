"""On-line Minimin search: fixed-depth lookahead with full resource accounting.

Each decision scores a depth-limited, full-width lookahead tree (the goal
ends a branch, and ``puzzle.moves_after`` leaves out the inverse of the arc
just taken) by f = g + manhattan at its frontier, backs the minimum up to
the root, and commits to one move.
A run ends in a ``utility.Outcome``: executed moves, node generations
(time) and peak stored nodes (space), counted as if the whole tree were
walked.  The kernel walks only part of it: the counts come from a table of
tree sizes plus a walk of the subtrees the goal cuts.  There are two kernels.  A run on a board of width <= 3
starts in its goal's parity class (``ProblemInstance`` admits no other
state) and never leaves it, so it carries its state as (blank cell, k) in
``exact._state_index`` and reads h and each first move's value from a
per-goal table of every state's backed-up values; the table also tells the
walk exactly which subtrees hold a goal above the frontier.  From those
values each level a run uses gets one byte per state, built once beside
the table: the whole ranking of its first moves and whether the top one's
tree is full size, so a decision reads one entry and loop avoidance reads
the same entry for the next move in the ranking.  A walked
tree's counts are kept with the table, per (level, state), so each is walked
once per process: only states with 0 < d* < level are walked, which bounds
the memo by the d* balls around the goal.  A traced 2x2 or 3x3 run records
its decisions by these keys and builds no tiles: ``minimin_trace`` returns
them as they are, and the fit scores them against the d* table.  A run on a
wider board carries one board and its h through all its decisions and
searches it in place over ``puzzle.delta_moves``, as ``exact.idastar`` does,
and so does each single decision of ``minimin_decide``: a branch and bound
on f gives each first move's value and child h, and the walk enters every
node whose h is below its moves left.  Such a run keys each state by one
integer, tile t at cell c adding ``t << bits * c`` (``_search_loop``), and
builds tile tuples only for a traced run's decisions.  It searches each
distinct state once and keeps that decision until the run ends; a revisit
reuses it and is charged the same counts again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exact import _TABLE_MAX_WIDTH, _distance_table, _identity_map, _state_index, idastar
from .puzzle import _INVERSE, _ROOT, Op, ProblemInstance, State, _state_key, delta_moves, manhattan, moves_after
from .utility import Outcome, check_types

MAX_LOOKAHEAD = 24
# Compare-exchange pairs that sort 2, 3 or 4 arrays elementwise, least first.
_SORTING_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}
# A traced decision: the state it was made at and its top-ranked child, as
# ``exact`` state keys (blank << 16 | k) at width <= 3 and as tiles on wider boards.
Decision = tuple[int, int] | tuple[tuple[int, ...], tuple[int, ...]]


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
        check_types(self)
        if self.max_moves <= 0 or self.node_budget <= 0:
            raise ValueError("resource limits must be positive")


def check_level(level: int) -> int:
    if not 1 <= level <= MAX_LOOKAHEAD:
        raise ValueError(f"lookahead level must be in 1..{MAX_LOOKAHEAD}, got {level}")
    return level


@lru_cache(maxsize=None)
def _tree_sizes(width: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``size[left][b][last]``: the nodes generated below blank cell ``b``, arrived by op
    ``last`` (or ``_ROOT``), with ``left`` moves left and no goal cutting the tree.

    The shape follows the blank's path alone: built from ``puzzle.moves_after``.
    """
    after = moves_after(width)
    cells = range(width * width)
    size = [((0,) * (_ROOT + 1),) * len(cells)]
    for _ in range(MAX_LOOKAHEAD):
        below = size[-1]
        size.append(tuple(
            tuple(sum(1 + below[j][op] for op, j in after[b][last]) for last in range(_ROOT + 1))
            for b in cells
        ))
    return tuple(size)


def _tree_counts(after, size, board, blank, h0, level) -> tuple[int, int]:
    """Nodes generated and peak stack depth of the depth-``level`` tree at ``board``.

    The count walk of ``_ranked_decisions``, on its arguments: it reads no
    value table and leaves the board as it found it.  It enters only nodes
    with h < moves left.  Below any other node no goal can be expanded, so
    its subtree is the full one in ``size``.
    """
    nodes = 0
    deepest = 0  # depth of the deepest expanded node

    def walk(b: int, hval: int, g: int, left: int, last: int, board=board, after=after, size=size) -> None:
        # Count the nodes generated below a node with hval < left moves
        # remaining, whose tree the goal may cut; a child with h >= its moves
        # left is counted whole from ``size``.  The defaults make the tables locals.
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

    walk(blank, h0, 0, level, _ROOT)
    return nodes, deepest + 2


def _ranked_decisions(board, blank, h0, after, size, level) -> tuple[list, int, int]:
    """Sorted (value, op, new blank, child h) first moves, nodes and stack peak, by search.

    The kernel of runs above width 3 and of every ``minimin_decide`` call;
    ``_table_loop`` reads the same values from ``_value_table``.  It searches
    the caller's ``board`` (blank at ``blank``, h ``h0``) in place over
    ``after``, ``puzzle.delta_moves``' on the goal, and leaves it as it was;
    ``size`` is ``_tree_sizes``'.  Manhattan distance is consistent, so
    f = g + h moves by 0 or +2 per move and a node's f bounds every frontier
    f below it.  A first move's value comes from a branch and bound that
    tries the h-decreasing children first and stops at that bound; a goal
    caps its branch at f = g.
    """

    def bound(b: int, hval: int, f: int, left: int, last: int, best: int, board=board, after=after) -> int:
        # The least frontier f below this node (0 < hval, left >= 1 moves
        # remain, its own f = g + hval < best) if that is below ``best``, else
        # ``best``.  The defaults make the board and the move rows locals.
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
                value = bound(j, hval - 1, f, left - 1, op, best)
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
                value = bound(j, hval + 1, f + 2, left - 1, op, best)
                board[j] = t
                board[b] = 0
                if value < best:
                    if value == f + 2:
                        return value
                    best = value
        return best

    ranked = []
    for op, j, delta in after[blank][_ROOT]:
        t = board[j]
        board[blank] = t
        board[j] = 0
        child_h = h0 + delta[t]
        value = 1 + child_h if level == 1 or not child_h else bound(j, child_h, 1 + child_h, level - 1, op, 1 << 30)
        ranked.append((value, op, j, child_h))
        board[j] = t
        board[blank] = 0
    ranked.sort()
    if h0 >= level:  # no goal is expanded: the whole tree
        return ranked, size[level][blank][_ROOT], level + 1
    return ranked, *_tree_counts(after, size, board, blank, h0, level)


@lru_cache(maxsize=4)
def _value_table(width: int, goal: tuple[int, ...]):
    """Every state's backed-up lookahead values on one (width, goal), width <= 3.

    W_l, the least frontier f of a depth-l lookahead below a state, is h at
    l = 0, 0 at the goal, else 1 + the least W_{l-1} of the children but the
    one undoing the arrival op.  Manhattan distance is consistent, so W rises
    by 0 or 2 per level (else the build raises); bit l - 1 of a profile word
    records which: W_l = h + 2 * popcount(word & (2**l - 1)), for every level
    up to ``MAX_LOOKAHEAD``.  Each level lines up the children's W_{l-1} rows
    by the parent's k: a horizontal child's row is read in place, as its map
    is ``exact._identity_map``, and only a vertical one's is gathered through
    its map.  Each arrival op then takes ``np.minimum`` over the other 1-3
    children into its own row, and the 1 is added to every row at once: W
    stays below 255, so the add commutes with the minimum.  h is
    ``_state_index``'s.  Returns (rows, h, size, counted, policies):
    ``rows[b][last]`` lists ``puzzle.moves_after``'s moves from cell ``b``
    as (op, new blank, words, ranks), with the child's words by its k in
    ``_state_index`` and the move's map of k; ``h[b][k]`` is state (b, k)'s
    h; ``size`` is ``_tree_sizes``'.
    ``counted[level]`` starts empty and maps ``b << 16 | k`` to the
    (nodes, stack peak) that ``_goal_counts`` gave state (b, k) at
    ``level``; it lives and dies with this (width, goal)'s table.  A tree is
    walked only when 0 < d* < level, so it holds at most the sum over the
    levels run of the d* ball sizes: 2,834 entries at levels 1-12, 19,600
    at 1-16 and 452,164 at 1-24 for the default 3x3 goal.
    ``policies[level]`` starts None and holds ``_policy_table``'s bytes
    once a run at ``level`` has built them, each state's whole ranking of
    its root moves in one byte: 9 * 20,160 bytes per 3x3 level.
    Only ``_table_loop``, its count walk ``_goal_counts`` and its
    ``_policy_table`` builds read it.
    """
    _, ranks, h = _state_index(width, goal)
    moves = [after[_ROOT] for after in moves_after(width)]
    same = _identity_map(len(h[0]))
    block = {a: i for i, a in enumerate((j, op) for legal in moves for op, j in legal)}
    words = np.zeros((len(block), len(h[0])), np.uint32)
    values = np.stack([h[j] for j, _ in block])  # W_0 by (cell, arrival op)
    below = np.empty_like(values)
    goal_blank, goal_k, _ = _state_key(goal)
    at_goal = [block[goal_blank, _INVERSE[op]] for op, _ in moves[goal_blank]]
    for bit in range(MAX_LOOKAHEAD - 1):
        values, below = below, values
        for b, legal in enumerate(moves):
            via = [below[block[j, op]] for op, j in legal]  # by the child's k
            via = [w if ranks[b, op] is same else w.take(ranks[b, op]) for w, (op, _) in zip(via, legal)]
            for i, (op, _) in enumerate(legal):  # arrived from the cell this op returns to
                out = values[block[b, _INVERSE[op]]]
                others = via[:i] + via[i + 1 :]
                np.minimum(others[0], others[-1], out=out)
                for child in others[1:-1]:
                    np.minimum(out, child, out=out)
        values += 1
        values[at_goal, goal_k] = 0
        np.subtract(values, below, out=below)
        if (below & 0xFD).any():
            raise RuntimeError("a lookahead value rose by other than 0 or 2 in one level")
        for row, step in zip(words, below):  # a step of 2 sets bit + 1, undone by one shift
            np.bitwise_or(row, np.left_shift(step, bit, dtype=words.dtype), out=row)
    words >>= 1
    words.flags.writeable = False
    views = [memoryview(row) for row in words]
    maps = {a: memoryview(m) for a, m in ranks.items()}
    rows = tuple(tuple(
        tuple((op, j, views[block[j, op]], maps[b, op]) for op, j in row) for row in after
    ) for b, after in enumerate(moves_after(width)))
    counted = tuple({} for _ in range(MAX_LOOKAHEAD + 1))
    return rows, tuple(memoryview(row) for row in h), _tree_sizes(width), counted, [None] * len(counted)


def _policy_table(rows, h, level: int) -> tuple[bytes, ...]:
    """Each state's depth-``level`` ranking of its root moves, ``policy[b][k]``, from a value table.

    A move's value is W = h + 2 * popcount(word & (2**(level - 1) - 1)),
    and the moves rank by (W, index in ``rows[b][_ROOT]``).  An entry's bits
    0-1 are the top move's index, bit 2 is set iff its W + 1 >= level (the
    tree holds no goal above the frontier), bits 3-4 are the second move's
    index and bits 5-6 the third's; a fourth move is the index left over,
    which ``_table_loop`` reads as the XOR of the other three.  Each move's
    W * 4 + its index is taken in child order, gathered to the parent's k by
    the move's ranks unless they are ``exact._identity_map`` (a horizontal
    move), and the 2-4 arrays are ordered by a fixed min/max sorting
    network.  That is done in uint16: a 3x3 table's W stays below 32, but
    words of 23 bits and h up to 22 let W * 4 + 3 pass 255 at levels 22-24.
    """
    mask = np.uint32((1 << (level - 1)) - 1)
    policy = []
    for row in rows:
        ranked = []
        for i, (_, j, words, ranks) in enumerate(row[_ROOT]):
            value = np.bitwise_count(np.asarray(words) & mask).astype(np.uint16) * 2 + np.asarray(h[j])
            value = value << 2 | i
            if ranks.obj is not _identity_map(len(ranks)):
                value = value.take(np.asarray(ranks))
            ranked.append(value)
        for a, b in _SORTING_NETWORKS[len(ranked)]:
            ranked[a], ranked[b] = np.minimum(ranked[a], ranked[b]), np.maximum(ranked[a], ranked[b], out=ranked[b])
        entry = (ranked[0] >= 4 * (level - 1)).astype(np.uint8) << 2  # W + 1 >= level
        for shift, value in zip((0, 3, 5), ranked[:3]):
            entry |= (value.astype(np.uint8) & 3) << shift
        policy.append(entry.tobytes())
    return tuple(policy)


def _goal_counts(rows, h, size, blank, k, level) -> tuple[int, int]:
    """Nodes generated and peak stack depth of a depth-``level`` tree that holds a goal.

    The walk carries each node's k and reads h and W_m = h + 2 * popcount(word),
    the value at the deepest tabulated level m, from the value table.  It
    enters a node with ``left`` moves below it iff 0 < W < left: a goal g
    moves down has f = g and any other frontier leaf f >= m + 1 >= left, so
    W < left iff a goal lies above the frontier below the node, and only such
    a goal, generated but never expanded, cuts its tree.  Every other subtree
    is the full one in ``size``.  ``_table_loop`` keeps each result in the
    table's ``counted``, so a (level, state) is walked once.
    """
    nodes = 0
    deepest = 0  # depth of the deepest expanded node

    def walk(b: int, k: int, g: int, left: int, last: int) -> None:
        nonlocal nodes, deepest
        if g > deepest:
            deepest = g
        moves = rows[b][last]
        nodes += len(moves)
        left -= 1
        for op, j, words, ranks in moves:
            child = ranks[k]
            hval = h[j][child]
            if hval + 2 * words[child].bit_count() >= left:
                nodes += size[left][j][op]
                if g + left > deepest:
                    deepest = g + left
            elif hval:
                walk(j, child, g + 1, left, op)

    walk(blank, k, 0, level, _ROOT)
    return nodes, deepest + 2


def minimin_decide(s: State, goal: State, level: int) -> tuple[Op, int, int]:
    """One Minimin decision: depth-``level`` lookahead from ``s``.

    Returns (chosen operator, backed-up f value, nodes generated by this
    decision).  Ties between first moves break by Up < Down < Left < Right.
    The decision is searched by ``_ranked_decisions`` at every width and
    builds no value table; ``s`` need not reach ``goal``.
    """
    check_level(level)
    if s.width != goal.width:
        raise ValueError("state and goal have different widths")
    if s.tiles == goal.tiles:
        raise ValueError("state is already the goal; no decision to make")
    after, size = delta_moves(s.width, goal.tiles), _tree_sizes(s.width)
    ranked, nodes, _ = _ranked_decisions(list(s.tiles), s.blank, manhattan(s, goal), after, size, level)
    value, op = ranked[0][:2]
    return Op(op), value, nodes


def _run_loop(
    p: ProblemInstance,
    level: int,
    limits: ResourceLimits,
    trace: list[Decision] | None = None,
) -> Outcome:
    """Runs at width <= 3 go by ``_table_loop``, wider ones by ``_search_loop``.

    A ``ProblemInstance``'s initial state reaches its goal, and so does every
    state a run enters: all of them are in the value table.
    """
    if p.width > _TABLE_MAX_WIDTH:
        return _search_loop(p, level, limits, trace)
    return _table_loop(p, level, limits, trace)


def _table_loop(p, level, limits, trace) -> Outcome:
    """Minimin on a state carried as (blank, k), its h and values read from ``_value_table``.

    The moves rank by value, ties in op order, as ``_ranked_decisions``
    ranks them: the level's ``_policy_table`` entry holds that whole
    ranking, built on the run's first use of the level and kept in the
    table's ``policies``.  The top move is the entry's low 2 bits.  Loop
    avoidance walks the rest of the entry's ranking and takes the first
    move to a state entered fewer than twice, or keeps the top move if
    every move is blocked; it reads no value words.  No run builds tiles:
    a traced one records each decision as its state's key, blank << 16 | k,
    and its top-ranked child's, taken before loop avoidance.  A root whose
    least first-move value reaches ``level`` (the entry's flag) holds no
    goal above the frontier, so its tree has the size in the table; any
    other tree is counted by ``_goal_counts`` once, then read from the
    table's ``counted``.
    """
    rows, h, size, counted, policies = _value_table(p.width, p.goal.tiles)
    known = counted[level]
    policy = policies[level]
    if policy is None:
        policy = policies[level] = _policy_table(rows, h, level)
    blank, k, _ = _state_key(p.initial.tiles)
    roots = [after[_ROOT] for after in rows]
    full = [tree[_ROOT] for tree in size[level]]
    key = blank << 16 | k  # k < 8!/2 < 2**16
    visits = {key: 1}
    moves = 0
    total_nodes = 0
    peak_space = 0
    while h[blank][k]:
        if moves >= limits.max_moves or total_nodes >= limits.node_budget:
            return Outcome(limits.max_moves, total_nodes, peak_space, solved=False)
        row = roots[blank]
        entry = policy[blank][k]
        _, to, _, ranks = row[entry & 3]
        to_k = ranks[k]
        if entry & 4:
            nodes, stack_peak = full[blank], level + 1
        else:
            counts = known.get(key)
            if counts is None:
                counts = known[key] = _goal_counts(rows, h, size, blank, k, level)
            nodes, stack_peak = counts
        total_nodes += nodes
        child = to << 16 | to_k
        if trace is not None:
            trace.append((key, child))
        entered = visits.get(child, 0)
        if entered >= 2:
            for i in (entry >> 3 & 3, entry >> 5 & 3, (entry ^ entry >> 3 ^ entry >> 5) & 3)[: len(row) - 1]:
                _, j, _, ranks = row[i]
                other = ranks[k]
                seen = visits.get(j << 16 | other, 0)
                if seen < 2:
                    to, to_k, child, entered = j, other, j << 16 | other, seen
                    break
        blank, k, key = to, to_k, child
        visits[key] = entered + 1
        moves += 1
        stored = stack_peak + len(visits)
        if stored > peak_space:
            peak_space = stored
    return Outcome(moves, total_nodes, peak_space)


def _search_loop(p, level, limits, trace) -> Outcome:
    """Minimin on one board carried with its blank, h and key, each decision by ``_ranked_decisions``.

    A state's key is one integer: tile t at cell c adds ``t << bits * c``,
    with ``bits = (cells - 1).bit_length()`` (4 at width 4, 5 at width 5), so
    a move XORs in two terms and no tuple is built or hashed.  A move takes
    its h from its ranked entry; h == 0 is the goal.  A decision depends only
    on the state, so each distinct state is searched once per run:
    ``decided`` keeps its ranked moves and counts by key, and a revisit
    charges the same nodes and stack peak as the search did.  Tile tuples
    appear only in a traced run's ``Decision``s.
    """
    after = delta_moves(p.width, p.goal.tiles)
    size = _tree_sizes(p.width)
    board = list(p.initial.tiles)
    bits = (len(board) - 1).bit_length()
    shift = [bits * c for c in range(len(board))]
    blank = p.initial.blank
    hval = manhattan(p.initial, p.goal)
    key = sum(t << at for t, at in zip(board, shift))
    visits = {key: 1}
    decided = {}  # key -> (ranked, nodes, stack peak); never more entries than ``visits``
    moves = 0
    total_nodes = 0
    peak_space = 0
    while hval:
        if moves >= limits.max_moves or total_nodes >= limits.node_budget:
            return Outcome(limits.max_moves, total_nodes, peak_space, solved=False)
        decision = decided.get(key)
        if decision is None:
            decision = decided[key] = _ranked_decisions(board, blank, hval, after, size, level)
        ranked, nodes, stack_peak = decision
        total_nodes += nodes
        _, _, to, child_h = ranked[0]
        at = shift[blank]
        t = board[to]
        child = key ^ t << shift[to] ^ t << at
        if trace is not None:
            top = board.copy()
            top[blank], top[to] = t, 0
            trace.append((tuple(board), tuple(top)))
        entered = visits.get(child, 0)
        if entered >= 2:
            for _, _, j, h in ranked[1:]:
                t = board[j]
                other = key ^ t << shift[j] ^ t << at
                seen = visits.get(other, 0)
                if seen < 2:
                    to, child, child_h, entered = j, other, h, seen
                    break
        board[blank] = board[to]
        board[to] = 0
        blank, key, hval = to, child, child_h
        visits[key] = entered + 1
        moves += 1
        stored = stack_peak + len(visits)
        if stored > peak_space:
            peak_space = stored
    return Outcome(moves, total_nodes, peak_space)


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
) -> tuple[Outcome, list[Decision]]:
    """Like ``minimin_run`` but also returns each decision as the run loop records it.

    A ``Decision`` holds the state decided at and its top-ranked child, the
    move ``decision_accuracy`` scores; loop avoidance may execute another one.
    A run at width <= 3 records state keys, one per executed move, so they
    spell out its path: ``tile_pairs`` in ``scripts/replay_decisions.py``
    turns them into tiles.  The fit traces through here too, and
    ``_run_loop`` is looked up in this module, where that script hooks it.
    """
    check_level(level)
    trace: list[Decision] = []
    return _run_loop(p, level, limits, trace), trace


def decision_accuracy(
    level: int,
    sample: Sequence[State],
    goal: State,
    dstar_cache: dict[tuple[int, ...], int] | None = None,
) -> float:
    """Fraction of sampled states whose chosen move strictly reduces true distance.

    The chosen move is the top-ranked first move of a depth-``level``
    lookahead: the ``Decision`` a one-move run from the state records, as
    ``minimin_trace`` returns it to the fit.  Every state must reach ``goal``
    and none may be the goal (ValueError, before any run).  Scored by
    ``_hit_rate``: at width <= 3 by state key from the d* table, at width 4
    by IDA* solves amortized across calls by a shared ``dstar_cache``.
    """
    if not sample:
        raise EmptySample("decision_accuracy needs at least one state")
    check_level(level)
    if any(s.tiles == goal.tiles for s in sample):
        raise ValueError("sample contains the goal state; no decision exists")
    decisions: list[Decision] = []
    one_move = ResourceLimits(1, 1)
    for s in sample:
        _run_loop(ProblemInstance(s, goal), level, one_move, decisions)
    return _hit_rate(decisions, goal, dstar_cache)


def _hit_rate(
    decisions: Sequence[Decision],
    goal: State,
    dstar_cache: dict[tuple[int, ...], int] | None = None,
) -> float:
    """Fraction of traced ``Decision``s whose top-ranked child is one step closer to ``goal``.

    ``decision_accuracy``'s and the fit's scorer, of at least one decision.
    At width <= 3 both states are keys and their distances are read from
    ``exact._distance_table``; wider states are tiles, solved by ``idastar``
    and kept in ``dstar_cache``, which may be shared to amortize the solves
    across calls.
    """
    if goal.width <= _TABLE_MAX_WIDTH:
        rows, _ = _distance_table(goal.width, goal.tiles)

        def dstar(key: int) -> int:
            return rows[key >> 16][key & 0xFFFF]
    else:
        cache = dstar_cache if dstar_cache is not None else {}

        def dstar(tiles: tuple[int, ...]) -> int:
            hit = cache.get(tiles)
            if hit is None:
                hit = cache[tiles] = idastar(ProblemInstance(State(tiles, goal.width), goal)).length
            return hit

    hits = 0
    for state, child in decisions:
        d = dstar(state)
        if not d:
            raise ValueError("sample contains the goal state; no decision exists")
        if dstar(child) == d - 1:
            hits += 1
    return hits / len(decisions)
