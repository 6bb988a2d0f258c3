"""Independent brute-force oracles used only by tests.

From ``eusearch`` they import data types (``Op``, ``State``, ``Outcome``,
``Lottery``, ``UtilityModel``), exceptions, and the utility and performance
model pieces that the calibration and prediction oracles score with; the
utility oracles score one curve, outcome and lottery entry per Python call,
as the package did before it scored arrays.  They import no move table and no heuristic: the blank's moves, their inverses and
the Manhattan h are worked out here from row and column arithmetic.  Every
search of the package is built on ``puzzle.moves_after`` and ``dist_table``,
so an oracle built on them too would agree with a fault in them.  Beyond that
the oracles share no search code with the package: plain State-level
enumeration, fresh BFS, per-tile tallies, permutation ranks and parities by
enumeration and cycle counting, and an IDA* that walks tiles tuples.
"""

from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import permutations

import numpy as np

from eusearch.exact import BudgetExhausted
from eusearch.puzzle import Op, State
from eusearch.utility import (
    _VARIANCE_FLOOR,
    DEFAULT_BOUNDS,
    CalibrationFailed,
    MalformedModel,
    Outcome,
    UtilityModel,
    _calibration_curves,
    attribute_value,
    left_sum,
)

# The blank's (row, column) step under each op, in op order.
_STEPS = {Op.UP: (-1, 0), Op.DOWN: (1, 0), Op.LEFT: (0, -1), Op.RIGHT: (0, 1)}


@lru_cache(maxsize=None)
def cell_moves(width: int, cell: int) -> tuple[tuple[Op, int], ...]:
    """The (op, new blank cell) pairs of a blank at ``cell``, in op order."""
    r, c = divmod(cell, width)
    return tuple(
        (op, (r + dr) * width + c + dc)
        for op, (dr, dc) in _STEPS.items()
        if 0 <= r + dr < width and 0 <= c + dc < width
    )


def inverse(op: Op) -> Op:
    """The op whose step undoes ``op``'s."""
    dr, dc = _STEPS[op]
    return next(o for o, step in _STEPS.items() if step == (-dr, -dc))


def legal_ops(s: State) -> tuple[Op, ...]:
    """The ops that keep the blank on the board, in op order."""
    return tuple(op for op, _ in cell_moves(s.width, s.blank))


def apply_op(s: State, op: Op) -> State:
    """``s`` with the blank moved by ``op``; ValueError if that leaves the board."""
    for o, j in cell_moves(s.width, s.blank):
        if o == op:
            tiles = list(s.tiles)
            tiles[s.blank], tiles[j] = tiles[j], tiles[s.blank]
            return State(tuple(tiles), s.width)
    raise ValueError(f"{Op(op).name} moves the blank off the board in {s}")


def replay(start: State, moves) -> State:
    """``start`` after ``moves``, each applied by ``apply_op``."""
    for op in moves:
        start = apply_op(start, op)
    return start


@lru_cache(maxsize=None)
def _goal_cells(goal: State) -> dict[int, tuple[int, int]]:
    return {t: divmod(i, goal.width) for i, t in enumerate(goal.tiles)}


def tile_distance(goal: State, tile: int, cell: int) -> int:
    """|row delta| + |col delta| from ``cell`` to ``tile``'s cell in ``goal``."""
    r, c = divmod(cell, goal.width)
    gr, gc = _goal_cells(goal)[tile]
    return abs(r - gr) + abs(c - gc)


def manhattan_tally(s: State, goal: State) -> int:
    """``tile_distance`` summed over the non-blank tiles, with the goal's cell map read once."""
    cells = _goal_cells(goal)
    total = 0
    for i, t in enumerate(s.tiles):
        if t:
            gr, gc = cells[t]
            total += abs(i // s.width - gr) + abs(i % s.width - gc)
    return total


def bfs_distances(goal: State) -> dict[tuple[int, ...], int]:
    """True distance-to-goal for every state reachable from ``goal``."""
    dist = {goal.tiles: 0}
    queue = deque([goal])
    while queue:
        s = queue.popleft()
        for op in legal_ops(s):
            n = apply_op(s, op)
            if n.tiles not in dist:
                dist[n.tiles] = dist[s.tiles] + 1
                queue.append(n)
    return dist


@lru_cache(maxsize=None)
def _ranks_by_permutation(n: int) -> dict[tuple[int, ...], int]:
    # itertools.permutations yields in lexicographic order: position = rank.
    return {perm: i for i, perm in enumerate(permutations(range(n)))}


def lehmer_rank(perm) -> int:
    """Lexicographic rank of a permutation of 0..n-1, by enumerating them all."""
    return _ranks_by_permutation(len(perm))[tuple(perm)]


def cycle_parity(perm) -> int:
    """Parity of a permutation of 0..n-1: n minus its number of cycles, mod 2."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return (len(perm) - cycles) & 1


def cycle_count_reachable(a: State, b: State) -> bool:
    """Whether ``b`` is reachable from ``a``, by the parity of the permutation between them.

    Each move is one transposition and moves the blank one grid step, so the
    cycle-count parity of the permutation taking ``a`` to ``b`` must equal the
    parity of the grid distance between their blanks.
    """
    pos_in_b = {t: i for i, t in enumerate(b.tiles)}
    ar, ac = divmod(a.blank, a.width)
    br, bc = divmod(b.blank, b.width)
    return cycle_parity([pos_in_b[t] for t in a.tiles]) == (abs(ar - br) + abs(ac - bc)) & 1


def random_walk_oracle(goal: State, steps: int, seed: int) -> State:
    """A seeded walk from ``goal`` that never undoes its last move, each step
    drawn by ``random.Random(seed).choice`` from the legal ops in op order."""
    rng = random.Random(seed)
    s, last = goal, None
    for _ in range(steps):
        last = rng.choice([op for op in legal_ops(s) if last is None or op != inverse(last)])
        s = apply_op(s, last)
    return s


def exhaustive_lookahead(
    s: State, goal: State, level: int
) -> tuple[Op, int, dict[Op, int], int, int]:
    """Enumerate every root-to-leaf operator sequence of the lookahead tree.

    Sequences never immediately backtrack and stop early at the goal (scored
    f = depth); full-length leaves score f = depth + ``manhattan_tally``.
    Returns the operator of the best first step (ties by Up < Down < Left <
    Right), its backed-up value, the per-first-step value table, the number
    of nodes the tree generates (every node but the root, goal and frontier
    nodes included), and its peak stack: the root plus the deepest node's
    depth.
    """
    generated = 0
    deepest = 0

    def paths_min(state: State, depth: int, last: Op | None) -> int:
        nonlocal generated, deepest
        generated += 1
        deepest = max(deepest, depth)
        if state.tiles == goal.tiles:
            return depth
        if depth == level:
            return depth + manhattan_tally(state, goal)
        best = None
        for op in legal_ops(state):
            if last is not None and op == inverse(last):
                continue
            value = paths_min(apply_op(state, op), depth + 1, op)
            if best is None or value < best:
                best = value
        return best

    table: dict[Op, int] = {}
    for op in legal_ops(s):
        table[op] = paths_min(apply_op(s, op), 1, op)
    best_op = min(table, key=lambda o: (table[o], int(o)))
    return best_op, table[best_op], table, generated, 1 + deepest


def minimin_run_oracle(s: State, goal: State, level: int, max_moves: int, node_budget: int):
    """A Minimin run whose every decision is ``exhaustive_lookahead``'s.

    Limits are checked before each decision.  A child already entered twice
    is passed over for the next first move by (value, op), if one is not.
    Returns ((path_length, time_units, space_units, solved), trace), the
    trace holding each decision's (tiles, top-ranked child tiles).
    """
    visits = {s.tiles: 1}
    moves = nodes = peak = 0
    trace = []
    while s.tiles != goal.tiles:
        if moves >= max_moves or nodes >= node_budget:
            return (max_moves, nodes, peak, False), trace
        _, _, table, generated, stack = exhaustive_lookahead(s, goal, level)
        nodes += generated
        children = [apply_op(s, op) for op in sorted(table, key=lambda o: (table[o], int(o)))]
        trace.append((s.tiles, children[0].tiles))
        s = next((c for c in children if visits.get(c.tiles, 0) < 2), children[0])
        visits[s.tiles] = visits.get(s.tiles, 0) + 1
        moves += 1
        peak = max(peak, stack + len(visits))
    return (moves, nodes, peak, True), trace


def idastar_oracle(p, node_budget: int) -> tuple[int, int, int, str]:
    """IDA* on Manhattan distance that builds a tiles tuple for every node it generates.

    Each node's children are ``cell_moves`` but the inverse of the op it was
    reached by, the goal test compares tiles with the goal, each child's h is
    worked out from ``tile_distance`` for the tile it slides, and each next
    bound is the least f seen above the last.  Returns (length, nodes
    generated, peak stored, path letters); raises ``BudgetExhausted`` on the
    generation that exceeds ``node_budget``.
    """
    start = p.initial.tiles
    goal = p.goal.tiles
    generated = 0
    peak_depth = 0
    path_ops: list[Op] = []
    found = False
    inf = float("inf")

    def dfs(tiles, blank, g, hval, bound, last_op):
        nonlocal generated, peak_depth, found
        f = g + hval
        if f > bound:
            return f
        if tiles == goal:
            found = True
            return f
        next_bound = inf
        for op, j in cell_moves(p.width, blank):
            if last_op is not None and op == inverse(last_op):
                continue
            generated += 1
            if generated > node_budget:
                raise BudgetExhausted(f"idastar exceeded node budget of {node_budget}")
            child = list(tiles)
            child[blank], child[j] = child[j], child[blank]
            moved = tiles[j]
            peak_depth = max(peak_depth, g + 1)
            path_ops.append(op)
            step = tile_distance(p.goal, moved, blank) - tile_distance(p.goal, moved, j)
            t = dfs(tuple(child), j, g + 1, hval + step, bound, op)
            if found:
                return t
            path_ops.pop()
            next_bound = min(next_bound, t)
        return next_bound

    h0 = bound = manhattan_tally(p.initial, p.goal)
    while True:
        t = dfs(start, start.index(0), 0, h0, bound, None)
        if found:
            return len(path_ops), generated, peak_depth + 1, "".join(op.letter for op in path_ops)
        if t == inf:
            raise BudgetExhausted("no solution within any bound")
        bound = int(t)


def depth_keyed_ceiling(rows) -> tuple[float, float]:
    """Best per-instance fraction-highest and within-one of any depth-keyed choice.

    ``rows`` are report rows (``depth``, ``instance_id``, ``level``,
    ``utility``).  A policy picks one level per depth; on an instance it is
    "highest" when its level's utility equals that instance's maximum over all
    levels, and "within one" when some maximizing level lies at most one level
    away.  Every combination of per-depth levels is enumerated and the two
    fractions are maximized separately, so each may come from a different
    combination.
    """
    from itertools import product

    utilities: dict[tuple[int, int], dict[int, float]] = {}
    for row in rows:
        utilities.setdefault((row.depth, row.instance_id), {})[row.level] = row.utility
    depths = sorted({depth for depth, _ in utilities})
    levels = sorted({level for cells in utilities.values() for level in cells})

    # Both fractions are sums over instances, so a per-(depth, level) tally of
    # the instances it wins is exact for every combination built from it.
    highest = {(d, l): 0 for d in depths for l in levels}
    near = dict(highest)
    for (depth, _), cells in utilities.items():
        top = max(cells.values())
        winners = [l for l, u in cells.items() if u == top]
        for level in levels:
            highest[depth, level] += cells[level] == top
            near[depth, level] += any(abs(level - w) <= 1 for w in winners)

    best_highest = best_near = 0
    for choice in product(levels, repeat=len(depths)):
        best_highest = max(best_highest, sum(highest[p] for p in zip(depths, choice)))
        best_near = max(best_near, sum(near[p] for p in zip(depths, choice)))
    n = len(utilities)
    return best_highest / n, best_near / n


def markov_predict_oracle(params, d: int, level: int, samples: int, seed: int):
    """``markov_predict`` as one independent walk loop per call.

    Each call draws its own row of ``samples`` uniforms per step from a fresh
    generator and stops when its own walks are all absorbed or ``max_len``
    steps have passed; a draw below p_level moves a walk one step closer.
    """
    from eusearch.perfmodel import nodes_per_decision
    from eusearch.utility import Lottery

    p = params.accuracy[level]
    rng = np.random.default_rng(seed)
    dist = np.full(samples, d, dtype=np.int64)
    lengths = np.zeros(samples, dtype=np.int64)
    active = np.ones(samples, dtype=bool)
    for step in range(1, params.max_len + 1):
        if not active.any():
            break
        draws = rng.random(samples)
        moves = np.where(draws < p, -1, 1)
        dist[active] += moves[active]
        absorbed = active & (dist == 0)
        lengths[absorbed] = step
        active &= ~absorbed
    npd = nodes_per_decision(params, level)
    entries = []
    solved = ~active
    if solved.any():
        unique, counts = np.unique(lengths[solved], return_counts=True)
        for length, count in zip(unique.tolist(), counts.tolist()):
            outcome = Outcome(
                path_length=float(length),
                time_units=float(length) * npd,
                space_units=float(level + 1) + float(length + 1),
                solved=True,
            )
            entries.append((outcome, count / samples))
    truncated = int(active.sum())
    if truncated:
        outcome = Outcome(
            path_length=float(params.max_len),
            time_units=float(params.max_len) * npd,
            space_units=float(level + 1) + float(params.max_len + 1),
            solved=False,
        )
        entries.append((outcome, truncated / samples))
    return Lottery.of(entries)


def empirical_predict_oracle(model, d: int, level: int, extrapolate: bool = False):
    """``predict`` on an ``EmpiricalTable``, as its own branch once read: a uniform
    lottery over the cell at ``d``, else over the nearest cell when ``extrapolate``
    lets a depth beyond the table through, else the two cells around ``d`` weighted
    by distance."""
    from eusearch.perfmodel import MissingAccuracy, OutOfRange
    from eusearch.utility import Lottery

    def uniform(values):
        p = 1.0 / len(values)
        return Lottery(tuple((v, p) for v in values))

    if level not in model.levels:
        raise MissingAccuracy(f"empirical table has no level {level}")
    depths = model.depths_for(level)
    if d in depths:
        return uniform(list(model.cells[(d, level)]))
    lower = [b for b in depths if b < d]
    upper = [b for b in depths if b > d]
    if not lower or not upper:
        if not extrapolate:
            raise OutOfRange(
                f"depth {d} outside empirical buckets {depths} for level {level}"
            )
        bucket = depths[0] if not lower else depths[-1]
        return uniform(list(model.cells[(bucket, level)]))
    b1, b2 = lower[-1], upper[0]
    w = (b2 - d) / (b2 - b1)
    entries = []
    cell1 = model.cells[(b1, level)]
    cell2 = model.cells[(b2, level)]
    entries.extend((o, w / len(cell1)) for o in cell1)
    entries.extend((o, (1.0 - w) / len(cell2)) for o in cell2)
    return Lottery.of(entries)


# The scalar utility code that ``utility.utilities_of`` replaced: one Python
# call per curve, outcome and lottery entry.  The array scorer must repeat its
# arithmetic step for step, so every utility and EU has the same bits.
def curve_oracle(curve, value: float) -> float:
    """``curve`` (an ``AttributeUtility``) at ``value``, by a walk over its knots."""
    if value >= curve.bound:
        return 0.0
    pts = curve.points
    if value <= pts[0][0]:
        return pts[0][1]
    if not value < pts[-1][0]:  # NaN included, so the loop below always returns
        return pts[-1][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if value == x1:  # exact knot values, no interpolation round-off
            return y1
        if value < x1:
            return y0 + (y1 - y0) * (value - x0) / (x1 - x0)


def _raw_oracle(m: UtilityModel, utilities) -> float:
    if m.form == "additive":
        return left_sum(w * u for w, u in zip(m.weights, utilities))
    if m.form == "multiplicative":
        prod = 1.0
        for w, u in zip(m.weights, utilities):
            prod *= 1.0 + m.k * w * u
        return prod - 1.0
    by_name = dict(zip(m.attribute_names(), utilities))
    total = left_sum(w * u for w, u in zip(m.weights, utilities))
    for (a, b), kij in m.interactions:
        total += kij * by_name[a] * by_name[b]
    return total


def combine_oracle(m: UtilityModel, utilities) -> float:
    """Per-attribute utilities combined by ``m``'s form; exactly 1.0 at the all-best corner."""
    value = _raw_oracle(m, utilities) / _raw_oracle(m, [1.0] * len(m.attributes))
    return min(1.0, max(0.0, value))


def joint_utility_oracle(o: Outcome, m: UtilityModel) -> float:
    """Joint utility of an outcome: 0 if unsolved or any attribute hits its bound."""
    if not o.solved:
        return 0.0
    utilities = []
    for attr in m.attributes:
        value = attribute_value(o, attr.attribute)
        if value >= attr.bound:
            return 0.0
        utilities.append(curve_oracle(attr, value))
    return combine_oracle(m, utilities)


def expected_utility_oracle(lot, u) -> float:
    """Probability-weighted utility of a lottery, its terms added left to right."""

    def score(value) -> float:
        if isinstance(u, UtilityModel):
            return joint_utility_oracle(value, u)
        if isinstance(value, Outcome):
            return curve_oracle(u, attribute_value(value, u.attribute))
        return curve_oracle(u, float(value))

    return left_sum(prob * score(value) for value, prob in lot.entries)


# ``utility.calibrate_multiplicative`` as it was before it solved for its root:
# it evaluates the coupling residual at every point of the K grid, bisects every
# bracket of a sign change, and ranks the valid candidates by row variance,
# then by |K|.
def calibrate_multiplicative_oracle(
    equivalence_rows: Sequence[Outcome],
    bounds: Mapping[str, float] = DEFAULT_BOUNDS,
) -> UtilityModel:
    """Fit a multiplicative model that scores the given rows equally.

    Attribute curves are linear from best value to bound for moves and time;
    space is free but bounded (weight 0).  Solves for k_path, k_time, and the
    master constant K: for a trial K, the row-equality equations plus the
    consistency constraint are linear in (A, B, C) = (K*k_p, K*k_t, K^2*k_p*k_t)
    and solved by least squares; the leftover coupling residual A*B - C is
    driven to zero by bisection on K.
    """
    if len(equivalence_rows) < 2:
        raise ValueError("calibration needs at least two equivalence rows")
    curves = _calibration_curves(bounds)
    for row in equivalence_rows:
        for curve in curves:
            if attribute_value(row, curve.attribute) >= curve.bound:
                raise CalibrationFailed(
                    f"row {row} violates the {curve.attribute} bound"
                )
    up = [curve_oracle(curves[0], row.path_length) for row in equivalence_rows]
    ut = [curve_oracle(curves[1], row.time_units) for row in equivalence_rows]
    # Row-equality differences, then the consistency row; the unknowns are (A, B, C).
    matrix = np.array(
        [
            [up[j] - up[j + 1], ut[j] - ut[j + 1], up[j] * ut[j] - up[j + 1] * ut[j + 1]]
            for j in range(len(up) - 1)
        ]
        + [[1.0, 1.0, 1.0]]
    )

    def solve_for(k: float) -> np.ndarray:
        rhs = np.zeros(len(matrix))
        rhs[-1] = k
        solution, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        return solution

    def coupling(k: float) -> float:
        a, b, c = solve_for(k)
        return a * b - c

    def candidate(k: float) -> UtilityModel | None:
        a, b, _ = solve_for(k)
        k_path, k_time = float(a / k), float(b / k)
        if not (0.0 < k_path <= 1.0 and 0.0 < k_time <= 1.0):
            return None
        # Re-derive K from the recovered weights so the consistency invariant
        # holds to machine precision: 1 + K = (1 + K*k_p)(1 + K*k_t) gives
        # K = (1 - k_p - k_t) / (k_p * k_t).
        k_exact = (1.0 - k_path - k_time) / (k_path * k_time)
        if k_exact <= -1.0 or k_exact == 0.0:
            return None
        try:
            return UtilityModel(
                attributes=curves,
                form="multiplicative",
                weights=(k_path, k_time, 0.0),
                k=k_exact,
                tag="multiplicative-calibrated",
            )
        except MalformedModel:
            return None

    def row_variance(model: UtilityModel) -> float:
        scores = [joint_utility_oracle(row, model) for row in equivalence_rows]
        return float(np.var(scores))

    # Bracket sign changes of the coupling residual on both sides of K = 0
    # (K = 0 itself is the degenerate additive root and is excluded).
    negatives = sorted(-(10.0 ** (-4 + 4 * i / 80)) for i in range(81))
    grid: list[float] = [k for k in negatives if k > -0.999]
    grid += [10.0 ** (-4 + 8 * i / 160) for i in range(161)]
    points = [(k, coupling(k)) for k in grid]

    solutions: list[tuple[float, float, UtilityModel]] = []
    for (k0, s0), (k1, s1) in zip(points, points[1:]):
        if k0 * k1 <= 0 or not (s0 == 0.0 or s0 * s1 < 0):
            continue
        model = candidate(k0 if s0 == 0.0 else _bisect(coupling, k0, k1, s0))
        if model is not None and (var := row_variance(model)) < _VARIANCE_FLOOR:
            solutions.append((var, abs(model.k), model))

    if not solutions:
        raise CalibrationFailed(
            "rows are inconsistent with a multiplicative utility "
            f"(no solution reached variance < {_VARIANCE_FLOOR})"
        )
    return min(solutions, key=lambda item: item[:2])[2]


def _bisect(f: Callable[[float], float], lo: float, hi: float, flo: float) -> float:
    """A root of ``f`` between ``lo`` and ``hi``; ``f(lo) = flo`` and ``f(hi)`` differ in sign."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
