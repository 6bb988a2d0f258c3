#!/usr/bin/env python3
"""Print one SHA-256 over every Minimin run of three experiments.

Every run, whether ``minimin_run`` or ``minimin_trace`` (through which the fit
traces) made it, goes through ``minimin._run_loop``.  Each call adds its
(initial tiles, level, move cap, node budget) and its ``Outcome``; a traced run
also adds its (tiles, top-ranked child tiles) decision pairs, which record
every decision's chosen move.  A run loop that traces 2x2 and 3x3 states by
their keys in ``exact._state_index`` (blank cell << 16 | k) has its tiles
replayed first by ``tile_pairs``: each key's blank cell is where the blank went
from the state before, and the child key's is where the top-ranked move takes
it.  So checkouts that trace keys and checkouts that trace tiles digest alike.
``tile_pairs`` is the one decoder of such traces; the package keeps none, and
the tests read traced 2x2 and 3x3 tiles through it.  The runs are the
seed-0 desk protocol at 35 instances per depth, Minimin at levels 1-8 on
twelve 4x4 boards scrambled by seeded walks, and
``configs/experiment_full.yaml`` at 10 instances per depth, all in one
process.  Two checkouts whose runs move, count and trace alike print the
same ``all:`` digest:

    python3 scripts/replay_decisions.py

A further line digests single decisions, apart from the runs: the return value
(or the error type) of ``minimin_decide`` and ``decision_accuracy`` on fixed
samples at widths 2-4 and levels 1-24, with 3x3 states of the other parity
class for ``minimin_decide``.  It is computed after the runs, outside the
``_run_loop`` hook, so it does not depend on which loop a decision goes by.
The line ``exact:`` digests the tiles of seeded ``random_walk`` scrambles at
widths 2-4 and what ``idastar`` returns on them (length, node count, peak
stored nodes, path) or raises, every fourth solve on a budget of 2,000 nodes.
The line ``bfs:`` digests the same for ``bfs_optimal`` on the scrambles at
widths 2-3.  The last line, ``search:``, digests width-4 ``minimin_trace``
runs from seeded-walk scrambles at levels 1-10, each on the desk's limits and
on a budget of 3,000 nodes that stops some of them: the initial tiles, level,
limits, ``Outcome`` and every (tiles, top-ranked child tiles) decision pair.
The line ``utility:`` digests what ``calibrate_multiplicative`` returns (the
weights and K) or raises on the seeded row sets of ``utility_row_sets``, and
the default model's ``joint_utility`` of seeded outcomes.  The line
``select:`` digests the chosen level and every EU, by ``repr``, of
``select_lookahead`` as ``select_level`` calls it for the desk protocol, at
depths 1-31 against each of the five models that
``fit_model(ExperimentConfig(), (d,))`` fits for the desk's depths d.
It calls only public functions, so it runs on any checkout that has them.
"""

import hashlib
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eusearch import minimin  # noqa: E402
from eusearch.exact import bfs_optimal, idastar  # noqa: E402
from eusearch.experiment import ExperimentConfig, fit_model, load_experiment_config  # noqa: E402
from eusearch.experiment import run_experiment, select_level  # noqa: E402
from eusearch.puzzle import ProblemInstance, State, goal_state, random_walk  # noqa: E402
from eusearch.utility import (  # noqa: E402
    DEFAULT_BOUNDS,
    Outcome,
    calibrate_multiplicative,
    default_utility_model,
    joint_utility,
)


def width4_runs() -> None:
    goal = goal_state(4)
    limits = minimin.ResourceLimits(max_moves=100, node_budget=200_000)
    for seed in range(12):
        p = ProblemInstance(random_walk(goal, 20 + 2 * seed, seed), goal)
        for level in range(1, 9):
            minimin.minimin_run(p, level, limits)


def decision_samples():
    """Per width: the goal, seeded-walk states that reach it, and 3x3 states that do not."""
    for width, steps in ((2, 6), (3, 40), (4, 20)):
        goal = goal_state(width)
        states = {random_walk(goal, 1 + seed % steps, seed) for seed in range(40)} - {goal}
        states = sorted(states, key=lambda s: s.tiles)
        other = []
        if width == 3:  # swapping the tiles of the first two cells changes the parity class
            other = [State(s.tiles[1::-1] + s.tiles[2:], 3) for s in states if 0 not in s.tiles[:2]]
        yield goal, states, other


def single_decisions() -> tuple[int, str]:
    """The number of calls made and a SHA-256 over what each returned or raised."""
    digest = hashlib.sha256()
    calls = 0

    def record(name, call, *args, **shared):
        nonlocal calls
        try:
            result = call(*args, **shared)
        except Exception as exc:  # the error type is part of the behaviour digested
            result = type(exc).__name__
        digest.update(repr((name, args, result)).encode())
        calls += 1

    for goal, states, other in decision_samples():
        cache: dict = {}
        for level in range(1, minimin.MAX_LOOKAHEAD + 1):
            for s in states + other:
                record("decide", minimin.minimin_decide, s, goal, level)
            record("accuracy", minimin.decision_accuracy, level, states, goal, dstar_cache=cache)
        record("accuracy", minimin.decision_accuracy, 2, [], goal)
        record("accuracy", minimin.decision_accuracy, 2, [states[0], goal], goal)
        record("decide", minimin.minimin_decide, goal, goal, 2)
        if other:
            record("accuracy", minimin.decision_accuracy, 2, other[:1], goal)
    return calls, digest.hexdigest()


# (width, seeds) pairs of the ``exact:`` line; ``bfs:`` takes the first two.
SOLVER_SIZES = ((2, 24), (3, 40), (4, 48))


def solver_samples(solver, sizes) -> tuple[int, str]:
    """The number of calls made and a SHA-256 over the walks' tiles and the solver's results.

    ``sizes`` holds (width, seeds) pairs: at each width, the walk of ``seed``
    steps from the goal for every seed below ``seeds``.
    """
    digest = hashlib.sha256()
    calls = 0
    for width, seeds in sizes:
        goal = goal_state(width)
        for seed in range(seeds):  # every fourth solve on a small budget
            s = random_walk(goal, seed, seed)
            budget = 2_000 if seed % 4 == 3 else 500_000
            try:
                r = solver(ProblemInstance(s, goal), node_budget=budget)
                result = (r.length, r.nodes_generated, r.peak_stored, r.path.letters)
            except Exception as exc:  # the error type is part of the behaviour digested
                result = type(exc).__name__
            digest.update(repr((width, seed, s.tiles, budget, result)).encode())
            calls += 2
    return calls, digest.hexdigest()


RUNS = {
    "desk": lambda: run_experiment(ExperimentConfig(instances_per_depth=35)),
    "width4": width4_runs,
    "reduced-full": lambda: run_experiment(replace(
        load_experiment_config(str(ROOT / "configs" / "experiment_full.yaml")),
        instances_per_depth=10,
    )),
}


def search_runs() -> tuple[int, str]:
    """The number of runs made and a SHA-256 over each one's limits, outcome and trace."""
    digest = hashlib.sha256()
    runs = 0
    goal = goal_state(4)
    budgets = (minimin.ResourceLimits(100, 200_000), minimin.ResourceLimits(100, 3_000))
    for seed in range(12):
        p = ProblemInstance(random_walk(goal, 20 + 4 * seed, 100 + seed), goal)
        for level in range(1, 11):
            for limits in budgets:
                outcome, trace = minimin.minimin_trace(p, level, limits)
                digest.update(repr((p.initial.tiles, level, limits, outcome, trace)).encode())
                runs += 1
    return runs, digest.hexdigest()


def utility_row_sets(count: int = 300):
    """``count`` seeded sets of 2-6 rows below the default bounds.

    Even seeds draw each row uniformly, so most such sets admit no
    multiplicative model.  Odd seeds draw rows on one indifference curve of a
    random multiplicative model, with weights in (0.05, 0.95) and K of either
    sign, so most such sets calibrate.
    """
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        if seed % 2 == 0:
            yield tuple(Outcome(100 * rng.random(), 10 * rng.random(), 10 * rng.random()) for _ in range(n))
            continue
        kp, kt, level = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), rng.uniform(0.2, 0.8)
        k = (1 - kp - kt) / (kp * kt)
        rows = []
        while len(rows) < n:  # path utility u, then the time utility v that keeps the level
            u = rng.random()
            v = ((1 + k * level) / (1 + k * kp * u) - 1) / (k * kt)
            if u > 0 and 0 < v <= 1:
                rows.append(Outcome(100 * (1 - u), 10 * (1 - v), 10 * rng.random()))
        yield tuple(rows)


def utility_samples() -> tuple[int, str]:
    """The number of calls made and a SHA-256 over what each returned or raised."""
    digest = hashlib.sha256()
    calls = 0
    for rows in utility_row_sets():
        try:
            m = calibrate_multiplicative(rows, DEFAULT_BOUNDS)
            result = (m.weights, m.k)
        except Exception as exc:  # the error type is part of the behaviour digested
            result = type(exc).__name__
        digest.update(repr((rows, result)).encode())
        calls += 1
    model = default_utility_model()
    rng = random.Random(0)
    for _ in range(2_000):
        o = Outcome(110 * rng.random(), 11 * rng.random(), 11 * rng.random(), solved=rng.random() < 0.9)
        digest.update(repr((o, joint_utility(o, model))).encode())
        calls += 1
    return calls, digest.hexdigest()


def selections() -> tuple[int, str]:
    """The number of selections made and a SHA-256 over each one's chosen level and EUs."""
    digest = hashlib.sha256()
    calls = 0
    cfg = ExperimentConfig()
    u = default_utility_model()
    for model_depth in cfg.depths:
        model = fit_model(cfg, (model_depth,))
        for depth in range(1, 32):
            report = select_level(cfg, model, u, depth)
            eus = [(level, repr(eu)) for level, eu in sorted(report.eu_by_level.items())]
            digest.update(repr((model_depth, depth, report.chosen_level, eus)).encode())
            calls += 1
    return calls, digest.hexdigest()


def tile_pairs(tiles, trace):
    """A trace of state keys, one per move from ``tiles``, as (tiles, child tiles) pairs."""

    def moved(tiles, cell):
        board = list(tiles)
        board[board.index(0)], board[cell] = board[cell], 0
        return tuple(board)

    pairs = []
    for state, child in trace:
        tiles = moved(tiles, state >> 16)  # the first state's blank has not moved
        pairs.append((tiles, moved(tiles, child >> 16)))
    return pairs


def main() -> None:
    run_loop = minimin._run_loop
    total = hashlib.sha256()
    for name, run in RUNS.items():
        digest = hashlib.sha256()
        runs = decisions = 0

        def recorded(p, level, limits, trace=None):
            nonlocal runs, decisions
            outcome = run_loop(p, level, limits, trace)
            if trace and isinstance(trace[0][0], int):
                trace = tile_pairs(p.initial.tiles, trace)
            record = (p.initial.tiles, level, limits.max_moves, limits.node_budget, outcome, trace)
            digest.update(repr(record).encode())
            runs += 1
            decisions += len(trace or ())
            return outcome

        minimin._run_loop = recorded
        start = time.perf_counter()
        try:
            run()
        finally:
            minimin._run_loop = run_loop
        seconds = time.perf_counter() - start
        print(f"{name}: {runs} runs, {decisions} traced decisions in {seconds:.2f} s, "
              f"sha256 {digest.hexdigest()}")
        total.update(digest.digest())
    print(f"all: sha256 {total.hexdigest()}")
    start = time.perf_counter()
    calls, single = single_decisions()
    print(f"single decisions: {calls} calls in {time.perf_counter() - start:.2f} s, sha256 {single}")
    for name, solver, sizes in (
        ("exact", idastar, SOLVER_SIZES),
        ("bfs", bfs_optimal, SOLVER_SIZES[:2]),
    ):
        start = time.perf_counter()
        calls, digest = solver_samples(solver, sizes)
        print(f"{name}: {calls} calls in {time.perf_counter() - start:.2f} s, sha256 {digest}")
    start = time.perf_counter()
    runs, digest = search_runs()
    print(f"search: {runs} runs in {time.perf_counter() - start:.2f} s, sha256 {digest}")
    start = time.perf_counter()
    calls, digest = utility_samples()
    print(f"utility: {calls} calls in {time.perf_counter() - start:.2f} s, sha256 {digest}")
    start = time.perf_counter()
    calls, digest = selections()
    print(f"select: {calls} selections in {time.perf_counter() - start:.2f} s, sha256 {digest}")


if __name__ == "__main__":
    main()
