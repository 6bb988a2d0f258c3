#!/usr/bin/env python3
"""Print one SHA-256 over every Minimin run of three experiments.

Every run, whether ``minimin_run`` or ``minimin_trace`` made it, goes through
``minimin._run_loop``.  Each call adds its (initial tiles, level, move cap,
node budget) and its ``Outcome``; a traced run also adds its (tiles,
top-ranked child tiles) decision pairs, which record every decision's chosen
move.  The runs are the seed-0 desk protocol at 35 instances per depth,
Minimin at levels 1-8 on twelve 4x4 boards scrambled by seeded walks, and
``configs/experiment_full.yaml`` at 10 instances per depth, all in one
process.  Two checkouts whose runs move, count and trace alike print the
same digest:

    python3 scripts/replay_decisions.py
"""

import hashlib
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eusearch import minimin  # noqa: E402
from eusearch.experiment import ExperimentConfig, load_experiment_config, run_experiment  # noqa: E402
from eusearch.puzzle import ProblemInstance, goal_state, random_walk  # noqa: E402


def width4_runs() -> None:
    goal = goal_state(4)
    limits = minimin.ResourceLimits(max_moves=100, node_budget=200_000)
    for seed in range(12):
        p = ProblemInstance(random_walk(goal, 20 + 2 * seed, seed), goal)
        for level in range(1, 9):
            minimin.minimin_run(p, level, limits)


RUNS = {
    "desk": lambda: run_experiment(ExperimentConfig(instances_per_depth=35)),
    "width4": width4_runs,
    "reduced-full": lambda: run_experiment(replace(
        load_experiment_config(str(ROOT / "configs" / "experiment_full.yaml")),
        instances_per_depth=10,
        workers=1,
    )),
}


def main() -> None:
    run_loop = minimin._run_loop
    total = hashlib.sha256()
    for name, run in RUNS.items():
        digest = hashlib.sha256()
        runs = decisions = 0

        def recorded(p, level, limits, trace=None):
            nonlocal runs, decisions
            outcome = run_loop(p, level, limits, trace)
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


if __name__ == "__main__":
    main()
