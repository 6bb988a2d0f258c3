"""The four benchmark workloads: inputs from a seed, the measured call, the check.

Every workload's inputs depend only on (seed, size); the size follows from
``--seconds`` alone, so two commits run identical work.  Inputs come in
blocks of fixed composition (so many items of each depth, level or model)
so that seeds change which instances run but barely change how much work a
run holds.

A workload's ``check`` counts failed items into its ``Result``.  Oracles that
hold for any seed run on every run; the output digest recorded in
``digests.json`` is compared when seed and size match the recorded ones.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import eusearch.exact as exact
import eusearch.experiment as ex
import eusearch.minimin as minimin
import eusearch.puzzle as puzzle
import eusearch.selector as selector
import eusearch.utility as utility
from eusearch.experiment import ExperimentConfig, to_user_units
from eusearch.perfmodel import load_model
from eusearch.seeds import subseed

import tracing
from tracing import Recorder

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
DIGESTS = HERE / "digests.json"


def sha256_text(lines: Sequence[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def recorded_digest(workload: str, seed: int, items: int) -> str | None:
    entry = json.loads(DIGESTS.read_text()).get(workload)
    if entry and entry["seed"] == seed and entry["items"] == items:
        return entry["sha256"]
    return None


@dataclass
class Result:
    """What a workload reports back to the harness."""

    attempted: int
    intervals: list[tuple[float, float]]  # (start, end) of each item, perf_counter s
    failed: int = 0
    digest: str = ""
    notes: dict | None = None


def _loop(rec: Recorder, items: Sequence, call: Callable) -> tuple[list, list[tuple[float, float]]]:
    """Run ``call`` on each item under an ``item`` span; failures give None."""
    outputs: list = []
    for i, item in enumerate(items):
        rec.item = i
        with rec.span("item"):
            try:
                outputs.append(call(item))
            except Exception:  # a failed item is counted, the run goes on
                traceback.print_exc()
                outputs.append(None)
    rec.item = None
    return outputs, [(s.start, s.end) for s in rec.spans if s.name == "item"]


def _blocks(seconds: float, block_s: float) -> int:
    return max(1, round(seconds / block_s))


def _block(counts: dict[int, int], rng: random.Random) -> list[int]:
    """One block of keys, each repeated ``counts[key]`` times, in seeded order."""
    keys = [k for k, n in counts.items() for _ in range(n)]
    rng.shuffle(keys)
    return keys


# --- desk_protocol -------------------------------------------------------------


class DeskProtocol:
    """``run_experiment`` on the desk config with fewer evaluation instances.

    An item is one Minimin run of one evaluation instance at one level.  An
    instance with all its levels would make 175 items a run, with 17 beyond
    p90 in the heavy tail of depth-16 and depth-20 instances; over ten seeds
    their p90 spread 0.15 against 0.08 for single runs.  Rows of instance
    ``i`` do not depend on ``instances_per_depth``, so this run's CSV is the
    desk CSV restricted to ``instance_id < instances_per_depth``.

    ``--seconds`` sizes the evaluation only (``eval_s`` per instance with all
    its levels, on a 2-core x86 machine).  The fit before it is a fixed ~32 s
    of training-suite Minimin traces and d* queries, so a run lasts about
    ``32 + seconds``.
    """

    name = "desk_protocol"
    reference = "py"  # speed.KERNELS entry that tracks this work
    eval_s = 0.43

    def prepare(self, seed: int, seconds: float, out_dir: Path, **overrides):
        ipd = max(10, round(seconds / self.eval_s))
        cfg = replace(ExperimentConfig(seed=seed, instances_per_depth=ipd), **overrides)
        return cfg, out_dir / f"{self.name}-s{seed}.runs.csv"

    def run(self, inputs, rec: Recorder) -> tuple[Result, object]:
        cfg, csv_path = inputs
        attempted = len(cfg.depths) * cfg.instances_per_depth * len(cfg.levels)
        with tracing.installed(rec, (tracing.DESK_ITEM_WRAP,)), rec.span("experiment.run_experiment"):
            try:
                report = ex.run_experiment(cfg, csv_path=str(csv_path))
            except Exception:
                traceback.print_exc()
                return Result(attempted, [], failed=attempted), None
        root = next(i for i, s in enumerate(rec.spans) if s.name == "experiment.run_experiment")
        intervals = [(s.start, s.end) for s in rec.spans
                     if s.name == "minimin.minimin_run" and s.parent == root]
        return Result(attempted, intervals), report

    def check(self, inputs, result: Result, report) -> None:
        if report is None:
            return
        cfg, csv_path = inputs
        result.digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        summary = ex.summarize(report)
        oracle_ok = ex.summarize(ex.read_report_csv(str(csv_path), cfg)) == summary
        rows_ok = len(report.rows) == result.attempted
        expected = recorded_digest(self.name, cfg.seed, result.attempted)
        if not (oracle_ok and rows_ok) or expected not in (None, result.digest):
            result.failed = result.attempted
        result.notes = {
            "fraction_highest": summary.fraction_highest,
            "within_one": summary.within_one,
            "mean_utility_gap": summary.mean_utility_gap,
            "summary_roundtrip_ok": oracle_ok,
            "digest_checked": expected is not None,
        }


# --- select_sweep --------------------------------------------------------------

MODEL_DEPTHS = (4, 8, 12, 16, 20)


class SelectSweep:
    """``select_lookahead`` over depths 1-31 against the five desk models.

    An item is one selection.  Cost depends mostly on the model (about 15 ms
    against the depth-4 model, 200 ms against depth 20) and less on the
    depth, so a block is one pass over every (model, depth) pair: depths in
    an order drawn from the seed, each against all five models in turn, so
    that every stretch of the run holds each model equally often.
    """

    name = "select_sweep"
    reference = "np"  # speed.KERNELS entry that tracks this work
    block_s = 19.0  # one pass on a 2-core x86 machine

    def prepare(self, seed: int, seconds: float, out_dir: Path, blocks: int | None = None):
        models = {d: load_model(str(DATA / f"markov_d{d}.yaml")) for d in MODEL_DEPTHS}
        rng = random.Random(seed)
        items = []
        for p in range(blocks or _blocks(seconds, self.block_s)):
            depths = list(range(1, 32))
            rng.shuffle(depths)
            items += [(m, d, subseed(seed, "sweep", p, m, d)) for d in depths for m in MODEL_DEPTHS]
        return ExperimentConfig(), models, utility.default_utility_model(), items, seed

    def run(self, inputs, rec: Recorder) -> tuple[Result, list]:
        cfg, models, u, items, _ = inputs

        def convert(o):
            return to_user_units(o, cfg.gens_per_minute, cfg.nodes_per_megabyte)

        def select(item):
            m, d, s = item
            return selector.select_lookahead(
                d, models[m], u, cfg.levels,
                samples=cfg.predict_samples, seed=s, convert=convert,
            )

        outputs, intervals = _loop(rec, items, select)
        return Result(len(items), intervals), outputs

    def check(self, inputs, result: Result, outputs) -> None:
        _, _, _, items, seed = inputs
        lines = []
        for (m, d, s), sel in zip(items, outputs):
            if sel is None:
                result.failed += 1
                continue
            eus = sel.eu_by_level
            best = max(eus.values())
            if sel.chosen_level != min(l for l, eu in eus.items() if eu == best):
                result.failed += 1
            lines.append(f"{m} {d} {s} {sel.chosen_level} " + " ".join(repr(eus[l]) for l in sorted(eus)))
        _digest_check(self.name, seed, result, lines)


# --- deep_generation -----------------------------------------------------------


class DeepGeneration:
    """``instance_of_depth`` at width 3 for depths 16-27 with desk attempts.

    An item is one verified instance.  Cost per instance grows about 200-fold
    from depth 16 to 27 and is geometric in the number of rejected walks, so a
    block gives each depth about the same time (``COUNTS``, from mean costs
    on a 2-core x86 machine) instead of the same count: the deepest depths
    would otherwise fill most of the run and make its length depend on a
    handful of draws.  ``bfs_optimal`` confirms the first instance of every
    depth.
    """

    name = "deep_generation"
    reference = "py"  # speed.KERNELS entry that tracks this work
    COUNTS = {16: 182, 17: 212, 18: 173, 19: 109, 20: 79, 21: 47,
              22: 29, 23: 13, 24: 9, 25: 6, 26: 3, 27: 1}
    block_s = 1.3

    def prepare(self, seed: int, seconds: float, out_dir: Path, blocks: int | None = None):
        rng = random.Random(seed)
        depths = [d for _ in range(blocks or _blocks(seconds, self.block_s))
                  for d in _block(self.COUNTS, rng)]
        items = [(d, subseed(seed, "deep", i)) for i, d in enumerate(depths)]
        return ExperimentConfig().gen_attempts, items, seed

    def run(self, inputs, rec: Recorder) -> tuple[Result, list]:
        attempts, items, _ = inputs
        outputs, intervals = _loop(
            rec, items, lambda it: exact.instance_of_depth(it[0], 3, it[1], attempts=attempts)
        )
        return Result(len(items), intervals), outputs

    def check(self, inputs, result: Result, outputs) -> None:
        _, items, seed = inputs
        lines = []
        unverified = set(self.COUNTS)
        for (d, s), inst in zip(items, outputs):
            if inst is None:
                result.failed += 1
                continue
            h = puzzle.manhattan(inst.initial, inst.goal)
            ok = inst.initial != inst.goal and h <= d and (d - h) % 2 == 0
            if ok and d in unverified:
                unverified.discard(d)
                ok = exact.bfs_optimal(inst).length == d
            result.failed += not ok
            lines.append(f"{d} {s} " + " ".join(map(str, inst.initial.tiles)))
        _digest_check(self.name, seed, result, lines)


# --- width4_lookahead ----------------------------------------------------------


class Width4Lookahead:
    """``minimin_run`` on 4x4 boards scrambled by seeded walks of 20-40 moves.

    An item is one run.  On these boards a run ends in one of three ways:
    solved; stopped by the 100-move cap, the most common end at levels 2-8,
    at a cost close to fixed for a level (about 1.2 ms at level 2, doubling
    per level); or stopped by the node budget, which only levels 9 and 10
    reach within 100 moves (90-160 ms).  Capped runs form tight latency
    peaks and solved runs spread below them.  ``COUNTS`` puts the median
    inside the level-4 capped peak and p90 inside the level-6 one, away from
    the gaps between peaks, where a few runs more or less can move a
    percentile by a third or more.  No oracle is cheap at this size, so
    every outcome is checked against invariants that hold for any Minimin
    run: each move changes Manhattan distance by one, so a solved path is at
    least h and has h's parity; an unsolved run reports the move cap.
    """

    name = "width4_lookahead"
    reference = "py"  # speed.KERNELS entry that tracks this work
    # From run times per level and end, traced on a 2-core x86 machine.
    COUNTS = {2: 4, 3: 6, 4: 44, 5: 4, 6: 26, 7: 2, 8: 1, 9: 1, 10: 1}
    block_s = 1.0

    def prepare(self, seed: int, seconds: float, out_dir: Path, blocks: int | None = None):
        rng = random.Random(seed)
        goal = puzzle.goal_state(4)
        levels = [l for _ in range(blocks or _blocks(seconds, self.block_s))
                  for l in _block(self.COUNTS, rng)]
        items = []
        for i, level in enumerate(levels):
            start = puzzle.random_walk(goal, rng.randint(20, 40), subseed(seed, "board", i))
            items.append((puzzle.ProblemInstance(start, goal), level))
        return ExperimentConfig().limits, items, seed

    def run(self, inputs, rec: Recorder) -> tuple[Result, list]:
        limits, items, _ = inputs
        outputs, intervals = _loop(rec, items, lambda it: minimin.minimin_run(it[0], it[1], limits))
        return Result(len(items), intervals), outputs

    def check(self, inputs, result: Result, outputs) -> None:
        limits, items, seed = inputs
        lines = []
        for (inst, level), o in zip(items, outputs):
            if o is None:
                result.failed += 1
                continue
            h = puzzle.manhattan(inst.initial, inst.goal)
            if o.solved:
                ok = h <= o.path_length <= limits.max_moves and (o.path_length - h) % 2 == 0
            else:
                ok = o.path_length == limits.max_moves and o.time_units > 0
            result.failed += not ok
            lines.append(
                f"{level} {' '.join(map(str, inst.initial.tiles))} "
                f"{o.path_length} {o.time_units} {o.space_units} {int(o.solved)}"
            )
        _digest_check(self.name, seed, result, lines)


def _digest_check(name: str, seed: int, result: Result, lines: list[str]) -> None:
    result.digest = sha256_text(lines)
    expected = recorded_digest(name, seed, result.attempted)
    if expected is not None and expected != result.digest:
        result.failed = result.attempted
    result.notes = {"digest_checked": expected is not None}


WORKLOADS = {w.name: w for w in (DeskProtocol(), SelectSweep(), DeepGeneration(), Width4Lookahead())}
