"""Performance models: predict a lottery over outcomes for (depth, lookahead).

Two interchangeable predictors:

* ``MarkovParams`` — distance-to-goal modeled as a biased random walk whose
  step-down probability is the measured per-decision accuracy p_l; per-move
  computation comes from an effective branching factor per level.
* ``EmpiricalTable`` — measured outcomes per (depth, level) cell, with linear
  interpolation across depth buckets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

# ``decision_accuracy`` is looked up here by the benchmark's tracer (perfbench/tracing.py).
from .minimin import (  # noqa: F401
    Decision,
    EmptySample,
    ResourceLimits,
    _hit_rate,
    check_level,
    decision_accuracy,
    minimin_run,
    minimin_trace,
)
from .puzzle import ProblemInstance
from .seeds import subseed
from .utility import OUTCOME_ATTRIBUTES, Lottery, Outcome, _field, check_keys

# The kinds of performance model, as a config's ``model_kind`` names them.
MODEL_KINDS = ("markov", "empirical")
DEFAULT_MAX_LEN = 1000
# ``_first_passage`` holds 2 bytes per sample and accuracy, 3 when max_len > 255:
# a down counter of ``np.min_scalar_type(max_len)`` and an alive flag.
MAX_SAMPLES = 1_000_000
_ACCURACY_FLOOR = 0.501


class MissingAccuracy(Exception):
    """The Markov model has no accuracy estimate for the requested level."""


class OutOfRange(Exception):
    """A depth query fell outside the empirical table with extrapolation disabled."""


@dataclass(frozen=True)
class MarkovParams:
    """Biased-random-walk parameters fitted per lookahead level.

    ``accuracy[l]`` is the probability a level-l decision reduces true
    distance (in (0.5, 1], nondecreasing in l); ``branching[l]`` is the
    effective branching factor, so one decision generates about
    sum(b^i for i in 1..l) nodes.  Walks are truncated at ``max_len`` moves.
    """

    accuracy: Mapping[int, float]
    branching: Mapping[int, float]
    max_len: int = DEFAULT_MAX_LEN
    sample_sizes: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.accuracy:
            raise ValueError("accuracy map must not be empty")
        for level, p in self.accuracy.items():
            check_level(level)
            if not 0.5 < p <= 1.0:
                raise ValueError(f"accuracy p_{level}={p} outside (0.5, 1]")
        for level in sorted(self.accuracy):
            if level not in self.branching:
                raise ValueError(f"branching factor missing for level {level}")
            if not self.branching[level] > 1.0:
                raise ValueError("effective branching must exceed 1")
            try:
                finite = math.isfinite(nodes_per_decision(self, level))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"branching {level} gives no finite node count per decision")
        levels = sorted(self.accuracy)
        for a, b in zip(levels, levels[1:]):
            if self.accuracy[b] < self.accuracy[a] - 1e-12:
                raise ValueError("accuracy must be nondecreasing in level")
        if self.max_len <= 0:
            raise ValueError("max_len must be positive")

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted(self.accuracy))


def _geometric(b: float, level: int) -> float:
    """The geometric sum b + b^2 + ... + b^level."""
    return b * (b**level - 1.0) / (b - 1.0)


def nodes_per_decision(params: MarkovParams, level: int) -> float:
    """Predicted node generations for one level-``level`` decision."""
    return _geometric(params.branching[level], level)


def _first_passage(d: int, ps: Sequence[float], max_len: int, samples: int, seed: int) -> np.ndarray:
    """How many walks from ``d`` are first absorbed at each step, one row per p in ``ps``.

    Entry k >= 1 counts the walks first at 0 after k steps, entry 0 those still
    alive at ``max_len``, so each row sums to ``samples``.  Every row reads the
    same uniform draws, ``samples`` per step, so with ``ps`` ascending a higher
    p's walk is never above a lower p's: the rows empty from the last, only the
    ``live`` rows not yet empty are moved and tested, and the walk stops when
    the lowest p's row empties.  The rows run to that step, not to
    ``max_len``.  A walk is at 0 after k steps when (d + k) / 2 of them went
    down, so no step before ``d`` or of the other parity is tested.  The alive
    flags are padded with False to whole 8-byte words, and a row's survivors,
    0 once it is empty, are the popcount of its words.
    """
    rng = np.random.default_rng(seed)
    column = np.array(ps)[:, None]
    downs = np.zeros((len(ps), samples), dtype=np.min_scalar_type(max_len))
    words = np.pad(np.ones((len(ps), samples), dtype=bool), ((0, 0), (0, -samples % 8)))
    alive = words[:, :samples]
    rows, flags, col = downs, alive, column  # the live rows: those still holding walks alive
    left = [np.full(len(ps), samples)]  # walks alive after steps 0, 1, ...
    for step in range(1, max_len + 1):
        rows += rng.random(samples) < col
        if step < d or (d + step) % 2:
            left.append(left[-1])
            continue
        flags &= rows != (d + step) // 2
        left.append(np.bitwise_count(words.view(np.uint64)).sum(axis=1, dtype=np.intp))
        live = np.count_nonzero(left[-1])  # the emptied rows are the last ones
        if not live:
            break
        rows, flags, col = downs[:live], alive[:live], column[:live]
    left = np.column_stack(left)
    return np.column_stack([left[:, -1], -np.diff(left)])


def _solve_branching(mean_nodes: float, level: int) -> float:
    """Invert sum(b^i, i=1..level) = mean_nodes for b; clamp to > 1."""
    if mean_nodes <= level:
        return 1.0 + 1e-9
    lo, hi = 1.0 + 1e-9, 4.0
    while _geometric(hi, level) < mean_nodes:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _geometric(mid, level) < mean_nodes:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _isotonic(values: Sequence[float], weights: Sequence[float]) -> list[float]:
    """Weighted pool-adjacent-violators: nondecreasing fit to ``values``."""
    blocks: list[list[float]] = []  # [mean, weight, count]
    for v, w in zip(values, weights):
        blocks.append([v, w, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            m2, w2, c2 = blocks.pop()
            m1, w1, c1 = blocks.pop()
            blocks.append([(m1 * w1 + m2 * w2) / (w1 + w2), w1 + w2, c1 + c2])
    out: list[float] = []
    for mean, _, count in blocks:
        out.extend([mean] * count)
    return out


def fit_markov(
    training: Sequence[ProblemInstance],
    levels: Sequence[int],
    limits: ResourceLimits = ResourceLimits(),
    max_states_per_level: int = 150,
    seed: int = 0,
) -> MarkovParams:
    """Estimate per-level accuracy and branching from instrumented runs.

    For each level, ``minimin_trace`` runs over the training instances supply
    both the mean nodes-per-decision (inverted to an effective branching
    factor) and a sample of the decisions made along the executed
    trajectories: each state with its lookahead's top-ranked child, as the run
    loop records them (state keys at width <= 3, read against the d* table),
    scored by ``decision_accuracy``'s scorer.  That equals
    ``decision_accuracy`` on the sampled states without repeating their
    lookahead.  Accuracies are made nondecreasing in the level by isotonic
    adjustment, then clamped into (0.5, 1].  The model's walks stop at the
    runs' move cap, ``limits.max_moves``.
    """
    if not training:
        raise EmptySample("fit_markov needs at least one training instance")
    goals = {inst.goal.tiles for inst in training}
    if len(goals) != 1:
        raise ValueError("training instances must share a goal")
    goal = training[0].goal
    levels = sorted(set(check_level(l) for l in levels))
    rng = np.random.default_rng(subseed(seed, "fit-markov"))
    dstar_cache: dict[tuple[int, ...], int] = {}

    raw_acc: list[float] = []
    sizes: dict[int, int] = {}
    branching: dict[int, float] = {}
    for level in levels:
        decisions: list[Decision] = []
        total_nodes = 0.0
        for inst in training:
            outcome, trace = minimin_trace(inst, level, limits)
            decisions.extend(trace)
            total_nodes += outcome.time_units
        if not decisions:
            raise EmptySample(f"no decisions observed at level {level}")
        branching[level] = _solve_branching(total_nodes / len(decisions), level)
        if len(decisions) > max_states_per_level:
            idx = rng.choice(len(decisions), size=max_states_per_level, replace=False)
            decisions = [decisions[i] for i in sorted(idx.tolist())]
        raw_acc.append(_hit_rate(decisions, goal, dstar_cache))
        sizes[level] = len(decisions)

    adjusted = _isotonic(raw_acc, [sizes[l] for l in levels])
    accuracy = {
        l: min(1.0, max(_ACCURACY_FLOOR, a)) for l, a in zip(levels, adjusted)
    }
    return MarkovParams(
        accuracy=accuracy,
        branching=branching,
        max_len=limits.max_moves,
        sample_sizes=sizes,
    )


@dataclass(frozen=True)
class EmpiricalTable:
    """Measured outcomes per (depth, level) cell."""

    cells: Mapping[tuple[int, int], tuple[Outcome, ...]]
    sample_meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, outcomes in self.cells.items():
            if not outcomes:
                raise ValueError(f"empirical cell {key} is empty")

    @property
    def levels(self) -> tuple[int, ...]:
        return tuple(sorted({l for _, l in self.cells}))

    def depths_for(self, level: int) -> tuple[int, ...]:
        return tuple(sorted({d for d, l in self.cells if l == level}))


def fit_empirical(
    suite: Mapping[int, Sequence[ProblemInstance]],
    levels: Sequence[int],
    limits: ResourceLimits = ResourceLimits(),
    sample_meta: Mapping[str, object] | None = None,
) -> EmpiricalTable:
    """Run Minimin over every (instance, level) pair and tabulate the outcomes."""
    if not suite:
        raise EmptySample("fit_empirical needs a nonempty suite")
    levels = sorted(set(check_level(l) for l in levels))
    cells: dict[tuple[int, int], tuple[Outcome, ...]] = {}
    for depth in sorted(suite):
        instances = suite[depth]
        if not instances:
            raise EmptySample(f"suite depth {depth} has no instances")
        for level in levels:
            outcomes = tuple(minimin_run(inst, level, limits) for inst in instances)
            cells[(depth, level)] = outcomes
    return EmpiricalTable(cells=cells, sample_meta=dict(sample_meta or {}))


def _entries(
    model: MarkovParams | EmpiricalTable, d: int, levels: Sequence[int], samples: int, seed: int, extrapolate: bool
) -> list[list[tuple[Outcome, float]]]:
    """Each of ``levels``' lottery entries, in model units, after ``predict``'s argument
    checks: a Markov model's rows of one walk over those levels' accuracies, or per level
    an empirical table's cell at ``d``, the two cells around it mixed linearly by
    distance, or with ``extrapolate`` the nearest cell beyond the table."""
    if isinstance(model, MarkovParams):
        if d < 1:
            raise ValueError("depth must be >= 1")
        if not 1 <= samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be in 1..{MAX_SAMPLES}")
        for level in levels:
            if level not in model.accuracy:
                raise MissingAccuracy(f"no accuracy estimate for level {level}")
        ps = sorted({model.accuracy[level] for level in levels})
        walk = _first_passage(d, ps, model.max_len, samples, seed)
        lotteries = []
        for level in levels:
            row = walk[ps.index(model.accuracy[level])]
            # Walks alive at max_len (entry 0) come after those absorbed there.
            ends = (np.flatnonzero(row[1:]) + 1).tolist() + [0] * bool(row[0])
            counts = row.tolist()
            npd = nodes_per_decision(model, level)
            entries = []
            for k in ends:
                length = float(k or model.max_len)
                outcome = Outcome(length, length * npd, float(level + 1) + (length + 1.0), k > 0)
                entries.append((outcome, counts[k] / samples))
            lotteries.append(entries)
        return lotteries

    lotteries = []
    for level in levels:
        if level not in model.levels:
            raise MissingAccuracy(f"empirical table has no level {level}")
        depths = model.depths_for(level)
        lower = [b for b in depths if b < d]
        upper = [b for b in depths if b > d]
        if d in depths:
            mix = [(model.cells[d, level], 1.0)]
        elif lower and upper:
            b1, b2 = lower[-1], upper[0]
            w = (b2 - d) / (b2 - b1)
            mix = [(model.cells[b1, level], w), (model.cells[b2, level], 1.0 - w)]
        elif extrapolate:
            mix = [(model.cells[depths[0] if not lower else depths[-1], level], 1.0)]
        else:
            raise OutOfRange(f"depth {d} outside empirical buckets {depths} for level {level}")
        lotteries.append([(o, w / len(cell)) for cell, w in mix for o in cell])
    return lotteries


def predict(
    model: MarkovParams | EmpiricalTable,
    d: int,
    level: int,
    samples: int = 10_000,
    seed: int = 0,
    extrapolate: bool = False,
) -> Lottery:
    """The outcome lottery ``model`` predicts at depth ``d`` and lookahead ``level``.

    A Markov model walks the distance to goal: per move it drops by 1 with probability
    p_level, else rises by 1, and 0 absorbs.  Entries are solved outcomes by length, then
    one unsolved outcome of length ``max_len`` for the walks alive there, each with
    probability count / ``samples``, deterministic given ``seed`` whatever levels share the walk.
    """
    return Lottery.of(_entries(model, d, (level,), samples, seed, extrapolate)[0])


# The name the benchmark's tracer wraps (perfbench/tracing.py).
markov_predict = predict


# --- serialization ----------------------------------------------------------


def _outcome_to_dict(o: Outcome) -> dict:
    data = {name: getattr(o, name) for name in (*OUTCOME_ATTRIBUTES, "solved")}
    if o.extra:
        data["extra"] = dict(o.extra)
    return data


def _outcome_from_dict(data: Mapping) -> Outcome:
    data = _field(data, "outcome", "Mapping")
    check_keys(data, (*OUTCOME_ATTRIBUTES, "solved", "extra"))
    extra = _field(data.get("extra", {}), "extra", "Mapping")
    return Outcome(
        *(_field(data[name], name, "float") for name in OUTCOME_ATTRIBUTES),
        solved=_field(data.get("solved", True), "solved", "bool"),
        extra={_field(k, "extra key", "str"): _field(v, f"extra {k}", "float") for k, v in extra.items()},
    )


def model_to_dict(model: MarkovParams | EmpiricalTable) -> dict:
    if isinstance(model, MarkovParams):
        return {
            "kind": "markov",
            "accuracy": {int(l): float(p) for l, p in sorted(model.accuracy.items())},
            "branching": {
                int(l): float(b) for l, b in sorted(model.branching.items())
            },
            "max_len": model.max_len,
            "sample_sizes": {
                int(l): int(n) for l, n in sorted(model.sample_sizes.items())
            },
        }
    return {
        "kind": "empirical",
        "sample_meta": dict(model.sample_meta),
        "cells": [
            {
                "depth": d,
                "level": l,
                "outcomes": [_outcome_to_dict(o) for o in outcomes],
            }
            for (d, l), outcomes in sorted(model.cells.items())
        ],
    }


def _by_level(value, name: str, kind: str) -> dict[int, float]:
    pairs = _field(value, name, "Mapping").items()
    return {_field(l, f"{name} level", "int"): _field(v, f"{name} {l}", kind) for l, v in pairs}


def model_from_dict(data: Mapping) -> MarkovParams | EmpiricalTable:
    """The model ``data`` describes; ValueError for a top-level key its kind does not
    know or a second cell at one (depth, level), TypeError naming a field that does
    not hold the kind it is read as."""
    kind = data.get("kind")
    if kind == "markov":
        check_keys(data, ("kind", "accuracy", "branching", "max_len", "sample_sizes"))
        return MarkovParams(
            accuracy=_by_level(data["accuracy"], "accuracy", "float"),
            branching=_by_level(data["branching"], "branching", "float"),
            max_len=_field(data.get("max_len", DEFAULT_MAX_LEN), "max_len", "int"),
            sample_sizes=_by_level(data.get("sample_sizes", {}), "sample_sizes", "int"),
        )
    if kind == "empirical":
        check_keys(data, ("kind", "cells", "sample_meta"))
        cells = {}
        for cell in (_field(c, "cell", "Mapping") for c in _field(data["cells"], "cells", "list")):
            check_keys(cell, ("depth", "level", "outcomes"))
            depth, level = _field(cell["depth"], "depth", "int"), _field(cell["level"], "level", "int")
            if (depth, level) in cells:
                raise ValueError(f"cells has two cells for depth {depth}, level {level}")
            cells[depth, level] = tuple(map(_outcome_from_dict, _field(cell["outcomes"], "outcomes", "list")))
        sample_meta = _field(data.get("sample_meta", {}), "sample_meta", "Mapping")
        return EmpiricalTable(cells=cells, sample_meta=dict(sample_meta))
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: MarkovParams | EmpiricalTable, path: str) -> None:
    """Write a model to a YAML file for reuse across CLI invocations."""
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(model_to_dict(model), fh, sort_keys=False)


T = TypeVar("T")


def read_yaml(path: str, build: Callable[[Mapping], T]) -> T:
    """``build`` of the mapping the YAML file at ``path`` holds.

    A file that does not parse, holds no mapping, lacks a key that ``build``
    reads, or holds anything else that ``build`` raises on, raises one
    ValueError that names the file and the line, key or fault.
    """
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = f" line {mark.line + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ValueError(f"{path}{line}: {problem}") from None
    if not isinstance(data, Mapping):
        raise ValueError(f"{path} must hold a YAML mapping, got {type(data).__name__}")
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path} lacks key {exc.args[0]!r}") from None
    except Exception as exc:
        raise ValueError(f"{path} {exc}") from None


def load_model(path: str) -> MarkovParams | EmpiricalTable:
    return read_yaml(path, model_from_dict)
