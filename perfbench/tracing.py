"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent, item) plus a few counts taken from the
wrapped call's arguments and result.  Spans are recorded around calls into
``eusearch``'s public functions, from outside the package: a wrapper replaces
the name *as the calling module looks it up* (``from .x import y`` binds ``y``
in the caller), and the original is put back when the run ends.

Derived numbers live here too: self time, desk-protocol stage attribution and
the per-layer metric table.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

LEVELS = tuple(range(1, 13))


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    item: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one recorder per run, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: object = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "item": s.item,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


# --- wrappers ----------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _run_counts(args, kwargs, out) -> dict:
    nodes = int(out.time_units)
    return {
        "level": _arg(args, kwargs, 1, "level"),
        "nodes": nodes,
        "solved": bool(out.solved),
        # An unsolved run stops on the node budget or else on the move cap.
        "budget_stopped": not out.solved and nodes >= _arg(args, kwargs, 2, "limits").node_budget,
    }


def _trace_counts(args, kwargs, out) -> dict:
    return {"nodes": int(out[0].time_units), "states": len(out[1])}


def _accuracy_counts(args, kwargs, out) -> dict:
    return {"states": len(_arg(args, kwargs, 1, "sample"))}


def _idastar_counts(args, kwargs, out) -> dict:
    return {"nodes": int(out.nodes_generated)}


def _predict_counts(args, kwargs, out) -> dict:
    return {"entries": len(out.entries)}


# (module the caller looks the name up in, attribute, span name, counts)
Wrap = tuple[str, str, str, Callable | None]

# The desk protocol's item boundary.  ``DeskProtocol.run`` installs it in
# traced and untraced runs alike, so ``TRACE_WRAPS`` leaves this name alone.
DESK_ITEM_WRAP: Wrap = ("eusearch.experiment", "minimin_run", "minimin.minimin_run", _run_counts)

TRACE_WRAPS: tuple[Wrap, ...] = (
    ("eusearch.experiment", "instance_of_depth", "exact.instance_of_depth", None),
    ("eusearch.experiment", "fit_markov", "perfmodel.fit_markov", None),
    ("eusearch.experiment", "select_lookahead", "selector.select_lookahead", None),
    ("eusearch.experiment", "joint_utility", "utility.joint_utility", None),
    ("eusearch.experiment", "default_utility_model", "utility.default_utility_model", None),
    ("eusearch.perfmodel", "minimin_trace", "minimin.minimin_trace", _trace_counts),
    ("eusearch.perfmodel", "decision_accuracy", "minimin.decision_accuracy", _accuracy_counts),
    ("eusearch.perfmodel", "markov_predict", "perfmodel.markov_predict", _predict_counts),
    ("eusearch.minimin", "idastar", "exact.idastar.dstar", _idastar_counts),
    ("eusearch.minimin", "minimin_run", "minimin.minimin_run", _run_counts),
    ("eusearch.exact", "idastar", "exact.idastar.gen", _idastar_counts),
    ("eusearch.exact", "random_walk", "exact.random_walk", None),
    ("eusearch.exact", "instance_of_depth", "exact.instance_of_depth", None),
    ("eusearch.selector", "select_lookahead", "selector.select_lookahead", None),
    ("eusearch.selector", "expected_utility", "utility.expected_utility", None),
)

# Set-up only: wrapping ``utility.joint_utility`` during the run would put a
# span on every lottery entry that ``expected_utility`` scores.
SETUP_WRAPS: tuple[Wrap, ...] = (
    ("eusearch.utility", "joint_utility", "utility.joint_utility", None),
    ("eusearch.utility", "default_utility_model", "utility.default_utility_model", None),
)


def _wrapper(rec: Recorder, fn: Callable, name: str, counts: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counts is not None:
            rec.spans[idx].attrs.update(counts(args, kwargs, out))
        return out

    return traced


@contextlib.contextmanager
def installed(rec: Recorder, wraps: Sequence[Wrap]) -> Iterator[None]:
    """Install span wrappers for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, attr, name, counts in wraps:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrapper(rec, original, name, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- derived numbers -----------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it.

    With n samples, ``n - ceil(p/100 * n)`` samples come after the result in
    sorted order, so p90 of 100 samples leaves ten beyond it.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_s: Sequence[float]) -> tuple[float, float]:
    """Median and p90 of item latencies, in ms."""
    ms = [x * 1e3 for x in latencies_s]
    return statistics.median(ms), percentile(ms, 90)


def children(spans: Sequence[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    kids = children(spans)
    return [
        s.duration - covered([(spans[k].start, spans[k].end) for k in kids[i]], s.start, s.end)
        for i, s in enumerate(spans)
    ]


STAGES = ("gen_train", "fit", "select", "gen_eval", "evaluate", "score")
_STAGE_OF = {
    "perfmodel.fit_markov": "fit",
    "selector.select_lookahead": "select",
    "minimin.minimin_run": "evaluate",
    "utility.joint_utility": "score",
}


def stage_times(spans: Sequence[Span], root: int) -> dict[str, float]:
    """Attribute a ``run_experiment`` span's wall time to pipeline stages.

    The stage of each direct child follows from the function it calls;
    generation before a depth's fit is the training suite, after its selection
    the evaluation suite.  A stage lasts from its first call until the next
    stage's first call, so loop and CSV work between calls is charged to the
    stage it serves; the last stage ends at its last call.
    """
    kids = sorted(children(spans)[root], key=lambda k: spans[k].start)
    marks: list[tuple[str, float, float]] = []  # stage, first start, last end
    last_other = None
    for k in kids:
        s = spans[k]
        if s.name == "exact.instance_of_depth":
            stage = "gen_eval" if last_other == "select" else "gen_train"
        elif s.name in _STAGE_OF:
            stage = last_other = _STAGE_OF[s.name]
        else:
            continue
        if marks and marks[-1][0] == stage:
            marks[-1] = (stage, marks[-1][1], s.end)
        else:
            marks.append((stage, s.start, s.end))
    out = {stage: 0.0 for stage in STAGES}
    for i, (stage, start, end) in enumerate(marks):
        stop = marks[i + 1][1] if i + 1 < len(marks) else end
        out[stage] += stop - start
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    value: float
    unit: str
    base: str = ""


def _rate(n: float, s: float) -> float:
    return n / s if s > 0 else 0.0


def layer_metrics(spans: Sequence[Span], wall_s: float) -> list[LayerMetric]:
    """The per-layer table of a traced run, every ratio with its base."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str, attr: str | None = None) -> float:
        if attr is None:
            return sum(spans[i].duration for i in idx(name))
        return sum(spans[i].attrs.get(attr, 0) for i in idx(name))

    def self_total(name: str) -> float:
        return sum(selfs[i] for i in idx(name))

    def ms_pct(name: str, p: float) -> float:
        d = [spans[i].duration * 1e3 for i in idx(name)]
        return percentile(d, p) if d else 0.0

    out: list[LayerMetric] = []

    def add(name, value, unit, base=""):
        out.append(LayerMetric(name, float(value), unit, base))

    def calls_s(name: str) -> tuple[int, float]:
        n, s = len(idx(name)), total(name)
        add(f"{name}.calls", n, "count")
        add(f"{name}.s", s, "s")
        return n, s

    def nodes(name: str, s: float) -> None:
        n = total(name, "nodes")
        add(f"{name}.nodes", n, "count")
        add(f"{name}.nodes_per_s", _rate(n, s), "1/s", f"{int(n):,} nodes in {s:.3f} s")

    run = "minimin.minimin_run"
    n_runs, s_runs = calls_s(run)
    nodes(run, s_runs)
    solved = int(total(run, "solved"))
    add(f"{run}.solved_ratio", _rate(solved, n_runs), "ratio",
        f"{solved:,} of {n_runs:,} runs solved")
    budget = int(total(run, "budget_stopped"))
    add(f"{run}.budget_stopped_ratio", _rate(budget, n_runs), "ratio",
        f"{budget:,} of {n_runs:,} runs stopped by the node budget, "
        f"{n_runs - solved - budget:,} by the move cap")
    for level in LEVELS:
        at = [i for i in idx(run) if spans[i].attrs.get("level") == level]
        s = sum(spans[i].duration for i in at)
        n = sum(spans[i].attrs["nodes"] for i in at)
        add(f"{run}.L{level}.s", s, "s", f"{len(at):,} runs")
        add(f"{run}.L{level}.nodes_per_s", _rate(n, s), "1/s", f"{n:,} nodes in {s:.3f} s")

    trace = "minimin.minimin_trace"
    _, s = calls_s(trace)
    nodes(trace, s)

    acc = "minimin.decision_accuracy"
    calls_s(acc)
    add(f"{acc}.self_s", self_total(acc), "s")
    states = int(total(acc, "states"))
    add(f"{acc}.states", states, "count")
    lookups, solves = 2 * states, len(idx("exact.idastar.dstar"))
    add(f"{acc}.dstar_cache_hit_ratio", _rate(lookups - solves, lookups), "ratio",
        f"{lookups - solves:,} of {lookups:,} d* lookups hit the cache ({solves:,} solved)")

    dstar = "exact.idastar.dstar"
    _, s = calls_s(dstar)
    nodes(dstar, s)

    gen = "exact.instance_of_depth"
    n_inst, _ = calls_s(gen)
    add(f"{gen}.p50_ms", ms_pct(gen, 50), "ms", f"{n_inst:,} instances")
    add(f"{gen}.p90_ms", ms_pct(gen, 90), "ms", f"{n_inst:,} instances")
    walks = len(idx("exact.random_walk"))
    add("exact.random_walk.calls", walks, "count")
    verify = "exact.idastar.gen"
    n_verify, s = calls_s(verify)
    nodes(verify, s)
    add("exact.generation.walks_per_instance", _rate(walks, n_inst), "walks/inst",
        f"{walks:,} walks for {n_inst:,} instances")
    add("exact.generation.verify_hit_ratio", _rate(n_inst, n_verify), "ratio",
        f"{n_inst:,} of {n_verify:,} verifications at the target depth")

    pred = "perfmodel.markov_predict"
    n_pred, _ = calls_s(pred)
    add(f"{pred}.p50_ms", ms_pct(pred, 50), "ms", f"{n_pred:,} predictions")
    add(f"{pred}.entries", total(pred, "entries"), "count", f"over {n_pred:,} lotteries")

    sel = "selector.select_lookahead"
    calls_s(sel)
    add(f"{sel}.self_s", self_total(sel), "s")
    calls_s("utility.expected_utility")

    fit = "perfmodel.fit_markov"
    calls_s(fit)
    add(f"{fit}.self_s", self_total(fit), "s")

    roots = idx("experiment.run_experiment")
    stages = {stage: 0.0 for stage in STAGES}
    root_s = 0.0
    for r in roots:
        root_s += spans[r].duration
        for stage, s in stage_times(spans, r).items():
            stages[stage] += s
    for stage in STAGES:
        share = f"{stages[stage] / root_s:.1%} of run_experiment" if root_s else ""
        add(f"experiment.stage.{stage}_s", stages[stage], "s", share)
    add("experiment.self_s", root_s - sum(stages.values()), "s",
        f"run_experiment {root_s:.3f} s minus its stages")

    calls_s("utility.joint_utility")
    add("utility.default_utility_model.s", total("utility.default_utility_model"), "s")
    add("trace.wall_s", wall_s, "s", f"{len(spans):,} spans")
    return out
