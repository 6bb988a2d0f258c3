"""Experiment harness: verified-depth suites, per-depth model fits, selection,
full minimin sweeps, CSV reports, and summary statistics.

Everything is deterministic under the master seed: per-task seeds derive from
it via ``seeds.subseed`` so any subset (one depth, one instance) can be rerun
independently, and reports are byte-identical across reruns.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

from .exact import instance_of_depth
from .minimin import ResourceLimits, check_level, minimin_run
from .perfmodel import MAX_SAMPLES, MODEL_KINDS, EmpiricalTable, MarkovParams, fit_empirical, fit_markov
from .perfmodel import read_yaml
from .puzzle import ProblemInstance
from .seeds import subseed
from .selector import SelectionReport, select_lookahead
from .utility import OUTCOME_ATTRIBUTES, Outcome, UtilityModel, check_keys, default_utility_model
from .utility import check_types, left_sum, utilities_of, utility_model_from_dict

# ``joint_utility`` is looked up here by the benchmark's tracer (perfbench/tracing.py).
from .utility import joint_utility  # noqa: F401

# Published reference results for side-by-side comparison in summaries.
REFERENCE_STATS: Mapping[str, float] = {
    "fraction_highest": 0.883,
    "within_one": 0.954,
    "max_level_error": 3,
    "mean_utility_gap": 0.001,
}

REPORT_COLUMNS = (
    "depth",
    "instance_id",
    "seed",
    "level",
    "chosen",
    *OUTCOME_ATTRIBUTES,
    "solved",
    "utility",
)


class IncompleteReport(Exception):
    """The report is missing (instance, level) cells required for summary, or repeats one."""


def to_user_units(
    outcome: Outcome, gens_per_minute: float, nodes_per_megabyte: float
) -> Outcome:
    """Convert raw node counts to the utility model's minutes/megabytes."""
    # Built directly: ``dataclasses.replace`` takes twice as long per call.
    t, s = outcome.time_units / gens_per_minute, outcome.space_units / nodes_per_megabyte
    return Outcome(outcome.path_length, t, s, outcome.solved, outcome.extra)


# The deepest instance depth a config may ask for at each width it accepts: the board's diameter.
_MAX_DEPTH = {2: 6, 3: 31, 4: 80}


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experiment; defaults are the desk-scale protocol."""

    width: int = 3
    depths: tuple[int, ...] = (4, 8, 12, 16, 20)
    instances_per_depth: int = 100
    levels: tuple[int, ...] = tuple(range(1, 13))
    seed: int = 0
    limits: ResourceLimits = ResourceLimits()
    model_kind: str = "markov"
    gens_per_minute: float = 20_000.0
    nodes_per_megabyte: float = 10_000.0
    train_instances_per_depth: int = 40
    accuracy_states_per_level: int = 400
    predict_samples: int = 8000
    gen_attempts: int = 2000
    utility_config: str | None = None

    def __post_init__(self) -> None:
        check_types(self)
        if self.width not in _MAX_DEPTH:
            raise ValueError(f"width must be 2, 3 or 4, got {self.width}")
        if not isinstance(self.limits, ResourceLimits):
            raise ValueError(f"limits must be ResourceLimits, got {self.limits!r}")
        if self.instances_per_depth <= 0 or self.train_instances_per_depth <= 0:
            raise ValueError("instance counts must be positive")
        if not 1 <= self.predict_samples <= MAX_SAMPLES:
            raise ValueError(f"predict_samples must be in 1..{MAX_SAMPLES}")
        for name in ("accuracy_states_per_level", "gen_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.depths or not self.levels:
            raise ValueError("depths and levels must be nonempty")
        for name in ("depths", "levels"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {list(values)}")
        for d in self.depths:
            if not 1 <= d <= _MAX_DEPTH[self.width]:
                raise ValueError(f"depth {d} not in 1..{_MAX_DEPTH[self.width]} at width {self.width}")
        for level in self.levels:
            check_level(level)
        for name in ("gens_per_minute", "nodes_per_megabyte"):
            rate = getattr(self, name)  # NaN is neither finite nor > 0
            if not 0 < rate < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {rate!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")


def config_from_dict(data: Mapping) -> ExperimentConfig:
    """Rebuild a config from ``dataclasses.asdict`` data, ``limits`` as a mapping.

    A key that names no field raises ValueError.
    """
    kwargs = dict(data)
    check_keys(kwargs, ExperimentConfig.__dataclass_fields__)
    if isinstance(kwargs.get("limits"), Mapping):
        check_keys(kwargs["limits"], ResourceLimits.__dataclass_fields__)
        kwargs["limits"] = ResourceLimits(**kwargs["limits"])
    for key in ("depths", "levels"):
        if isinstance(kwargs.get(key), list):
            kwargs[key] = tuple(kwargs[key])
    return ExperimentConfig(**kwargs)


def load_experiment_config(path: str) -> ExperimentConfig:
    return read_yaml(path, config_from_dict)


def load_utility_model(path: str | None) -> UtilityModel:
    """The model in the YAML config at ``path``, or the default model when no path is given."""
    return read_yaml(path, utility_model_from_dict) if path else default_utility_model()


@dataclass(frozen=True)
class ReportRow:
    depth: int
    instance_id: int
    seed: int
    level: int
    chosen: int
    outcome: Outcome
    utility: float


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ReportRow] = field(default_factory=list)
    selections: dict[int, SelectionReport] = field(default_factory=dict)


def suite(cfg: ExperimentConfig, label: str, depth: int, count: int) -> tuple[list[int], list[ProblemInstance]]:
    """The seeds ``subseed(cfg.seed, label, depth, i)`` of the first ``count`` verified
    instances of ``depth``, and the instances: label ``"train"`` gives the suite a model
    is fitted on, ``"inst"`` the evaluation suite."""
    seeds = [subseed(cfg.seed, label, depth, i) for i in range(count)]
    return seeds, [instance_of_depth(depth, cfg.width, s, attempts=cfg.gen_attempts) for s in seeds]


def fit_model(cfg: ExperimentConfig, depths: Sequence[int]) -> MarkovParams | EmpiricalTable:
    """The ``cfg.model_kind`` model of the training suites of ``depths``, drawn first.

    Markov: one fit over all the instances in order, scoring up to
    ``cfg.accuracy_states_per_level`` decisions per level, its sample drawn
    by ``subseed(cfg.seed, "fit", *depths)``.  Empirical: one cell of
    outcomes per (depth, level).
    """
    suites = {d: suite(cfg, "train", d, cfg.train_instances_per_depth)[1] for d in depths}
    if cfg.model_kind == "markov":
        return fit_markov(
            [inst for instances in suites.values() for inst in instances],
            cfg.levels,
            limits=cfg.limits,
            max_states_per_level=cfg.accuracy_states_per_level,
            seed=subseed(cfg.seed, "fit", *depths),
        )
    return fit_empirical(suites, cfg.levels, limits=cfg.limits, sample_meta={"seed": cfg.seed})


def select_level(
    cfg: ExperimentConfig,
    model: MarkovParams | EmpiricalTable,
    utility: UtilityModel,
    depth: int,
    extrapolate: bool = False,
) -> SelectionReport:
    """The level of ``cfg.levels`` with the highest expected utility at ``depth``, from
    ``cfg.predict_samples`` predictions seeded by ``subseed(cfg.seed, "predict", depth)``
    and read in ``cfg``'s user units."""
    return select_lookahead(
        depth, model, utility, cfg.levels, samples=cfg.predict_samples,
        seed=subseed(cfg.seed, "predict", depth), extrapolate=extrapolate,
        convert=lambda o: to_user_units(o, cfg.gens_per_minute, cfg.nodes_per_megabyte),
    )


def score(cfg: ExperimentConfig, utility: UtilityModel, outcomes: Sequence[Outcome]) -> list[float]:
    """The runs' joint utilities, their outcomes read in ``cfg``'s user units, from one
    ``utilities_of`` call: about 60 µs plus 0.35 µs per run on a 2-core x86 machine."""
    units = [to_user_units(o, cfg.gens_per_minute, cfg.nodes_per_megabyte) for o in outcomes]
    return utilities_of(units, utility).tolist()


def evaluate(cfg: ExperimentConfig, utility: UtilityModel, depth: int, chosen: int) -> list[ReportRow]:
    """The rows of ``depth``: its evaluation suite is generated first, then Minimin
    runs every instance at every level of ``cfg.levels`` and the runs are scored in
    one call after the last."""
    seeds, instances = suite(cfg, "inst", depth, cfg.instances_per_depth)
    runs = [(i, level, minimin_run(p, level, cfg.limits)) for i, p in enumerate(instances) for level in cfg.levels]
    utilities = score(cfg, utility, [o for *_, o in runs])
    return [ReportRow(depth, i, seeds[i], level, chosen, o, u) for (i, level, o), u in zip(runs, utilities)]


def run_experiment(
    cfg: ExperimentConfig,
    csv_path: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> ExperimentReport:
    """Execute the full protocol; flushes rows to ``csv_path`` as they are made.

    Per depth, one stage after another: ``fit_model`` on the depth's training
    suite, ``select_level`` by expected utility, then ``evaluate`` at every
    configured level on the evaluation suite; the depth's rows are then
    written and flushed.
    """
    say = progress or (lambda msg: None)
    utility = load_utility_model(cfg.utility_config)
    report = ExperimentReport(config=cfg)
    with open(csv_path, "w", newline="", encoding="utf-8") if csv_path else nullcontext() as sink:
        writer = csv_writer(sink, REPORT_COLUMNS) if sink else None
        for depth in cfg.depths:
            say(f"depth {depth}: generating training suite, fitting {cfg.model_kind} model")
            selection = report.selections[depth] = select_level(cfg, fit_model(cfg, (depth,)), utility, depth)
            say(f"depth {depth}: selected level {selection.chosen_level}; running instances")
            rows = evaluate(cfg, utility, depth, selection.chosen_level)
            report.rows.extend(rows)
            if writer:
                writer.writerows(map(_row_to_csv, rows))
                sink.flush()
    return report


def _row_to_csv(row: ReportRow) -> list:
    o = row.outcome
    return [
        row.depth,
        row.instance_id,
        row.seed,
        row.level,
        row.chosen,
        *(_num(getattr(o, name)) for name in OUTCOME_ATTRIBUTES),
        1 if o.solved else 0,
        repr(row.utility),
    ]


def _num(x: float):
    return int(x) if float(x).is_integer() else repr(float(x))


def csv_writer(fh, header: Sequence[str]):
    """A CSV writer on ``fh`` that has already written and flushed ``header``."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    fh.flush()
    return writer


# A runs CSV's solved cells: 0 and 1 as written; True, true, False and false are read too.
_SOLVED_CELLS = {"0": False, "1": True, "False": False, "True": True, "false": False, "true": True}


def read_report_csv(path: str, config: ExperimentConfig | None = None) -> ExperimentReport:
    """Rebuild a report from its CSV; summary statistics need nothing else.

    Without ``config`` the report gets the CSV's depths and levels.  The CSV
    has no width column, so the width is 3 unless a depth lies beyond the
    3x3 diameter, then 4.  Raises IncompleteReport when the CSV has no rows,
    and a ValueError naming the file when its header lacks a column or the
    inferred config fails its checks, or naming the file and the line when a
    row is short, a cell is no number, a solved cell is no boolean or a
    utility lies outside [0, 1].
    """
    rows: list[ReportRow] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in REPORT_COLUMNS if reader.fieldnames and c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path} lacks column {missing[0]!r}")
        for rec in reader:
            try:
                if None in rec.values():  # DictReader fills a short row's missing cells with None
                    raise ValueError("row has fewer cells than the header")
                if rec["solved"] not in _SOLVED_CELLS:
                    raise ValueError(f"solved must be 0 or 1, got {rec['solved']!r}")
                outcome = Outcome(
                    *(float(rec[name]) for name in OUTCOME_ATTRIBUTES), solved=_SOLVED_CELLS[rec["solved"]]
                )
                utility = float(rec["utility"])
                if not 0.0 <= utility <= 1.0:  # NaN included
                    raise ValueError(f"utility must lie in [0, 1], got {utility!r}")
                rows.append(
                    ReportRow(
                        depth=int(rec["depth"]),
                        instance_id=int(rec["instance_id"]),
                        seed=int(rec["seed"]),
                        level=int(rec["level"]),
                        chosen=int(rec["chosen"]),
                        outcome=outcome,
                        utility=utility,
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise IncompleteReport("report has no rows")
    depths = tuple(sorted({r.depth for r in rows}))
    try:
        cfg = config or ExperimentConfig(
            width=3 if all(d <= _MAX_DEPTH[3] for d in depths) else 4,
            depths=depths,
            levels=tuple(sorted({r.level for r in rows})),
        )
    except ValueError as exc:
        raise ValueError(f"{path} {exc}") from None
    return ExperimentReport(config=cfg, rows=rows)


@dataclass(frozen=True)
class DepthSummary:
    depth: int
    n_instances: int
    chosen_level: int
    fraction_highest: float
    within_one: float
    max_level_error: int
    mean_utility_gap: float
    mean_chosen_utility: float
    best_fixed_level: int
    best_fixed_mean_utility: float


@dataclass(frozen=True)
class Summary:
    n_instances: int
    fraction_highest: float
    within_one: float
    max_level_error: int
    mean_utility_gap: float
    per_depth: tuple[DepthSummary, ...]


def _judge(chosen: int, utilities: Mapping[int, float]) -> tuple[bool, int, float]:
    """Whether ``chosen`` has the highest utility, its level error, its utility gap.

    The empirically best level is any level tying the maximum actual utility
    (ties resolve in the selector's favor); the gap is relative to that maximum.
    """
    best_u = max(utilities.values())
    chosen_u = utilities[chosen]
    err = min(abs(chosen - l) for l, u in utilities.items() if u == best_u)
    gap = 0.0 if best_u <= 0.0 else (best_u - chosen_u) / best_u
    return chosen_u == best_u, err, gap


def _selection_stats(judged: Sequence[tuple[bool, int, float]]) -> dict:
    """The headline statistics over a list of ``_judge`` results."""
    highest, errors, gaps = zip(*judged)
    return {
        "fraction_highest": sum(highest) / len(judged),
        "within_one": sum(e <= 1 for e in errors) / len(judged),
        "max_level_error": max(errors),
        "mean_utility_gap": left_sum(gaps) / len(judged),
    }


def summarize(report: ExperimentReport) -> Summary:
    """Compute the headline statistics from a complete report, per depth and overall."""
    if not report.rows:
        raise IncompleteReport("report has no rows")
    levels = tuple(sorted(report.config.levels))
    by_instance: dict[tuple[int, int], dict[int, ReportRow]] = {}
    for row in report.rows:
        cells = by_instance.setdefault((row.depth, row.instance_id), {})
        if row.level in cells:
            raise IncompleteReport(f"instance ({row.depth}, {row.instance_id}) repeats level {row.level}")
        cells[row.level] = row

    # depth -> [(chosen level, {level: utility})] in instance order
    by_depth: dict[int, list[tuple[int, dict[int, float]]]] = {}
    for (depth, instance_id), cells in sorted(by_instance.items()):
        missing = [l for l in levels if l not in cells]
        if missing:
            raise IncompleteReport(
                f"instance ({depth}, {instance_id}) missing levels {missing}"
            )
        chosen_set = {row.chosen for row in cells.values()}
        if len(chosen_set) != 1:
            raise IncompleteReport(
                f"instance ({depth}, {instance_id}) has conflicting chosen levels"
            )
        chosen = chosen_set.pop()
        if chosen not in cells:
            raise IncompleteReport(
                f"instance ({depth}, {instance_id}) lacks its chosen level {chosen}"
            )
        utilities = {l: cells[l].utility for l in levels}
        by_depth.setdefault(depth, []).append((chosen, utilities))

    judged = {d: [_judge(c, u) for c, u in runs] for d, runs in by_depth.items()}
    per_depth: list[DepthSummary] = []
    for depth, runs in by_depth.items():
        n = len(runs)
        means = {l: left_sum(u[l] for _, u in runs) / n for l in levels}
        best_fixed = max(means, key=means.get)
        per_depth.append(
            DepthSummary(
                depth=depth,
                n_instances=n,
                chosen_level=runs[0][0],
                **_selection_stats(judged[depth]),
                mean_chosen_utility=left_sum(u[c] for c, u in runs) / n,
                best_fixed_level=best_fixed,
                best_fixed_mean_utility=means[best_fixed],
            )
        )
    overall = [j for d in by_depth for j in judged[d]]
    return Summary(
        n_instances=len(overall),
        **_selection_stats(overall),
        per_depth=tuple(per_depth),
    )


def summary_table(summary: Summary) -> str:
    """Human-readable summary with the published reference values alongside."""
    lines = []
    lines.append(
        f"{'statistic':<28}{'this run':>12}{'reference':>12}"
    )
    rows = [
        ("fraction highest utility", summary.fraction_highest, REFERENCE_STATS["fraction_highest"]),
        ("within one level of best", summary.within_one, REFERENCE_STATS["within_one"]),
        ("max level error", summary.max_level_error, REFERENCE_STATS["max_level_error"]),
        ("mean relative utility gap", summary.mean_utility_gap, REFERENCE_STATS["mean_utility_gap"]),
    ]
    for name, ours, ref in rows:
        if isinstance(ours, float):
            lines.append(f"{name:<28}{ours:>12.4f}{ref:>12.4f}")
        else:
            lines.append(f"{name:<28}{ours:>12d}{ref:>12d}")
    lines.append("")
    lines.append(
        f"{'depth':>6}{'n':>5}{'chosen':>8}{'frac-high':>11}{'within1':>9}"
        f"{'maxerr':>8}{'gap':>10}{'mean-u':>9}{'best-l':>8}{'best-u':>9}"
    )
    for d in summary.per_depth:
        lines.append(
            f"{d.depth:>6}{d.n_instances:>5}{d.chosen_level:>8}"
            f"{d.fraction_highest:>11.3f}{d.within_one:>9.3f}{d.max_level_error:>8}"
            f"{d.mean_utility_gap:>10.4f}{d.mean_chosen_utility:>9.4f}"
            f"{d.best_fixed_level:>8}{d.best_fixed_mean_utility:>9.4f}"
        )
    return "\n".join(lines)


def summary_csv_text(summary: Summary) -> str:
    """One ``overall`` row, then one row per depth, in ``DepthSummary``'s field order.

    The overall row leaves blank the columns ``Summary`` has no value for.
    """
    names = [f.name for f in fields(DepthSummary)]
    buf = io.StringIO()
    writer = csv_writer(buf, ["scope", *names])
    writer.writerow(["overall", *(getattr(summary, name, "") for name in names)])
    for d in summary.per_depth:
        writer.writerow(["depth", *(getattr(d, name) for name in names)])
    return buf.getvalue()
