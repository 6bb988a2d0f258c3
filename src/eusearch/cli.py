"""Command-line front end.

Subcommands: solve, minimin, accuracy, fit, select, experiment, summarize.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields, replace
from typing import Sequence

from .exact import DEFAULT_NODE_BUDGET, bfs_optimal, idastar
from .experiment import ExperimentConfig, csv_writer, fit_model, load_experiment_config, load_utility_model
from .experiment import read_report_csv, run_experiment, score, select_level, suite, summarize, summary_csv_text
from .experiment import summary_table
from .minimin import ResourceLimits, check_level, decision_accuracy, minimin_run
from .perfmodel import MODEL_KINDS, MarkovParams, load_model, save_model
from .puzzle import ProblemInstance, goal_state, parse_state
from .utility import OUTCOME_ATTRIBUTES


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_levels(text: str) -> tuple[int, ...]:
    """Levels from text like ``"1-3,5"``; range ends are checked before expanding."""
    levels: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        try:
            ends = [int(end) for end in part.split("-", 1)] if part else []
        except ValueError:
            raise ValueError(f"levels must be integers, got {text!r}") from None
        if ends:
            levels.update(range(check_level(ends[0]), check_level(ends[-1]) + 1))
    if not levels:
        raise ValueError(f"no levels in {text!r}")
    return tuple(sorted(levels))


def _parse_depths(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise ValueError(f"depths must be integers, got {text!r}") from None


def _instance_from_args(args) -> ProblemInstance:
    initial = parse_state(args.instance)
    goal = parse_state(args.goal) if args.goal else goal_state(initial.width)
    return ProblemInstance(initial, goal)


def _check_outputs(*paths: str | None) -> None:
    """An output path in a missing directory, or naming a directory, fails here before any work, as ``open``
    would fail after it."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _settings(args, base: ExperimentConfig, **fixed) -> ExperimentConfig:
    """``base`` with each flag whose dest names an ``ExperimentConfig`` or
    ``ResourceLimits`` field, then ``fixed``; the config checks them all.

    An unset or empty flag leaves its field as it is.
    """
    given = {k: v for k, v in vars(args).items() if v not in (None, "")}
    for name, parse in (("depths", _parse_depths), ("levels", _parse_levels)):
        if name in given:
            given[name] = parse(given[name])
    given.update(fixed)

    def overrides(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    limits = replace(base.limits, **overrides(ResourceLimits))
    return replace(base, **overrides(ExperimentConfig), limits=limits)


# Settings flags spelled other than as their field's name with hyphens.
_SPELLINGS = {
    "instances_per_depth": ("--instances",),
    "train_instances_per_depth": ("--train-per-depth",),
    "accuracy_states_per_level": ("--accuracy-states",),
    "utility_config": ("--utility",),
    "model_kind": ("--model-kind", "--kind"),
    "gen_attempts": ("--gen-attempts", "--attempts"),
    "predict_samples": ("--predict-samples", "--samples"),
}


def _add_settings(parser, *names: str) -> None:
    """One flag per named ``ExperimentConfig`` or ``ResourceLimits`` field, or per field
    when none is named.  Its dest is the field, so ``_settings`` reads it, and it has no
    default; its type follows the field's annotation text: ``int``, ``float``, else text
    that ``_settings`` parses."""
    for f in (*fields(ExperimentConfig), *fields(ResourceLimits)):
        if f.name != "limits" and (not names or f.name in names):
            parser.add_argument(
                *_SPELLINGS.get(f.name, ("--" + f.name.replace("_", "-"),)),
                dest=f.name,
                type={"int": int, "float": float}.get(f.type, str),
                choices=MODEL_KINDS if f.name == "model_kind" else None,
            )


def cmd_solve(args) -> int:
    instance = _instance_from_args(args)
    solver = bfs_optimal if args.algorithm == "bfs" else idastar
    result = solver(instance, node_budget=args.node_budget)
    print(f"length {result.length}")
    print(f"nodes_generated {result.nodes_generated}")
    print(f"peak_stored {result.peak_stored}")
    print(f"path {result.path.letters or '-'}")
    return 0


def cmd_minimin(args) -> int:
    instance = _instance_from_args(args)
    cfg = _settings(args, ExperimentConfig(), levels=(args.lookahead,))
    # The utility model is loaded before the run, so a bad file prints nothing.
    model = load_utility_model(cfg.utility_config) if cfg.utility_config or args.score else None
    outcome = minimin_run(instance, args.lookahead, cfg.limits)
    for name in OUTCOME_ATTRIBUTES:
        print(f"{name} {int(getattr(outcome, name))}")
    print(f"solved {1 if outcome.solved else 0}")
    if model is not None:
        print(f"utility {score(cfg, model, [outcome])[0]!r}")
    return 0


def cmd_accuracy(args) -> int:
    cfg = _settings(args, ExperimentConfig(), depths=(args.depth,))
    goal = goal_state(cfg.width)
    states = [inst.initial for inst in suite(cfg, "train", args.depth, args.samples)[1]]
    cache: dict = {}
    # Every level is scored before the header, so a failure prints nothing.
    rows = [
        (level, repr(decision_accuracy(level, states, goal, dstar_cache=cache)), len(states))
        for level in cfg.levels
    ]
    csv_writer(sys.stdout, ("level", "accuracy", "n")).writerows(rows)
    return 0


def cmd_fit(args) -> int:
    cfg = _settings(args, ExperimentConfig())
    _check_outputs(args.out)
    save_model(fit_model(cfg, cfg.depths), args.out)
    print(f"wrote {cfg.model_kind} model to {args.out}")
    return 0


def cmd_select(args) -> int:
    cfg = _settings(args, ExperimentConfig())
    if args.depth < 1:  # checked here, before the model read: select has no width to bound it above
        raise ValueError(f"depth must be >= 1, got {args.depth}")
    _check_outputs(args.csv)
    model = load_model(args.model)
    utility = load_utility_model(cfg.utility_config)
    report = select_level(cfg, model, utility, args.depth, extrapolate=args.extrapolate)
    kind = "markov" if isinstance(model, MarkovParams) else "empirical"
    print(f"chosen_level {report.chosen_level}")
    print(f"model {kind}[levels {model.levels[0]}..{model.levels[-1]}]")
    print(f"utility {utility.tag or utility.form}")
    eus = [(level, repr(report.eu_by_level[level])) for level in sorted(report.eu_by_level)]
    csv_writer(sys.stdout, ("level", "expected_utility")).writerows(eus)
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            rows = [(level, eu, int(level == report.chosen_level)) for level, eu in eus]
            csv_writer(fh, ("level", "expected_utility", "chosen")).writerows(rows)
    return 0


def _print_summary(report, csv_path: str | None) -> int:
    summary = summarize(report)
    print(summary_table(summary))
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(summary_csv_text(summary))
    return 0


def cmd_experiment(args) -> int:
    base = load_experiment_config(args.config) if args.config else ExperimentConfig()
    cfg = _settings(args, base)
    _check_outputs(args.out, args.summary_csv)
    progress = (lambda msg: print(msg, file=sys.stderr)) if not args.quiet else None
    report = run_experiment(cfg, csv_path=args.out, progress=progress)
    return _print_summary(report, args.summary_csv)


def cmd_summarize(args) -> int:
    _check_outputs(args.csv)
    return _print_summary(read_report_csv(args.report), args.csv)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eusearch",
        description="Tile-puzzle search with expected-utility lookahead selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact shortest-path solve")
    p.add_argument("--instance", required=True, help="row-major tiles, 0 = blank")
    p.add_argument("--goal", default=None)
    p.add_argument("--algorithm", choices=("idastar", "bfs"), default="idastar")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("minimin", help="on-line lookahead run")
    p.add_argument("--instance", required=True)
    p.add_argument("--goal", default=None)
    p.add_argument("--lookahead", type=int, required=True)
    p.add_argument("--score", action="store_true", help="also print joint utility")
    _add_settings(p, "max_moves", "node_budget", "utility_config", "gens_per_minute", "nodes_per_megabyte")
    p.set_defaults(func=cmd_minimin)

    p = sub.add_parser("accuracy", help="estimate per-level decision accuracy")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--samples", type=int, default=50)
    _add_settings(p, "levels", "width", "seed", "gen_attempts")
    p.set_defaults(func=cmd_accuracy)

    p = sub.add_parser("fit", help="fit a performance model and save it")
    p.add_argument("--out", required=True)
    _add_settings(
        p, "model_kind", "depths", "train_instances_per_depth", "accuracy_states_per_level",
        "levels", "width", "seed", "gen_attempts", "max_moves", "node_budget",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="select the best lookahead level")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--model", required=True, help="model YAML from `fit`")
    p.add_argument("--extrapolate", action="store_true")
    p.add_argument("--csv", default=None)
    _add_settings(
        p, "levels", "utility_config", "predict_samples", "seed", "gens_per_minute", "nodes_per_megabyte"
    )
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("experiment", help="run the full selection experiment")
    p.add_argument("--config", default=None, help="experiment config YAML")
    p.add_argument("--out", default=None, help="write per-run rows CSV here")
    p.add_argument("--summary-csv", default=None)
    p.add_argument("--quiet", action="store_true")
    _add_settings(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("summarize", help="summary statistics from a report CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # runtime failures exit 2 with one diagnostic line
        print(f"eusearch: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
