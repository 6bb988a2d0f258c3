"""Experiment reports for tests: hand-built ones for the summary statistics,
and any report's runs CSV as text."""

from __future__ import annotations

import io

from eusearch.experiment import REPORT_COLUMNS, ExperimentConfig, ExperimentReport, ReportRow
from eusearch.experiment import _row_to_csv, csv_writer
from eusearch.utility import Outcome


def report_csv_text(report: ExperimentReport) -> str:
    """The runs CSV of ``report``, as ``eusearch experiment --out`` writes it."""
    buf = io.StringIO()
    csv_writer(buf, REPORT_COLUMNS).writerows(map(_row_to_csv, report.rows))
    return buf.getvalue()


def make_report(layout, levels=(1, 2, 3)):
    """layout: {(depth, instance): (chosen, {level: utility})}"""
    rows = []
    for (depth, inst), (chosen, utils) in layout.items():
        for level in levels:
            rows.append(
                ReportRow(
                    depth=depth,
                    instance_id=inst,
                    seed=0,
                    level=level,
                    chosen=chosen,
                    outcome=Outcome(1, 1, 1),
                    utility=utils[level],
                )
            )
    cfg = ExperimentConfig(
        depths=tuple(sorted({d for d, _ in layout})),
        levels=levels,
        instances_per_depth=1,
    )
    return ExperimentReport(config=cfg, rows=rows)
