"""Tests for the benchmark's own code: span arithmetic, percentiles, wrappers,
and a tiny run of each workload through its correctness gate.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import speed
import tracing
import workloads
from tracing import Recorder, Span, covered, percentile, self_times, stage_times

BENCH = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, None)


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(-1, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert covered([], 0, 10) == 0.0


def test_percentile_leaves_ten_samples_beyond_p90_of_100():
    values = list(range(100, 0, -1))
    p90 = percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10
    assert percentile(values, 50) == 50
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_stage_times_tile_the_run():
    spans = [span("experiment.run_experiment", 0.0, 12.0)]
    for name, a, b in [
        ("utility.default_utility_model", 0.0, 0.5),
        ("exact.instance_of_depth", 1.0, 1.5),
        ("exact.instance_of_depth", 1.5, 2.0),
        ("perfmodel.fit_markov", 2.0, 5.0),
        ("selector.select_lookahead", 5.0, 6.0),
        ("exact.instance_of_depth", 6.0, 7.0),
        ("minimin.minimin_run", 7.0, 7.5),
        ("minimin.minimin_run", 7.5, 8.0),
        ("utility.joint_utility", 8.5, 8.6),
        ("exact.instance_of_depth", 9.0, 9.5),  # next depth's training suite
        ("perfmodel.fit_markov", 9.5, 11.0),
    ]:
        spans.append(span(name, a, b, 0))
    stages = stage_times(spans, 0)
    assert stages == pytest.approx(
        {"gen_train": 1.0 + 0.5, "fit": 3.0 + 1.5, "select": 1.0, "gen_eval": 1.0,
         "evaluate": 1.5, "score": 0.5}
    )
    # The remainder is experiment self time: 12 - 10 = 2 s.
    assert 12.0 - sum(stages.values()) == pytest.approx(2.0)


def test_speed_clock_scales_segments_and_drops_calibrations():
    clock = speed.SpeedClock("py")
    ref = speed.REF_S["py"]
    # Calibrations at [0, 1], [3, 4] and [6, 7]; kernel at nominal, then twice as slow.
    clock.calibrations = [(0.0, 1.0, ref), (3.0, 4.0, ref), (6.0, 7.0, 2 * ref)]
    clock._index()
    assert clock.raw(1.0, 6.0) == pytest.approx(4.0)  # the calibration at [3, 4] is left out
    # First segment at the reference speed, second at the mean of ref and 2*ref.
    assert clock.scaled(1.0, 6.0) == pytest.approx(2.0 + 2.0 / 1.5)
    assert clock.scaled(2.0, 5.0) == pytest.approx(1.0 + 1.0 / 1.5)
    with pytest.raises(ValueError):
        clock.scaled(0.5, 2.0)


def test_speed_clock_calibrates_while_running_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock("py", interval=0.02)
    with clock.running():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.calibrations) >= 4
    assert 0 < clock.raw(t0, t1) < t1 - t0
    assert clock.scaled(t0, t1) > 0


def _wrapped_attrs():
    wraps = tracing.TRACE_WRAPS + tracing.SETUP_WRAPS + (tracing.DESK_ITEM_WRAP,)
    return {
        (m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in wraps
    }


def test_wrappers_restore_module_attributes():
    before = _wrapped_attrs()
    wl = workloads.WORKLOADS["deep_generation"]
    attempts, items, seed = wl.prepare(5, 0, None, blocks=1)
    inputs = (attempts, items[:20], seed)
    rec = Recorder()
    with tracing.installed(rec, tracing.TRACE_WRAPS):
        assert _wrapped_attrs() != before
        wl.run(inputs, rec)
    assert _wrapped_attrs() == before
    assert any(s.name == "exact.idastar.gen" for s in rec.spans)
    with pytest.raises(RuntimeError):
        with tracing.installed(rec, tracing.TRACE_WRAPS):
            raise RuntimeError("boom")
    assert _wrapped_attrs() == before


def _run(name, inputs, trace=True):
    wl = workloads.WORKLOADS[name]
    rec = Recorder()
    with tracing.installed(rec, tracing.TRACE_WRAPS if trace else ()):
        result, outputs = wl.run(inputs, rec)
    wl.check(inputs, result, outputs)
    return rec, result, outputs


def test_desk_protocol_tiny(tmp_path):
    wl = workloads.WORKLOADS["desk_protocol"]
    inputs = wl.prepare(
        3, 0, tmp_path, depths=(4, 8), instances_per_depth=2, levels=(1, 2, 3),
        train_instances_per_depth=3, accuracy_states_per_level=20, predict_samples=200,
    )
    rec, result, _ = _run("desk_protocol", inputs)
    assert (result.attempted, result.failed) == (12, 0)
    assert len(result.intervals) == 12
    assert result.notes["summary_roundtrip_ok"]
    metrics = {m.name: m.value for m in tracing.layer_metrics(rec.spans, 1.0)}
    assert metrics["perfmodel.fit_markov.calls"] == 2
    assert metrics["minimin.minimin_run.calls"] == 12
    stages = sum(metrics[f"experiment.stage.{s}_s"] for s in tracing.STAGES)
    assert 0 < metrics["experiment.self_s"] < stages


def test_select_sweep_tiny_and_argmax_oracle():
    wl = workloads.WORKLOADS["select_sweep"]
    cfg, models, u, items, seed = wl.prepare(4, 0, None, blocks=1)
    assert sorted((m, d) for m, d, _ in items) == [(m, d) for m in workloads.MODEL_DEPTHS for d in range(1, 32)]
    inputs = (replace(cfg, predict_samples=300), models, u, items[:6], seed)
    _, result, outputs = _run("select_sweep", inputs)
    assert (result.attempted, result.failed) == (6, 0)
    # The chosen level must be the lowest one attaining the maximum EU.
    outputs[0] = SimpleNamespace(chosen_level=2, eu_by_level={1: 0.5, 2: 0.5, 3: 0.1})
    outputs[1] = SimpleNamespace(chosen_level=2, eu_by_level={1: 0.4, 2: 0.5, 3: 0.1})
    result.failed = 0
    wl.check(inputs, result, outputs)
    assert result.failed == 1


def test_deep_generation_tiny_and_depth_oracle():
    wl = workloads.WORKLOADS["deep_generation"]
    attempts, items, seed = wl.prepare(7, 0, None, blocks=1)
    items = [next(it for it in items if it[0] == d) for d in range(16, 23)]
    _, result, outputs = _run("deep_generation", (attempts, items, seed), trace=False)
    assert (result.attempted, result.failed) == (7, 0)
    # An instance of depth 18 where depth 20 is due: Manhattan bound and
    # parity still hold, only the BFS oracle catches it.
    outputs[4] = outputs[2]
    result.failed = 0
    wl.check((attempts, items, seed), result, outputs)
    assert result.failed == 1


def test_width4_lookahead_tiny():
    wl = workloads.WORKLOADS["width4_lookahead"]
    limits, items, seed = wl.prepare(2, 0, None, blocks=1)
    inputs = (limits, [it for it in items if it[1] <= 6][:5], seed)
    _, result, _ = _run("width4_lookahead", inputs)
    assert (result.attempted, result.failed) == (5, 0)


def test_recorded_digest_mismatch_fails_every_item(monkeypatch):
    monkeypatch.setattr(workloads, "recorded_digest", lambda *a: "0" * 64)
    wl = workloads.WORKLOADS["width4_lookahead"]
    limits, items, seed = wl.prepare(2, 0, None, blocks=1)
    _, result, _ = _run("width4_lookahead", (limits, items[:2], seed), trace=False)
    assert result.failed == result.attempted == 2


def test_run_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = [(m.name, m.unit) for m in tracing.layer_metrics([], 0.0)]
    assert layers == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END_UNITS.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_ends_split_into_solved_budget_and_move_cap():
    wl = workloads.WORKLOADS["width4_lookahead"]
    _, items, _ = wl.prepare(2, 0, None, blocks=1)
    inst = items[0][0]
    rec = Recorder()
    with tracing.installed(rec, tracing.TRACE_WRAPS):
        for limits in (workloads.minimin.ResourceLimits(100, 50),
                       workloads.minimin.ResourceLimits(2, 10**6)):
            workloads.minimin.minimin_run(inst, 3, limits)
    assert [s.attrs["budget_stopped"] for s in rec.spans] == [True, False]
    metrics = {m.name: m for m in tracing.layer_metrics(rec.spans, 1.0)}
    ratio = metrics["minimin.minimin_run.budget_stopped_ratio"]
    assert ratio.value == 0.5
    assert ratio.base == "1 of 2 runs stopped by the node budget, 1 by the move cap"
