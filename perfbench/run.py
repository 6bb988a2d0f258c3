"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload desk_protocol --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with only the item boundary
timed.  Its times are scaled to a fixed machine speed by a reference kernel
timed every 0.1 s during the run (``speed.py``); the unscaled times are
printed too.  ``--trace 1`` records spans at every layer boundary, prints the
per-layer table (unscaled times) and writes the spans to ``perfbench/out/``.
Each run is one fresh process; lazily built caches in ``eusearch`` are paid
inside the run.
Exit code: 0 when every item passed its checks, 1 when any failed, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Fresh-process set-ups before and after the measured run; with the run's
# own, setup_s is the median of seven.
SETUP_CHILDREN = (3, 3)
# Set-up lasts 0.1-0.3 s, so it is calibrated more often than the run.
SETUP_INTERVAL_S = 0.02

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up in this process and print it")
    return p.parse_args(argv)


def cold_setup(args):
    """Import the program and build the workload's inputs.

    Returns ((raw s, scaled s), workload, inputs); the ``py`` kernel is timed
    every ``SETUP_INTERVAL_S`` while it runs, unless traced (then both are raw).
    """
    import speed

    clock = None if args.trace else speed.SpeedClock("py", SETUP_INTERVAL_S)
    with clock.running() if clock else contextlib.nullcontext():
        t0 = time.perf_counter()
        import eusearch.cli  # noqa: F401  (the CLI's import cost is part of set-up)
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        OUT.mkdir(exist_ok=True)
        inputs = wl.prepare(args.seed, args.seconds, OUT)
        t1 = time.perf_counter()
    if clock is None:
        return (t1 - t0, t1 - t0), wl, inputs
    return (clock.raw(t0, t1), clock.scaled(t0, t1)), wl, inputs


def child_setups(cmd: list[str], n: int) -> list[tuple[float, float]]:
    samples = []
    for _ in range(n):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(scaled)))
    return samples


def provenance() -> dict:
    import numpy

    commit = None  # benchmark checkouts need not be git repositories
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "eusearch").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is imported: one BLAS/OpenMP thread (workers=1 throughout).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "eusearch" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'eusearch'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import speed
    import tracing

    if args.setup_only:
        print(*cold_setup(args)[0])
        return 0

    rec = tracing.Recorder()
    with tracing.installed(rec, tracing.SETUP_WRAPS if args.trace else ()):
        setup, wl, inputs = cold_setup(args)
    setup_samples = [setup]
    # Import cost is paid once per process, so further cold set-ups need fresh
    # processes; each is waited for, and none runs during the measured run.
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    before, after = (0, 0) if args.trace else SETUP_CHILDREN
    setup_samples += child_setups(cmd, before)

    # Traced runs keep unscaled times: calibrations would land inside spans.
    clock = None if args.trace else speed.SpeedClock(wl.reference)
    with tracing.installed(rec, tracing.TRACE_WRAPS if args.trace else ()), \
            (clock.running() if clock else contextlib.nullcontext()):
        t0 = time.perf_counter()
        result, outputs = wl.run(inputs, rec)
        t1 = time.perf_counter()
    # Read before the checks, whose oracles (BFS) are not part of the program's cost.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check(inputs, result, outputs)
    setup_samples += child_setups(cmd, after)

    def summary(span_s) -> dict:
        wall_s = span_s(t0, t1)
        latencies = [span_s(a, b) for a, b in result.intervals]
        p50, p90 = tracing.latency_summary(latencies) if latencies else (0.0, 0.0)
        return {"wall_s": wall_s, "items_per_s": result.attempted / wall_s,
                "item_p50_ms": p50, "item_p90_ms": p90}

    raw = {"setup_s": statistics.median(r for r, _ in setup_samples),
           **summary(clock.raw if clock else lambda a, b: b - a)}
    e2e = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        **(summary(clock.scaled) if clock else raw),
        "peak_rss_mb": peak_rss_mb,
    }
    error_rate = result.failed / result.attempted
    print(f"workload {wl.name}  seed {args.seed}  items {result.attempted}  "
          f"trace {args.trace}  output sha256 {result.digest}")
    stem = f"{wl.name}-s{args.seed}-t{args.trace}"
    if args.trace:
        layers = tracing.layer_metrics(rec.spans, raw["wall_s"])
        width = max(len(m.name) for m in layers)
        for m in layers:
            print(f"  {m.name:<{width}}  {m.value:>14.6g} {m.unit:<10} {m.base}")
        metrics = {m.name: {"value": m.value, "unit": m.unit} for m in layers}
        rec.write_jsonl(str(OUT / f"{stem}.spans.jsonl"))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
        for k, v in e2e.items():
            unscaled = f"  (unscaled {raw[k]:.6g})" if k in raw else ""
            print(f"  {k:<14} {v:>14.6g} {END_TO_END_UNITS[k]:<5}{unscaled}")
        factors = [speed.scale_factor(wl.reference, k) for _, _, k in clock.calibrations]
        print(f"  speed scale    {statistics.median(factors):>14.6g} median of "
              f"{len(factors)} calibrations ({wl.reference} kernel; "
              f"range {min(factors):.3g}-{max(factors):.3g})")
    print(f"  {'error_rate':<14} {error_rate:>14.6g} ratio  "
          f"({result.failed} of {result.attempted} items failed)")
    for k, v in (result.notes or {}).items():
        print(f"  {k:<14} {v}")
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": result.attempted, "failed": result.failed, "error_rate": error_rate,
        "output_sha256": result.digest, "notes": result.notes, "setup_samples_s": setup_samples,
        "end_to_end": e2e, "unscaled": raw, "metrics": metrics, "provenance": provenance(),
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
