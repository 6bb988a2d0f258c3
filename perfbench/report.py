"""Run workloads in fresh processes and report tracing overhead or spread.

    python3 perfbench/report.py --workload desk_protocol
        one untraced and one traced run: end-to-end metrics, the per-layer
        table with each ratio's base, and the tracing overhead (traced wall
        over the untraced run's unscaled wall; both include machine-speed
        changes, so one pair is only a rough figure)
    python3 perfbench/report.py --workload select_sweep --repeat 10 --seed 1
        ten untraced runs on seeds 1..10: median, quartiles and spread
        (quartile distance over median) of every end-to-end metric, against
        the bound in BENCHMARK.json

Without ``--workload`` every workload in BENCHMARK.json is run in turn.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def overhead(workload: str, seed: int, seconds: int) -> None:
    text, plain = run(workload, seed, seconds, 0)
    print(text)
    text, traced = run(workload, seed, seconds, 1)
    print(text)
    # Traced times are unscaled, so compare with the untraced run's unscaled wall.
    record = json.loads((HERE / "out" / f"{workload}-s{seed}-t0.json").read_text())
    wall = record["unscaled"]["wall_s"]
    traced_wall = traced["metrics"]["trace.wall_s"]["value"]
    print(f"tracing overhead on {workload}: traced wall {traced_wall:.3f} s vs untraced "
          f"unscaled wall {wall:.3f} s = {traced_wall / wall - 1:+.1%} "
          f"(scaled wall_s {plain['metrics']['wall_s']['value']:.3f} s)\n")


def spread(workload: str, first_seed: int, repeat: int, seconds: int) -> None:
    values: dict[str, list[float]] = {m["name"]: [] for m in SPEC["end_to_end"]}
    for seed in range(first_seed, first_seed + repeat):
        _, result = run(workload, seed, seconds, 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  ok(<bound/3)")
    for m in SPEC["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        rel = (q3 - q1) / med
        print(f"{m['name']:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{rel:>9.3f}{m['bound']:>8}  "
              f"{'yes' if rel < m['bound'] / 3 else 'NO'}")
    print()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--repeat", type=int, default=0, help="runs on consecutive seeds")
    args = p.parse_args()
    names = [args.workload] if args.workload else [w["name"] for w in SPEC["workloads"]]
    for name in names:
        if args.repeat:
            spread(name, args.seed, args.repeat, args.seconds)
        else:
            overhead(name, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
