"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py [--runs 10] [--first-seed 0] [--trace 0|1] [WORKLOAD ...]

Runs ``run.py`` once per seed on each workload, one run at a
time, and prints per metric the median and the interquartile range as a
share of the median, the figures the bounds in BENCHMARK.json are set
against, and the same for the figures printed as "not a metric".
Every run's JSON is kept in ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=BENCH.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            info = {line[:46].strip(): float(line[46:].split()[0])
                    for line in lines if line.endswith("(not a metric)") and "p90" not in line}
            runs.append({"seed": seed, **json.loads(lines[-1]), "info": info})
        (out_dir / f"{stamp}-{workload}-trace{args.trace}.json").write_text(json.dumps(runs, indent=1))
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, failed share {failed}, "
              f"attempted {[r['attempted'] for r in runs]}")
        figures = {name: [r["metrics"][name]["value"] for r in runs] for name in runs[0]["metrics"]}
        figures.update({name: [r["info"][name] for r in runs] for name in runs[0]["info"]})
        for name, values in figures.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:44s} median {med:12.4f}  iqr/median {spread:7.4f}"
                  f"  min {min(values):.4f} max {max(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
