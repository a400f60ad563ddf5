"""Benchmark of liouvlab's three pipelines, run through its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh Python
processes (``workload.py``), one at a time, with BLAS held to one thread,
``QPT_SEED`` cleared and the package imported from a bytecode-free copy of
``src/liouvlab``, so set-up never depends on an earlier run.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median over
SETUP_REPEATS processes of the time from process start to the first timed
op; ``ops_per_s``, ``op_ms_p50`` and ``peak_rss_mb`` come from the middle
one of those processes, which goes on to run ops for ``--seconds``.  ``--trace 1``
runs one process with the per-layer trace installed and prints per-op
layer figures, plus ``python -X importtime`` figures for the import layer.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "liouvlab"
WORKLOADS = ("relaxation_bootstrap", "static_fits", "field_tracking")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150.0  # whole run, so that it ends within 180 s
TAIL_MIN_OPS = 40  # fewer ops give no tail worth printing


class BenchError(Exception):
    pass


def child_env(pkg_root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QPT_SEED"}
    env.update(
        PYTHONPATH=str(pkg_root),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list[str], cwd: Path, env: dict, deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{' '.join(argv[1:])} did not end in time") from err
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_workload(args, work: Path, env: dict, seconds: float, deadline: float) -> dict:
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    run_child(
        [sys.executable, "-B", str(BENCH / "workload.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
         "--result", str(result_path)],
        work, env, deadline,
    )
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["first_op_monotonic"] - spawned
    if seconds and not result["op_s"]:
        raise BenchError(f"no op succeeded: {result['failures'][:3]}")
    return result


def import_ms(env: dict, cwd: Path, deadline: float) -> dict:
    """Cumulative import times (ms) of ``import liouvlab.cli``."""
    proc = run_child([sys.executable, "-B", "-X", "importtime", "-c", "import liouvlab.cli"],
                     cwd, env, deadline)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e3)
    return {
        "import.liouvlab_cli_ms": cumulative["liouvlab.cli"],
        "import.scipy_optimize_ms": cumulative["scipy.optimize"],
    }


def measure(args, work: Path) -> tuple[dict, dict]:
    """Returns the measuring process's result and the metrics to print."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    pkg_root = work / "pkg"
    shutil.copytree(PACKAGE, pkg_root / "liouvlab",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    env = child_env(pkg_root)
    if args.trace:
        imports = [import_ms(env, work, deadline) for _ in range(IMPORT_REPEATS)]
        result = run_workload(args, work, env, args.seconds, deadline)
        metrics = {name: (v, unit) for name, (v, unit) in result["per_layer"].items()}
        for name in imports[0]:
            metrics[name] = (statistics.median(i[name] for i in imports), "ms")
        metrics["host.ref_kernel_ms"] = (result["ref_kernel_ms"], "ms")
        return result, metrics
    # set-up processes on both sides of the measuring one, so that the
    # median spans more than one phase of the host's speed
    setups = [run_workload(args, work, env, 0, deadline)["setup_s"]
              for _ in range(SETUP_REPEATS // 2)]
    result = run_workload(args, work, env, args.seconds, deadline)
    setups.append(result["setup_s"])
    setups += [run_workload(args, work, env, 0, deadline)["setup_s"]
               for _ in range(SETUP_REPEATS - len(setups))]
    op_s = result["op_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return result, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "cli.py").is_file():
        print(f"run.py: no liouvlab sources under {PACKAGE}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, metrics = measure(args, work)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for message in result["failures"] + result["check_failures"]:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:12.4f} {unit}")
    op_ms = [1e3 * s for s in result["op_s"]]
    p50 = statistics.median(op_ms)
    if args.trace:
        info = {"op_ms_p50 with trace": (p50, "ms")}
    else:
        ref = result["ref_kernel_ms"]
        info = {"host.ref_kernel_ms": (ref, "ms"), "op_ms_p50 / host.ref_kernel_ms": (p50 / ref, "1")}
    if len(op_ms) >= TAIL_MIN_OPS:
        info[f"op_ms_p90 (n={len(op_ms)})"] = (statistics.quantiles(op_ms, n=10)[-1], "ms")
    for name, (value, unit) in info.items():
        print(f"  {name:44s} {value:12.4f} {unit}  (not a metric)")
    print(json.dumps({
        "correct": not result["check_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
