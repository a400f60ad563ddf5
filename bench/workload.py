"""One workload in one fresh Python process: set up, warm up, measure.

``run.py`` starts this file with the run's scratch directory as working
directory and the package copy on ``PYTHONPATH``.  Every op is a fixed
sequence of in-process ``liouvlab.cli.main(argv)`` calls with the argv a
user would type.  The ops of one round are run in order until the run's
time is spent, always in whole rounds; each round's artifacts are then
checked by ``checks.py``.  The result goes to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time

import numpy as np
from scipy.linalg import expm  # bound before any tracer wraps scipy.linalg

import checks
import layertrace
import liouvlab.cli as cli
from liouvlab.synthlab import DEFAULT_RELAXATION

BOOTSTRAP_DRAWS = 100
STATIC_DATASETS = 9  # static_fits rotates over this many datasets per round
SIGMA = repr(checks.SIGMA)
RT = "rt.json"


def _report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rows(path: str) -> np.ndarray:
    with open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader])


def _write_known_relaxation():
    with open(RT, "w") as fh:
        json.dump(DEFAULT_RELAXATION.superoperator().to_json(), fh)


def _simulate(kind: str, seed: int, out: str, *extra) -> list[str]:
    return ["simulate", "--kind", kind, *extra, "--seed", str(seed), "--sigma", SIGMA, "-o", out]


# --- relaxation_bootstrap: one op = the longest command users run ---------


def relaxation_setup(seed: int):
    return [_simulate("relaxation_only", seed, "relax")], [[
        ["fit", "--dataset", "relax/dataset.json", "--model", "relaxation",
         "--bootstrap", str(BOOTSTRAP_DRAWS), "-o", "fit"],
    ]]


def relaxation_check() -> list[str]:
    return checks.check_relaxation(_report("fit/fit_report.json"))


# --- static_fits: many-time MLE on known relaxation, no bootstrap ---------


def static_setup(seed: int):
    _write_known_relaxation()
    prep, ops = [], []
    for k in range(STATIC_DATASETS):
        ds_seed = 1000 * seed + k
        prep += [
            _simulate("relaxation_only", ds_seed, f"relax{k}"),
            _simulate("static_quadratic_zeeman", ds_seed, f"static{k}"),
        ]
        herm = ["fit", "--dataset", f"static{k}/dataset.json", "--model", "hermitian",
                "--fixed-dissipator", RT]
        ops.append([
            ["fit", "--dataset", f"relax{k}/dataset.json", "--model", "relaxation",
             "-o", f"relaxfit{k}"],
            [*herm, "--method", "mle", "-o", f"mle{k}"],
            [*herm, "--method", "direct", "-o", f"direct{k}"],
        ])
    return prep, ops


def static_check() -> list[str]:
    def reports(prefix):
        return [_report(f"{prefix}{k}/fit_report.json") for k in range(STATIC_DATASETS)]

    return checks.check_static(reports("relaxfit"), reports("mle"), reports("direct"))


# --- field_tracking: simulate, then 100 one-time fits per op --------------


def field_setup(seed: int):
    _write_known_relaxation()
    fields = ["fit", "--dataset", "ta/dataset.json", "--model", "fields", "--fixed-dissipator", RT]
    return [], [[
        _simulate("three_axis", seed, "ta", "--ramp"),
        [*fields, "--known-form", "--method", "mle", "-o", "known_mle"],
        [*fields, "--method", "mle", "-o", "unknown_mle"],
        [*fields, "--known-form", "--method", "direct", "-o", "known_direct"],
    ]]


def field_check() -> list[str]:
    return checks.check_fields(
        _rows("known_mle/fields.csv"), _rows("unknown_mle/fields.csv"), _rows("known_direct/fields.csv")
    )


WORKLOADS = {
    "relaxation_bootstrap": (relaxation_setup, relaxation_check),
    "static_fits": (static_setup, static_check),
    "field_tracking": (field_setup, field_check),
}

_REF_INPUT = np.random.default_rng(1234).normal(size=(64, 64)) / 64.0


def ref_kernel_ms() -> float:
    """A fixed numpy/scipy kernel; its time tracks the host's speed only."""
    start = time.perf_counter()
    for _ in range(5):
        np.linalg.solve(expm(_REF_INPUT), _REF_INPUT)
    return 1e3 * (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="0: set up and exit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    setup, check = WORKLOADS[args.workload]

    prep, ops = setup(args.seed)
    run = cli.main
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
        run = tracer.span("cli", cli.main)

    failures = []

    def do_op(op) -> bool:
        ok = True
        for argv in op:
            try:
                code = run(argv)
            except Exception as err:  # noqa: BLE001 - a crash is a failed op
                code = repr(err)
            if code != 0:
                failures.append(f"{argv[0]} {' '.join(argv[1:])}: exit {code}")
                ok = False
        return ok

    for argv in prep:
        if not do_op([argv]):
            print(f"set-up failed: {failures}", file=sys.stderr)
            return 1
    do_op(ops[0])  # warm-up: fills the package's caches
    failures.clear()
    if tracer:
        tracer.reset()

    first_op = time.monotonic()
    op_s, ref_ms, check_failures = [], [], []
    attempted = failed = 0
    while args.seconds > 0:
        round_failed = failed
        for op in ops:
            start = time.perf_counter()
            ok = do_op(op)
            elapsed = time.perf_counter() - start
            attempted += 1
            if ok:
                op_s.append(elapsed)
            else:
                failed += 1
            ref_ms.append(ref_kernel_ms())
        if failed == round_failed:  # a failed op leaves no artifacts to check
            check_failures += check()
        if time.monotonic() - first_op >= args.seconds:
            break

    result = {
        "first_op_monotonic": first_op,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if attempted:
        result.update(
            attempted=attempted,
            failed=failed,
            op_s=op_s,
            ref_kernel_ms=statistics.median(ref_ms),
            failures=sorted(set(failures)),
            check_failures=sorted(set(check_failures)),
        )
    if tracer:
        result["per_layer"] = layertrace.per_layer_metrics(tracer, attempted)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
