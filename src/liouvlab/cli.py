"""Command-line pipeline: simulate, reconstruct, fit, report.

Every artifact is JSON or CSV, carries the resolved seed and a schema
version, and is written atomically (temp file + rename).  Runs are
reproducible: the same configuration and seed produce byte-identical
numeric outputs.  Input enters through one loader per kind of file,
which checks the file's JSON shape once and raises LiouvlabError naming
the file and the key of any fault.  ``main`` alone sets exit codes: 0
success (including soft-failed fits, reported with ``converged:
false``), 3 a numeric or rank failure, 4 missing artifacts, and 2 any
other LiouvlabError or an OSError (such as a path that cannot be written).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dynamics import TimeGrid
from .estimation import (
    FitReport,
    _df_per_time,
    bootstrap,
    direct_hamiltonian,
    estimate_fields,
    fit_relaxation_model,
    mle_liouvillian,
)
from .exceptions import (
    BranchCutError,
    CompletenessError,
    IllConditionedError,
    LiouvlabError,
    SingularProcessError,
)
from .superop import Superoperator
from .synthlab import SCENARIO_DEFAULTS, NoiseSpec, generate_dataset, make_scenario
from .tomography import (
    TomographySet,
    mean_log_liouvillian,
    reconstruct_processes,
    stepwise_processes,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_MISSING = 4

NUMERIC_ERRORS = (BranchCutError, SingularProcessError, CompletenessError, IllConditionedError)


class _MissingArtifacts(LiouvlabError):
    """Run directories with no manifest (exit 4)."""


def _fmt(x) -> str:
    """Full round-trip float formatting for CSV output."""
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, obj: dict):
    # compact output keeps json on its C encoder (indent forces the Python one)
    _write_atomic(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating)) else v for v in row])
    _write_atomic(path, buf.getvalue())


def _artifact(obj: dict, seed: int) -> dict:
    return {"schema_version": SCHEMA_VERSION, "seed": seed, **obj}


def _versions() -> dict:
    """Versions of Python and of the libraries that computed the artifacts."""
    return {
        "liouvlab": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def _manifest(outdir: Path, command: str, config: dict, seed: int):
    _write_json(
        outdir / "manifest.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "seed": seed,
            "versions": _versions(),
        },
    )


# ---------------------------------------------------------------------------
# loaders: outside input enters only here
# ---------------------------------------------------------------------------


# JSON shapes: each key maps to its JSON type or, for an object, to the
# shape of that object; a key ending in "?" may be left out
_SCENARIO_FILE = {"kind": "string", "params?": {}, "noise?": {}, "grid?": {}}
_DATASET = {"dim": "integer", "inputs": "array", "outputs": {}, "seed?": "integer",
            "provenance?": {"kind": "string", "params": {}, "noise": {}}}
_SUPEROPERATOR = {"dim": "integer", "matrix": "array"}
_FIT_REPORT = {"cost": "number", "converged": "boolean"}
_REPORT_COLUMNS = ["run", "command", "seed", "max_df", "median_df", "cost", "converged"]


def _json_type(value) -> str:
    names = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array"}
    return "object" if isinstance(value, dict) else names.get(type(value), "null")


def _check_shape(obj, shape: dict, key: str = ""):
    """Raise LiouvlabError naming the key where ``obj``, at the dotted ``key`` of
    its file ("" for the whole file), departs from ``shape``."""
    where = f"'{key}'" if key else "the file"
    if not isinstance(obj, dict):
        raise LiouvlabError(f"{where} must be a JSON object, got a JSON {_json_type(obj)}")
    for name, kind in shape.items():
        optional, name = name.endswith("?"), name.rstrip("?")
        path = f"{key}.{name}" if key else name
        if name not in obj:
            if not optional:
                raise LiouvlabError(f"{where} has no key {name!r}")
        elif isinstance(kind, dict):
            _check_shape(obj[name], kind, path)
        elif (got := _json_type(obj[name])) != kind and (kind, got) != ("number", "integer"):
            raise LiouvlabError(f"'{path}' must be a JSON {kind}, got a JSON {got}")


@contextlib.contextmanager
def _reading(path, what: str = "bad input"):
    """Turn an error in converting input into a LiouvlabError naming ``path``.

    numpy raises TypeError for a JSON value of the wrong kind in an array.
    """
    try:
        yield
    except (ValueError, TypeError, LiouvlabError) as err:
        raise LiouvlabError(f"{what}: {err}" + (f" (in {path})" if path else "")) from None


def _read_json(path, shape: dict, what: str = "bad input") -> dict:
    """The JSON object in file ``path``, checked to have ``shape``."""
    with _reading(path, what), open(path) as fh:
        obj = json.load(fh)
        _check_shape(obj, shape)
    return obj


# parameter names of every scenario kind, and the noise fields; those that are
# also flags override a scenario file when given
_SCENARIO_FLAGS = sorted(set().union(*SCENARIO_DEFAULTS.values()))
_NOISE_FLAGS = ("bloch_sigma", "prep_fidelity")


def _given(args, names) -> dict:
    """The flags among ``names`` that were given on the command line."""
    return {name: v for name in names if (v := getattr(args, name, None)) is not None}


def _load_scenario(args) -> tuple:
    """The scenario and noise of ``--scenario-file`` or ``--kind``, updated by
    the flags given; ``QPT_SEED`` overrides ``--seed``."""
    env = os.environ.get("QPT_SEED")
    if env is not None and not re.fullmatch(r"\s*[+-]?\d+\s*", env):
        raise LiouvlabError(f"QPT_SEED must be an integer, got {env!r}")
    path = args.scenario_file
    spec = _read_json(path, _SCENARIO_FILE, "bad configuration") if path else {"kind": args.kind}
    if spec["kind"] is None:
        raise LiouvlabError("either --kind or --scenario-file is required")
    kind = "three_axis_time_dependent" if spec["kind"] == "three_axis" else spec["kind"]
    with _reading(path, "bad configuration"):
        # make_scenario rejects a flag that the kind does not take
        params = {**spec.get("params", {}), **_given(args, _SCENARIO_FLAGS)}
        scenario = make_scenario(kind, **params)
        seed = args.seed if env is None else int(env)
        noise = NoiseSpec.from_json(
            {**spec.get("noise", {}), **_given(args, _NOISE_FLAGS), "seed": seed}
        )
        stated = np.asarray(spec.get("grid", {}).get("times_s", []), dtype=float)
        if stated.size and not np.allclose(stated, scenario.grid.times):
            raise ValueError("'grid.times_s' is inconsistent with the params")
    return scenario, noise


def _load_dataset(path: str) -> tuple:
    """A dataset file: the set, its seed and its (scenario, noise) provenance or None."""
    raw = _read_json(path, _DATASET)
    with _reading(path):
        for t in raw["outputs"]:
            if not 0.0 < float(t) < math.inf:
                raise LiouvlabError(f"'outputs' has time {t!r}, not a finite positive number")
        if len({float(t) for t in raw["outputs"]}) < len(raw["outputs"]):
            raise LiouvlabError("'outputs' has two keys for one time")
        dataset = TomographySet.from_json(raw)
    provenance = raw.get("provenance")
    with _reading(path, "bad dataset provenance"):
        source = provenance and (
            make_scenario(provenance["kind"], **provenance["params"]),
            NoiseSpec.from_json(provenance["noise"]),
        )
    return dataset, raw.get("seed", 0), source


def _load_superop(path: str, dim: int) -> Superoperator:
    """A superoperator file, which must be of the dataset's dimension ``dim``."""
    raw = _read_json(path, _SUPEROPERATOR)
    with _reading(path):
        op = Superoperator.from_json(raw)
    if op.dim != dim:
        raise LiouvlabError(f"bad input: {path} has dim {op.dim}, but the dataset has dim {dim}")
    return op


def _summarize_run(rundir: Path) -> dict | None:
    """The report row of a run directory; None if it has no manifest."""
    manifest_path = rundir / "manifest.json"
    if not manifest_path.is_file():
        return None
    manifest = _read_json(manifest_path, {})
    row = {"run": rundir.name, "command": manifest.get("command", "?"),
           "seed": manifest.get("seed", ""), **dict.fromkeys(_REPORT_COLUMNS[3:], "")}
    df_path = rundir / "df.csv"
    if df_path.is_file():
        with _reading(df_path, "bad input in column 'df'"), open(df_path) as fh:
            reader = csv.DictReader(fh)
            dfs = [float(r["df"]) for r in reader if r.get("df") not in (None, "", "nan")]
        if dfs:
            row["max_df"] = _fmt(max(dfs))
            row["median_df"] = _fmt(float(np.median(dfs)))
    fit_path = rundir / "fit_report.json"
    if fit_path.is_file():
        fit = _read_json(fit_path, _FIT_REPORT)
        row["cost"] = _fmt(fit["cost"])
        row["converged"] = str(fit["converged"])
    return row


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args):
    scenario, noise = _load_scenario(args)
    dataset = generate_dataset(scenario, noise)
    outdir = Path(args.out)
    provenance = {**scenario.to_json(), "noise": noise.to_json()}
    data = _artifact({**dataset.to_json(), "provenance": provenance}, noise.seed)
    _write_json(outdir / "dataset.json", data)
    config = {"kind": scenario.kind, "params": scenario.params, "noise": noise.to_json()}
    _manifest(outdir, "simulate", {**config, "out": str(outdir)}, noise.seed)
    print(f"wrote {outdir / 'dataset.json'} ({len(dataset.times)} time points)")


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def _df_column(pms: list, generator: Superoperator | None) -> list:
    """Distance of each process matrix to exp(generator duration_s); empty without one."""
    return [""] * len(pms) if generator is None else list(_df_per_time(pms, generator.matrix))


def cmd_reconstruct(args):
    dataset, seed, _ = _load_dataset(args.dataset)
    reference = _load_superop(args.reference, dataset.dim) if args.reference else None
    outdir = Path(args.out)
    if args.mode == "liouvillian":
        pms = reconstruct_processes(dataset)
        l_hat = mean_log_liouvillian(pms)
        _write_json(outdir / "liouvillian.json", _artifact(l_hat.to_json(), seed))
        header = ["time_s", "df", "df_vs_reference"]
        columns = [_df_column(pms, l_hat), _df_column(pms, reference)]
    else:
        # one process matrix per time (process) or per interval (stepwise)
        stepwise = args.mode == "stepwise"
        pms = stepwise_processes(dataset) if stepwise else reconstruct_processes(dataset)
        prefix = "step" if stepwise else "process"
        for k, pm in enumerate(pms):
            _write_json(outdir / f"{prefix}_{k:03d}.json", _artifact(pm.to_json(), seed))
        header = ["time_s", "df"]
        columns = [_df_column(pms, reference)]
    _write_csv(outdir / "df.csv", header, [list(r) for r in zip(dataset.times, *columns)])
    config = {name: getattr(args, name) for name in ("dataset", "mode", "reference")}
    _manifest(outdir, "reconstruct", {**config, "out": str(outdir)}, seed)
    print(f"wrote reconstruction artifacts to {outdir}")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _direct_relaxation_params(dataset: TomographySet) -> np.ndarray:
    l_hat = mean_log_liouvillian(reconstruct_processes(dataset))
    return fit_relaxation_model(Superoperator(dim=dataset.dim, matrix=-l_hat.matrix)).params


def _fields(dataset: TomographySet, rt: Superoperator, known_form: bool, method: str):
    grid = TimeGrid(times=dataset.times)
    return estimate_fields(stepwise_processes(dataset), grid, rt, known_form, method)


def cmd_fit(args):
    dataset, seed, source = _load_dataset(args.dataset)
    rt = _load_superop(args.fixed_dissipator, dataset.dim) if args.fixed_dissipator else None
    if args.model in ("hermitian", "fields") and rt is None:
        raise LiouvlabError(f"--model {args.model} requires --fixed-dissipator")
    outdir = Path(args.out)
    fields_csv = None
    df_times = dataset.times

    if args.model == "mle":
        report = mle_liouvillian(reconstruct_processes(dataset), dissipator=rt, form="free")
    elif args.model == "relaxation":
        mle = mle_liouvillian(reconstruct_processes(dataset), form="free")
        rt_hat = Superoperator(dim=dataset.dim, matrix=-mle.estimate.matrix)
        report = fit_relaxation_model(rt_hat)
        report.df_per_time = mle.df_per_time
        report.converged = mle.converged
        report.iterations = mle.iterations
        report.extras["optimizer"] = mle.extras["optimizer"]
    elif args.model == "hermitian":
        processes = reconstruct_processes(dataset)
        if args.method == "mle":
            report = mle_liouvillian(processes, dissipator=rt, form="hermitian")
        else:
            report = direct_hamiltonian(processes, rt)
    else:  # fields; argparse restricts the choices
        track = _fields(dataset, rt, args.known_form, args.method)
        report = track.report
        df_times = track.times  # interval midpoints, as in fields.csv
        header = ["time_s", *track.columns, "flagged"]
        rows = zip(track.times, track.report.estimate, track.flagged)
        fields_csv = header, [[t, *row, int(fl)] for t, row, fl in rows]
    if args.bootstrap:
        report = _attach_bootstrap(args, source, rt, report)

    _write_json(outdir / "fit_report.json", _artifact(report.to_json(), seed))
    if report.df_per_time is not None and len(report.df_per_time) > 0:
        rows = [[t, d] for t, d in zip(df_times, report.df_per_time)]
        _write_csv(outdir / "df.csv", ["time_s", "df"], rows)
    if fields_csv is not None:
        _write_csv(outdir / "fields.csv", *fields_csv)
    names = ("dataset", "model", "method", "known_form", "fixed_dissipator", "bootstrap")
    config = {name: getattr(args, name) for name in names}
    _manifest(outdir, "fit", {**config, "out": str(outdir)}, seed)
    status = "converged" if report.converged else "NOT converged (soft failure)"
    print(f"wrote {outdir / 'fit_report.json'} ({report.model}, {status})")


def _attach_bootstrap(args, source, rt, report: FitReport) -> FitReport:
    """``report`` with the bootstrap intervals of draws from the dataset's provenance."""
    if source is None:
        raise LiouvlabError("bootstrap requires a dataset with provenance (produced by simulate)")
    scenario, base_noise = source

    if args.model == "relaxation":
        fit = _direct_relaxation_params
    elif args.model == "hermitian":
        fit = lambda ds: direct_hamiltonian(reconstruct_processes(ds), rt).params  # noqa: E731
    elif args.model == "fields":
        fit = lambda ds: _fields(ds, rt, args.known_form, "direct").report.params  # noqa: E731
    else:
        raise LiouvlabError(f"bootstrap is not supported for model {args.model!r}")

    result = bootstrap(
        fit, lambda spec: generate_dataset(scenario, spec), base_noise, n_draws=args.bootstrap
    )
    report.ci_low = result.low
    report.ci_high = result.high
    report.extras["bootstrap"] = {
        "n_draws": args.bootstrap,
        "n_failed": result.n_failed,
        "failures": result.failures[:3],
    }
    return report


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def cmd_report(args):
    rows = [_summarize_run(Path(d)) for d in args.rundirs]
    missing = [str(Path(d)) for d, row in zip(args.rundirs, rows) if row is None]
    if missing:
        raise _MissingArtifacts(f"missing artifacts in {', '.join(missing)}")

    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in _REPORT_COLUMNS}
    header = "  ".join(c.ljust(widths[c]) for c in _REPORT_COLUMNS)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in _REPORT_COLUMNS))
    if args.csv:
        table = [[r[c] for c in _REPORT_COLUMNS] for r in rows]
        _write_csv(Path(args.csv), _REPORT_COLUMNS, table)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _draw_count(text: str) -> int:
    """``--bootstrap N``: 0 (no bootstrap) or at least 2 draws."""
    if not text.isdecimal() or int(text) == 1:
        raise argparse.ArgumentTypeError(f"N must be 0 or at least 2, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (``parse_args`` keeps no state)."""
    parser = argparse.ArgumentParser(
        prog="liouvlab",
        description="Liouvillian reconstruction pipeline for d-level systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic tomography dataset")
    sim.add_argument(
        "--kind",
        choices=[*SCENARIO_DEFAULTS, "three_axis"],
    )
    sim.add_argument(
        "--scenario-file",
        help='JSON spec {"kind", "params", "noise"} (replaces --kind); '
        "flags given override its params and noise",
    )
    sim.add_argument("--seed", type=int, default=0)
    # defaults None, not 0 / 1 / False: a flag left unset does not override
    # the scenario file
    sim.add_argument(
        "--sigma", dest="bloch_sigma", metavar="SIGMA", type=float,
        help="Bloch-coordinate noise [0]",
    )
    sim.add_argument("--prep-fidelity", type=float, help="preparation fidelity [1]")
    sim.add_argument(
        "--ramp", action="store_true", default=None, help="enable the supply-settling ramp"
    )
    sim.add_argument("--q", type=float, help="quadratic Zeeman strength (rad/s)")
    sim.add_argument("--omega", type=float, help="linear Zeeman strength (rad/s)")
    sim.add_argument("--axis", choices=["x", "y", "z"])
    sim.add_argument("--dt", type=float, help="time-dependent grid step (s)")
    sim.add_argument("--n-steps", type=int, help="time-dependent grid length")
    sim.add_argument("-o", "--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="linear-inversion reconstruction")
    rec.add_argument("--dataset", required=True)
    rec.add_argument("--mode", choices=["process", "liouvillian", "stepwise"], required=True)
    rec.add_argument("--reference", help="generator JSON used for the df column")
    rec.add_argument("-o", "--out", required=True)
    rec.set_defaults(func=cmd_reconstruct)

    fit = sub.add_parser("fit", help="model fitting on a dataset")
    fit.add_argument("--dataset", required=True)
    fit.add_argument(
        "--model", choices=["mle", "relaxation", "hermitian", "fields"], required=True
    )
    fit.add_argument("--fixed-dissipator", help="relaxation superoperator JSON")
    fit.add_argument("--known-form", action="store_true")
    fit.add_argument("--method", choices=["direct", "mle"], default="direct")
    fit.add_argument("--bootstrap", type=_draw_count, default=0, metavar="N")
    fit.add_argument("-o", "--out", required=True)
    fit.set_defaults(func=cmd_fit)

    rep = sub.add_parser("report", help="aggregate run directories into one table")
    rep.add_argument("rundirs", nargs="+")
    rep.add_argument("--csv", help="also write the table to this CSV path")
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one command; the one place where errors become exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    try:
        args.func(args)
    except NUMERIC_ERRORS as err:
        print(f"{args.command}: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LiouvlabError, OSError) as err:
        print(f"{args.command}: {err}", file=sys.stderr)
        return EXIT_MISSING if isinstance(err, _MissingArtifacts) else EXIT_CONFIG
    return EXIT_OK


def entry_point():  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
