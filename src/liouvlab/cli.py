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
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .dynamics import ProcessMatrix, TimeGrid
from .estimation import (
    FIELD_PARAM_NAMES,
    HERMITIAN_PARAM_NAMES,
    FitReport,
    bootstrap,
    df_per_time,
    direct_hamiltonian,
    estimate_fields,
    fit_draws,
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
from .synthlab import (
    SCENARIO_DEFAULTS,
    NoiseSpec,
    generate_dataset,
    make_scenario,
    noisy_state_batch,
)
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
_DATASET = {"dim": "integer", "inputs": "array", "outputs": {}, "times_s?": "array", "seed?":
            "integer", "provenance?": {"kind": "string", "params": {}, "noise": {}, "grid?": {}}}
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
_KIND_ALIASES = {"three_axis": "three_axis_time_dependent"}
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
    kind, flag_kind = (_KIND_ALIASES.get(k, k) for k in (spec["kind"], args.kind))
    if flag_kind not in (None, kind):
        raise LiouvlabError(
            f"bad configuration: --kind {args.kind} disagrees with kind {spec['kind']!r} (in {path})"
        )
    # make_scenario rejects a flag that the kind does not take
    params = {**spec.get("params", {}), **_given(args, _SCENARIO_FLAGS)}
    seed = args.seed if env is None else int(env)
    noise = {**spec.get("noise", {}), **_given(args, _NOISE_FLAGS), "seed": seed}
    spec = {**spec, "kind": kind, "params": params, "noise": noise}
    return _parse_scenario(spec, path, "bad configuration")


def _parse_scenario(spec: dict, path, what: str, times=()) -> tuple:
    """The (scenario, noise) of a scenario file's or a dataset provenance's ``spec``; its
    ``grid.times_s`` and the dataset's ``times``, where given, must equal the grid of its
    params to rounding (within 1e-9 of the shortest step, on any time scale)."""
    with _reading(path, what):
        scenario = make_scenario(spec["kind"], **spec.get("params", {}))
        noise = NoiseSpec.from_json(spec.get("noise", {}))
        t, atol = scenario.grid.times, 1e-9 * scenario.grid.durations.min()
        stated = {"'grid.times_s'": spec.get("grid", {}).get("times_s", []),
                  "the dataset's time grid": times}
        for name, ts in stated.items():
            ts = np.asarray(ts, dtype=float)
            if ts.size and not (ts.shape == t.shape and np.allclose(ts, t, rtol=0.0, atol=atol)):
                raise ValueError(f"{name} is inconsistent with the params")
    return scenario, noise


def _load_dataset(path: str) -> tuple:
    """A dataset file: the set, its seed and its (scenario, noise) provenance or None."""
    raw = _read_json(path, _DATASET)
    with _reading(path):
        dataset = TomographySet.from_json(raw)
    prov = raw.get("provenance")
    source = prov and _parse_scenario(prov, path, "bad dataset provenance", dataset.times)
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


def _df_column(pms: tuple, generator: Superoperator | None) -> list:
    """Distance of each process matrix to exp(generator duration); empty without one."""
    return [""] * len(pms[1]) if generator is None else list(df_per_time(pms, generator.matrix))


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
        for k, (mat, t) in enumerate(zip(pms[0], pms[1].tolist())):
            pm = ProcessMatrix(dim=dataset.dim, matrix=mat, duration_s=t)
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


def _point_fit(args, rt, dataset: TomographySet) -> FitReport:
    """The FitReport of the fit of ``--model`` by ``--method`` to the dataset.

    The CLI's one estimator dispatch (every bootstrap draw takes ``fit_draws``);
    ``relaxation`` and ``mle`` are MLE fits of their form.
    """
    if args.model == "fields":
        return estimate_fields(stepwise_processes(dataset), rt, args.known_form, args.method)
    processes = reconstruct_processes(dataset)
    if args.model == "hermitian" and args.method == "direct":
        return direct_hamiltonian(processes, rt)
    form = "free" if args.model == "mle" else args.model
    return mle_liouvillian(processes, dissipator=rt, form=form)


def cmd_fit(args):
    # a flag that the model's fit does not read is refused, not ignored
    if args.known_form and args.model != "fields":
        raise LiouvlabError(f"--known-form does not apply to --model {args.model}")
    if args.fixed_dissipator and args.model == "relaxation":
        raise LiouvlabError("--fixed-dissipator does not apply to --model relaxation")
    if args.method and args.model in ("relaxation", "mle"):
        raise LiouvlabError(f"--method does not apply to --model {args.model}")
    args.method = args.method or ("direct" if args.model in ("hermitian", "fields") else None)
    dataset, seed, source = _load_dataset(args.dataset)
    rt = _load_superop(args.fixed_dissipator, dataset.dim) if args.fixed_dissipator else None
    if args.model in ("hermitian", "fields") and rt is None:
        raise LiouvlabError(f"--model {args.model} requires --fixed-dissipator")
    if args.bootstrap and source is None:
        raise LiouvlabError("bootstrap requires a dataset with provenance (produced by simulate)")
    if args.bootstrap and args.model == "mle":
        raise LiouvlabError("bootstrap is not supported for model 'mle'")
    outdir = Path(args.out)
    report = _point_fit(args, rt, dataset)
    if args.bootstrap:
        report = _attach_bootstrap(args, rt, source, report)

    _write_json(outdir / "fit_report.json", _artifact(report.to_json(), seed))
    # a field fit's rows, one per interval, are labelled by interval midpoints
    fields = args.model == "fields"
    times = TimeGrid(times=dataset.times).midpoints if fields else dataset.times
    if report.df_per_time is not None and len(report.df_per_time) > 0:
        rows = [[t, d] for t, d in zip(times, report.df_per_time)]
        _write_csv(outdir / "df.csv", ["time_s", "df"], rows)
    if fields:
        columns = FIELD_PARAM_NAMES if args.known_form else HERMITIAN_PARAM_NAMES
        rows = zip(times, report.estimate, report.extras["flagged"])
        table = [[t, *row, int(fl)] for t, row, fl in rows]
        _write_csv(outdir / "fields.csv", ["time_s", *columns, "flagged"], table)
    names = ("dataset", "model", "method", "known_form", "fixed_dissipator", "bootstrap")
    config = {name: getattr(args, name) for name in names}
    _manifest(outdir, "fit", {**config, "out": str(outdir)}, seed)
    status = "converged" if report.converged else "NOT converged (soft failure)"
    print(f"wrote {outdir / 'fit_report.json'} ({report.model}, {status})")


def _attach_bootstrap(args, rt, source, report: FitReport) -> FitReport:
    """``report`` with the bootstrap intervals of the draw fit over draws from the provenance."""
    scenario, noise = source
    # read here, so that the propagators are built once and not in each forked worker
    times, propagators = scenario.grid.times, scenario.propagators

    def fit(seeds: list) -> np.ndarray:
        states = noisy_state_batch(propagators, noise, seeds)
        return fit_draws(states, times, args.model, rt, args.known_form)

    result = bootstrap(fit, noise.seed, args.bootstrap)
    report.ci_low, report.ci_high = result.low, result.high
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
        choices=[*SCENARIO_DEFAULTS, *_KIND_ALIASES],
    )
    sim.add_argument(
        "--scenario-file",
        help='JSON spec {"kind", "params", "noise"}; --kind, if given, must '
        "name the same kind, and other flags given override its params and noise",
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
    fit.add_argument(
        "--known-form", action="store_true",
        help="fields: fit the three Larmor frequencies per interval, not nine Hermitian params",
    )
    fit.add_argument(
        "--method", choices=["direct", "mle"],
        help="point-fit estimator of hermitian and fields [direct]; relaxation and mle "
        "are always MLE fits and refuse it; every bootstrap draw uses the model's direct one",
    )
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
