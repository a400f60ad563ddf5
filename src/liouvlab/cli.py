"""Command-line pipeline: simulate, reconstruct, fit, report.

Every artifact is JSON or CSV, carries the resolved seed and a schema
version, and is written atomically (temp file + rename).  Runs are
reproducible: the same configuration and seed produce byte-identical
numeric outputs.  Exit codes: 0 success (including soft-failed fits,
reported with ``converged: false``), 2 configuration error, 3 numeric or
rank error, 4 missing artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import platform
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
    DimensionError,
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


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _resolve_seed(args) -> int | None:
    """The seed, with ``QPT_SEED`` overriding ``--seed``; None if it is invalid."""
    env = os.environ.get("QPT_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        print(f"{args.command}: QPT_SEED must be an integer, got {env!r}", file=sys.stderr)
        return None


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
# simulate
# ---------------------------------------------------------------------------


def _scenario_params_from_args(args) -> dict:
    """Every scenario flag given; ``make_scenario`` rejects one its kind does not take."""
    return {
        name: v
        for defaults in SCENARIO_DEFAULTS.values()
        for name in defaults
        if (v := getattr(args, name, None)) is not None
    }


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        return EXIT_CONFIG
    try:
        if args.scenario_file:
            spec = _read_json(Path(args.scenario_file))
            kind = spec["kind"]
            params = spec.get("params", {})
            noise_spec = spec.get("noise", {})
            noise = NoiseSpec(
                bloch_sigma=float(noise_spec.get("bloch_sigma", args.sigma)),
                prep_fidelity=float(noise_spec.get("prep_fidelity", args.prep_fidelity)),
                seed=seed,
            )
        else:
            kind = args.kind
            if kind == "three_axis":  # short alias
                kind = args.kind = "three_axis_time_dependent"
            params = _scenario_params_from_args(args)
            noise = NoiseSpec(
                bloch_sigma=args.sigma, prep_fidelity=args.prep_fidelity, seed=seed
            )
        if kind is None:
            print("simulate: either --kind or --scenario-file is required", file=sys.stderr)
            return EXIT_CONFIG
        scenario = make_scenario(kind, **params)
        if args.scenario_file and "grid" in spec:
            stated = np.asarray(spec["grid"].get("times_s", []), dtype=float)
            if stated.size and not np.allclose(stated, scenario.grid.times):
                raise ValueError("scenario file grid is inconsistent with its parameters")
    except (ValueError, KeyError, OSError, json.JSONDecodeError, LiouvlabError) as err:
        print(f"simulate: bad configuration: {err}", file=sys.stderr)
        return EXIT_CONFIG

    dataset = generate_dataset(scenario, noise)
    outdir = Path(args.out)
    provenance = {**scenario.to_json(), "noise": noise.to_json()}
    _write_json(
        outdir / "dataset.json",
        _artifact({**dataset.to_json(), "provenance": provenance}, seed),
    )
    config = {
        "kind": scenario.kind,
        "params": scenario.params,
        "noise": noise.to_json(),
        "out": str(outdir),
    }
    _manifest(outdir, "simulate", config, seed)
    print(f"wrote {outdir / 'dataset.json'} ({len(dataset.times)} time points)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def _load_superop(path: str, dim: int) -> Superoperator:
    """A superoperator JSON file, which must be of the dataset's dimension ``dim``."""
    op = Superoperator.from_json(_read_json(Path(path)))
    if op.dim != dim:
        raise DimensionError(f"{path} has dim {op.dim}, but the dataset has dim {dim}")
    return op


def _df_column(pms: list, generator: Superoperator | None) -> list:
    """Distance of each process matrix to exp(generator duration_s); empty without one."""
    return [""] * len(pms) if generator is None else list(_df_per_time(pms, generator.matrix))


def cmd_reconstruct(args) -> int:
    try:
        raw = _read_json(Path(args.dataset))
        dataset = TomographySet.from_json(raw)
        reference = _load_superop(args.reference, dataset.dim) if args.reference else None
    except (OSError, KeyError, ValueError, json.JSONDecodeError, LiouvlabError) as err:
        print(f"reconstruct: bad input: {err}", file=sys.stderr)
        return EXIT_CONFIG
    seed = raw.get("seed", 0)
    outdir = Path(args.out)

    try:
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
    except NUMERIC_ERRORS as err:
        print(f"reconstruct: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC

    config = {
        "dataset": args.dataset,
        "mode": args.mode,
        "reference": args.reference,
        "out": str(outdir),
    }
    _manifest(outdir, "reconstruct", config, seed)
    print(f"wrote reconstruction artifacts to {outdir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _direct_relaxation_params(dataset: TomographySet) -> np.ndarray:
    l_hat = mean_log_liouvillian(reconstruct_processes(dataset))
    return fit_relaxation_model(Superoperator(dim=dataset.dim, matrix=-l_hat.matrix)).params


def _fields(dataset: TomographySet, rt: Superoperator, known_form: bool, method: str):
    grid = TimeGrid(times=dataset.times)
    return estimate_fields(stepwise_processes(dataset), grid, rt, known_form, method)


def cmd_fit(args) -> int:
    try:
        raw = _read_json(Path(args.dataset))
        dataset = TomographySet.from_json(raw)
        rt = (
            _load_superop(args.fixed_dissipator, dataset.dim) if args.fixed_dissipator else None
        )
        if args.model in ("hermitian", "fields") and rt is None:
            print(
                f"fit: --model {args.model} requires --fixed-dissipator", file=sys.stderr
            )
            return EXIT_CONFIG
    except (OSError, KeyError, ValueError, json.JSONDecodeError, LiouvlabError) as err:
        print(f"fit: bad input: {err}", file=sys.stderr)
        return EXIT_CONFIG
    seed = raw.get("seed", 0)
    outdir = Path(args.out)
    fields_csv = None
    df_times = dataset.times

    try:
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
        elif args.model == "fields":
            track = _fields(dataset, rt, args.known_form, args.method)
            report = track.report
            df_times = track.times  # interval midpoints, as in fields.csv
            header = ["time_s", *track.columns, "flagged"]
            rows = zip(track.times, track.report.estimate, track.flagged)
            fields_csv = header, [[t, *row, int(fl)] for t, row, fl in rows]
        else:  # pragma: no cover - argparse restricts choices
            return EXIT_CONFIG

        if args.bootstrap:
            report = _attach_bootstrap(args, raw, dataset, rt, report)
    except NUMERIC_ERRORS as err:
        print(f"fit: numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except LiouvlabError as err:
        print(f"fit: {err}", file=sys.stderr)
        return EXIT_CONFIG

    _write_json(outdir / "fit_report.json", _artifact(report.to_json(), seed))
    if report.df_per_time is not None and len(report.df_per_time) > 0:
        _write_csv(
            outdir / "df.csv",
            ["time_s", "df"],
            [[t, d] for t, d in zip(df_times, report.df_per_time)],
        )
    if fields_csv is not None:
        _write_csv(outdir / "fields.csv", *fields_csv)
    config = {
        "dataset": args.dataset,
        "model": args.model,
        "method": args.method,
        "known_form": args.known_form,
        "fixed_dissipator": args.fixed_dissipator,
        "bootstrap": args.bootstrap,
        "out": str(outdir),
    }
    _manifest(outdir, "fit", config, seed)
    status = "converged" if report.converged else "NOT converged (soft failure)"
    print(f"wrote {outdir / 'fit_report.json'} ({report.model}, {status})")
    return EXIT_OK


def _attach_bootstrap(args, raw, dataset, rt, report: FitReport) -> FitReport:
    provenance = raw.get("provenance")
    if not provenance:
        raise LiouvlabError(
            "bootstrap requires a dataset with provenance (produced by simulate)"
        )
    try:
        scenario = make_scenario(provenance["kind"], **provenance["params"])
        base_noise = NoiseSpec.from_json(provenance["noise"])
    except ValueError as err:
        raise LiouvlabError(f"bad dataset provenance: {err}") from None

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


def _summarize_run(rundir: Path) -> dict | None:
    manifest_path = rundir / "manifest.json"
    if not manifest_path.is_file():
        return None
    manifest = _read_json(manifest_path)
    row = {
        "run": rundir.name,
        "command": manifest.get("command", "?"),
        "seed": manifest.get("seed", ""),
        "max_df": "",
        "median_df": "",
        "cost": "",
        "converged": "",
    }
    df_path = rundir / "df.csv"
    if df_path.is_file():
        with open(df_path) as fh:
            reader = csv.DictReader(fh)
            dfs = [float(r["df"]) for r in reader if r.get("df") not in (None, "", "nan")]
        if dfs:
            row["max_df"] = _fmt(max(dfs))
            row["median_df"] = _fmt(float(np.median(dfs)))
    fit_path = rundir / "fit_report.json"
    if fit_path.is_file():
        fit = _read_json(fit_path)
        row["cost"] = _fmt(fit["cost"])
        row["converged"] = str(fit["converged"])
    return row


def cmd_report(args) -> int:
    rows = []
    missing = []
    for d in args.rundirs:
        rundir = Path(d)
        summary = _summarize_run(rundir) if rundir.is_dir() else None
        if summary is None:
            missing.append(str(rundir))
        else:
            rows.append(summary)
    if missing or not rows:
        for m in missing or args.rundirs:
            print(f"report: missing artifacts in {m}", file=sys.stderr)
        return EXIT_MISSING

    columns = ["run", "command", "seed", "max_df", "median_df", "cost", "converged"]
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns))

    if args.csv:
        _write_csv(Path(args.csv), columns, [[r[c] for c in columns] for r in rows])
    return EXIT_OK


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
    sim.add_argument("--scenario-file", help="JSON scenario spec (overrides --kind)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sigma", type=float, default=0.0, help="Bloch-coordinate noise")
    sim.add_argument("--prep-fidelity", type=float, default=1.0)
    # default None, not False: an unset --ramp is a flag not given
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    return args.func(args)


def entry_point():  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
