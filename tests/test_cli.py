import contextlib
import json
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import liouvlab
import liouvlab.cli
from conftest import planted_dataset
from liouvlab.basis import DensityMatrix, build_basis, vectorize
from liouvlab.cli import build_parser, main
from liouvlab.dynamics import ProcessMatrix, TimeGrid
from liouvlab.estimation import (
    RELAXATION_PARAM_NAMES,
    RelaxationModel,
    bootstrap,
    derive_seed,
    df_per_time,
    fit_draws,
    frobenius_distance,
)
from liouvlab.exceptions import BranchCutError
from liouvlab.superop import Superoperator, hamiltonian_superop
from liouvlab.synthlab import (
    DEFAULT_RELAXATION,
    NoiseSpec,
    generate_dataset,
    make_scenario,
)
from liouvlab.tomography import TomographySet, reconstruct_processes


def _read(path):
    return json.loads(Path(path).read_text())


def _simulate(tmp_path, *extra, kind="relaxation_only", seed=7):
    out = tmp_path / "run"
    rc = main(
        ["simulate", "--kind", kind, "--seed", str(seed), "-o", str(out), *extra]
    )
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_dataset_and_manifest(tmp_path):
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    assert data["schema_version"] == 1
    assert data["seed"] == 7
    assert len(data["times_s"]) == 21
    assert data["provenance"]["kind"] == "relaxation_only"
    manifest = _read(out / "manifest.json")
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7


def test_manifest_records_versions(tmp_path):
    out = _simulate(tmp_path)
    assert _read(out / "manifest.json")["versions"] == {
        "liouvlab": liouvlab.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def test_simulate_three_axis_with_ramp(tmp_path):
    out = _simulate(tmp_path, "--ramp", kind="three_axis_time_dependent")
    data = _read(out / "dataset.json")
    assert data["provenance"]["params"]["ramp"] is True
    assert data["provenance"]["params"]["ramp_s"] == pytest.approx(64e-6)
    assert len(data["times_s"]) == 50


def test_simulate_missing_out_flag_exits_2(tmp_path):
    assert main(["simulate", "--kind", "relaxation_only"]) == 2


def test_simulate_bad_kind_exits_2(tmp_path):
    rc = main(["simulate", "--kind", "relaxation_only", "--sigma", "-1",
               "-o", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flag", [["--n-steps", "3"], ["--ramp"]])
def test_simulate_rejects_a_flag_its_kind_does_not_take(tmp_path, capsys, flag):
    rc = main(["simulate", "--kind", "relaxation_only", *flag, "-o", str(tmp_path / "run")])
    assert rc == 2
    name = flag[0][2:].replace("-", "_")
    assert (
        f"bad configuration: unknown parameters for 'relaxation_only': ['{name}']"
        in capsys.readouterr().err
    )
    assert not (tmp_path / "run").exists()


def test_qpt_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QPT_SEED", "1234")
    out = _simulate(tmp_path, seed=7)
    assert _read(out / "dataset.json")["seed"] == 1234


def test_qpt_seed_not_an_integer_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QPT_SEED", "abc")
    rc = main(["simulate", "--kind", "relaxation_only", "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "QPT_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _simulate_file(tmp_path, spec, *flags):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    rc = main(["simulate", "--scenario-file", str(path), "--seed", "3", "-o", str(out), *flags])
    return rc, out


def test_scenario_file_input(tmp_path):
    spec = {
        "kind": "static_quadratic_zeeman",
        "params": {"q": 5000.0},
        "noise": {"bloch_sigma": 0.0, "prep_fidelity": 1.0},
    }
    rc, out = _simulate_file(tmp_path, spec)
    assert rc == 0
    assert _read(out / "dataset.json")["provenance"]["params"]["q"] == 5000.0


def test_scenario_file_with_ramp_flag_simulates_the_ramp(tmp_path):
    spec = {"kind": "three_axis_time_dependent", "params": {"n_steps": 6}}
    rc, out = _simulate_file(tmp_path, spec, "--ramp")
    assert rc == 0
    data = _read(out / "dataset.json")
    assert data["provenance"]["params"]["ramp"] is True
    assert data["provenance"]["params"]["ramp_s"] == pytest.approx(64e-6)
    written = TomographySet.from_json(data)
    for ramp in (True, False):
        sc = make_scenario("three_axis_time_dependent", n_steps=6, ramp=ramp)
        expected = generate_dataset(sc, NoiseSpec(seed=3))
        same = [np.array_equal(w, e) for w, e in zip(written.states[1:], expected.states[1:])]
        assert all(same) if ramp else not any(same)


_SIMULATIONS = [
    ("relaxation_only", []),
    ("relaxation_only", ["--sigma", "0.004", "--prep-fidelity", "0.97"]),
    ("static_quadratic_zeeman", ["--sigma", "0.004"]),
    ("static_linear_zeeman", ["--axis", "y", "--prep-fidelity", "0.97"]),
    ("three_axis_time_dependent", ["--n-steps", "8", "--sigma", "0.004"]),
    ("three_axis_time_dependent", ["--n-steps", "8", "--ramp", "--prep-fidelity", "0.97"]),
]


@pytest.mark.parametrize("kind, flags", _SIMULATIONS)
def test_simulated_dataset_is_rebuilt_from_its_own_provenance(tmp_path, kind, flags):
    # a scenario is exactly its record: kind, params (ramp_s null without the
    # ramp) and noise rebuild the dataset bit for bit
    out = _simulate(tmp_path, *flags, kind=kind, seed=2**32)
    data = _read(out / "dataset.json")
    prov = data["provenance"]
    scenario = make_scenario(prov["kind"], **prov["params"])
    rebuilt = generate_dataset(scenario, NoiseSpec.from_json(prov["noise"]))
    written = TomographySet.from_json(data)
    assert np.array_equal(written.states, rebuilt.states)
    assert np.array_equal(written.times, rebuilt.times)
    assert data["seed"] == prov["noise"]["seed"] == 2**32


def test_scenario_file_rejects_a_flag_its_kind_does_not_take(tmp_path, capsys):
    rc, out = _simulate_file(tmp_path, {"kind": "relaxation_only"}, "--n-steps", "3")
    assert rc == 2
    assert "bad configuration: unknown parameters for 'relaxation_only': ['n_steps']" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_scenario_file_with_a_ramp_of_negative_length_exits_2(tmp_path, capsys):
    spec = {"kind": "three_axis", "params": {"ramp": True, "ramp_s": -8e-6, "n_steps": 4}}
    rc, out = _simulate_file(tmp_path, spec)
    assert rc == 2
    assert "bad configuration: ramp_s must be positive with the ramp on, got -8e-06" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_kind_flag_must_agree_with_the_scenario_file(tmp_path, capsys):
    rc, out = _simulate_file(tmp_path, {"kind": "relaxation_only"}, "--kind", "three_axis")
    assert rc == 2
    assert "--kind three_axis disagrees with kind 'relaxation_only'" in capsys.readouterr().err
    assert not out.exists()
    # the alias names the same kind as its full name, in either place
    spec = {"kind": "three_axis", "params": {"n_steps": 3}}
    for flag in ("three_axis", "three_axis_time_dependent"):
        rc, out = _simulate_file(tmp_path, spec, "--kind", flag)
        assert rc == 0
        assert _read(out / "dataset.json")["provenance"]["kind"] == "three_axis_time_dependent"


def test_scenario_file_values_are_overridden_by_the_flags_given(tmp_path):
    spec = {
        "kind": "static_linear_zeeman",
        "params": {"axis": "x", "omega": 1000.0, "n_times": 4},
        "noise": {"bloch_sigma": 0.002, "prep_fidelity": 0.9},
    }
    rc, out = _simulate_file(tmp_path, spec, "--axis", "z", "--prep-fidelity", "0.95")
    assert rc == 0
    provenance = _read(out / "dataset.json")["provenance"]
    assert provenance["params"] == {**make_scenario("static_linear_zeeman").params,
                                    "axis": "z", "omega": 1000.0, "n_times": 4}
    assert provenance["noise"] == {"bloch_sigma": 0.002, "prep_fidelity": 0.95, "seed": 3}


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def test_reconstruct_liouvillian_noiseless_closed_loop(tmp_path):
    out = _simulate(tmp_path)
    rec = tmp_path / "rec"
    rc = main(["reconstruct", "--dataset", str(out / "dataset.json"),
               "--mode", "liouvillian", "-o", str(rec)])
    assert rc == 0
    l_hat = Superoperator.from_json(_read(rec / "liouvillian.json"))
    truth = make_scenario("relaxation_only").liouvillian(0.0)
    assert frobenius_distance(l_hat, truth) < 1e-7
    lines = (rec / "df.csv").read_text().splitlines()
    assert lines[0] == "time_s,df,df_vs_reference"
    assert len(lines) == 22


def test_reconstruct_process_mode_writes_all_times(tmp_path):
    out = _simulate(tmp_path)
    rec = tmp_path / "rec"
    truth = make_scenario("relaxation_only").liouvillian(0.0)
    ref_path = tmp_path / "ref.json"
    ref_path.write_text(json.dumps(truth.to_json()))
    rc = main(["reconstruct", "--dataset", str(out / "dataset.json"),
               "--mode", "process", "--reference", str(ref_path), "-o", str(rec)])
    assert rc == 0
    files = sorted(rec.glob("process_*.json"))
    assert len(files) == 21
    pm = _read(files[0])
    assert pm["duration_s"] == pytest.approx(0.5e-3)
    # noiseless: df against the true generator's propagator is ~0
    rows = (rec / "df.csv").read_text().splitlines()[1:]
    dfs = [float(r.split(",")[1]) for r in rows]
    assert max(dfs) < 1e-9


def test_reconstruct_stepwise_count(tmp_path):
    out = _simulate(tmp_path, "--n-steps", "6", kind="three_axis_time_dependent")
    rec = tmp_path / "rec"
    rc = main(["reconstruct", "--dataset", str(out / "dataset.json"),
               "--mode", "stepwise", "-o", str(rec)])
    assert rc == 0
    # one step per interval: (number of state matrices) - 1
    assert len(sorted(rec.glob("step_*.json"))) == 6


def test_reconstruct_rank_failure_exits_3(tmp_path):
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    first = data["inputs"][0]
    data["inputs"] = [first for _ in data["inputs"]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    rc = main(["reconstruct", "--dataset", str(broken), "--mode", "liouvillian",
               "-o", str(tmp_path / "rec")])
    assert rc == 3


@pytest.mark.parametrize("matrix", ["inputs", "outputs"])
@pytest.mark.parametrize(
    "command",
    [["reconstruct", "--mode", "liouvillian"], ["fit", "--model", "relaxation"]],
)
def test_non_finite_dataset_is_bad_input(tmp_path, capsys, command, matrix):
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    if matrix == "inputs":
        data["inputs"][2][0] = float("inf")
        name = "inputs"
    else:
        key = sorted(data["outputs"], key=float)[3]
        data["outputs"][key][0][0] = float("nan")
        name = f"outputs[{float(key)}]"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main([command[0], "--dataset", str(broken), *command[1:], "-o", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad input" in err
    assert f"{name} has a non-finite entry" in err


@pytest.mark.parametrize(
    "keys, fault",
    [
        (["-0.0005"], "-0.0005 after 0.0"),
        (["0"], "0.0 after 0.0"),
        (["nan"], "nan after 0.0"),
        (["inf"], "inf after 0.0"),
        (["0.001", "nan"], "nan after 0.001"),
        (["0.001", "1e-3"], "0.001 after 0.001"),
    ],
)
def test_one_times_rule_for_grids_sets_and_dataset_files(tmp_path, capsys, keys, fault):
    # TimeGrid holds the rule; a set applies it whether built in memory or
    # read from JSON, and the CLI reports it as bad input naming the file
    message = f"times must be finite, positive and strictly increasing, got {fault}"
    times = [float(k) for k in keys]
    valid = generate_dataset(make_scenario("relaxation_only", n_times=len(keys)), NoiseSpec())
    obj = {**valid.to_json(), "outputs": {k: o.T.tolist() for k, o in zip(keys, valid.states[1:])}}
    for build in (
        lambda: TimeGrid(times=times),
        lambda: TomographySet(states=valid.states, times=times),
        lambda: TomographySet.from_json(obj),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["reconstruct", "--dataset", str(path), "--mode", "process",
                 "-o", str(tmp_path / "o")]) == 2
    assert f"reconstruct: bad input: {message} (in {path})" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["reconstruct", "--mode", "process"], ["fit", "--model", "relaxation"]],
)
@pytest.mark.parametrize(
    "change, message",
    [
        ({"dim": 2}, "inputs must be 4 x N, got shape (9, 15)"),
        ({"outputs": {}}, "time grid must be a non-empty 1-d array, got shape (0,)"),
    ],
)
def test_malformed_dataset_is_bad_input(tmp_path, capsys, command, change, message):
    data = {**_read(_simulate(tmp_path) / "dataset.json"), **change}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main([command[0], "--dataset", str(broken), *command[1:], "-o", str(tmp_path / "o")])
    assert rc == 2
    assert f"{command[0]}: bad input: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["reconstruct", "--mode", "liouvillian", "--reference"],
        ["fit", "--model", "hermitian", "--fixed-dissipator"],
    ],
)
def test_superoperator_of_another_dim_is_bad_input(tmp_path, capsys, command):
    out = _simulate(tmp_path, kind="static_quadratic_zeeman")
    op = tmp_path / "op.json"
    op.write_text(json.dumps(Superoperator(dim=2, matrix=np.zeros((4, 4))).to_json()))
    capsys.readouterr()
    rc = main([command[0], "--dataset", str(out / "dataset.json"), *command[1:], str(op),
               "-o", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{command[0]}: bad input: {op} has dim 2, but the dataset has dim 3" in err


def _qubit_dataset(path):
    """A valid noiseless qubit dataset: four pure inputs precessing for 0.1 to 0.5 ms."""
    basis = build_basis(2)
    kets = [[1, 0], [0, 1], [2**-0.5, 2**-0.5], [2**-0.5, 1j * 2**-0.5]]
    inputs = np.column_stack([
        vectorize(DensityMatrix.from_matrix(np.outer(k, np.conj(k))), basis).coords for k in kets
    ])
    gen = hamiltonian_superop(2e3 * np.array([[0.5, 1.0], [1.0, -0.5]]), basis).matrix
    times = 1e-4 * np.arange(1, 6)
    states = np.stack([inputs] + [scipy.linalg.expm(gen * t) @ inputs for t in times])
    path.write_text(json.dumps(TomographySet(states=states, times=times).to_json()))


@pytest.mark.parametrize("flags", [[], ["--known-form"]])
def test_fit_fields_of_a_qubit_dataset_exits_2(tmp_path, capsys, flags):
    # field tracking, like the hermitian and relaxation fits, is defined for qutrits only
    _qubit_dataset(tmp_path / "dataset.json")
    rt = tmp_path / "rt.json"
    rt.write_text(json.dumps(Superoperator(dim=2, matrix=np.zeros((4, 4))).to_json()))
    capsys.readouterr()
    rc = main(["fit", "--dataset", str(tmp_path / "dataset.json"), "--model", "fields", *flags,
               "--fixed-dissipator", str(rt), "-o", str(tmp_path / "fit")])
    assert rc == 2
    assert capsys.readouterr().err == "fit: field tracking is defined for qutrits only\n"


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_relaxation_noiseless_matches_defaults(tmp_path):
    out = _simulate(tmp_path)
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"),
               "--model", "relaxation", "-o", str(fit)])
    assert rc == 0
    report = _read(fit / "fit_report.json")
    rel = np.abs(np.array(report["params"]) / DEFAULT_RELAXATION.params - 1.0)
    assert rel.max() < 1e-3
    assert report["converged"] is True
    assert report["seed"] == 7
    assert report["optimizer"]["expm_frechet_evaluations"] == 0


def test_fit_hermitian_requires_dissipator(tmp_path):
    out = _simulate(tmp_path, kind="static_quadratic_zeeman")
    rc = main(["fit", "--dataset", str(out / "dataset.json"),
               "--model", "hermitian", "-o", str(tmp_path / "f")])
    assert rc == 2


def test_fit_hermitian_direct_and_mle(tmp_path):
    out = _simulate(tmp_path, kind="static_quadratic_zeeman")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    for method in ("direct", "mle"):
        fit = tmp_path / f"fit_{method}"
        rc = main(["fit", "--dataset", str(out / "dataset.json"),
                   "--model", "hermitian", "--method", method,
                   "--fixed-dissipator", str(rt_path), "-o", str(fit)])
        assert rc == 0
        report = _read(fit / "fit_report.json")
        assert len(report["params"]) == 9
        assert (fit / "df.csv").exists()


def test_fit_fields_known_and_unknown(tmp_path):
    out = _simulate(tmp_path, "--n-steps", "8", kind="three_axis_time_dependent")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    known = tmp_path / "known"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--known-form", "--fixed-dissipator", str(rt_path), "-o", str(known)])
    assert rc == 0
    rows = (known / "fields.csv").read_text().splitlines()
    assert rows[0] == "time_s,omega_x,omega_y,omega_z,flagged"
    assert len(rows) == 9
    # noiseless: tracked fields match the nominal waveforms at midpoints
    sc = make_scenario("three_axis_time_dependent", n_steps=8)
    truth = sc.omegas_nominal(sc.grid.midpoints)
    got = np.array([[float(v) for v in r.split(",")[1:4]] for r in rows[1:]])
    np.testing.assert_allclose(got, truth, atol=1e-5)

    unknown = tmp_path / "unknown"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--fixed-dissipator", str(rt_path), "-o", str(unknown)])
    assert rc == 0
    header = (unknown / "fields.csv").read_text().splitlines()[0]
    assert header.startswith("time_s,h1,h2")


@pytest.mark.parametrize("method", ["direct", "mle"])
def test_fit_fields_on_a_non_uniform_grid(tmp_path, method):
    # the static grid's first interval is 100 us, the others 10 us; each
    # interval is fitted with its own duration
    out = _simulate(tmp_path, kind="static_linear_zeeman")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--known-form", "--method", method, "--fixed-dissipator", str(rt_path),
               "-o", str(fit)])
    assert rc == 0
    rows = np.array([[float(v) for v in r.split(",")]
                     for r in (fit / "fields.csv").read_text().splitlines()[1:]])
    sc = make_scenario("static_linear_zeeman")
    np.testing.assert_array_equal(rows[:, 0], sc.grid.midpoints)
    np.testing.assert_allclose(rows[:, 1], 2 * np.pi * 1000.0, rtol=1e-9)
    np.testing.assert_allclose(rows[:, 2:4], 0.0, atol=1e-9 * 2 * np.pi * 1000.0)


@pytest.mark.parametrize("model, flag", [("relaxation", "--known-form"),
                                         ("hermitian", "--known-form"),
                                         ("mle", "--known-form"),
                                         ("relaxation", "--fixed-dissipator"),
                                         ("relaxation", "--method"),
                                         ("mle", "--method")])
def test_fit_flag_its_model_does_not_read_exits_2(tmp_path, capsys, model, flag):
    out = _simulate(tmp_path)
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    flags = ["--fixed-dissipator", str(rt_path)] if model != "relaxation" else []
    if flag == "--known-form":
        flags.append(flag)
    elif flag == "--method":
        flags += [flag, "mle"]
    else:
        flags += [flag, str(rt_path)]
    capsys.readouterr()
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", model, *flags,
               "-o", str(tmp_path / "fit")])
    assert rc == 2
    assert capsys.readouterr().err == f"fit: {flag} does not apply to --model {model}\n"
    assert not (tmp_path / "fit").exists()


def test_fit_fields_mle_writes_gauss_newton_counts(tmp_path):
    out = _simulate(tmp_path, "--n-steps", "8", kind="three_axis_time_dependent")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    for form in (["--known-form"], []):
        fit = tmp_path / f"fit{len(form)}"
        rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
                   *form, "--method", "mle", "--fixed-dissipator", str(rt_path),
                   "-o", str(fit)])
        assert rc == 0
        report = _read(fit / "fit_report.json")
        counts = report["optimizer"]
        assert set(counts) == {
            "gauss_newton_iterations", "expm_frechet_evaluations", "unconverged_intervals"
        }
        assert counts["gauss_newton_iterations"] >= 8
        assert counts["unconverged_intervals"] == []
        assert report["converged"] is True
        assert report["iterations"] == counts["gauss_newton_iterations"]


@pytest.mark.parametrize("ramp", [[], ["--ramp"]])
def test_fit_fields_bootstrap_on_time_dependent_dataset(tmp_path, ramp):
    # each draw rebuilds the three-axis scenario from the dataset's
    # provenance; noiseless draws then repeat the dataset bit for bit, so
    # every interval collapses onto the fitted value
    out = _simulate(tmp_path, "--n-steps", "6", *ramp, kind="three_axis")
    assert _read(out / "dataset.json")["provenance"]["params"]["ramp"] is bool(ramp)
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--known-form", "--fixed-dissipator", str(rt_path), "--bootstrap", "3",
               "-o", str(fit)])
    assert rc == 0
    report = _read(fit / "fit_report.json")
    assert report["bootstrap"] == {"n_draws": 3, "n_failed": 0, "failures": []}
    assert len(report["ci"]) == len(report["params"]) == 18
    names = [f"{axis}[{k}]" for k in range(6) for axis in ("omega_x", "omega_y", "omega_z")]
    for name, value in zip(names, report["params"]):
        assert report["ci"][name] == [value, value]


def test_fit_mle_writes_gauss_newton_counts(tmp_path):
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    models = (
        ("relaxation_only", "relaxation", []),
        ("static_quadratic_zeeman", "hermitian",
         ["--method", "mle", "--fixed-dissipator", str(rt_path)]),
    )
    for kind, model, flags in models:
        out = _simulate(tmp_path / kind, "--sigma", "0.004", kind=kind)
        fit = tmp_path / model
        rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", model,
                   *flags, "-o", str(fit)])
        assert rc == 0
        report = _read(fit / "fit_report.json")
        counts = report["optimizer"]
        assert set(counts) == {
            "evaluations", "gauss_newton_iterations", "expm_frechet_evaluations",
        }
        assert counts["expm_frechet_evaluations"] == 0
        assert report["iterations"] == counts["gauss_newton_iterations"] > 0
        assert counts["evaluations"] == counts["gauss_newton_iterations"] + 1
        assert report["converged"] is True


@pytest.mark.parametrize("model", [
    ["relaxation"], ["mle"], ["hermitian"], ["hermitian", "--method", "mle"],
])
def test_fit_with_no_admissible_time_exits_3_naming_the_earliest_time(tmp_path, capsys, model):
    # every process of the set is singular; the one line names the first
    rc, out = _simulate_file(tmp_path, {"kind": "relaxation_only",
                                        "params": {"step": 3.0, "n_times": 3}})
    assert rc == 0
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    rt = ["--fixed-dissipator", str(rt_path)] if model[0] == "hermitian" else []
    capsys.readouterr()
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", *model, *rt,
               "-o", str(tmp_path / "fit")])
    assert rc == 3
    assert capsys.readouterr().err == (
        "fit: numeric failure: no evolution time admits a principal logarithm (process "
        "matrix at t = 3.0 s is singular; the generator cannot be recovered)\n"
    )


def test_fit_relaxation_reports_its_own_pade_fit(tmp_path):
    # cost, df.csv and the optimizer counts all describe the seven-parameter
    # fit whose params the report holds
    out = _simulate(tmp_path, "--sigma", "0.004")
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "-o", str(fit)])
    assert rc == 0
    report = _read(fit / "fit_report.json")
    assert report["model"] == "mle-relaxation"
    model = RelaxationModel.from_params(np.array(report["params"]))
    assert report["estimate"] == model.to_json()
    ps, ts = reconstruct_processes(TomographySet.from_json(_read(out / "dataset.json")))
    r_t = model.superoperator().matrix
    cost = sum(np.linalg.norm(scipy.linalg.expm(-r_t * t) - p) ** 2 for p, t in zip(ps, ts))
    assert report["cost"] == pytest.approx(cost, rel=1e-12)
    rows = np.loadtxt(fit / "df.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], ts)
    np.testing.assert_allclose(rows[:, 1], df_per_time((ps, ts), -r_t), rtol=1e-12, atol=0)
    assert report["df_per_time"] == rows[:, 1].tolist()


def test_fit_manifest_records_the_method_read(tmp_path):
    # relaxation and mle read no --method and record none; hermitian and
    # fields record the method they used, "direct" when it is not given
    out = _simulate(tmp_path)
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    rt = ["--fixed-dissipator", str(rt_path)]
    runs = {
        "relaxation": ([], None),
        "mle": ([], None),
        "hermitian": (rt, "direct"),
        "fields": ([*rt, "--method", "mle"], "mle"),
    }
    for model, (flags, method) in runs.items():
        fit = tmp_path / model
        rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", model, *flags,
                   "-o", str(fit)])
        assert rc == 0
        assert _read(fit / "manifest.json")["config"]["method"] == method


def test_fit_fields_df_labelled_with_midpoints(tmp_path):
    out = _simulate(tmp_path, "--n-steps", "8", kind="three_axis_time_dependent")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--known-form", "--fixed-dissipator", str(rt_path), "-o", str(fit)])
    assert rc == 0

    def time_column(name):
        return [r.split(",")[0] for r in (fit / name).read_text().splitlines()[1:]]

    assert time_column("df.csv") == time_column("fields.csv")
    midpoints = make_scenario("three_axis_time_dependent", n_steps=8).grid.midpoints
    np.testing.assert_allclose([float(t) for t in time_column("df.csv")], midpoints)


def test_fit_relaxation_converged_at_the_calibrated_sigma(tmp_path):
    # a noisy relaxation fit at the calibrated noise level stops within a
    # few Gauss-Newton steps and is reported converged
    out = _simulate(tmp_path, "--sigma", "0.004214459123596145", seed=44)
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "-o", str(tmp_path / "fit")])
    assert rc == 0
    assert _read(tmp_path / "fit" / "fit_report.json")["converged"] is True


def _refuse_point_fits(monkeypatch):
    def refused(*args, **kwargs):
        raise RuntimeError("the point fit ran before the bootstrap checks")

    monkeypatch.setattr(liouvlab.cli, "mle_liouvillian", refused)


def test_fit_bootstrap_requires_provenance(tmp_path, monkeypatch, capsys):
    # refused before the point fit, which would otherwise run first
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    del data["provenance"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(data))
    _refuse_point_fits(monkeypatch)
    rc = main(["fit", "--dataset", str(stripped), "--model", "relaxation",
               "--bootstrap", "5", "-o", str(tmp_path / "f")])
    assert rc == 2
    assert "bootstrap requires a dataset with provenance" in capsys.readouterr().err


def test_fit_mle_bootstrap_is_refused_before_the_point_fit(tmp_path, monkeypatch, capsys):
    out = _simulate(tmp_path)
    _refuse_point_fits(monkeypatch)
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "mle",
               "--bootstrap", "10", "-o", str(tmp_path / "f")])
    assert rc == 2
    assert "fit: bootstrap is not supported for model 'mle'" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_simulate_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--kind", "relaxation_only", "--seed", "-1", "--sigma", "0.004",
               "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "bad configuration: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_empty_grid_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--kind", "three_axis", "--n-steps", "0", "-o", str(tmp_path / "run")])
    assert rc == 2
    assert "bad configuration: time grid must be a non-empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_qpt_seed_negative_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QPT_SEED", "-1")
    rc = main(["simulate", "--kind", "relaxation_only", "--sigma", "0", "-o",
               str(tmp_path / "run")])
    assert rc == 2
    assert "bad configuration: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_fit_bootstrap_negative_provenance_seed_exits_2(tmp_path, capsys):
    # a noiseless dataset whose recorded seed was edited below 0
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    data["provenance"]["noise"]["seed"] = -1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    rc = main(["fit", "--dataset", str(edited), "--model", "relaxation",
               "--bootstrap", "3", "-o", str(tmp_path / "f")])
    assert rc == 2
    assert "bad dataset provenance: seed must be non-negative" in capsys.readouterr().err


def _edited_provenance(tmp_path, out, params: dict, keep_grid=True):
    """The dataset of ``out`` with its provenance params updated by ``params``."""
    data = _read(out / "dataset.json")
    data["provenance"]["params"].update(params)
    if not keep_grid:
        del data["provenance"]["grid"]
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    return edited


def test_fit_bootstrap_on_a_provenance_of_fewer_steps_exits_2(tmp_path, capsys):
    # 10 steps of 50: the draws would have 30 params where the point fit has
    # 150, and the report would name only 30 intervals
    out = _simulate(tmp_path, "--ramp", "--sigma", "0.004", kind="three_axis")
    edited = _edited_provenance(tmp_path, out, {"n_steps": 10})
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    rc = main(["fit", "--dataset", str(edited), "--model", "fields", "--known-form",
               "--fixed-dissipator", str(rt_path), "--bootstrap", "20", "-o", str(tmp_path / "f")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "fit: bad dataset provenance: 'grid.times_s' is inconsistent with the params "
        f"(in {edited})\n"
    )
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("keep_grid, stated", [
    (True, "'grid.times_s'"), (False, "the dataset's time grid"),
])
def test_fit_bootstrap_on_a_provenance_of_another_step_exits_2(tmp_path, capsys, keep_grid,
                                                               stated):
    # draws 4x as long as the dataset's times would give intervals that miss
    # the point estimate
    out = _simulate(tmp_path, "--sigma", "0.004")
    edited = _edited_provenance(tmp_path, out, {"step": 0.002}, keep_grid)
    rc = main(["fit", "--dataset", str(edited), "--model", "relaxation",
               "--bootstrap", "20", "-o", str(tmp_path / "f")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"fit: bad dataset provenance: {stated} is inconsistent with the params (in {edited})\n"
    )
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("draws", ["1", "-3", "two"])
def test_fit_bootstrap_draw_count_exits_2(tmp_path, capsys, draws):
    out = _simulate(tmp_path)
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "--bootstrap", draws, "-o", str(tmp_path / "f")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"argument --bootstrap: N must be 0 or at least 2, got {draws}" in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("method", ["direct", "mle"])
def test_fit_hermitian_bootstrap_names_intervals_like_fields_csv(tmp_path, method):
    out = _simulate(tmp_path, "--sigma", "0.004", kind="static_quadratic_zeeman")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "hermitian",
               "--method", method, "--fixed-dissipator", str(rt_path), "--bootstrap", "2",
               "-o", str(fit)])
    assert rc == 0
    assert list(_read(fit / "fit_report.json")["ci"]) == [f"h{i}" for i in range(1, 10)]


def test_fit_report_records_the_times_a_direct_fit_skipped(tmp_path):
    # one time sits on the log branch cut (rotation angle pi), so the Hermitian
    # direct fit leaves it out, and its artifact says so
    none = RelaxationModel(omega_residual=np.zeros(3), gamma_dephase=np.zeros(3), gamma_iso=0.0)
    t_hit = make_scenario("static_quadratic_zeeman").grid.times[4]
    sc = make_scenario("static_quadratic_zeeman", q=np.pi / t_hit)
    generator = hamiltonian_superop(sc.static_hamiltonian, build_basis(3)).matrix
    ds = planted_dataset(generator, sc.grid.times, NoiseSpec(seed=67))
    (tmp_path / "dataset.json").write_text(json.dumps(ds.to_json()))
    (tmp_path / "rt.json").write_text(json.dumps(none.superoperator().to_json()))
    fit = tmp_path / "fit"
    with pytest.warns(UserWarning, match="skipping t"):
        rc = main(["fit", "--dataset", str(tmp_path / "dataset.json"), "--model", "hermitian",
                   "--fixed-dissipator", str(tmp_path / "rt.json"), "-o", str(fit)])
    assert rc == 0
    [skipped] = _read(fit / "fit_report.json")["skipped_times"]
    assert skipped["time_s"] == pytest.approx(t_hit)
    assert "branch cut" in skipped["error"]


def test_hermitian_bootstrap_warns_only_for_the_point_fit(tmp_path, monkeypatch):
    # q turns the rotation angle to pi at 140 us, so the point fit and the
    # draws all skip that time; only the point fit warns, as its artifact
    # records the time, and a draw computes only its params
    out = _simulate(tmp_path, "--q", "22439.947525641375", "--sigma", "0.004",
                    kind="static_quadratic_zeeman", seed=5)
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    # one worker, so every draw runs in this process, where its warnings are caught
    monkeypatch.setattr(liouvlab.estimation.os, "sched_getaffinity", lambda pid: {0})
    fit = tmp_path / "fit"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "hermitian",
                   "--fixed-dissipator", str(rt_path), "--bootstrap", "8", "-o", str(fit)])
    assert rc == 0
    report = _read(fit / "fit_report.json")
    assert report["bootstrap"]["n_failed"] == 0
    [skipped] = report["skipped_times"]
    assert skipped["time_s"] == pytest.approx(140e-6)
    assert [str(w.message) for w in caught] == [
        f"skipping t = {skipped['time_s']}: {skipped['error']}"
    ]


def test_fit_bootstrap_attaches_ci(tmp_path):
    out = _simulate(tmp_path, "--sigma", "0.004")
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "--bootstrap", "20", "-o", str(fit)])
    assert rc == 0
    report = _read(fit / "fit_report.json")
    assert report["ci"] is not None
    lo, hi = report["ci"]["gamma_iso"]
    assert lo < hi  # noisy draws spread the interval
    # the draws come from the truth and are fitted by the direct estimator,
    # so the interval is about the truth, not the reported MLE estimate
    # (ROADMAP item 4): the truth lies inside it, per parameter
    for name, value in zip(RELAXATION_PARAM_NAMES, DEFAULT_RELAXATION.params):
        lo, hi = report["ci"][name]
        assert lo <= value <= hi


def test_fit_bootstrap_records_failed_draws(tmp_path, monkeypatch):
    # failures are injected by draw, through its derived seed, so the record
    # is the same whichever process runs the draw
    out = _simulate(tmp_path, "--sigma", "0.004")
    base_seed = _read(out / "dataset.json")["provenance"]["noise"]["seed"]
    injected = {derive_seed(base_seed, draw): draw for draw in (4, 16)}
    real = liouvlab.cli.noisy_state_batch

    def flaky(propagators, noise, seeds):
        hit = [injected[seed] for seed in seeds if seed in injected]
        if hit:
            raise BranchCutError(f"injected at draw {hit[0]}")
        return real(propagators, noise, seeds)

    monkeypatch.setattr(liouvlab.cli, "noisy_state_batch", flaky)
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "--bootstrap", "40", "-o", str(fit)])
    assert rc == 0
    assert _read(fit / "fit_report.json")["bootstrap"] == {
        "n_draws": 40,
        "n_failed": 2,
        "failures": ["draw 4: injected at draw 4", "draw 16: injected at draw 16"],
    }


_DRAW_FITS = {
    # the kind simulated, and the fit flags of its bootstrap
    "relaxation": ("relaxation_only", ["--model", "relaxation"]),
    "hermitian": ("static_quadratic_zeeman", ["--model", "hermitian", "--fixed-dissipator"]),
    "fields": ("three_axis", ["--model", "fields", "--known-form", "--fixed-dissipator"]),
}


@pytest.mark.parametrize("model, known_form", [("hermitian", False), ("fields", True),
                                               ("fields", False)])
def test_draw_fit_of_a_dataset_is_its_direct_point_fit(tmp_path, model, known_form):
    # the point fit and the draws run one dispatch; a draw takes the direct
    # estimator, whatever --method says
    out = _simulate(tmp_path, "--sigma", "0.004", kind=_DRAW_FITS[model][0])
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    fit = tmp_path / "fit"
    flags = ["--known-form"] if known_form else []
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", model, *flags,
               "--method", "direct", "--fixed-dissipator", str(rt_path), "-o", str(fit)])
    assert rc == 0
    ds = TomographySet.from_json(_read(out / "dataset.json"))
    rt = Superoperator.from_json(_read(rt_path))
    [params] = fit_draws(ds.states[None], ds.times, model, rt, known_form)
    assert np.array_equal(params, _read(fit / "fit_report.json")["params"])


@contextlib.contextmanager
def _objects_built(monkeypatch):
    """The class names of the TomographySet and ProcessMatrix objects built in the block."""
    built = []
    with monkeypatch.context() as m:
        for cls in (TomographySet, ProcessMatrix):
            def counted(self, real=cls.__post_init__):
                built.append(type(self).__name__)
                real(self)

            m.setattr(cls, "__post_init__", counted)
        yield built


@pytest.mark.parametrize("model", _DRAW_FITS)
def test_bootstrap_draws_build_no_dataset_objects(tmp_path, monkeypatch, model):
    # one worker, so every draw runs in this process, where it is counted
    kind, flags = _DRAW_FITS[model]
    out = _simulate(tmp_path, "--sigma", "0.004", kind=kind)
    if flags[-1] == "--fixed-dissipator":
        rt_path = tmp_path / "rt.json"
        rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
        flags = [*flags, str(rt_path)]
    monkeypatch.setattr(liouvlab.estimation.os, "sched_getaffinity", lambda pid: {0})
    real = liouvlab.cli.bootstrap
    in_draws = []

    def counted_bootstrap(*args, **kwargs):
        with _objects_built(monkeypatch) as built:
            result = real(*args, **kwargs)
        in_draws.extend(built)
        return result

    monkeypatch.setattr(liouvlab.cli, "bootstrap", counted_bootstrap)
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), *flags,
               "--bootstrap", "10", "-o", str(fit)])
    assert rc == 0
    assert _read(fit / "fit_report.json")["bootstrap"]["n_failed"] == 0
    assert in_draws == []
    with _objects_built(monkeypatch) as built:  # the count does see a dataset object
        generate_dataset(make_scenario("relaxation_only", n_times=2), NoiseSpec())
    assert built == ["TomographySet"]


def _spoil_draw(monkeypatch, base_seed: int, draw: int):
    """Zero the traceless input coordinates of one draw, so that its inputs span rank 1."""
    spoiled = derive_seed(base_seed, draw)
    real = liouvlab.cli.noisy_state_batch

    def spoil(propagators, noise, seeds):
        states = real(propagators, noise, seeds)
        for draw_states, seed in zip(states, seeds):
            if seed == spoiled:
                draw_states[0, :-1] = 0.0
        return states

    monkeypatch.setattr(liouvlab.cli, "noisy_state_batch", spoil)


@pytest.mark.parametrize("model", _DRAW_FITS)
def test_bootstrap_report_does_not_depend_on_the_batches(tmp_path, monkeypatch, model):
    # 20 draws: in batches of four draw 6 is fitted in the batch 4-7 (here on
    # one CPU), in batches of three in the batch 6-8 (on three CPUs, claimed
    # by any process); a failure inside the fit of draw 6 refits its batch
    # draw by draw and leaves every other draw's sample as it was
    kind, flags = _DRAW_FITS[model]
    out = _simulate(tmp_path, "--sigma", "0.004", kind=kind)
    if flags[-1] == "--fixed-dissipator":
        rt_path = tmp_path / "rt.json"
        rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
        flags = [*flags, str(rt_path)]
    real = liouvlab.cli.bootstrap
    samples = {}

    def kept_bootstrap(*args, **kwargs):
        result = real(*args, **kwargs)
        samples[run] = result.samples
        return result

    monkeypatch.setattr(liouvlab.cli, "bootstrap", kept_bootstrap)
    reports = {}
    for spoiled in (False, True):
        if spoiled:
            _spoil_draw(monkeypatch, _read(out / "dataset.json")["provenance"]["noise"]["seed"], 6)
        for cpus, batch in ((1, 4), (3, 3)):
            run = spoiled, cpus
            monkeypatch.setattr(liouvlab.estimation.os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            monkeypatch.setattr(liouvlab.estimation, "DRAW_BATCH", batch)
            fit = tmp_path / f"fit-{spoiled}-{cpus}"
            rc = main(["fit", "--dataset", str(out / "dataset.json"), *flags,
                       "--bootstrap", "20", "-o", str(fit)])
            assert rc == 0
            reports[run] = (fit / "fit_report.json").read_bytes()
    assert reports[False, 1] == reports[False, 3]
    assert reports[True, 1] == reports[True, 3]
    if model == "fields":
        first = make_scenario("three_axis_time_dependent").grid.times[0]
        where = f"stepwise reconstruction failed at step 0 (t = 0.0 -> {first})"
    else:
        where = "inputs"
    assert json.loads(reports[True, 1])["bootstrap"] == {
        "n_draws": 20,
        "n_failed": 1,
        "failures": [f"draw 6: {where}: input states span only rank 1 < 9"],
    }
    for cpus in (1, 3):
        assert np.array_equal(samples[True, cpus], np.delete(samples[False, 1], 6, axis=0))


def test_report_relaxation_gate_row(tmp_path, calibrated_sigma, capsys):
    # a calibrated-noise relaxation run lands under the 0.06 error gate in
    # the aggregated report
    out = _simulate(tmp_path, "--sigma", str(calibrated_sigma))
    rec = tmp_path / "rec"
    main(["reconstruct", "--dataset", str(out / "dataset.json"),
          "--mode", "liouvillian", "-o", str(rec)])
    csv_path = tmp_path / "summary.csv"
    rc = main(["report", str(rec), "--csv", str(csv_path)])
    assert rc == 0
    capsys.readouterr()
    row = csv_path.read_text().splitlines()[1].split(",")
    max_df = float(row[3])
    assert max_df <= 0.06


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_aggregates_runs(tmp_path, capsys):
    out = _simulate(tmp_path)
    rec = tmp_path / "rec"
    main(["reconstruct", "--dataset", str(out / "dataset.json"),
          "--mode", "liouvillian", "-o", str(rec)])
    fit = tmp_path / "fit"
    main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
          "-o", str(fit)])
    csv_path = tmp_path / "summary.csv"
    rc = main(["report", str(out), str(rec), str(fit), "--csv", str(csv_path)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "max_df" in table and "reconstruct" in table
    rows = csv_path.read_text().splitlines()
    assert len(rows) == 4


def test_report_empty_dir_exits_4(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 4


def test_report_missing_dir_exits_4(tmp_path):
    assert main(["report", str(tmp_path / "nope")]) == 4


# ---------------------------------------------------------------------------
# reproducibility (in-process view; the cross-process check lives in the
# acceptance suite)
# ---------------------------------------------------------------------------


def test_main_parses_each_call_afresh_with_one_parser(tmp_path):
    # the parser is built once per process; options of one call must not
    # leak into the next, whatever its subcommand
    assert build_parser() is build_parser()
    ramp = _simulate(tmp_path / "ramp", "--ramp", kind="three_axis", seed=3)
    rec = tmp_path / "rec"
    assert main(["reconstruct", "--dataset", str(ramp / "dataset.json"),
                 "--mode", "stepwise", "-o", str(rec)]) == 0
    plain = _simulate(tmp_path / "plain", kind="three_axis", seed=4)
    first, second = _read(ramp / "manifest.json"), _read(plain / "manifest.json")
    assert first["config"]["params"]["ramp"] is True
    assert second["config"]["params"]["ramp"] is False
    assert (first["seed"], second["seed"]) == (3, 4)
    config = _read(rec / "manifest.json")["config"]
    assert config == {"dataset": str(ramp / "dataset.json"), "mode": "stepwise",
                      "reference": None, "out": str(rec)}


def test_simulate_byte_identical(tmp_path):
    a = _simulate(tmp_path / "a", "--sigma", "0.004")
    b = _simulate(tmp_path / "b", "--sigma", "0.004")
    assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()


# ---------------------------------------------------------------------------
# malformed input: exit 2 with one line naming the file and the key, never a
# traceback
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("valid") / "run"
    assert main(["simulate", "--kind", "relaxation_only", "--seed", "7", "-o", str(out)]) == 0
    return _read(out / "dataset.json")


def _with_time(data, key):
    """``data`` with its first output time renamed to ``key``."""
    first = next(iter(data["outputs"]))
    outputs = {key if t == first else t: v for t, v in data["outputs"].items()}
    return {**data, "outputs": outputs}


def _scenario_case(spec, *names):
    def build(tmp_path, valid):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        return ["simulate", "--scenario-file", str(tmp_path / "spec.json")], ["spec.json", *names]
    return build


def _dataset_case(command, change, *names, superop=None):
    def build(tmp_path, valid):
        (tmp_path / "dataset.json").write_text(json.dumps(change(valid)))
        argv = [command[0], "--dataset", str(tmp_path / "dataset.json"), *command[1:]]
        if superop is not None:
            (tmp_path / "rt.json").write_text(json.dumps(superop))
            argv += [str(tmp_path / "rt.json")]
        return argv, ["dataset.json" if superop is None else "rt.json", *names]
    return build


def _run_case(name, text, *names):
    def build(tmp_path, valid):
        run = tmp_path / "run"
        run.mkdir()
        (run / "manifest.json").write_text('{"command": "fit", "seed": 1}')
        (run / "fit_report.json").write_text('{"cost": 0.5, "converged": true}')
        (run / "df.csv").write_text("time_s,df\n0.001,0.02\n")
        (run / name).write_text(text)
        return ["report", str(run)], [name, *names]
    return build


def _unwritable_case(command):
    def build(tmp_path, valid):
        ok = _simulate(tmp_path)
        if command == "simulate":
            target = ok / "dataset.json" / "sub"
            return ["simulate", "--kind", "relaxation_only", "-o", str(target)], [str(target)]
        argv = ["fit", "--dataset", str(ok / "dataset.json"), "--model", "relaxation"]
        return [*argv, "-o", str(ok / "manifest.json")], [str(ok / "manifest.json")]
    return build


def _superop_with(entry: float) -> dict:
    """The relaxation superoperator's JSON with ``entry`` as its first entry."""
    obj = DEFAULT_RELAXATION.superoperator().to_json()
    obj["matrix"][0][0] = entry
    return obj


_RELAX = ["fit", "--model", "relaxation"]
_PROCESS = ["reconstruct", "--mode", "process"]
_TIMES_RULE = "times must be finite, positive and strictly increasing"
_MALFORMED = {
    "scenario-list": _scenario_case([1], "JSON object"),
    "scenario-noise-number": _scenario_case({"kind": "relaxation_only", "noise": 5}, "'noise'"),
    "scenario-params-list": _scenario_case({"kind": "relaxation_only", "params": [1]}, "'params'"),
    "scenario-grid-list": _scenario_case({"kind": "relaxation_only", "grid": [1]}, "'grid'"),
    "scenario-ramp-string": _scenario_case(
        {"kind": "three_axis_time_dependent", "params": {"ramp": "false"}}, "'ramp'"
    ),
    "scenario-n-steps-fraction": _scenario_case(
        {"kind": "three_axis_time_dependent", "params": {"n_steps": 4.9}}, "'n_steps'"
    ),
    "scenario-n-times-bool": _scenario_case(
        {"kind": "relaxation_only", "params": {"n_times": True}}, "'n_times'"
    ),
    "scenario-sigma-bool": _scenario_case(
        {"kind": "relaxation_only", "noise": {"bloch_sigma": True}}, "'bloch_sigma'"
    ),
    "scenario-kind-number": _scenario_case({"kind": 5}, "'kind'"),
    "scenario-times-s-of-another-length": _scenario_case(
        {"kind": "relaxation_only", "grid": {"times_s": [0.1, 0.2]}},
        "'grid.times_s' is inconsistent with the params",
    ),
    "scenario-times-s-off-by-a-fraction-of-a-step": _scenario_case(
        {"kind": "three_axis_time_dependent", "params": {"n_steps": 3},
         "grid": {"times_s": [4.009e-6, 7.991e-6, 12.009e-6]}},
        "'grid.times_s' is inconsistent with the params",
    ),
    "dataset-list": _dataset_case(_RELAX, lambda d: [], "JSON object"),
    "dataset-inputs-string": _dataset_case(_PROCESS, lambda d: {**d, "inputs": "x"}, "'inputs'"),
    "dataset-seed-string": _dataset_case(_PROCESS, lambda d: {**d, "seed": "7"}, "'seed'"),
    "dataset-outputs-list": _dataset_case(
        _PROCESS, lambda d: {**d, "outputs": [[1, 2]]}, "'outputs'"
    ),
    "dataset-dim-list": _dataset_case(_PROCESS, lambda d: {**d, "dim": [3]}, "'dim'"),
    "dataset-times-s-string": _dataset_case(
        _PROCESS, lambda d: {**d, "times_s": "x"}, "'times_s'"
    ),
    "dataset-times-s-not-the-outputs-times": _dataset_case(
        _PROCESS, lambda d: {**d, "times_s": [1.0] * len(d["times_s"])}, "times_s"
    ),
    "dataset-negative-time": _dataset_case(
        _RELAX, lambda d: _with_time(d, "-0.0005"), _TIMES_RULE, "got -0.0005 after 0.0"
    ),
    "dataset-nan-time": _dataset_case(
        _RELAX, lambda d: _with_time(d, "nan"), _TIMES_RULE, "got nan after 0.0"
    ),
    "dataset-time-twice": _dataset_case(
        _RELAX, lambda d: _with_time(d, "1e-3"), _TIMES_RULE, "got 0.001 after 0.001"
    ),
    "superop-list": _dataset_case(
        ["fit", "--model", "hermitian", "--fixed-dissipator"], lambda d: d, "JSON object",
        superop=[],
    ),
    "superop-matrix-number": _dataset_case(
        ["reconstruct", "--mode", "liouvillian", "--reference"], lambda d: d, "'matrix'",
        superop={"dim": 3, "matrix": 5},
    ),
    "superop-nan-entry": _dataset_case(
        ["fit", "--model", "hermitian", "--fixed-dissipator"], lambda d: d, "'matrix'",
        "non-finite", superop=_superop_with(float("nan")),
    ),
    "superop-infinite-entry": _dataset_case(
        ["reconstruct", "--mode", "liouvillian", "--reference"], lambda d: d, "'matrix'",
        "non-finite", superop=_superop_with(float("inf")),
    ),
    "provenance-without-params": _dataset_case(
        [*_RELAX, "--bootstrap", "2"],
        lambda d: {**d, "provenance": {"kind": "relaxation_only"}},
        "'provenance'",
        "'params'",
    ),
    "manifest-list": _run_case("manifest.json", "[]", "JSON object"),
    "manifest-truncated": _run_case("manifest.json", "{"),
    "fit-report-empty": _run_case("fit_report.json", "{}", "'cost'"),
    "fit-report-converged-string": _run_case(
        "fit_report.json", '{"cost": 0.5, "converged": "yes"}', "'converged'"
    ),
    "df-not-a-number": _run_case("df.csv", "time_s,df\n0.001,abc\n", "'df'", "'abc'"),
    "simulate-out-under-a-file": _unwritable_case("simulate"),
    "fit-out-is-a-file": _unwritable_case("fit"),
}


@pytest.mark.parametrize("kind", ["relaxation_only", "three_axis_time_dependent"])
def test_scenario_grid_typed_as_decimals_is_accepted(tmp_path, kind):
    # the decimals a user types differ from the scenario's own times by
    # rounding only (9 * 0.0005 is 0.0045000000000000005 in binary)
    times = make_scenario(kind).grid.times
    typed = [float(f"{t:.6g}") for t in times]
    assert typed != times.tolist()
    rc, out = _simulate_file(tmp_path, {"kind": kind, "grid": {"times_s": typed}})
    assert rc == 0
    assert _read(out / "dataset.json")["times_s"] == times.tolist()


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_input_exits_2_naming_file_and_key(tmp_path, capsys, valid_dataset, case):
    argv, names = _MALFORMED[case](tmp_path, valid_dataset)
    if argv[0] != "report" and "-o" not in argv:
        argv = [*argv, "-o", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: "), err
    assert "Traceback" not in err
    for name in names:
        assert name in err, (name, err)


# each artifact kind: its valid files, given a valid two-time dataset, and
# the command that reads them from directory d (beside d/../valid.json)
_ARTIFACTS = {
    "dataset": (
        lambda valid: {"dataset.json": valid},
        lambda d: ["reconstruct", "--dataset", f"{d}/dataset.json", "--mode", "liouvillian"],
    ),
    "superoperator": (
        lambda valid: {"rt.json": DEFAULT_RELAXATION.superoperator().to_json()},
        lambda d: ["reconstruct", "--dataset", f"{d.parent}/valid.json", "--mode", "liouvillian",
                   "--reference", f"{d}/rt.json"],
    ),
    "scenario": (
        lambda valid: {"spec.json": {
            "kind": "three_axis_time_dependent",
            "params": {"n_steps": 3, "ramp": True, "ramp_s": 8e-6,
                       "amplitudes": [1e4, 2e4, 3e4]},
            "noise": {"bloch_sigma": 0.001, "prep_fidelity": 0.99},
            "grid": {"times_s": [4e-6, 8e-6, 12e-6]},
        }},
        lambda d: ["simulate", "--scenario-file", f"{d}/spec.json"],
    ),
    "run directory": (
        lambda valid: {"manifest.json": {"command": "fit", "seed": 1},
                       "fit_report.json": {"cost": 0.5, "converged": True}},
        lambda d: ["report", str(d)],
    ),
}
_OTHER_VALUES = [None, True, 7, 0.5, "x", [1.0], {"a": 1}]
_OTHER_KEYS = ["nan", "-0.0005", "0", "abc"]


def _mutations(value, path):
    """The (path, op) pairs that apply at ``path`` and below it: delete the
    value, put one of another type there, a list of its keys for a mapping,
    truncate an array, or rename a key.  Arrays are entered through their
    first entry only."""
    yield from [(path, "delete"), (path, "retype")]
    if isinstance(value, dict):
        yield path, "listify"
        for key, item in value.items():
            yield (*path, key), "rename"
            yield from _mutations(item, (*path, key))
    elif isinstance(value, list) and value:
        yield path, "truncate"
        yield from _mutations(value[0], (*path, 0))


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mutations")
    (d / "spec.json").write_text('{"kind": "relaxation_only", "params": {"n_times": 2}}')
    assert main(["simulate", "--scenario-file", str(d / "spec.json"), "-o", str(d)]) == 0
    (d / "dataset.json").rename(d / "valid.json")
    return d


# a mutated dataset may be unphysical; the CLI then warns and goes on
@pytest.mark.filterwarnings("ignore::liouvlab.exceptions.PhysicalityWarning")
@pytest.mark.parametrize("artifact", sorted(_ARTIFACTS))
@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_artifacts_exit_with_a_code(mutation_dir, artifact, data):
    # whatever a file holds, a command ends in an exit code, not an exception
    make, command = _ARTIFACTS[artifact]
    files = make(_read(mutation_dir / "valid.json"))
    path, op = data.draw(st.sampled_from(
        [m for name in files for m in _mutations(files[name], (name,))]
    ))
    parent = files
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if op == "delete":
        del parent[key]
    elif op == "rename":
        parent[data.draw(st.sampled_from(_OTHER_KEYS))] = parent.pop(key)
    elif op == "listify":
        parent[key] = list(value)
    elif op == "truncate":
        parent[key] = value[: len(value) // 2]
    else:
        others = [v for v in _OTHER_VALUES if type(v) is not type(value)]
        parent[key] = data.draw(st.sampled_from(others))
    d = mutation_dir / artifact.replace(" ", "_")
    d.mkdir(exist_ok=True)
    for old in d.glob("*.json"):
        old.unlink()
    for name, content in files.items():
        (d / name).write_text(json.dumps(content))
    argv = command(d)
    assert main(argv if argv[0] == "report" else [*argv, "-o", str(d / "out")]) in (0, 2, 3, 4)
