import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import liouvlab
import liouvlab.cli
from liouvlab.cli import build_parser, main
from liouvlab.estimation import frobenius_distance
from liouvlab.exceptions import BranchCutError
from liouvlab.superop import Superoperator
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import TomographySet


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
        same = [np.array_equal(written.outputs[t], expected.outputs[t]) for t in sc.grid.times]
        assert all(same) if ramp else not any(same)


def test_scenario_file_rejects_a_flag_its_kind_does_not_take(tmp_path, capsys):
    rc, out = _simulate_file(tmp_path, {"kind": "relaxation_only"}, "--n-steps", "3")
    assert rc == 2
    assert "bad configuration: unknown parameters for 'relaxation_only': ['n_steps']" in (
        capsys.readouterr().err
    )
    assert not out.exists()


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
    "command",
    [["reconstruct", "--mode", "process"], ["fit", "--model", "relaxation"]],
)
@pytest.mark.parametrize(
    "change, message",
    [
        ({"dim": 2}, "inputs must be 4 x N, got shape (9, 15)"),
        ({"outputs": {}}, "dataset has no outputs"),
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


def test_fit_fields_on_a_non_uniform_grid_exits_2(tmp_path, capsys):
    # the static grid's first interval is 100 us, the others 10 us
    out = _simulate(tmp_path, kind="static_quadratic_zeeman")
    rt_path = tmp_path / "rt.json"
    rt_path.write_text(json.dumps(DEFAULT_RELAXATION.superoperator().to_json()))
    capsys.readouterr()
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "fields",
               "--fixed-dissipator", str(rt_path), "-o", str(tmp_path / "f")])
    assert rc == 2
    assert (
        "fit: field estimation expects a uniform time grid, "
        "but its intervals last from 1e-05 to 0.0001 s"
    ) in capsys.readouterr().err


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
    models = (("relaxation_only", "relaxation"), ("static_quadratic_zeeman", "hermitian"))
    for kind, model in models:
        out = _simulate(tmp_path / kind, "--sigma", "0.004", kind=kind)
        fit = tmp_path / model
        rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", model,
                   "--method", "mle", "--fixed-dissipator", str(rt_path), "-o", str(fit)])
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
    # a noisy free-form fit at the calibrated noise level stops within a
    # few Gauss-Newton steps and is reported converged
    out = _simulate(tmp_path, "--sigma", "0.004214459123596145", seed=44)
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "-o", str(tmp_path / "fit")])
    assert rc == 0
    assert _read(tmp_path / "fit" / "fit_report.json")["converged"] is True


def test_fit_bootstrap_requires_provenance(tmp_path):
    out = _simulate(tmp_path)
    data = _read(out / "dataset.json")
    del data["provenance"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(data))
    rc = main(["fit", "--dataset", str(stripped), "--model", "relaxation",
               "--bootstrap", "5", "-o", str(tmp_path / "f")])
    assert rc == 2


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
    # the point estimate sits inside its own interval, per parameter
    names = ["omega_x", "omega_y", "omega_z", "gamma_x", "gamma_y", "gamma_z",
             "gamma_iso"]
    for name, value in zip(names, report["params"]):
        lo, hi = report["ci"][name]
        assert lo <= value <= hi


def test_fit_bootstrap_records_failed_draws(tmp_path, monkeypatch):
    real = liouvlab.cli._direct_relaxation_params
    calls = []

    def flaky(dataset):
        calls.append(None)
        if len(calls) in (5, 17):
            raise BranchCutError(f"injected at call {len(calls)}")
        return real(dataset)

    monkeypatch.setattr(liouvlab.cli, "_direct_relaxation_params", flaky)
    out = _simulate(tmp_path, "--sigma", "0.004")
    fit = tmp_path / "fit"
    rc = main(["fit", "--dataset", str(out / "dataset.json"), "--model", "relaxation",
               "--bootstrap", "40", "-o", str(fit)])
    assert rc == 0
    assert _read(fit / "fit_report.json")["bootstrap"] == {
        "n_draws": 40,
        "n_failed": 2,
        "failures": ["draw 4: injected at call 5", "draw 16: injected at call 17"],
    }


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


_RELAX = ["fit", "--model", "relaxation"]
_PROCESS = ["reconstruct", "--mode", "process"]
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
    "dataset-list": _dataset_case(_RELAX, lambda d: [], "JSON object"),
    "dataset-inputs-string": _dataset_case(_PROCESS, lambda d: {**d, "inputs": "x"}, "'inputs'"),
    "dataset-seed-string": _dataset_case(_PROCESS, lambda d: {**d, "seed": "7"}, "'seed'"),
    "dataset-outputs-list": _dataset_case(
        _PROCESS, lambda d: {**d, "outputs": [[1, 2]]}, "'outputs'"
    ),
    "dataset-dim-list": _dataset_case(_PROCESS, lambda d: {**d, "dim": [3]}, "'dim'"),
    "dataset-negative-time": _dataset_case(
        _RELAX, lambda d: _with_time(d, "-0.0005"), "'outputs'", "'-0.0005'"
    ),
    "dataset-nan-time": _dataset_case(_RELAX, lambda d: _with_time(d, "nan"), "'outputs'", "'nan'"),
    "dataset-time-twice": _dataset_case(
        _RELAX, lambda d: _with_time(d, "1e-3"), "'outputs'", "two keys for one time"
    ),
    "superop-list": _dataset_case(
        ["fit", "--model", "hermitian", "--fixed-dissipator"], lambda d: d, "JSON object",
        superop=[],
    ),
    "superop-matrix-number": _dataset_case(
        ["reconstruct", "--mode", "liouvillian", "--reference"], lambda d: d, "'matrix'",
        superop={"dim": 3, "matrix": 5},
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
