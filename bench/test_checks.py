"""Tests of the benchmark's own checks and trace.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each check passes on the artifacts the CLI writes for one round of its
workload, and rejects them once a known error is put in.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import layertrace
import workload
from liouvlab import calibrate_bloch_sigma

SEED = 5


def _run_round(name: str):
    setup, check = workload.WORKLOADS[name]
    prep, ops = setup(SEED)
    for argv in prep + [argv for op in ops for argv in op]:
        assert workload.cli.main(argv) == 0, argv
    return check


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """Directory and check of one round of every workload."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in workload.WORKLOADS:
            path = tmp_path_factory.mktemp(name)
            mp.chdir(path)
            out[name] = (path, _run_round(name))
    return out


def _reports(prefix: str) -> list[dict]:
    return [json.loads(Path(f"{prefix}{k}/fit_report.json").read_text())
            for k in range(workload.STATIC_DATASETS)]


def test_sigma_is_the_calibrated_level():
    assert checks.SIGMA == calibrate_bloch_sigma()


def test_every_round_passes_its_check(rounds, monkeypatch):
    for name, (path, check) in rounds.items():
        monkeypatch.chdir(path)
        assert check() == [], name


def test_relaxation_rejects_truth_shifted_by_five_half_widths(rounds, monkeypatch):
    monkeypatch.chdir(rounds["relaxation_bootstrap"][0])
    report = json.loads(Path("fit/fit_report.json").read_text())
    for k, name in enumerate(checks.RELAXATION_NAMES):
        lo, hi = report["ci"][name]
        shift = 5 * 0.5 * (hi - lo)
        moved = copy.deepcopy(report)
        moved["ci"][name] = [lo + shift, hi + shift]
        moved["params"][k] += shift
        assert any(name in f for f in checks.check_relaxation(moved)), name


def test_static_rejects_hamiltonian_rescaled(rounds, monkeypatch):
    monkeypatch.chdir(rounds["static_fits"][0])
    relax, mle, direct = _reports("relaxfit"), _reports("mle"), _reports("direct")

    def rescaled(reports):
        out = copy.deepcopy(reports)
        for r in out:
            r["params"] = (1.2 * np.asarray(r["params"])).tolist()
        return out

    assert any("mle Hamiltonian" in f for f in checks.check_static(relax, rescaled(mle), direct))
    assert any("direct Hamiltonian" in f for f in checks.check_static(relax, mle, rescaled(direct)))
    assert any("exceeds direct" in f for f in checks.check_static(relax, direct, mle))
    off = copy.deepcopy(relax)
    off[0]["params"][3] += 5 * checks.RELAXATION_HALF_WIDTHS[3]
    assert any("gamma_x" in f for f in checks.check_static(off, mle, direct))


def test_fields_reject_one_axis_zeroed(rounds, monkeypatch):
    monkeypatch.chdir(rounds["field_tracking"][0])
    rows = [workload._rows(f"{n}/fields.csv") for n in ("known_mle", "unknown_mle", "known_direct")]
    for which in (0, 2):
        for axis in (1, 2, 3):
            broken = [r.copy() for r in rows]
            broken[which][:, axis] = 0.0
            assert any("RMS" in f for f in checks.check_fields(*broken)), (which, axis)
    # an unknown-form fit equal to the truth is better on every interval
    exact = rows[1].copy()
    for i, om in enumerate(checks.applied_fields(checks.field_midpoints())):
        h = checks.larmor_hamiltonian(om)
        exact[i, 1:10] = [h[0, 0].real, h[0, 1].real, -h[0, 1].imag, h[0, 2].real, -h[0, 2].imag,
                          h[1, 1].real, h[1, 2].real, -h[1, 2].imag, h[2, 2].real]
    assert any("known form" in f for f in checks.check_fields(rows[0], exact, rows[2]))
    shifted = rows[0].copy()
    shifted[:, 0] += checks.FIELD_DT / 2
    assert any("midpoints" in f for f in checks.check_fields(shifted, rows[1], rows[2]))


def test_trace_names_match_benchmark_json():
    spec = json.loads((Path(workload.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = set(layertrace.per_layer_metrics(layertrace.Tracer(), 1))
    names |= {"import.liouvlab_cli_ms", "import.scipy_optimize_ms", "host.ref_kernel_ms"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_trace_counts_nested_spans_and_keeps_results(rounds, monkeypatch):
    from liouvlab import tomography
    from liouvlab.tomography import TomographySet, direct_liouvillian

    monkeypatch.chdir(rounds["relaxation_bootstrap"][0])
    ds = TomographySet.from_json(json.loads(Path("relax/dataset.json").read_text()))
    t = ds.times[3]
    plain = direct_liouvillian(ds, t).matrix
    tracer = layertrace.Tracer()
    replaced = tracer.install()
    try:
        traced = tomography.direct_liouvillian(ds, t).matrix
    finally:
        layertrace.uninstall(replaced)
    assert np.array_equal(plain, traced)
    # direct_liouvillian itself is not traced: its two callees are, once each
    assert tracer.calls["tomography.reconstruct_process"] == 1
    assert tracer.calls["dynamics.principal_log"] == 1
    assert tracer.self_s["dynamics.principal_log"] > 0
    assert tomography.reconstruct_process.__name__ == "reconstruct_process"


def test_span_self_time_excludes_enclosed_spans():
    import time

    tracer = layertrace.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer_fn():
        inner()
        time.sleep(0.01)

    outer = tracer.span("outer", outer_fn)
    start = time.perf_counter()
    outer()
    total = time.perf_counter() - start
    assert tracer.self_s["inner"] >= 0.02
    assert 0.01 <= tracer.self_s["outer"] < total - tracer.self_s["inner"] + 1e-9
    assert tracer.calls == {"inner": 1, "outer": 1}
