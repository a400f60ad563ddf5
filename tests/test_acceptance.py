"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output summary) and enforces both the numeric tolerance and the
runtime budget of its criterion.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.linalg

import liouvlab
from liouvlab.basis import build_basis, coords_of
from liouvlab.dynamics import piecewise_propagator, principal_log
from liouvlab.estimation import (
    RELAXATION_PARAM_NAMES,
    bootstrap,
    direct_hamiltonian,
    estimate_fields,
    fit_relaxation_model,
    frobenius_distance,
    mle_liouvillian,
)
from liouvlab.superop import (
    HermitianParams,
    KossakowskiMatrix,
    LindbladModel,
    Superoperator,
    _field_design,
    _hermitian_design,
    hamiltonian_superop,
    kossakowski_generator,
    kossakowski_shift,
)
from liouvlab.synthlab import (
    DEFAULT_RELAXATION,
    NoiseSpec,
    generate_dataset,
    make_scenario,
)
from liouvlab.tomography import (
    TomographySet,
    canonical_input_states,
    mean_log_liouvillian,
    reconstruct_process,
    reconstruct_processes,
    stepwise_processes,
)

from conftest import random_hermitian
from qutrit_table import explicit_qutrit_superop
from test_basis import GM3


def _report(num, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.1f}s < {budget:.0f}s) {detail}")


def _pmeas_of(ds):
    """The (mats, durations) pair of the one-time reconstructions of ``ds``."""
    return np.stack([reconstruct_process(ds, t).matrix for t in ds.times]), ds.times


def test_criterion_1_basis_correctness():
    start = time.time()
    for d in (2, 3, 4, 5):
        b = build_basis(d)
        gram = 0.5 * np.einsum("iab,jba->ij", b.elements, b.elements)
        assert np.abs(gram - np.eye(d * d)).max() < 1e-12
    for got, want in zip(build_basis(3).elements, GM3):
        np.testing.assert_allclose(got, want, atol=1e-14)
    _report(1, time.time() - start, 1.0, "orthonormal bases for d=2..5, d=3 entrywise")


def test_criterion_2_superoperator_oracle_equivalence(basis3):
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        p = HermitianParams(h=rng.normal(size=9))
        generic = hamiltonian_superop(p.to_matrix(), basis3).matrix
        explicit = explicit_qutrit_superop(p).matrix
        worst = max(worst, np.abs(generic - explicit).max())
    assert worst < 1e-12
    _report(2, time.time() - start, 5.0, f"1000 random inputs, max deviation {worst:.2e}")


def test_criterion_3_noiseless_closed_loop(basis3):
    start = time.time()
    rng = np.random.default_rng(33)
    inputs = np.column_stack(
        [coords_of(s.entries, basis3) for s in canonical_input_states()]
    )
    worst = 0.0
    for _ in range(100):
        h = random_hermitian(rng, scale=3000.0)
        jumps = [
            rng.uniform(0.5, 3.0) * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in range(rng.integers(0, 3))
        ]
        l_true = LindbladModel(h, jumps).liouvillian(basis3)
        max_rot = np.abs(np.linalg.eigvals(l_true.matrix).imag).max()
        t = 0.85 * (0.9 * np.pi) / max_rot if max_rot > 0 else 1e-4
        outputs = scipy.linalg.expm(l_true.matrix * t) @ inputs
        ds = TomographySet(states=np.stack([inputs, outputs]), times=[t])
        l_hat = principal_log(reconstruct_process(ds, t)).matrix / t
        rel = np.linalg.norm(l_hat - l_true.matrix) / np.linalg.norm(l_true.matrix)
        worst = max(worst, rel)
    assert worst < 1e-7
    _report(3, time.time() - start, 30.0, f"100 random models, worst relative error {worst:.2e}")


def test_criterion_4_relaxation_pipeline(calibrated_sigma):
    start = time.time()
    scenario = make_scenario("relaxation_only")
    truth = DEFAULT_RELAXATION.params

    # noiseless recovery to 0.1%
    clean = generate_dataset(scenario, NoiseSpec(seed=400))
    fit_clean = mle_liouvillian(_pmeas_of(clean), form="relaxation")
    rel = np.abs(fit_clean.params / truth - 1.0)
    assert rel.max() < 1e-3

    # noisy pipeline at the calibrated level
    noise = NoiseSpec(bloch_sigma=calibrated_sigma, seed=401)
    ds = generate_dataset(scenario, noise)
    assert mle_liouvillian(_pmeas_of(ds), form="relaxation").converged

    def draw_fit(seeds):
        params = []
        for seed in seeds:
            dataset = generate_dataset(scenario, replace(noise, seed=seed))
            l_hat = mean_log_liouvillian(reconstruct_processes(dataset))
            params.append(fit_relaxation_model(Superoperator(dim=3, matrix=-l_hat.matrix)).params)
        return np.array(params)

    result = bootstrap(draw_fit, noise.seed, 1000)
    inside = result.contains(truth)
    assert inside.all(), (
        f"true parameters outside 68% intervals: "
        f"{[n for n, ok in zip(RELAXATION_PARAM_NAMES, inside) if not ok]}"
    )
    _report(
        4,
        time.time() - start,
        120.0,
        f"7/7 parameters inside bootstrap intervals; noiseless max rel err {rel.max():.1e}",
    )


def test_criterion_5_hamiltonian_pipeline(basis3, calibrated_sigma):
    start = time.time()
    scenario = make_scenario("static_quadratic_zeeman")
    rt = DEFAULT_RELAXATION.superoperator()
    k_true = hamiltonian_superop(scenario.static_hamiltonian, basis3)
    d_direct, d_mle = [], []
    for draw in range(50):
        ds = generate_dataset(
            scenario, NoiseSpec(bloch_sigma=calibrated_sigma, seed=500 + draw)
        )
        rep_dir = direct_hamiltonian(reconstruct_processes(ds), rt)
        d_direct.append(
            frobenius_distance(explicit_qutrit_superop(rep_dir.estimate), k_true)
        )
        rep_mle = mle_liouvillian(_pmeas_of(ds), dissipator=rt, form="hermitian")
        d_mle.append(frobenius_distance(rep_mle.extras["hamiltonian_superop"], k_true))
    med_dir, med_mle = np.median(d_direct), np.median(d_mle)
    assert med_dir <= 0.10
    assert med_mle <= 0.10
    assert med_mle <= med_dir
    _report(
        5,
        time.time() - start,
        300.0,
        f"median Hamiltonian error: mle {med_mle:.4f} <= direct {med_dir:.4f} <= 0.10",
    )


def test_criterion_6_time_dependent_pipeline(basis3, calibrated_sigma):
    start = time.time()
    scenario = make_scenario("three_axis_time_dependent", ramp=True)
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(scenario, NoiseSpec(bloch_sigma=calibrated_sigma, seed=600))
    steps = stepwise_processes(ds)
    mids = scenario.grid.midpoints
    settled = mids > scenario.ramp_s
    nominal = scenario.omegas_nominal(mids)
    amplitudes = np.array(scenario.params["amplitudes"])

    k_true = [hamiltonian_superop(scenario.hamiltonian(t), basis3) for t in mids]
    details = []
    for method in ("direct", "mle"):
        known = estimate_fields(steps, rt, known_form=True, method=method)
        rms = np.sqrt(np.mean((known.estimate[settled] - nominal[settled]) ** 2, axis=0))
        assert (rms / amplitudes <= 0.05).all(), f"{method}: RMS {rms / amplitudes}"
        unknown = estimate_fields(steps, rt, known_form=False, method=method)
        d_known = np.array(
            [
                frobenius_distance((_field_design() @ row).reshape(9, 9), kt)
                for row, kt in zip(known.estimate, k_true)
            ]
        )
        d_unknown = np.array(
            [
                frobenius_distance((_hermitian_design() @ row).reshape(9, 9), kt)
                for row, kt in zip(unknown.estimate, k_true)
            ]
        )
        frac = np.mean(d_known <= d_unknown + 1e-15)
        assert frac >= 0.90
        details.append(f"{method}: max RMS {100 * (rms / amplitudes).max():.2f}%, "
                       f"known<=unknown at {100 * frac:.0f}% of steps")
    _report(6, time.time() - start, 300.0, "; ".join(details))


def test_criterion_7_kossakowski_shift_equivalence(basis3):
    start = time.time()
    rng = np.random.default_rng(77)
    t = 1e-3
    worst = 0.0
    for _ in range(100):
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        c = KossakowskiMatrix(dim=3, c=40.0 * (g @ g.conj().T) / 9.0)
        hr = random_hermitian(rng, scale=200.0)
        full = kossakowski_generator(c, hr, basis3)
        shifted_only = kossakowski_generator(
            kossakowski_shift(c, hr, basis3), np.zeros((3, 3)), basis3
        )
        diff = np.abs(
            scipy.linalg.expm(full.matrix * t) - scipy.linalg.expm(shifted_only.matrix * t)
        ).max()
        worst = max(worst, diff)
    assert worst < 1e-10
    _report(7, time.time() - start, 10.0, f"100 random pairs, worst propagator gap {worst:.2e}")


def test_criterion_8_trace_preservation_everywhere(basis3):
    start = time.time()
    rng = np.random.default_rng(88)
    e9 = np.zeros(9)
    e9[8] = 1.0

    generators = [DEFAULT_RELAXATION.superoperator().matrix * -1.0]
    for _ in range(10):
        jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        generators.append(
            LindbladModel(random_hermitian(rng, scale=500.0), jumps).liouvillian().matrix
        )
    propagators = [scipy.linalg.expm(g * 1e-3) for g in generators]

    for kind in ("relaxation_only", "static_quadratic_zeeman", "three_axis_time_dependent"):
        scenario = make_scenario(kind)
        ds = generate_dataset(scenario, NoiseSpec(seed=800))
        for t in ds.times[:5]:
            pm = reconstruct_process(ds, t)
            propagators.append(pm.matrix)
            generators.append(principal_log(pm).matrix / t)
        generators.extend(l.matrix for l in scenario.interval_liouvillians()[:5])
        propagators.append(
            piecewise_propagator(scenario.interval_liouvillians(), scenario.grid).matrix
        )

    worst_gen = max(np.abs(g[8]).max() for g in generators)
    worst_prop = max(np.abs(p[8] - e9).max() for p in propagators)
    assert worst_gen < 1e-9
    assert worst_prop < 1e-9
    _report(
        8,
        time.time() - start,
        60.0,
        f"{len(generators)} generators (last row < {worst_gen:.1e}), "
        f"{len(propagators)} propagators (last row < {worst_prop:.1e})",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    start = time.time()
    # The CLI runs with cwd inside tmp_path, where a relative PYTHONPATH
    # (such as ``src``) resolves to nothing; hand the subprocess the
    # absolute root of the package under test.
    package_root = str(Path(liouvlab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": package_root + (os.pathsep + inherited if inherited else ""),
    }

    def one_run(root: Path):
        root.mkdir()
        cmds = [
            ["simulate", "--kind", "relaxation_only", "--seed", "42",
             "--sigma", "0.004", "-o", "run"],
            ["reconstruct", "--dataset", "run/dataset.json", "--mode", "liouvillian",
             "-o", "rec"],
            ["fit", "--dataset", "run/dataset.json", "--model", "relaxation",
             "--bootstrap", "50", "-o", "fit"],
        ]
        for cmd in cmds:
            proc = subprocess.run(
                [sys.executable, "-m", "liouvlab.cli", *cmd],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
        return root

    a = one_run(tmp_path / "a")
    b = one_run(tmp_path / "b")
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), f"{rel} differs"
    _report(
        9,
        time.time() - start,
        120.0,
        f"{len(files_a)} artifacts byte-identical across independent runs",
    )
