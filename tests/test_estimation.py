import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from conftest import lbfgs_reference
from liouvlab import estimation
from liouvlab.dynamics import ProcessMatrix, principal_log
from liouvlab.estimation import (
    RELAXATION_PARAM_NAMES,
    RelaxationModel,
    bootstrap,
    direct_hamiltonian,
    estimate_fields,
    fit_relaxation_model,
    frobenius_distance,
    mle_liouvillian,
)
from liouvlab.exceptions import (
    BootstrapError,
    BranchCutError,
    DimensionError,
    SingularProcessError,
    ZeroReferenceError,
)
from liouvlab.superop import (
    HermitianParams,
    Superoperator,
    _hermitian_design,
    explicit_qutrit_superop,
    hamiltonian_superop,
    params_from_superop,
)
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import (
    direct_liouvillian,
    reconstruct_process,
    reconstruct_processes,
    stepwise_processes,
)



def _pmeas_of(ds):
    return [reconstruct_process(ds, t) for t in ds.times]


def _direct_rt_params(ds) -> np.ndarray:
    from liouvlab.dynamics import principal_log

    logs = [principal_log(reconstruct_process(ds, t)).matrix / t for t in ds.times]
    rt_hat = Superoperator(dim=3, matrix=-np.mean(logs, axis=0))
    return fit_relaxation_model(rt_hat).params


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_trivial_cases():
    rng = np.random.default_rng(50)
    a = rng.normal(size=(9, 9))
    assert frobenius_distance(a, a) == 0.0
    assert frobenius_distance(2.0 * a, a) == pytest.approx(1.0)
    with pytest.raises(ZeroReferenceError):
        frobenius_distance(a, np.zeros((9, 9)))
    with pytest.raises(DimensionError):
        frobenius_distance(a, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# MLE
# ---------------------------------------------------------------------------


def test_mle_free_recovers_static_generator():
    sc = make_scenario("relaxation_only")
    ds = generate_dataset(sc, NoiseSpec(seed=60))
    report = mle_liouvillian(_pmeas_of(ds), form="free")
    truth = sc.liouvillian(0.0)
    assert frobenius_distance(report.estimate, truth) < 1e-7
    assert report.converged
    assert report.cost < 1e-14


def test_mle_cost_zero_at_truth_and_below_init():
    sc = make_scenario("relaxation_only", n_times=8)
    truth = sc.liouvillian(0.0)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=61))
    pmeas = _pmeas_of(ds)

    def cost_of(lmat):
        return sum(
            np.linalg.norm(scipy.linalg.expm(lmat * p.duration_s) - p.matrix) ** 2
            for p in pmeas
        )

    # noiseless data: exactly zero at the true generator
    clean = _pmeas_of(generate_dataset(sc, NoiseSpec(seed=61)))
    assert (
        sum(np.linalg.norm(scipy.linalg.expm(truth.matrix * p.duration_s) - p.matrix) ** 2
            for p in clean)
        < 1e-18
    )
    # MLE never ends above its initialization
    init = direct_liouvillian(ds, ds.times[0])
    report = mle_liouvillian(pmeas, form="free", x0=init.matrix.ravel())
    assert report.cost <= cost_of(init.matrix) + 1e-12


def test_mle_hermitian_constraint_structure():
    sc = make_scenario("static_quadratic_zeeman")
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.003, seed=62))
    report = mle_liouvillian(_pmeas_of(ds), dissipator=rt, form="hermitian")
    # Hermitian by construction: the Hamiltonian part lies exactly in the
    # representable span
    k_hat = report.extras["hamiltonian_superop"]
    fit = params_from_superop(k_hat)
    assert fit.residual < 1e-10
    np.testing.assert_allclose(
        k_hat.matrix, explicit_qutrit_superop(HermitianParams(h=report.params)).matrix,
        atol=1e-10,
    )


def test_mle_hermitian_noiseless_exact():
    sc = make_scenario("static_quadratic_zeeman")
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(sc, NoiseSpec(seed=63))
    report = mle_liouvillian(_pmeas_of(ds), dissipator=rt, form="hermitian")
    k_true = hamiltonian_superop(sc.static_hamiltonian, __basis())
    assert frobenius_distance(report.extras["hamiltonian_superop"], k_true) < 1e-7


def __basis():
    from liouvlab.basis import build_basis

    return build_basis(3)


def test_mle_nonconvergence_is_soft(monkeypatch):
    # an exhausted step budget is reported, never raised
    sc = make_scenario("relaxation_only", n_times=8)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=59))
    monkeypatch.setattr(estimation, "GN_MAX_ITERS", 1)
    report = mle_liouvillian(_pmeas_of(ds), form="free")
    assert report.converged is False
    assert np.isfinite(report.cost)


def test_mle_fits_processes_in_time_order_whatever_their_order():
    ds = generate_dataset(
        make_scenario("relaxation_only", n_times=8), NoiseSpec(bloch_sigma=0.004, seed=70)
    )
    processes = reconstruct_processes(ds)
    order = np.random.default_rng(70).permutation(len(processes))
    assert (order != np.arange(len(processes))).any()
    want = mle_liouvillian(processes, form="free")
    got = mle_liouvillian([processes[k] for k in order], form="free")
    assert np.array_equal(got.params, want.params)
    assert np.array_equal(got.df_per_time, want.df_per_time)
    assert got.cost == want.cost


def test_mle_rejects_bad_inputs():
    sc = make_scenario("relaxation_only", n_times=2)
    ds = generate_dataset(sc, NoiseSpec(seed=64))
    with pytest.raises(ValueError):
        mle_liouvillian([], form="free")
    with pytest.raises(ValueError):
        mle_liouvillian(_pmeas_of(ds), form="diagonal")
    with pytest.raises(ValueError):
        mle_liouvillian([ProcessMatrix(dim=3, matrix=np.eye(9), duration_s=0.0)], form="free")


# ---------------------------------------------------------------------------
# relaxation-model decomposition
# ---------------------------------------------------------------------------


def test_isotropic_only_decomposition():
    gamma = 11.0
    iso = np.eye(9)
    iso[8, 8] = 0.0
    fit = fit_relaxation_model(Superoperator(dim=3, matrix=gamma * iso))
    model = fit.estimate
    assert model.gamma_iso == pytest.approx(gamma, abs=1e-9)
    assert np.abs(model.gamma_dephase).max() < 1e-9
    assert np.abs(model.omega_residual).max() < 1e-9
    assert fit.extras["residual"] < 1e-9


def test_forward_built_model_recovered_noiselessly():
    rt = DEFAULT_RELAXATION.superoperator()
    fit = fit_relaxation_model(rt)
    rel = np.abs(fit.params / DEFAULT_RELAXATION.params - 1.0)
    assert rel.max() < 1e-3  # well below 0.1%
    assert fit.param_names == RELAXATION_PARAM_NAMES


def test_isotropic_equivalent_diagonal_decay():
    # the diagonal average of the full model reproduces the uniform-decay
    # rate: gamma_iso plus the mean dephasing contribution
    rt = DEFAULT_RELAXATION.superoperator()
    mean_diag = np.mean(np.diag(rt.matrix)[:8])
    gk = DEFAULT_RELAXATION.gamma_dephase
    expected = DEFAULT_RELAXATION.gamma_iso + 0.75 * gk.sum()
    assert mean_diag == pytest.approx(expected, abs=1e-9)
    assert mean_diag == pytest.approx(29.4, abs=0.1)


def test_relaxation_rates_clipped_non_negative():
    rng = np.random.default_rng(65)
    noise = rng.normal(size=(9, 9)) * 0.5
    noise[8] = 0.0
    rt = Superoperator(dim=3, matrix=DEFAULT_RELAXATION.superoperator().matrix + noise)
    model = fit_relaxation_model(rt).estimate
    assert model.gamma_dephase.min() >= 0.0
    assert model.gamma_iso >= 0.0


def test_relaxation_model_validation():
    with pytest.raises(ValueError):
        RelaxationModel(
            omega_residual=np.zeros(3), gamma_dephase=np.array([-1.0, 0, 0]), gamma_iso=1.0
        )


# ---------------------------------------------------------------------------
# static Hamiltonian estimation
# ---------------------------------------------------------------------------


def test_direct_hamiltonian_noiseless_exact():
    sc = make_scenario("static_quadratic_zeeman")
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(sc, NoiseSpec(seed=66))
    report = direct_hamiltonian(reconstruct_processes(ds), rt)
    k_true = hamiltonian_superop(sc.static_hamiltonian, __basis())
    k_hat = explicit_qutrit_superop(report.estimate)
    assert frobenius_distance(k_hat, k_true) < 1e-8
    assert report.extras["skipped_times"] == []
    assert len(report.df_per_time) == len(ds.times)


def test_direct_hamiltonian_skips_branch_failures():
    # park one grid time exactly on the log branch cut (rotation angle pi);
    # that time must be skipped with a warning, the rest averaged.  The
    # relaxation is switched off so the eigenvalue angle is exact.
    none = RelaxationModel(
        omega_residual=np.zeros(3), gamma_dephase=np.zeros(3), gamma_iso=0.0
    )
    t_hit = make_scenario("static_quadratic_zeeman").grid.times[4]
    sc = make_scenario("static_quadratic_zeeman", q=np.pi / t_hit, relaxation=none)
    rt = none.superoperator()
    ds = generate_dataset(sc, NoiseSpec(seed=67))
    with pytest.warns(UserWarning):
        report = direct_hamiltonian(reconstruct_processes(ds), rt)
    skipped = [t for t, _ in report.extras["skipped_times"]]
    assert skipped == [pytest.approx(t_hit)]
    assert report.converged


def _per_time_direct_hamiltonian(ds, rt):
    """direct_hamiltonian's mean, one principal_log per time: (params, skipped)."""
    per_time, skipped = [], []
    for pm in reconstruct_processes(ds):
        try:
            per_time.append(principal_log(pm).matrix / pm.duration_s + rt.matrix)
        except BranchCutError as err:
            skipped.append((pm.duration_s, str(err)))
    mean = Superoperator(dim=3, matrix=np.mean(per_time, axis=0))
    return params_from_superop(mean).params.h, skipped


@pytest.mark.parametrize("on_cut", [False, True])
def test_direct_hamiltonian_matches_per_time_logs(on_cut):
    # the stacked logs, with the time at the branch cut skipped, give the
    # per-time result: same warning, same skipped times, same params
    none = RelaxationModel(
        omega_residual=np.zeros(3), gamma_dephase=np.zeros(3), gamma_iso=0.0
    )
    t_hit = make_scenario("static_quadratic_zeeman").grid.times[4]
    q = np.pi / t_hit if on_cut else 2.0 * np.pi * 1000.0
    sc = make_scenario("static_quadratic_zeeman", q=q, relaxation=none)
    rt = none.superoperator()
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.002, seed=68))
    want_params, want_skipped = _per_time_direct_hamiltonian(ds, rt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = direct_hamiltonian(reconstruct_processes(ds), rt)
    assert [str(w.message) for w in caught] == [
        f"skipping t = {t}: {msg}" for t, msg in want_skipped
    ]
    assert report.extras["skipped_times"] == want_skipped
    assert len(want_skipped) == int(on_cut)
    if on_cut:
        assert want_skipped[0][0] == pytest.approx(t_hit)
        assert "branch cut" in want_skipped[0][1]
    np.testing.assert_allclose(
        report.params, want_params, rtol=0, atol=1e-12 * np.abs(want_params).max()
    )


def test_mle_beats_direct_on_median(calibrated_sigma):
    # the multi-time MLE is at least as accurate as the averaged direct
    # estimate (checked on medians over noise draws)
    sc = make_scenario("static_quadratic_zeeman")
    rt = DEFAULT_RELAXATION.superoperator()
    k_true = hamiltonian_superop(sc.static_hamiltonian, __basis())
    d_dir, d_mle = [], []
    for seed in range(12):
        ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=700 + seed))
        rep_d = direct_hamiltonian(reconstruct_processes(ds), rt)
        d_dir.append(frobenius_distance(explicit_qutrit_superop(rep_d.estimate), k_true))
        rep_m = mle_liouvillian(_pmeas_of(ds), dissipator=rt, form="hermitian")
        d_mle.append(frobenius_distance(rep_m.extras["hamiltonian_superop"], k_true))
    assert np.median(d_mle) <= np.median(d_dir)


# ---------------------------------------------------------------------------
# field tracking
# ---------------------------------------------------------------------------


def test_constant_field_tracked_exactly():
    omega_z = 2.0 * np.pi * 2000.0
    sc = make_scenario("relaxation_only", n_times=10, step=4e-6)
    # constant z-field on top of the relaxation
    from liouvlab.superop import zeeman_hamiltonian
    import dataclasses

    sc = dataclasses.replace(sc, static_hamiltonian=zeeman_hamiltonian((0, 0, omega_z)))
    ds = generate_dataset(sc, NoiseSpec(seed=68))
    rt = sc.relaxation.superoperator()
    track = estimate_fields(stepwise_processes(ds), sc.grid, rt, known_form=True)
    np.testing.assert_allclose(track.omegas[:, 2], omega_z, rtol=1e-8)
    np.testing.assert_allclose(track.omegas[:, :2], 0.0, atol=omega_z * 1e-8)


def test_three_axis_closed_loop_noiseless():
    sc = make_scenario("three_axis_time_dependent", n_steps=25)
    ds = generate_dataset(sc, NoiseSpec(seed=69))
    rt = sc.relaxation.superoperator()
    track = estimate_fields(stepwise_processes(ds), sc.grid, rt, known_form=True)
    truth = sc.omegas_nominal(sc.grid.midpoints)
    assert np.abs(track.omegas - truth).max() < 1e-6


def test_unknown_form_returns_full_params():
    sc = make_scenario("three_axis_time_dependent", n_steps=6)
    ds = generate_dataset(sc, NoiseSpec(seed=70))
    rt = sc.relaxation.superoperator()
    track = estimate_fields(stepwise_processes(ds), sc.grid, rt, known_form=False)
    assert track.omegas is None
    assert track.params.shape == (6, 9)
    supers = track.hamiltonian_superops()
    assert len(supers) == 6


def test_known_form_never_worse_than_unknown_direct(calibrated_sigma):
    # the known-form projection lands in a subspace containing the truth,
    # so its distance to the truth cannot exceed the unconstrained one
    sc = make_scenario("three_axis_time_dependent", n_steps=20)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=71))
    rt = sc.relaxation.superoperator()
    steps = stepwise_processes(ds)
    known = estimate_fields(steps, sc.grid, rt, known_form=True, method="direct")
    unknown = estimate_fields(steps, sc.grid, rt, known_form=False, method="direct")
    basis = __basis()
    k_true = [
        hamiltonian_superop(sc.hamiltonian(t), basis) for t in sc.grid.midpoints
    ]
    d_known = [
        frobenius_distance(k, kt) for k, kt in zip(known.hamiltonian_superops(), k_true)
    ]
    d_unknown = [
        frobenius_distance(k, kt) for k, kt in zip(unknown.hamiltonian_superops(), k_true)
    ]
    assert all(dk <= du + 1e-12 for dk, du in zip(d_known, d_unknown))


def test_fields_mle_matches_direct_on_clean_data():
    sc = make_scenario("three_axis_time_dependent", n_steps=6)
    ds = generate_dataset(sc, NoiseSpec(seed=72))
    rt = sc.relaxation.superoperator()
    steps = stepwise_processes(ds)
    direct = estimate_fields(steps, sc.grid, rt, known_form=True, method="direct")
    mle = estimate_fields(steps, sc.grid, rt, known_form=True, method="mle")
    np.testing.assert_allclose(mle.omegas, direct.omegas, atol=1e-4)


def test_recovered_frequency_content(calibrated_sigma):
    # 7.5 kHz drive on y shows up as the dominant Fourier peak of the
    # recovered trace, within one frequency bin
    sc = make_scenario("three_axis_time_dependent", n_steps=100)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=73))
    rt = sc.relaxation.superoperator()
    track = estimate_fields(stepwise_processes(ds), sc.grid, rt, known_form=True)
    omega_y = track.omegas[:, 1]
    spectrum = np.abs(np.fft.rfft(omega_y - omega_y.mean()))
    freqs = np.fft.rfftfreq(len(omega_y), d=sc.grid.step)
    peak = freqs[1:][np.argmax(spectrum[1:])]
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - 7500.0) <= bin_width


def test_near_zero_field_flagging():
    sc = make_scenario("three_axis_time_dependent", n_steps=12)
    ds = generate_dataset(sc, NoiseSpec(seed=74))
    rt = sc.relaxation.superoperator()
    track = estimate_fields(stepwise_processes(ds), sc.grid, rt, known_form=True)
    mags = np.linalg.norm(track.omegas, axis=1)
    assert (track.flagged == (mags < 0.1 * mags.max())).all()


def test_monotone_noise_response():
    sc = make_scenario("relaxation_only")
    truth = sc.liouvillian(0.0)
    medians = []
    for eps in (0.0, 1e-4, 1e-3, 1e-2):
        dfs = []
        for seed in range(50):
            ds = generate_dataset(sc, NoiseSpec(bloch_sigma=eps, seed=4000 + seed))
            from liouvlab.dynamics import principal_log

            logs = [
                principal_log(reconstruct_process(ds, t)).matrix / t for t in ds.times
            ]
            l_hat = np.mean(logs, axis=0)
            dfs.append(frobenius_distance(l_hat, truth))
        medians.append(np.median(dfs))
    assert all(a <= b + 1e-15 for a, b in zip(medians, medians[1:]))


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_zero_noise_degenerate():
    sc = make_scenario("relaxation_only", n_times=6)
    result = bootstrap(
        _direct_rt_params,
        lambda spec: generate_dataset(sc, spec),
        NoiseSpec(seed=80),
        n_draws=5,
    )
    np.testing.assert_allclose(result.low, result.high, atol=1e-12)
    np.testing.assert_allclose(result.low, DEFAULT_RELAXATION.params, rtol=1e-6)
    assert result.n_failed == 0


def test_bootstrap_deterministic(calibrated_sigma):
    # datasets are bit-identical under a fixed seed; the fitted parameters
    # agree to LAPACK reproducibility (matrix logs may differ in the last
    # ulp between calls, depending on buffer alignment)
    sc = make_scenario("relaxation_only", n_times=6)
    factory = lambda spec: generate_dataset(sc, spec)  # noqa: E731
    noise = NoiseSpec(bloch_sigma=calibrated_sigma, seed=81)
    r1 = bootstrap(_direct_rt_params, factory, noise, n_draws=20)
    r2 = bootstrap(_direct_rt_params, factory, noise, n_draws=20)
    np.testing.assert_allclose(r1.samples, r2.samples, rtol=0, atol=1e-10)
    np.testing.assert_allclose(r1.low, r2.low, rtol=0, atol=1e-10)


def test_bootstrap_failure_budget():
    def failing_fit(ds):
        raise SingularProcessError("fit exploded")

    sc = make_scenario("relaxation_only", n_times=2)
    with pytest.raises(BootstrapError):
        bootstrap(
            failing_fit,
            lambda spec: generate_dataset(sc, spec),
            NoiseSpec(seed=82),
            n_draws=10,
        )


def test_bootstrap_propagates_programming_errors():
    # only numeric failures count against the budget; a bug is not a draw
    def buggy_fit(ds):
        raise TypeError("unsupported operand")

    sc = make_scenario("relaxation_only", n_times=2)
    with pytest.raises(TypeError, match="unsupported operand"):
        bootstrap(
            buggy_fit,
            lambda spec: generate_dataset(sc, spec),
            NoiseSpec(seed=82),
            n_draws=10,
        )


def test_mle_relaxation_df_stays_small(calibrated_sigma):
    # at the calibrated noise level the MLE-simulated process matrices stay
    # within 5% relative error of the measured ones at every time
    sc = make_scenario("relaxation_only")
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=402))
    rep = mle_liouvillian(_pmeas_of(ds), form="free")
    assert rep.df_per_time.max() < 0.05


def test_bootstrap_rate_interval_widths(calibrated_sigma):
    # interval half-widths of the four relaxation rates land within 3x of
    # the reference experiment's quoted uncertainties; the residual-field
    # frequencies are excluded (the isotropic coordinate-noise stand-in
    # spreads them differently than the real apparatus noise)
    sc = make_scenario("relaxation_only")
    result = bootstrap(
        _direct_rt_params,
        lambda spec: generate_dataset(sc, spec),
        NoiseSpec(bloch_sigma=calibrated_sigma, seed=401),
        n_draws=150,
    )
    half = (result.high - result.low) / 2.0
    reference = np.array([1.0, 1.1, 1.3, 1.6])  # gamma_x, gamma_y, gamma_z, gamma_iso
    ratios = half[3:] / reference
    assert (ratios < 3.0).all() and (ratios > 1.0 / 3.0).all()


def test_bootstrap_coverage_loose(calibrated_sigma):
    # 68% nominal intervals contain the truth well above half the time
    sc = make_scenario("relaxation_only")
    factory = lambda spec: generate_dataset(sc, spec)  # noqa: E731
    truth = DEFAULT_RELAXATION.params
    hits = []
    for meta in range(10):
        noise = NoiseSpec(bloch_sigma=calibrated_sigma, seed=9000 + meta)
        result = bootstrap(_direct_rt_params, factory, noise, n_draws=40)
        hits.append(result.contains(truth))
    coverage = np.mean(hits, axis=0)  # per parameter over meta-repetitions
    assert coverage.mean() >= 0.6


def test_fit_report_json_round_trip():
    rt = DEFAULT_RELAXATION.superoperator()
    report = fit_relaxation_model(rt)
    report.ci_low = report.params - 1.0
    report.ci_high = report.params + 1.0
    obj = json.loads(json.dumps(report.to_json()))
    assert obj["model"] == "relaxation"
    assert obj["converged"] is True
    assert set(obj["ci"]) == set(RELAXATION_PARAM_NAMES)
    np.testing.assert_allclose(obj["params"], report.params)


def test_mle_reports_optimizer_counts():
    ds = generate_dataset(make_scenario("relaxation_only"), NoiseSpec(bloch_sigma=0.004, seed=64))
    report = mle_liouvillian(_pmeas_of(ds), form="free")
    counts = report.extras["optimizer"]
    assert set(counts) == {"evaluations", "gauss_newton_iterations", "expm_frechet_evaluations"}
    assert counts["evaluations"] == report.iterations + 1
    assert counts["gauss_newton_iterations"] == report.iterations > 0
    assert counts["expm_frechet_evaluations"] == 0
    assert json.loads(json.dumps(report.to_json()))["optimizer"] == counts


@pytest.mark.parametrize("form", ["free", "hermitian"])
def test_mle_single_time_fit_is_gauss_newton(form):
    # a one-time fit takes the same solver and ends at or below the cost of
    # an L-BFGS reference from the same start
    kind = "relaxation_only" if form == "free" else "static_quadratic_zeeman"
    ds = generate_dataset(make_scenario(kind), NoiseSpec(bloch_sigma=0.004, seed=65))
    rt = DEFAULT_RELAXATION.superoperator() if form == "hermitian" else None
    pm = _pmeas_of(ds)[0]
    t = pm.duration_s
    report = mle_liouvillian([pm], form=form, dissipator=rt)
    counts = report.extras["optimizer"]
    assert report.converged
    assert counts["evaluations"] == counts["gauss_newton_iterations"] + 1
    assert counts["expm_frechet_evaluations"] == 0
    design = None if rt is None else _hermitian_design()
    b0 = principal_log(pm).matrix / t + (0.0 if rt is None else rt.matrix)
    x0 = b0.ravel() if design is None else np.linalg.lstsq(design, b0.ravel(), rcond=None)[0]
    ref = lbfgs_reference(design, None if rt is None else rt.matrix, [t], pm.matrix[None], x0)
    assert report.cost <= ref.fun * (1 + 1e-12) + 1e-24


def test_fields_mle_reports_gauss_newton_counts():
    sc = make_scenario("three_axis_time_dependent", n_steps=4)
    ds = generate_dataset(sc, NoiseSpec(seed=66))
    steps, rt = stepwise_processes(ds), DEFAULT_RELAXATION.superoperator()
    track = estimate_fields(steps, sc.grid, rt, method="mle")
    counts = json.loads(json.dumps(track.report.to_json()))["optimizer"]
    assert counts == track.report.extras["optimizer"]
    assert set(counts) == {
        "gauss_newton_iterations", "expm_frechet_evaluations", "unconverged_intervals"
    }
    assert counts["gauss_newton_iterations"] >= 4
    assert counts["expm_frechet_evaluations"] == 0
    assert counts["unconverged_intervals"] == []
    assert track.report.converged
    assert track.report.iterations == counts["gauss_newton_iterations"]
    direct = estimate_fields(steps, sc.grid, rt, method="direct")
    assert "optimizer" not in direct.report.to_json()


def test_mle_df_per_time_reuses_the_last_evaluation(monkeypatch):
    # one stacked expm per cost evaluation and at most one more for
    # df_per_time, which stays bit-identical to a separate expm per time
    ds = generate_dataset(make_scenario("relaxation_only"), NoiseSpec(bloch_sigma=0.004, seed=67))
    pmeas = _pmeas_of(ds)
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
    report = mle_liouvillian(pmeas, form="free")
    monkeypatch.undo()
    assert report.extras["optimizer"]["evaluations"] <= len(calls)
    assert len(calls) <= report.extras["optimizer"]["evaluations"] + 1
    assert all(shape == (len(pmeas), 9, 9) for shape in calls)
    l_hat = report.estimate.matrix
    separate = [frobenius_distance(p, scipy.linalg.expm(l_hat * p.duration_s)) for p in pmeas]
    assert np.array_equal(report.df_per_time, separate)


def test_direct_hamiltonian_df_matches_separate_expm_per_time():
    ds = generate_dataset(
        make_scenario("static_quadratic_zeeman"), NoiseSpec(bloch_sigma=0.004, seed=68)
    )
    rt = DEFAULT_RELAXATION.superoperator()
    report = direct_hamiltonian(reconstruct_processes(ds), rt)
    k_hat = explicit_qutrit_superop(report.estimate).matrix
    processes = reconstruct_processes(ds)
    separate = [
        frobenius_distance(pm.matrix, scipy.linalg.expm((k_hat - rt.matrix) * t))
        for t, pm in zip(ds.times, processes)
    ]
    assert np.array_equal(report.df_per_time, separate)


def test_mle_damped_steps_keep_the_null_space_component_of_x0(monkeypatch):
    # the Hermitian design has the trace of H as an exact null direction,
    # which the cost cannot see: no step, damped or not, may move it.  From
    # this far start a step raises the cost and is retried with damping,
    # and damped steps are taken before the fit stops (at a local minimum)
    design = _hermitian_design()
    _, s, vt = np.linalg.svd(design)
    null = vt[s < 1e-10 * s[0]]
    assert null.shape == (1, 9)
    rng = np.random.default_rng([69, 138])
    theta = rng.normal(size=9)
    lmat = (design @ theta).reshape(9, 9)
    pmeas = [
        ProcessMatrix(
            dim=3,
            matrix=scipy.linalg.expm(lmat * t) + 1e-3 * rng.normal(size=(9, 9)),
            duration_s=t,
        )
        for t in (0.5, 1.0, 2.0)
    ]
    x0 = theta + 2.0 * rng.normal(size=9)
    dampings, steps = [], []
    solve = estimation._lm_solve

    def recorded(jac, resid, damping):
        dampings.append(float(damping[0]))
        steps.append(solve(jac, resid, damping)[0])
        return steps[-1][None]

    monkeypatch.setattr(estimation, "_lm_solve", recorded)
    report = mle_liouvillian(pmeas, form="hermitian", x0=x0)
    assert report.converged
    # a damped step was taken: the damping fell after it rose
    assert any(0 < d > e for d, e in zip(dampings, dampings[1:]))
    for step in steps:
        assert abs(null @ step)[0] <= 1e-14 * max(1.0, np.linalg.norm(step))
    np.testing.assert_allclose(null @ report.params, null @ x0, rtol=0, atol=1e-12)
