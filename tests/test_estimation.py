import contextlib
import json
import os
import re
import signal
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lbfgs_reference, pade_cost, planted_dataset
from liouvlab import estimation
from liouvlab.dynamics import ProcessMatrix, TimeGrid, principal_log
from liouvlab.estimation import (
    RELAXATION_PARAM_NAMES,
    RelaxationModel,
    bootstrap,
    derive_seed,
    direct_hamiltonian,
    estimate_fields,
    fit_draws,
    fit_relaxation_model,
    frobenius_distance,
    mle_liouvillian,
)
from liouvlab.exceptions import (
    BootstrapError,
    BranchCutError,
    CompletenessError,
    DimensionError,
    SingularProcessError,
    ZeroReferenceError,
)
from liouvlab.superop import (
    HermitianParams,
    Superoperator,
    _field_design,
    _hermitian_design,
    explicit_qutrit_superop,
    hamiltonian_superop,
    params_from_superop,
)
from liouvlab.synthlab import (
    DEFAULT_RELAXATION,
    NoiseSpec,
    _input_coords,
    generate_dataset,
    make_scenario,
    noisy_state_batch,
    noisy_states,
)
from liouvlab.tomography import (
    TomographySet,
    direct_liouvillian,
    mean_log_liouvillian,
    reconstruct_process,
    reconstruct_processes,
    stepwise_processes,
)



def _pmeas_of(ds):
    """The (mats, durations) pair of the one-time reconstructions of ``ds``."""
    return np.stack([reconstruct_process(ds, t).matrix for t in ds.times]), ds.times


def _direct_rt_params(states, times) -> np.ndarray:
    """The direct relaxation fit of each draw of a bootstrap batch, through the object API."""
    params = []
    for draw in states:
        ds = TomographySet(states=draw, times=times)
        logs = [principal_log(reconstruct_process(ds, t)).matrix / t for t in ds.times]
        rt_hat = Superoperator(dim=3, matrix=-np.mean(logs, axis=0))
        params.append(fit_relaxation_model(rt_hat).params)
    return np.array(params)


def _seeded(sc, noise, fit=_direct_rt_params, failing=()):
    """A bootstrap draw fit: ``fit`` of the stacked state stacks of datasets of
    ``sc`` made with ``noise`` and each seed; the simulation of each draw with
    an index in ``failing`` raises SingularProcessError."""
    injected = {derive_seed(noise.seed, draw): draw for draw in failing}

    def draw_fit(seeds):
        for seed in seeds:
            if seed in injected:
                raise SingularProcessError(f"injected at draw {injected[seed]}")
        states = [noisy_states(sc.propagators, replace(noise, seed=seed)) for seed in seeds]
        return fit(np.stack(states), sc.grid.times)

    return draw_fit


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


def test_df_per_time_is_each_distance_in_input_order():
    rng = np.random.default_rng(51)
    g = 1e3 * rng.normal(size=(9, 9))
    times = np.array([3e-4, 1e-4, 2e-4])
    mats = np.stack([rng.normal(size=(9, 9)) for _ in times])
    dfs = estimation.df_per_time((mats, times), g)
    expected = [frobenius_distance(m, scipy.linalg.expm(g * t)) for m, t in zip(mats, times)]
    assert dfs.shape == (3,)
    np.testing.assert_array_equal(dfs, expected)


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

    def cost_of(lmat, processes=pmeas):
        return sum(
            np.linalg.norm(scipy.linalg.expm(lmat * t) - p) ** 2 for p, t in zip(*processes)
        )

    # noiseless data: exactly zero at the true generator
    clean = _pmeas_of(generate_dataset(sc, NoiseSpec(seed=61)))
    assert cost_of(truth.matrix, clean) < 1e-18
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
    mats, durations = reconstruct_processes(ds)
    order = np.random.default_rng(70).permutation(len(durations))
    assert (order != np.arange(len(durations))).any()
    want = mle_liouvillian((mats, durations), form="free")
    got = mle_liouvillian((mats[order], durations[order]), form="free")
    assert np.array_equal(got.params, want.params)
    assert np.array_equal(got.df_per_time, want.df_per_time)
    assert got.cost == want.cost


def test_mle_rejects_bad_inputs():
    sc = make_scenario("relaxation_only", n_times=2)
    ds = generate_dataset(sc, NoiseSpec(seed=64))
    with pytest.raises(ValueError):
        mle_liouvillian((np.empty((0, 9, 9)), np.empty(0)), form="free")
    with pytest.raises(ValueError):
        mle_liouvillian(_pmeas_of(ds), form="diagonal")
    with pytest.raises(ValueError):
        mle_liouvillian((np.eye(9)[None], np.array([0.0])), form="free")


# ---------------------------------------------------------------------------
# one start and one cost: every MLE fit starts from its form's direct
# estimate, and every fit reports the Pade cost of its estimate
# ---------------------------------------------------------------------------


def _singular_scenario():
    """A relaxation_only scenario whose every process (t = 3, 6, 9 s) is singular."""
    return make_scenario("relaxation_only", step=3.0, n_times=3)


_NO_ADMISSIBLE_TIME = (
    r"^no evolution time admits a principal logarithm \(process matrix at t = 3\.0 s "
    r"is singular; the generator cannot be recovered\)$"
)

# every fit that runs the direct kernel on its processes
_DIRECT_STARTS = {
    "direct_hamiltonian": direct_hamiltonian,
    "mle-free": lambda pms, rt: mle_liouvillian(pms, form="free"),
    "mle-hermitian": lambda pms, rt: mle_liouvillian(pms, dissipator=rt, form="hermitian"),
    "mle-relaxation": lambda pms, rt: mle_liouvillian(pms, form="relaxation"),
}


@pytest.mark.parametrize("name", _DIRECT_STARTS)
def test_no_admissible_time_names_the_earliest_time(name):
    # every process is singular, so the error is the earliest time's class
    processes = reconstruct_processes(generate_dataset(_singular_scenario(), NoiseSpec(seed=7)))
    with pytest.raises(SingularProcessError, match=_NO_ADMISSIBLE_TIME):
        _DIRECT_STARTS[name](processes, DEFAULT_RELAXATION.superoperator())


def test_hermitian_draws_with_no_admissible_time_name_the_earliest_time():
    sc = _singular_scenario()
    states = noisy_state_batch(sc.propagators, NoiseSpec(), [1, 2])
    with pytest.raises(SingularProcessError, match=_NO_ADMISSIBLE_TIME):
        fit_draws(states, sc.grid.times, "hermitian", DEFAULT_RELAXATION.superoperator())


@pytest.mark.parametrize("first, error", [("cut", BranchCutError), ("singular", SingularProcessError)])
def test_no_admissible_time_raises_the_earliest_times_class(first, error):
    # one time on the branch cut, one singular: the earlier one names the class
    sc = make_scenario("relaxation_only", n_times=2)
    states = noisy_states(sc.propagators, NoiseSpec(bloch_sigma=0.004, seed=3))
    flip = np.eye(9)
    flip[0, 0] = -1.0
    cut, singular = (1, 2) if first == "cut" else (2, 1)
    states[cut] = flip @ states[0]
    states[singular, :-1] = 0.0
    with pytest.raises(error, match=r"^no evolution time admits a principal logarithm \(.*"
                                    r"t = 0\.0005 s"):
        fit_draws(states[None], sc.grid.times, "hermitian", DEFAULT_RELAXATION.superoperator())


@pytest.mark.parametrize("on_cut", [False, True])
def test_hermitian_mle_starts_from_the_direct_fit(monkeypatch, on_cut):
    # with no Gauss-Newton step the fit is its start: direct_hamiltonian's
    # params, the time at the branch cut left out of both
    t_hit = make_scenario("static_quadratic_zeeman").grid.times[4]
    q = np.pi / t_hit if on_cut else 2.0 * np.pi * 1000.0
    sc = make_scenario("static_quadratic_zeeman", q=q)
    rt = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    generator = hamiltonian_superop(sc.static_hamiltonian, __basis()).matrix
    ds = planted_dataset(generator, sc.grid.times, NoiseSpec(bloch_sigma=0.004, seed=71))
    processes = reconstruct_processes(ds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = direct_hamiltonian(processes, rt)
    monkeypatch.setattr(estimation, "GN_MAX_ITERS", 0)
    report = mle_liouvillian(processes, dissipator=rt, form="hermitian")
    assert np.array_equal(report.params, direct.params)


@pytest.mark.parametrize("form", ["free", "relaxation"])
def test_mle_starts_from_the_projected_mean_log(monkeypatch, form):
    sc = make_scenario("relaxation_only", n_times=8)
    processes = reconstruct_processes(generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=72)))
    mean = mean_log_liouvillian(processes).matrix.ravel()
    if form == "relaxation":
        mean = np.linalg.lstsq(-estimation._relaxation_design(), mean, rcond=None)[0]
    monkeypatch.setattr(estimation, "GN_MAX_ITERS", 0)
    assert np.array_equal(mle_liouvillian(processes, form=form).params, mean)


def _field_pade_cost(rows, design, rt, steps) -> float:
    """sum_k ||exp(G_k dt_k) - P_k||_F^2 of a field fit's rows."""
    gens = [(design @ row).reshape(9, 9) - rt.matrix for row in rows]
    return sum(pade_cost(g, [dt], [p]) for g, p, dt in zip(gens, *steps))


def test_direct_costs_are_pade_costs():
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(
        make_scenario("static_quadratic_zeeman"), NoiseSpec(bloch_sigma=0.004, seed=73)
    )
    ps, ts = reconstruct_processes(ds)
    report = direct_hamiltonian((ps, ts), rt)
    lmat = explicit_qutrit_superop(report.estimate).matrix - rt.matrix
    assert report.cost == pytest.approx(pade_cost(lmat, ts, ps), rel=1e-12)
    sc = make_scenario("three_axis_time_dependent", n_steps=8)
    steps = stepwise_processes(generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=74)))
    for known_form, design in ((True, _field_design()), (False, _hermitian_design())):
        report = estimate_fields(steps, rt, known_form=known_form)
        want = _field_pade_cost(report.estimate, design, rt, steps)
        assert report.cost == pytest.approx(want, rel=1e-12)


# (kind, fit): Hermitian fits of both static kinds and field fits of both forms
_DIRECT_AND_MLE = [
    ("static_quadratic_zeeman", "hermitian"),
    ("static_linear_zeeman", "hermitian"),
    ("three_axis_time_dependent", "known"),
    ("three_axis_time_dependent", "unknown"),
]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    case=st.sampled_from(_DIRECT_AND_MLE),
    sigma=st.floats(min_value=1e-3, max_value=8e-3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mle_cost_is_no_more_than_the_direct_cost(case, sigma, seed):
    # the MLE fit starts from the direct estimate and never takes a step
    # that raises the cost, and both report the Pade cost, on one scale
    kind, fit = case
    rt = DEFAULT_RELAXATION.superoperator()
    noise = NoiseSpec(bloch_sigma=sigma, seed=seed)
    if fit == "hermitian":
        processes = reconstruct_processes(generate_dataset(make_scenario(kind), noise))
        direct = direct_hamiltonian(processes, rt)
        mle = mle_liouvillian(processes, dissipator=rt, form="hermitian")
    else:
        steps = stepwise_processes(generate_dataset(make_scenario(kind, n_steps=8), noise))
        direct, mle = (estimate_fields(steps, rt, fit == "known", method)
                       for method in ("direct", "mle"))
    assert mle.cost <= direct.cost * (1 + 1e-12)
    assert direct.cost < 10 * mle.cost


# every estimator over a (mats, durations) pair, on the pair it is given
_STACKING_ESTIMATORS = {
    "mean_log_liouvillian": mean_log_liouvillian,
    "mle_liouvillian": mle_liouvillian,
    "direct_hamiltonian": lambda pms: direct_hamiltonian(pms, DEFAULT_RELAXATION.superoperator()),
    "estimate_fields": lambda pms: estimate_fields(pms, DEFAULT_RELAXATION.superoperator()),
}


@pytest.mark.parametrize("name", _STACKING_ESTIMATORS)
def test_estimators_reject_an_empty_or_malformed_pair(name):
    fit = _STACKING_ESTIMATORS[name]
    two = np.stack([np.eye(9)] * 2)
    bad = ([1e-6, 2e-6, 3e-6], [1e-6, 0.0], [-1e-6, 2e-6], [1e-6, np.nan], [np.inf, 1.0])
    for durations in bad:
        with pytest.raises(ValueError, match="with a finite positive duration each"):
            fit((two, np.array(durations)))
    with pytest.raises(DimensionError, match=r"process stack, got shape \(2, 8, 8\)"):
        fit((np.stack([np.eye(8)] * 2), np.array([1e-6, 2e-6])))
    with pytest.raises(ValueError, match="need one or more process matrices"):
        fit((np.empty((0, 9, 9)), np.empty(0)))


# every estimator that takes a fixed relaxation matrix, given one of dim 2
_WITH_RT = {
    "direct_hamiltonian": direct_hamiltonian,
    "mle_liouvillian": lambda pms, rt: mle_liouvillian(pms, dissipator=rt),
    "estimate_fields": estimate_fields,
}


@pytest.mark.parametrize("name", _WITH_RT)
def test_estimators_reject_a_relaxation_matrix_of_another_dim(name):
    sc = make_scenario("relaxation_only", n_times=3)
    pms = stepwise_processes(generate_dataset(sc, NoiseSpec(seed=5)))
    rt = Superoperator(dim=2, matrix=np.zeros((4, 4)))
    with pytest.raises(DimensionError, match="relaxation matrix has dim 2, but the process "
                       "matrices have dim 3"):
        _WITH_RT[name](pms, rt)


# ---------------------------------------------------------------------------
# relaxation-model decomposition
# ---------------------------------------------------------------------------


def test_isotropic_only_decomposition():
    gamma = 11.0
    iso = np.eye(9)
    iso[8, 8] = 0.0
    model = fit_relaxation_model(Superoperator(dim=3, matrix=gamma * iso))
    assert model.gamma_iso == pytest.approx(gamma, abs=1e-9)
    assert np.abs(model.gamma_dephase).max() < 1e-9
    assert np.abs(model.omega_residual).max() < 1e-9
    assert np.linalg.norm(model.superoperator().matrix - gamma * iso) < 1e-9


def test_forward_built_model_recovered_noiselessly():
    rt = DEFAULT_RELAXATION.superoperator()
    model = fit_relaxation_model(rt)
    rel = np.abs(model.params / DEFAULT_RELAXATION.params - 1.0)
    assert rel.max() < 1e-3  # well below 0.1%


def _pade_cost(processes, model: RelaxationModel) -> float:
    """sum_n ||exp(-R_T t_n) - P_n||_F^2 of a relaxation model."""
    ps, ts = processes
    return sum(
        np.linalg.norm(scipy.linalg.expm(-model.superoperator().matrix * t) - p) ** 2
        for p, t in zip(ps, ts)
    )


def test_relaxation_form_recovers_the_model_noiselessly():
    processes = reconstruct_processes(
        generate_dataset(make_scenario("relaxation_only"), NoiseSpec(seed=67))
    )
    report = mle_liouvillian(processes, form="relaxation")
    assert report.model == "mle-relaxation"
    assert report.converged
    assert report.param_names == RELAXATION_PARAM_NAMES
    assert isinstance(report.estimate, RelaxationModel)
    assert np.array_equal(report.estimate.params, report.params)
    np.testing.assert_allclose(report.params, DEFAULT_RELAXATION.params, rtol=1e-9, atol=0)
    cost = _pade_cost(processes, report.estimate)
    assert report.cost == pytest.approx(cost, rel=1e-12, abs=1e-28)


# (held rates, seed): one to four true rates of 0 among gamma_x, gamma_y,
# gamma_z and gamma_iso
_PLANTED = [((k,), 70 + k) for k in range(4)] + [
    ((0, 2), 74), ((1, 3), 75), ((0, 1, 3), 76), ((1, 2, 3), 77), ((0, 1, 2, 3), 78),
    ((0, 1, 2, 3), 79),
]


@pytest.mark.parametrize("zeros, seed", _PLANTED)
def test_relaxation_form_keeps_rates_non_negative(calibrated_sigma, zeros, seed):
    # planted rates of 0: the full fit has negative rates about half the
    # time, and the active-set fit is then no costlier than the two-step
    # estimate (free MLE, then the bounded projection), which is feasible too
    truth = DEFAULT_RELAXATION.params.copy()
    truth[[3 + k for k in zeros]] = 0.0
    generator = -RelaxationModel.from_params(truth).superoperator().matrix
    times = make_scenario("relaxation_only", n_times=8).grid.times
    processes = reconstruct_processes(
        planted_dataset(generator, times, NoiseSpec(bloch_sigma=calibrated_sigma, seed=seed))
    )
    report = mle_liouvillian(processes, form="relaxation")
    assert report.converged
    assert report.params[3:].min() >= 0.0
    l_free = mle_liouvillian(processes, form="free").estimate.matrix
    two_step = fit_relaxation_model(Superoperator(dim=3, matrix=-l_free))
    assert report.cost <= _pade_cost(processes, two_step) * (1 + 1e-9)
    assert report.cost == pytest.approx(_pade_cost(processes, report.estimate), rel=1e-12)


def test_relaxation_form_holds_negative_rates_at_zero(calibrated_sigma):
    # every true rate 0: the full fit has a negative rate, so the report is
    # a held-rate fit, with exact zeros, and counts all 16 fits it ran
    truth = np.concatenate([DEFAULT_RELAXATION.params[:3], np.zeros(4)])
    generator = -RelaxationModel.from_params(truth).superoperator().matrix
    times = make_scenario("relaxation_only", n_times=8).grid.times
    processes = reconstruct_processes(
        planted_dataset(generator, times, NoiseSpec(bloch_sigma=calibrated_sigma, seed=79))
    )
    report = mle_liouvillian(processes, form="relaxation")
    assert report.params[3:].min() == 0.0
    counts = report.extras["optimizer"]
    assert counts["evaluations"] == 16 + counts["gauss_newton_iterations"]
    assert report.iterations == counts["gauss_newton_iterations"]


def test_relaxation_form_takes_no_dissipator():
    processes = reconstruct_processes(
        generate_dataset(make_scenario("relaxation_only", n_times=3), NoiseSpec(seed=68))
    )
    with pytest.raises(ValueError, match="takes no dissipator"):
        mle_liouvillian(processes, form="relaxation", dissipator=DEFAULT_RELAXATION.superoperator())


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
    model = fit_relaxation_model(rt)
    assert model.gamma_dephase.min() >= 0.0
    assert model.gamma_iso >= 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_relaxation_model_of_a_non_finite_matrix_is_an_error(bad):
    matrix = DEFAULT_RELAXATION.superoperator().matrix.copy()
    matrix[2, 5] = bad
    with pytest.raises(ValueError, match="relaxation matrix has a non-finite entry"):
        fit_relaxation_model(Superoperator(dim=3, matrix=matrix))


def test_relaxation_model_of_a_non_qutrit_matrix_is_an_error():
    with pytest.raises(DimensionError, match="relaxation model is defined for qutrits only"):
        fit_relaxation_model(Superoperator(dim=2, matrix=np.eye(4)))


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
    assert "skipped_times" not in report.to_json()  # a clean fit's artifact is unchanged
    assert len(report.df_per_time) == len(ds.times)


def test_direct_hamiltonian_skips_branch_failures():
    # park one grid time exactly on the log branch cut (rotation angle pi);
    # that time must be skipped with a warning, the rest averaged.  The
    # relaxation is switched off so the eigenvalue angle is exact.
    none = RelaxationModel(
        omega_residual=np.zeros(3), gamma_dephase=np.zeros(3), gamma_iso=0.0
    )
    t_hit = make_scenario("static_quadratic_zeeman").grid.times[4]
    sc = make_scenario("static_quadratic_zeeman", q=np.pi / t_hit)
    rt = none.superoperator()
    generator = hamiltonian_superop(sc.static_hamiltonian, __basis()).matrix
    ds = planted_dataset(generator, sc.grid.times, NoiseSpec(seed=67))
    with pytest.warns(UserWarning):
        report = direct_hamiltonian(reconstruct_processes(ds), rt)
    skipped = [t for t, _ in report.extras["skipped_times"]]
    assert skipped == [pytest.approx(t_hit)]
    assert report.converged
    # the artifact records the time left out, so it does not read as a clean fit
    [(t, msg)] = report.extras["skipped_times"]
    assert "branch cut" in msg
    obj = json.loads(json.dumps(report.to_json()))
    assert obj["skipped_times"] == [{"time_s": t, "error": msg}]


def _per_time_direct_hamiltonian(ds, rt):
    """direct_hamiltonian's mean, one principal_log per time: (params, skipped)."""
    per_time, skipped = [], []
    for mat, t in zip(*reconstruct_processes(ds)):
        pm = ProcessMatrix(dim=3, matrix=mat, duration_s=float(t))
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
    sc = make_scenario("static_quadratic_zeeman", q=q)
    rt = none.superoperator()
    generator = hamiltonian_superop(sc.static_hamiltonian, __basis()).matrix
    # noise can pull the planted time off the cut, and it would then be averaged
    # in without a warning (ROADMAP item 16); planted noiseless, it is on the cut
    noise = NoiseSpec(bloch_sigma=0.0 if on_cut else 0.002, seed=68)
    ds = planted_dataset(generator, sc.grid.times, noise)
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
    # constant z-field on top of the relaxation
    sc = make_scenario(
        "static_linear_zeeman", axis="z", omega=omega_z, t_min=4e-6, t_max=40e-6, n_times=10
    )
    ds = generate_dataset(sc, NoiseSpec(seed=68))
    rt = DEFAULT_RELAXATION.superoperator()
    report = estimate_fields(stepwise_processes(ds), rt, known_form=True)
    np.testing.assert_allclose(report.estimate[:, 2], omega_z, rtol=1e-8)
    np.testing.assert_allclose(report.estimate[:, :2], 0.0, atol=omega_z * 1e-8)


# durations log-uniform over 1.5 decades from the shortest, one of them at
# least 10x the shortest; the field turns by at most 1 rad in the longest
@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_intervals=st.integers(min_value=2, max_value=8),
    shortest=st.floats(min_value=1e-6, max_value=1e-4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_constant_field_recovered_on_a_non_uniform_grid(n_intervals, shortest, seed):
    rng = np.random.default_rng(seed)
    decades = rng.uniform(0.0, 1.5, n_intervals)
    decades[rng.choice(n_intervals, 2, replace=False)] = [0.0, rng.uniform(1.0, 1.5)]
    grid = TimeGrid(times=np.cumsum(shortest * 10.0**decades))
    direction = rng.normal(size=3)
    omega = rng.uniform(0.2, 1.0) / grid.durations.max() * direction / np.linalg.norm(direction)
    rt = DEFAULT_RELAXATION.superoperator()
    generator = (_field_design() @ omega).reshape(9, 9) - rt.matrix
    inputs = _input_coords()
    outputs = [scipy.linalg.expm(generator * t) @ inputs for t in grid.times]
    steps = stepwise_processes(TomographySet(states=np.stack([inputs, *outputs]), times=grid.times))
    h_truth = np.linalg.lstsq(_hermitian_design(), _field_design() @ omega, rcond=None)[0]
    for known_form, truth in ((True, omega), (False, h_truth)):
        for method in ("direct", "mle"):
            report = estimate_fields(steps, rt, known_form=known_form, method=method)
            expected = np.tile(truth, (n_intervals, 1))
            np.testing.assert_allclose(
                report.estimate, expected, rtol=1e-9, atol=1e-9 * np.abs(truth).max()
            )


def test_three_axis_closed_loop_noiseless():
    sc = make_scenario("three_axis_time_dependent", n_steps=25)
    ds = generate_dataset(sc, NoiseSpec(seed=69))
    rt = DEFAULT_RELAXATION.superoperator()
    report = estimate_fields(stepwise_processes(ds), rt, known_form=True)
    truth = sc.omegas_nominal(sc.grid.midpoints)
    assert np.abs(report.estimate - truth).max() < 1e-6


def test_unknown_form_returns_full_params():
    sc = make_scenario("three_axis_time_dependent", n_steps=6)
    ds = generate_dataset(sc, NoiseSpec(seed=70))
    rt = DEFAULT_RELAXATION.superoperator()
    report = estimate_fields(stepwise_processes(ds), rt, known_form=False)
    assert report.estimate.shape == (6, 9)
    assert report.param_names[:9] == tuple(f"h{i}[0]" for i in range(1, 10))


def test_known_form_never_worse_than_unknown_direct(calibrated_sigma):
    # the known-form projection lands in a subspace containing the truth,
    # so its distance to the truth cannot exceed the unconstrained one
    sc = make_scenario("three_axis_time_dependent", n_steps=20)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=71))
    rt = DEFAULT_RELAXATION.superoperator()
    steps = stepwise_processes(ds)
    known = estimate_fields(steps, rt, known_form=True, method="direct")
    unknown = estimate_fields(steps, rt, known_form=False, method="direct")
    basis = __basis()
    k_true = [
        hamiltonian_superop(sc.hamiltonian(t), basis) for t in sc.grid.midpoints
    ]
    d_known = [
        frobenius_distance((_field_design() @ row).reshape(9, 9), kt)
        for row, kt in zip(known.estimate, k_true)
    ]
    d_unknown = [
        frobenius_distance((_hermitian_design() @ row).reshape(9, 9), kt)
        for row, kt in zip(unknown.estimate, k_true)
    ]
    assert all(dk <= du + 1e-12 for dk, du in zip(d_known, d_unknown))


def test_fields_mle_matches_direct_on_clean_data():
    sc = make_scenario("three_axis_time_dependent", n_steps=6)
    ds = generate_dataset(sc, NoiseSpec(seed=72))
    rt = DEFAULT_RELAXATION.superoperator()
    steps = stepwise_processes(ds)
    direct = estimate_fields(steps, rt, known_form=True, method="direct")
    mle = estimate_fields(steps, rt, known_form=True, method="mle")
    np.testing.assert_allclose(mle.estimate, direct.estimate, atol=1e-4)


def test_recovered_frequency_content(calibrated_sigma):
    # 7.5 kHz drive on y shows up as the dominant Fourier peak of the
    # recovered trace, within one frequency bin
    sc = make_scenario("three_axis_time_dependent", n_steps=100)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=73))
    rt = DEFAULT_RELAXATION.superoperator()
    report = estimate_fields(stepwise_processes(ds), rt, known_form=True)
    omega_y = report.estimate[:, 1]
    spectrum = np.abs(np.fft.rfft(omega_y - omega_y.mean()))
    freqs = np.fft.rfftfreq(len(omega_y), d=sc.params["dt"])
    peak = freqs[1:][np.argmax(spectrum[1:])]
    bin_width = freqs[1] - freqs[0]
    assert abs(peak - 7500.0) <= bin_width


def test_near_zero_field_flagging():
    sc = make_scenario("three_axis_time_dependent", n_steps=12)
    ds = generate_dataset(sc, NoiseSpec(seed=74))
    rt = DEFAULT_RELAXATION.superoperator()
    report = estimate_fields(stepwise_processes(ds), rt, known_form=True)
    mags = np.linalg.norm(report.estimate, axis=1)
    assert (report.extras["flagged"] == (mags < 0.1 * mags.max())).all()


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
# bootstrap draw fit
# ---------------------------------------------------------------------------


def _object_draw_params(ds) -> np.ndarray:
    """The relaxation draw fit through the object API, the reference of the stack draw."""
    l_hat = mean_log_liouvillian(reconstruct_processes(ds))
    return fit_relaxation_model(Superoperator(dim=3, matrix=-l_hat.matrix)).params


def _relaxation_draw_params(states, times) -> np.ndarray:
    """The params of a relaxation draw fitted alone, a batch of one."""
    return fit_draws(states[None], times, "relaxation")[0]


def test_stack_draw_equals_the_object_pipeline(calibrated_sigma):
    sc = make_scenario("relaxation_only")
    for draw in range(50):
        spec = NoiseSpec(bloch_sigma=calibrated_sigma, seed=derive_seed(7, draw))
        stacked = _relaxation_draw_params(noisy_states(sc.propagators, spec), sc.grid.times)
        assert np.array_equal(stacked, _object_draw_params(generate_dataset(sc, spec))), draw


def _rank_one_inputs(states):
    states[0] = states[0][:, :1]  # every input state the same


def _flip_at_fourth_time(states):
    # the process at the fourth time has the eigenvalue -1, on the branch cut
    flip = np.eye(9)
    flip[0, 0] = -1.0
    states[4] = flip @ states[0]


@pytest.mark.parametrize(
    "spoil, error", [(_rank_one_inputs, CompletenessError), (_flip_at_fourth_time, BranchCutError)]
)
def test_stack_draw_fails_like_the_object_pipeline(spoil, error):
    # the same class and message, so a failed draw reads the same in fit_report.json
    sc = make_scenario("relaxation_only", n_times=6)
    states = noisy_states(sc.propagators, NoiseSpec(bloch_sigma=0.004, seed=3))
    spoil(states)
    with pytest.raises(error) as stacked:
        _relaxation_draw_params(states, sc.grid.times)
    with pytest.raises(error) as objects:
        _object_draw_params(TomographySet(states=states, times=sc.grid.times))
    assert type(stacked.value) is type(objects.value)
    assert str(stacked.value) == str(objects.value)


def test_stack_draw_checks_the_pinned_trace_row():
    sc = make_scenario("relaxation_only", n_times=3)
    states = noisy_states(sc.propagators, NoiseSpec(seed=3))
    states[2, -1, 4] += 1e-6
    rt = DEFAULT_RELAXATION.superoperator()
    for model in ("relaxation", "hermitian", "fields"):  # each checks its stack as a set does
        with pytest.raises(ValueError, match=r"outputs\[0.001\] has unpinned trace components"):
            fit_draws(states[None], sc.grid.times, model, rt)


def test_draw_fit_of_another_model_is_an_error():
    sc = make_scenario("relaxation_only", n_times=3)
    states = noisy_states(sc.propagators, NoiseSpec(seed=3))
    with pytest.raises(ValueError, match="no draw fit of model 'mle'"):
        fit_draws(states[None], sc.grid.times, "mle")


def test_bootstrap_memory_does_not_grow_with_the_draw_count(monkeypatch):
    # one process makes and fits its draws a batch at a time, so it holds one
    # batch of state stacks, not its whole share of the draws; what grows is
    # the params kept per draw
    monkeypatch.setattr(estimation.os, "sched_getaffinity", lambda pid: {0})
    sc = make_scenario("relaxation_only")
    noise = NoiseSpec(bloch_sigma=0.004, seed=89)

    def fit(seeds):
        states = [noisy_states(sc.propagators, replace(noise, seed=seed)) for seed in seeds]
        return fit_draws(np.stack(states), sc.grid.times, "relaxation")

    peaks = []
    for n_draws in (40, 400):
        tracemalloc.start()
        try:
            bootstrap(fit, noise.seed, n_draws)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_zero_noise_degenerate():
    sc = make_scenario("relaxation_only", n_times=6)
    result = bootstrap(_seeded(sc, NoiseSpec(seed=80)), 80, 5)
    np.testing.assert_allclose(result.low, result.high, atol=1e-12)
    np.testing.assert_allclose(result.low, DEFAULT_RELAXATION.params, rtol=1e-6)
    assert result.n_failed == 0


def test_bootstrap_deterministic(calibrated_sigma):
    # datasets are bit-identical under a fixed seed, and so are the fits
    sc = make_scenario("relaxation_only", n_times=6)
    fit = _seeded(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=81))
    r1 = bootstrap(fit, 81, 20)
    r2 = bootstrap(fit, 81, 20)
    assert np.array_equal(r1.samples, r2.samples)
    assert np.array_equal(r1.low, r2.low)
    assert np.array_equal(r1.high, r2.high)


def test_bootstrap_fits_seed_batches_and_refits_a_failed_one_seed_by_seed(monkeypatch):
    # one process: the fit gets the seeds of consecutive draws, DRAW_BATCH at
    # a time; the batch holding draw 5 raises, so each of its seeds is refitted alone
    _force_workers(monkeypatch, 1)
    seeds = [derive_seed(90, draw) for draw in range(10)]
    calls = []

    def fit(batch):
        calls.append(list(batch))
        if seeds[5] in batch:
            raise SingularProcessError("injected at draw 5")
        return np.array([[seeds.index(seed)] for seed in batch], dtype=float)

    result = bootstrap(fit, 90, 10)
    expected = []
    for start in range(0, 10, estimation.DRAW_BATCH):
        batch = seeds[start : start + estimation.DRAW_BATCH]
        expected.append(batch)
        if seeds[5] in batch:
            expected.extend([seed] for seed in batch)
    assert calls == expected
    assert result.failures == ["draw 5: injected at draw 5"]
    assert result.samples[:, 0].tolist() == [0, 1, 2, 3, 4, 6, 7, 8, 9]


def test_bootstrap_failure_budget():
    def failing_fit(states, times):
        raise SingularProcessError("fit exploded")

    sc = make_scenario("relaxation_only", n_times=2)
    with pytest.raises(BootstrapError):
        bootstrap(_seeded(sc, NoiseSpec(seed=82), failing_fit), 82, 10)


def test_bootstrap_propagates_programming_errors():
    # only numeric failures count against the budget; a bug is not a draw
    def buggy_fit(states, times):
        raise TypeError("unsupported operand")

    sc = make_scenario("relaxation_only", n_times=2)
    with pytest.raises(TypeError, match="unsupported operand"):
        bootstrap(_seeded(sc, NoiseSpec(seed=82), buggy_fit), 82, 10)


def _force_workers(monkeypatch, n: int):
    monkeypatch.setattr(estimation.os, "sched_getaffinity", lambda pid: set(range(n)))


def _open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@contextlib.contextmanager
def _assert_no_worker_left():
    """Assert that the block, whether it returns or raises, leaves no child
    process and (where /proc is mounted) no more open fds than it found."""
    fds = _open_fds()
    try:
        yield
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _open_fds() == fds


def _after_a_worker_claims(tmp_path, in_caller, in_workers):
    """A draw fit that runs ``in_workers`` in a forked worker and
    ``in_caller`` in this process, but only once a worker has begun a batch,
    so that the worker path runs whichever process claims first."""
    caller = os.getpid()
    claimed = tmp_path / "claimed"

    def fit(states, times):
        if os.getpid() != caller:
            claimed.touch()
            return in_workers(states, times)
        deadline = time.monotonic() + 10.0
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return in_caller(states, times)

    return fit


@contextlib.contextmanager
def _ends_within(seconds: int):
    """Raise TimeoutError in this process if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_bootstrap_same_result_for_any_worker_count(monkeypatch, calibrated_sigma):
    # with three processes, draws 1 and 5 fail in whichever claims their batches
    sc = make_scenario("relaxation_only", n_times=6)
    fit = _seeded(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=83), failing=(1, 5))
    results = []
    for n_workers in (1, 3, None):  # None: a platform without sched_getaffinity
        if n_workers is None:
            monkeypatch.delattr(estimation.os, "sched_getaffinity")
        else:
            _force_workers(monkeypatch, n_workers)
        with _assert_no_worker_left():
            results.append(bootstrap(fit, 83, 20))
    serial, *others = results
    for other in others:
        for name in ("samples", "low", "high"):
            assert np.array_equal(getattr(other, name), getattr(serial, name)), name
        assert other.failures == serial.failures == [
            "draw 1: injected at draw 1", "draw 5: injected at draw 5",
        ]


def test_bootstrap_numeric_failures_in_workers_count(monkeypatch):
    # with three processes, the batches of draws 1, 5 and 8 may each be claimed by any
    _force_workers(monkeypatch, 3)
    sc = make_scenario("relaxation_only", n_times=2)
    with _assert_no_worker_left():
        result = bootstrap(_seeded(sc, NoiseSpec(seed=84), failing=(8, 1, 5)), 84, 30)
    assert result.n_failed == 3 and len(result.samples) == 27
    assert result.failures == [f"draw {d}: injected at draw {d}" for d in (1, 5, 8)]
    with (
        pytest.raises(BootstrapError, match="4/30 bootstrap draws failed; first: draw 1: injected"),
        _assert_no_worker_left(),
    ):
        bootstrap(_seeded(sc, NoiseSpec(seed=84), failing=(1, 2, 4, 5)), 84, 30)


def test_bootstrap_propagates_programming_errors_from_workers(monkeypatch, tmp_path):
    _force_workers(monkeypatch, 3)

    def buggy_in_workers(states, times):
        raise TypeError("unsupported operand in a worker")

    sc = make_scenario("relaxation_only", n_times=2)
    fit = _after_a_worker_claims(tmp_path, _direct_rt_params, buggy_in_workers)
    with (
        pytest.raises(TypeError, match="unsupported operand in a worker") as info,
        _assert_no_worker_left(),
    ):
        bootstrap(_seeded(sc, NoiseSpec(seed=85), fit), 85, 4 * estimation.DRAW_BATCH)
    assert "buggy_in_workers" in str(info.value.__cause__)  # the worker's traceback


class _TwoArgError(Exception):
    def __init__(self, message, detail):  # unpickling calls it with one argument
        super().__init__(message)
        self.detail = detail


def test_bootstrap_worker_error_that_does_not_pickle(monkeypatch, tmp_path):
    _force_workers(monkeypatch, 2)

    def in_workers(states, times):
        raise _TwoArgError("odd failure", detail=1)

    sc = make_scenario("relaxation_only", n_times=2)
    fit = _after_a_worker_claims(tmp_path, _direct_rt_params, in_workers)
    with pytest.raises(RuntimeError, match="_TwoArgError: odd failure"), _assert_no_worker_left():
        bootstrap(_seeded(sc, NoiseSpec(seed=88), fit), 88, 4 * estimation.DRAW_BATCH)


def test_bootstrap_stops_workers_when_the_caller_raises(monkeypatch, tmp_path):
    _force_workers(monkeypatch, 3)

    def in_caller(states, times):
        raise TypeError("unsupported operand in the caller")

    def in_workers(states, times):
        time.sleep(30.0)  # a worker still running when the caller raises

    sc = make_scenario("relaxation_only", n_times=2)
    fit = _after_a_worker_claims(tmp_path, in_caller, in_workers)
    start = time.monotonic()
    with (
        pytest.raises(TypeError, match="unsupported operand in the caller"),
        _assert_no_worker_left(),
    ):
        bootstrap(_seeded(sc, NoiseSpec(seed=86), fit), 86, 4 * estimation.DRAW_BATCH)
    assert time.monotonic() - start < 10.0


def test_bootstrap_worker_killed_by_a_signal(monkeypatch, tmp_path):
    _force_workers(monkeypatch, 2)

    def in_workers(states, times):
        os.kill(os.getpid(), signal.SIGKILL)

    sc = make_scenario("relaxation_only", n_times=2)
    fit = _after_a_worker_claims(tmp_path, _direct_rt_params, in_workers)
    with (
        pytest.raises(ChildProcessError, match=r"exit status -9 \(SIGKILL\); no draws returned"),
        _assert_no_worker_left(),
    ):
        bootstrap(_seeded(sc, NoiseSpec(seed=87), fit), 87, 4 * estimation.DRAW_BATCH)


def test_bootstrap_caller_claims_the_batches_a_slow_worker_leaves(monkeypatch):
    # the one worker sleeps through each batch it claims, so the caller, free
    # sooner, claims most of the batches; the result is that of one process
    caller = os.getpid()
    sc = make_scenario("relaxation_only", n_times=2)
    seeded = _seeded(sc, NoiseSpec(bloch_sigma=0.004, seed=91), failing=(3, 17))
    in_caller = set()

    def fit(seeds):
        if os.getpid() == caller:
            in_caller.update(seeds)
        else:
            time.sleep(0.2)
        return seeded(seeds)

    _force_workers(monkeypatch, 1)
    alone = bootstrap(fit, 91, 40)
    in_caller.clear()
    _force_workers(monkeypatch, 2)
    with _assert_no_worker_left():
        claimed = bootstrap(fit, 91, 40)
    assert len(in_caller) > 40 / 2
    for name in ("samples", "low", "high"):
        assert np.array_equal(getattr(claimed, name), getattr(alone, name)), name
    assert claimed.failures == alone.failures == [
        "draw 3: injected at draw 3", "draw 17: injected at draw 17",
    ]


def test_bootstrap_with_many_more_batches_than_processes(monkeypatch):
    # one draw per batch and many more batches than processes: each process
    # claims again and again from the one counter, and each draw is fitted once
    monkeypatch.setattr(estimation, "DRAW_BATCH", 1)
    n_draws = 17_384

    def fit(seeds):
        return np.array(seeds, dtype=float)[:, None]

    results = []
    for n_workers in (1, 2):
        _force_workers(monkeypatch, n_workers)
        with _ends_within(60), _assert_no_worker_left():
            results.append(bootstrap(fit, 92, n_draws))
    alone, claimed = results
    assert alone.samples[:, 0].tolist() == [derive_seed(92, draw) for draw in range(n_draws)]
    for name in ("samples", "low", "high"):
        assert np.array_equal(getattr(claimed, name), getattr(alone, name)), name


def test_bootstrap_fits_each_seed_once_in_batches_of_consecutive_draws(monkeypatch, tmp_path):
    # results merge by draw index, so only a log of the fits' calls shows a
    # batch fitted twice; each call appends one line, whole, whichever process makes it
    _force_workers(monkeypatch, 3)
    log = tmp_path / "fits"
    n_draws = 203

    def fit(seeds):
        time.sleep(0.005)  # long enough that the workers claim batches too
        line = " ".join(map(str, [os.getpid(), *seeds])) + "\n"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        return np.array(seeds, dtype=float)[:, None]

    with _assert_no_worker_left():
        bootstrap(fit, 93, n_draws)
    draw_of = {derive_seed(93, draw): draw for draw in range(n_draws)}
    calls = [[int(word) for word in line.split()] for line in log.read_text().splitlines()]
    assert len({pid for pid, *_ in calls}) > 1
    batch = estimation.DRAW_BATCH
    assert sorted([draw_of[seed] for seed in seeds] for _, *seeds in calls) == [
        list(range(start, min(start + batch, n_draws))) for start in range(0, n_draws, batch)
    ]


@pytest.mark.parametrize("extra", [-1, 1])
def test_bootstrap_fit_with_other_than_one_row_per_seed_is_a_bug(monkeypatch, tmp_path, extra):
    # too few or too many rows is no failed draw: ValueError propagates, also from a worker
    batch = estimation.DRAW_BATCH
    message = f"{batch + extra} rows for {batch} seeds"
    _force_workers(monkeypatch, 1)
    with pytest.raises(ValueError, match=re.escape(f"fit of draws {list(range(batch))}: {message}")):
        bootstrap(lambda seeds: np.zeros((len(seeds) + extra, 1)), 94, 10)

    def in_workers(states, times):
        return np.zeros((len(states) + extra, 1))

    _force_workers(monkeypatch, 2)
    sc = make_scenario("relaxation_only", n_times=2)
    fit = _after_a_worker_claims(tmp_path, _direct_rt_params, in_workers)
    with pytest.raises(ValueError, match=message) as info, _assert_no_worker_left():
        bootstrap(_seeded(sc, NoiseSpec(seed=94), fit), 94, 4 * batch)
    assert "_draw_batches" in str(info.value.__cause__)  # the worker's traceback


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
    result = bootstrap(_seeded(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=401)), 401, 150)
    half = (result.high - result.low) / 2.0
    reference = np.array([1.0, 1.1, 1.3, 1.6])  # gamma_x, gamma_y, gamma_z, gamma_iso
    ratios = half[3:] / reference
    assert (ratios < 3.0).all() and (ratios > 1.0 / 3.0).all()


def test_bootstrap_coverage_loose(calibrated_sigma):
    # 68% nominal intervals contain the truth well above half the time
    sc = make_scenario("relaxation_only")
    truth = DEFAULT_RELAXATION.params
    hits = []
    for meta in range(10):
        noise = NoiseSpec(bloch_sigma=calibrated_sigma, seed=9000 + meta)
        result = bootstrap(_seeded(sc, noise), noise.seed, 40)
        hits.append(result.contains(truth))
    coverage = np.mean(hits, axis=0)  # per parameter over meta-repetitions
    assert coverage.mean() >= 0.6


def test_fit_report_json_with_other_than_one_interval_per_param_is_a_bug():
    ds = generate_dataset(make_scenario("relaxation_only", n_times=3), NoiseSpec(seed=83))
    report = mle_liouvillian(reconstruct_processes(ds), form="relaxation")
    report.ci_low, report.ci_high = report.params[:3] - 1.0, report.params[:3] + 1.0
    with pytest.raises(ValueError, match="zip"):
        report.to_json()


def test_fit_report_json_round_trip():
    ds = generate_dataset(make_scenario("relaxation_only", n_times=3), NoiseSpec(seed=83))
    report = mle_liouvillian(reconstruct_processes(ds), form="relaxation")
    report.ci_low = report.params - 1.0
    report.ci_high = report.params + 1.0
    obj = json.loads(json.dumps(report.to_json()))
    assert obj["model"] == "mle-relaxation"
    assert obj["converged"] is True
    assert obj["estimate"] == report.estimate.to_json()
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
    pm = reconstruct_process(ds, ds.times[0])
    t = pm.duration_s
    report = mle_liouvillian((pm.matrix[None], np.array([t])), form=form, dissipator=rt)
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
    report = estimate_fields(steps, rt, method="mle")
    counts = json.loads(json.dumps(report.to_json()))["optimizer"]
    assert counts == report.extras["optimizer"]
    assert set(counts) == {
        "gauss_newton_iterations", "expm_frechet_evaluations", "unconverged_intervals"
    }
    assert counts["gauss_newton_iterations"] >= 4
    assert counts["expm_frechet_evaluations"] == 0
    assert counts["unconverged_intervals"] == []
    assert report.converged
    assert report.iterations == counts["gauss_newton_iterations"]
    direct = estimate_fields(steps, rt, method="direct")
    assert "optimizer" not in direct.to_json()


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
    assert all(shape == (len(ds.times), 9, 9) for shape in calls)
    l_hat = report.estimate.matrix
    separate = [frobenius_distance(p, scipy.linalg.expm(l_hat * t)) for p, t in zip(*pmeas)]
    assert np.array_equal(report.df_per_time, separate)


def test_direct_hamiltonian_df_matches_separate_expm_per_time():
    ds = generate_dataset(
        make_scenario("static_quadratic_zeeman"), NoiseSpec(bloch_sigma=0.004, seed=68)
    )
    rt = DEFAULT_RELAXATION.superoperator()
    report = direct_hamiltonian(reconstruct_processes(ds), rt)
    k_hat = explicit_qutrit_superop(report.estimate).matrix
    mats, _ = reconstruct_processes(ds)
    separate = [
        frobenius_distance(mat, scipy.linalg.expm((k_hat - rt.matrix) * t))
        for t, mat in zip(ds.times, mats)
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
    times = np.array([0.5, 1.0, 2.0])
    pmeas = (
        np.stack([scipy.linalg.expm(lmat * t) + 1e-3 * rng.normal(size=(9, 9)) for t in times]),
        times,
    )
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
