"""The direct chain: one log pass, one masked mean, one projection per design.

Every direct estimate (``mean_log_liouvillian``, ``direct_hamiltonian``,
``estimate_fields``, the draws of ``fit_draws`` and the start of every
``mle_liouvillian`` fit) reads ``tomography._direct_rows``.  Its mean over a
draw's admissible times must be ``np.mean`` over those times bit for bit,
each draw of a batch must get the bits it gets alone, also when other draws
skip times, and its projection must be the min-norm least-squares fit that
``np.linalg.lstsq`` gives, to rounding.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab import estimation
from liouvlab.dynamics import _log_stack, _principal_logs
from liouvlab.estimation import direct_hamiltonian, estimate_fields, fit_draws, mle_liouvillian
from liouvlab.exceptions import BranchCutError, SingularProcessError
from liouvlab.superop import Superoperator, params_from_superop
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import (
    _direct_rows,
    mean_log_liouvillian,
    reconstruct_processes,
    stepwise_processes,
)

from test_batch_properties import PLANTED, _random_draws, _random_gks, _times

draws = st.integers(min_value=1, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)

# inadmissible process matrices: the time is skipped (Hermitian) or raised
_INADMISSIBLE = {"_singular": SingularProcessError, "_at_the_cut": BranchCutError}


def _planted_stack(rng, d, m, times, plants):
    """(m, T, d**2, d**2) propagators of random GKS generators, one per draw, with
    an inadmissible matrix planted at each (kind, draw, time) of ``plants``."""
    mats = np.stack([
        scipy.linalg.expm(_random_gks(rng, d) * times[:, None, None]) for _ in range(m)
    ])
    for kind, j, k in plants:
        mats[j, k] = PLANTED[kind](d * d)
    return mats


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(min_value=2, max_value=3), m=draws,
       n_times=st.integers(min_value=1, max_value=10), shifted=st.booleans(),
       data=st.data(), seed=seeds)
def test_masked_mean_is_the_mean_over_the_kept_times(d, m, n_times, shifted, data, seed):
    # the kernel's row of each draw is np.mean over its admissible times, bit
    # for bit, and equals that draw's row alone; a draw with none is NaN
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    plants = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(PLANTED)),
        st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=n_times - 1),
    ), max_size=4), label="planted")
    mats = _planted_stack(rng, d, m, times, plants)
    shift = rng.normal(size=(d * d, d * d)) if shifted else None
    rows, errors = _direct_rows(mats, times, shift)
    for j in range(m):
        logs, alone_errors = _principal_logs(mats[j], times)
        assert {k for (i, k) in errors if i == j} == set(alone_errors)
        kept = [k for k in range(n_times) if k not in alone_errors]
        alone_rows, _ = _direct_rows(mats[j : j + 1], times, shift)
        assert np.array_equal(rows[j], alone_rows[0], equal_nan=True)
        if not kept:
            assert np.isnan(rows[j]).all()
            continue
        per_time = logs[kept] / times[kept, None, None]
        want = np.mean(per_time if shift is None else per_time + shift, axis=0)
        assert np.array_equal(rows[j], want.ravel())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=4), n_times=st.integers(min_value=1, max_value=12),
       seed=seeds)
def test_mean_log_liouvillian_is_np_mean_of_the_logs(d, n_times, seed):
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    mats = scipy.linalg.expm(_random_gks(rng, d) * times[:, None, None])
    want = np.mean(_log_stack(mats, times) / times[:, None, None], axis=0)
    assert np.array_equal(mean_log_liouvillian((mats, times)).matrix, want)


def _draw_fit(states, times, model, known_form):
    try:
        with warnings.catch_warnings():  # a Hermitian fit warns of each time it skips
            warnings.simplefilter("ignore")
            return fit_draws(states, times, model, DEFAULT_RELAXATION.superoperator(), known_form)
    except (SingularProcessError, BranchCutError) as err:
        return err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=st.integers(min_value=2, max_value=4), n_times=st.integers(min_value=2, max_value=5),
       data=st.data(), seed=seeds)
def test_batch_draws_equal_each_draw_alone_with_skipped_times(m, n_times, data, seed):
    # branch cuts planted at some times: the Hermitian draws skip them, and
    # each draw of the batch keeps its own times, mean and projection
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    states = _random_draws(rng, 3, m, times, 0)
    cuts = data.draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=m - 1), st.integers(min_value=2, max_value=n_times),
    ), max_size=3), label="cuts")
    for j, k in cuts:  # the map from the inputs gets the eigenvalue -1, on the branch cut
        states[j, k] = np.diag([-1.0] + [1.0] * 8) @ states[j, 0]
    for model, known_form in (("relaxation", True), ("hermitian", True),
                              ("fields", True), ("fields", False)):
        batch = _draw_fit(states, times, model, known_form)
        alone = [_draw_fit(states[j : j + 1], times, model, known_form) for j in range(m)]
        failed = [out for out in alone if isinstance(out, Exception)]
        if failed:  # the batch raises what its first failing draw raises alone
            assert (type(batch), str(batch)) == (type(failed[0]), str(failed[0])), model
        else:
            for j in range(m):
                assert np.array_equal(batch[j], alone[j][0]), (model, j)
    if cuts:  # a Hermitian batch skips the cut times and fits every draw
        assert not isinstance(_draw_fit(states, times, "hermitian", True), Exception)


# the designs and their cached projections: the field, Hermitian and relaxation forms
_PROJECTIONS = {form: estimation._form_design(form) for form in ("fields", "hermitian", "relaxation")}
_TRACE_OF_H = np.array([1.0, 0, 0, 0, 0, 1.0, 0, 0, 1.0]) / np.sqrt(3.0)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(form=st.sampled_from(sorted(_PROJECTIONS)), m=draws, noise=st.sampled_from([0.0, 1e-3, 1.0]),
       scale=st.sampled_from([1.0, 1e3, 1e5]), seed=seeds)
def test_projection_is_the_min_norm_least_squares_fit(form, m, noise, scale, seed):
    rng = np.random.default_rng(seed)
    design, projection = _PROJECTIONS[form]
    rows = scale * (rng.normal(size=(m, design.shape[1])) @ design.T
                    + noise * rng.normal(size=(m, 81)))
    got = (rows[:, None] @ projection)[:, 0]
    for row, fit in zip(rows, got):
        want = np.linalg.lstsq(design, row, rcond=None)[0]
        assert np.linalg.norm(fit - want) <= 1e-13 * np.linalg.norm(want)
        if form == "hermitian":  # no component along the unobservable trace of H
            assert abs(fit @ _TRACE_OF_H) <= 1e-13 * np.linalg.norm(fit)
            fitted = params_from_superop(Superoperator(dim=3, matrix=row.reshape(9, 9)))
            assert np.array_equal(fitted.params.h, row @ projection)


@pytest.mark.parametrize("kinds", [("_singular", "_at_the_cut"), ("_at_the_cut", "_singular"),
                                   ("_singular", "_singular"), ("_at_the_cut", "_at_the_cut")])
def test_no_admissible_time_raises_the_earliest_times_class(kinds):
    # every time inadmissible, the times out of order: the earliest names the class
    rng = np.random.default_rng(5)
    times = np.array([0.3, 0.1, 0.2])
    mats = _planted_stack(rng, 3, 2, times, [])
    earliest, later = kinds
    mats[1] = [PLANTED[later](9), PLANTED[earliest](9), PLANTED[later](9)]
    with pytest.raises(_INADMISSIBLE[earliest], match=r"^no evolution time admits .*t = 0\.1 s"):
        estimation._skipping_rows(mats, times, None, None)
    rows, errors = _direct_rows(mats, times)  # the kernel itself raises nothing
    assert np.isnan(rows[1]).all() and np.isfinite(rows[0]).all() and len(errors) == 3


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_direct_fit_reports_what_the_zero_step_mle_fit_reports(seed):
    # one Pade cost evaluator: the cost, summed in time order, and the
    # distances of the direct fit are those of the MLE fit of no step from it
    rt = DEFAULT_RELAXATION.superoperator()
    ds = generate_dataset(make_scenario("static_quadratic_zeeman"), NoiseSpec(0.004, seed=seed))
    processes = reconstruct_processes(ds)
    direct = direct_hamiltonian(processes, rt)
    with mock.patch.object(estimation, "GN_MAX_ITERS", 0):
        start = mle_liouvillian(processes, dissipator=rt, form="hermitian")
    assert np.array_equal(start.params, direct.params)
    assert start.cost == direct.cost
    assert np.array_equal(start.df_per_time, direct.df_per_time)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), known_form=st.booleans())
def test_direct_field_fit_reports_what_the_zero_step_lockstep_fit_reports(seed, known_form):
    # the fields twin: a direct field fit is the lockstep fit of no step, so
    # its rows, cost and distances are those of the MLE fit with no step budget
    rt = DEFAULT_RELAXATION.superoperator()
    sc = make_scenario("three_axis_time_dependent", n_steps=8, ramp=True)
    steps = stepwise_processes(generate_dataset(sc, NoiseSpec(0.004, seed=seed)))
    direct = estimate_fields(steps, rt, known_form, method="direct")
    with mock.patch.object(estimation, "GN_MAX_ITERS", 0):
        start = estimate_fields(steps, rt, known_form, method="mle")
    assert start.extras["optimizer"]["gauss_newton_iterations"] == 0
    assert np.array_equal(start.estimate, direct.estimate)
    assert start.cost == direct.cost
    assert np.array_equal(start.df_per_time, direct.df_per_time)
