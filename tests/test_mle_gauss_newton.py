"""The damped Gauss-Newton fits of ``mle_liouvillian``, and of its solver from other starts.

On random noisy problems (free and Hermitian forms) the Gauss-Newton cost
is never above an L-BFGS reference built in the tests from ``expm`` and
``expm_frechet``; a defective start takes the exact Frechet columns and
converges to that reference; the Hermitian fit never moves the trace of H;
a noiseless fit stops, converged, at its rounding level; and an exhausted
step budget is reported as not converged.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gauss_newton_fit, lbfgs_reference, pade_cost
from liouvlab import estimation
from liouvlab.dynamics import ProcessMatrix
from liouvlab.estimation import mle_liouvillian
from liouvlab.superop import Superoperator, _field_design, _hermitian_design
from liouvlab.synthlab import DEFAULT_RELAXATION

# relaxation scaled so that rates and Hamiltonian entries are both O(1)
RT = DEFAULT_RELAXATION.superoperator().matrix / 50.0
DT = 0.05


def _problem(free, n_times, noise, seed):
    """Noisy process matrices at T times of a random generator, and its form."""
    rng = np.random.default_rng(seed)
    if free:
        design, rt = None, None
        lmat = 0.3 * rng.normal(size=(9, 9))
    else:
        design, rt = _hermitian_design(), RT
        lmat = (design @ rng.normal(size=9)).reshape(9, 9) - rt
    ts = DT * np.arange(1, n_times + 1)
    ps = scipy.linalg.expm(lmat * ts[:, None, None]) + noise * rng.normal(size=(n_times, 9, 9))
    return design, rt, ts, ps


def _fit(design, rt, ts, ps):
    return mle_liouvillian(
        (ps, ts),
        form="free" if design is None else "hermitian",
        dissipator=None if rt is None else Superoperator(dim=3, matrix=rt),
    )


def _start(design, rt, ts, ps):
    """A start near the optimum: the projected log at the earliest time."""
    log = scipy.linalg.logm(ps[0]).real / ts[0]
    b0 = log if rt is None else log + rt
    return b0.ravel() if design is None else np.linalg.lstsq(design, b0.ravel(), rcond=None)[0]


problems = {
    "free": st.booleans(),
    "n_times": st.integers(min_value=2, max_value=8),
    "noise": st.floats(min_value=1e-3, max_value=1e-2),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**problems)
def test_gauss_newton_cost_never_above_lbfgs(free, n_times, noise, seed):
    design, rt, ts, ps = _problem(free, n_times, noise, seed)
    x0 = _start(design, rt, ts, ps)
    report = gauss_newton_fit(design, rt, ts, ps, x0)
    optimizer = report.extras["optimizer"]
    assert report.converged
    assert optimizer["expm_frechet_evaluations"] == 0
    assert report.iterations == optimizer["gauss_newton_iterations"] > 0
    assert optimizer["evaluations"] == optimizer["gauss_newton_iterations"] + 1
    # the reported cost is the Pade cost at the estimate, bit for bit
    assert pade_cost(report.estimate.matrix, ts, ps) == report.cost
    ref = lbfgs_reference(design, rt, ts, ps, x0)
    assert report.cost <= ref.fun * (1 + 1e-12)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(**problems)
# the Hermitian data come from another dissipator: a large-residual problem,
# where Gauss-Newton converges only linearly
@example(free=False, n_times=6, noise=0.0078125, seed=1)
def test_defective_start_converges_on_frechet_columns(free, n_times, noise, seed):
    # a Jordan block -gamma I + gamma E_43 has cond(V) far above 1e6
    jordan = -np.eye(9)
    jordan[4, 3] += 1.0
    design, _, ts, ps = _problem(free, n_times, noise, seed)
    if free:
        rt, x0 = None, jordan.ravel()
    else:  # B(0) = 0, so the start's generator is -rt
        rt, x0 = -jordan, np.zeros(9)
    report = gauss_newton_fit(design, rt, ts, ps, x0)
    optimizer = report.extras["optimizer"]
    assert report.converged
    assert optimizer["expm_frechet_evaluations"] > 0
    assert report.iterations == optimizer["gauss_newton_iterations"]
    assert optimizer["evaluations"] == optimizer["gauss_newton_iterations"] + 1
    assert pade_cost(report.estimate.matrix, ts, ps) == report.cost
    assert report.cost <= lbfgs_reference(design, rt, ts, ps, x0).fun * (1 + 1e-12)
    if not free:  # the trace of H stays at that of x0, 0
        _, s, vt = np.linalg.svd(design)
        np.testing.assert_allclose(vt[s < 1e-10 * s[0]] @ report.params, 0, atol=1e-12)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_times=problems["n_times"],
    noise=problems["noise"],
    seed=problems["seed"],
    trace=st.floats(min_value=-5.0, max_value=5.0),
)
def test_hermitian_fit_keeps_the_null_space_component_of_x0(n_times, noise, seed, trace):
    design, rt, ts, ps = _problem(False, n_times, noise, seed)
    _, s, vt = np.linalg.svd(design)
    null = vt[s < 1e-10 * s[0]]
    assert null.shape == (1, 9)
    x0 = _start(design, rt, ts, ps) + trace * null[0]
    report = gauss_newton_fit(design, rt, ts, ps, x0)
    assert report.converged
    np.testing.assert_allclose(null @ report.params, null @ x0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [[60, 10], [60, 19]])
def test_noiseless_fit_at_its_rounding_level_converges(seed):
    # noiseless data with ||G t||_F near 20 at t = 2: the cost levels off near
    # 1e-25, the rounding of expm at that norm, not of ||P||; a floor without
    # the growth in ||G t|| kept both fits stepping to the end of the budget
    design = _hermitian_design()
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=9)
    x0 = theta + 3.0 * rng.normal(size=9)
    ts = np.array([0.5, 1.0, 2.0])
    ps = scipy.linalg.expm((design @ theta).reshape(9, 9) * ts[:, None, None])
    report = gauss_newton_fit(design, None, ts, ps, x0)
    assert report.cost < 1e-20
    assert report.converged
    assert report.iterations < estimation.GN_MAX_ITERS


@settings(derandomize=True, max_examples=20, deadline=None)
@given(**problems)
def test_one_step_budget_is_not_converged(free, n_times, noise, seed):
    design, rt, ts, ps = _problem(free, n_times, noise, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "GN_MAX_ITERS", 1)
        report = _fit(design, rt, ts, ps)
    optimizer = report.extras["optimizer"]
    assert report.converged is False
    assert optimizer["gauss_newton_iterations"] == 1
    assert np.isfinite(report.cost)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_times=problems["n_times"],
    seed=problems["seed"],
)
def test_free_form_step_equals_the_identity_design_step(n_times, seed):
    # the free form's normal equations, built in the eigenbasis, give the
    # damped least-squares step of the per-column Jacobian of the identity
    # design
    rng = np.random.default_rng(seed)
    gens = 0.3 * rng.normal(size=(1, 9, 9))
    ts = DT * np.arange(1, n_times + 1)[None]
    resid = 1e-2 * rng.normal(size=(1, n_times, 9, 9))
    for damping in (0.0, 1e-3, 1.0):
        args = gens, ts, resid, np.array([damping])
        free, _ = estimation._gauss_newton_step(None, *args)
        columns, _ = estimation._gauss_newton_step(np.eye(81), *args)
        np.testing.assert_allclose(free, columns, rtol=0, atol=1e-10 * np.abs(columns).max())


@settings(derandomize=True, max_examples=20, deadline=None)
@given(known_form=st.booleans(), seed=problems["seed"])
def test_damped_step_solves_the_levenberg_equations(known_form, seed):
    # J shares the design's null space (the trace of H in the Hermitian
    # form); undamped, the step is pinv(J) r bit for bit, and damped it
    # solves (J^T J + mu I) d = J^T r with mu = damping tr(J^T J) / P
    design = _field_design() if known_form else _hermitian_design()
    rng = np.random.default_rng(seed)
    jac = rng.normal(size=(2, 162, 81)) @ design
    resid = rng.normal(size=(2, 2, 9, 9))
    r = resid.reshape(2, -1, 1)
    undamped = estimation._lm_solve(jac, resid, np.zeros(2))
    pinv = np.linalg.pinv(jac, rcond=estimation.GN_PINV_RCOND)
    assert np.array_equal(undamped, (pinv @ r)[..., 0])
    damping = np.array([1e-3, 1.0])
    gram = jac.transpose(0, 2, 1) @ jac
    mu = damping * np.trace(gram, axis1=1, axis2=2) / design.shape[1]
    lhs = gram + mu[:, None, None] * np.eye(design.shape[1])
    ref = np.linalg.solve(lhs, jac.transpose(0, 2, 1) @ r)[..., 0]
    damped = estimation._lm_solve(jac, resid, damping)
    np.testing.assert_allclose(damped, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
