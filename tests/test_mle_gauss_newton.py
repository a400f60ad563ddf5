"""The Gauss-Newton path of many-time ``mle_liouvillian`` fits.

Every fit with two or more times runs Gauss-Newton first and L-BFGS only
as its fallback.  On random noisy problems (free and Hermitian forms) the
Gauss-Newton cost is never above an L-BFGS reference built here from the
package's cost and gradient, a defective start is handed to L-BFGS and
returns its result bit for bit, the Hermitian fit never moves the trace of
H, and an exhausted step budget is reported as not converged.
"""

import numpy as np
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab import estimation
from liouvlab.estimation import _cost_and_matrix_grad, mle_liouvillian
from liouvlab.superop import Superoperator, _hermitian_design
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


def _fit(design, rt, ts, ps, **kwargs):
    return mle_liouvillian(
        list(zip(ts, ps)),
        form="free" if design is None else "hermitian",
        dissipator=None if rt is None else Superoperator(dim=3, matrix=rt),
        **kwargs,
    )


def _start(design, rt, ts, ps):
    """A start near the optimum: the projected log at the earliest time."""
    log = scipy.linalg.logm(ps[0]).real / ts[0]
    b0 = log if rt is None else log + rt
    return b0.ravel() if design is None else np.linalg.lstsq(design, b0.ravel(), rcond=None)[0]


def _reference_fun(design, rt, ts, ps, counter):
    """The MLE cost and its gradient in the parameters, written from the package's kernel."""

    def fun(theta):
        b = theta.reshape(9, 9) if design is None else (design @ theta).reshape(9, 9)
        lmat = b if rt is None else b - rt
        cost, grad_l, _ = _cost_and_matrix_grad(lmat, ts, ps)
        counter.append(cost)
        return cost, grad_l.ravel() if design is None else design.T @ grad_l.ravel()

    return fun


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
    report = _fit(design, rt, ts, ps, x0=x0)
    optimizer = report.extras["optimizer"]
    assert optimizer["fallback"] is False
    assert report.converged
    assert report.iterations == optimizer["gauss_newton_iterations"] > 0
    assert optimizer["evaluations"] == optimizer["gauss_newton_iterations"] + 1
    # the reported cost is the Pade cost at the estimate, bit for bit
    assert _cost_and_matrix_grad(report.estimate.matrix, ts, ps)[0] == report.cost
    ref = scipy.optimize.minimize(
        _reference_fun(design, rt, ts, ps, []),
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": estimation.DEFAULT_MAX_ITERS, "ftol": 1e-16, "gtol": 1e-14},
    )
    assert report.cost <= ref.fun * (1 + 1e-12)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(**problems)
def test_defective_start_returns_the_lbfgs_result(free, n_times, noise, seed):
    # a Jordan block -gamma I + gamma E_43 has cond(V) far above 1e6
    jordan = -np.eye(9)
    jordan[4, 3] += 1.0
    design, _, ts, ps = _problem(free, n_times, noise, seed)
    if free:
        rt, x0 = None, jordan.ravel()
    else:  # B(0) = 0, so the start's generator is -rt
        rt, x0 = -jordan, np.zeros(9)
    report = _fit(design, rt, ts, ps, x0=x0)
    optimizer = report.extras["optimizer"]
    assert optimizer["fallback"] is True
    assert optimizer["gauss_newton_iterations"] == 0
    evaluations = []
    res, converged, restarts = estimation._lbfgs_fit(
        _reference_fun(design, rt, ts, ps, evaluations), x0, estimation.DEFAULT_MAX_ITERS, design
    )
    assert np.array_equal(report.params, res.x)
    assert report.cost == res.fun
    assert report.converged == converged
    assert optimizer["restarts"] == restarts
    assert report.iterations == res.nit
    # Gauss-Newton's one cost evaluation (at the start) is counted too
    assert optimizer["evaluations"] == len(evaluations) + 1


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
    report = _fit(design, rt, ts, ps, x0=x0)
    assert report.extras["optimizer"]["fallback"] is False
    np.testing.assert_allclose(null @ report.params, null @ x0, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(**problems)
def test_one_step_budget_is_not_converged(free, n_times, noise, seed):
    design, rt, ts, ps = _problem(free, n_times, noise, seed)
    report = _fit(design, rt, ts, ps, max_iters=1)
    optimizer = report.extras["optimizer"]
    assert report.converged is False
    assert optimizer["fallback"] is True
    assert optimizer["gauss_newton_iterations"] == 1
    assert np.isfinite(report.cost)



@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    n_times=problems["n_times"],
    seed=problems["seed"],
)
def test_free_form_step_equals_the_identity_design_step(n_times, seed):
    # the free form's normal equations, built in the eigenbasis, give the
    # least-squares step of the per-column Jacobian of the identity design
    rng = np.random.default_rng(seed)
    lam, v = np.linalg.eig(0.3 * rng.normal(size=(1, 9, 9)))
    ts = DT * np.arange(1, n_times + 1)[None]
    resid = 1e-2 * rng.normal(size=(1, n_times, 9, 9))
    free = estimation._gauss_newton_step(None, lam, v, ts, resid)
    columns = estimation._gauss_newton_step(np.eye(81), lam, v, ts, resid)
    np.testing.assert_allclose(free, columns, rtol=0, atol=1e-10 * np.abs(columns).max())
