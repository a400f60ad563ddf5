"""Properties of the bound relaxation fit, ``fit_relaxation_model``.

The fit is least squares over the seven relaxation params with the four
rates >= 0.  Its params are checked against scipy's bounded-variable least
squares (``lsq_linear(method="bvls")``; Stark & Parker, Comput. Stat. 10,
129 (1995)) on two kinds of target R_T: the matrix of a model with every rate
well above 0 plus a little noise, which holds no rate, and a planted target
whose bound fit holds one to four given rates at 0.  At a held rate the
gradient of the cost, A^T (A x - b), must point into the bound: its entry is
>= 0 (Karush-Kuhn-Tucker).  A stack of targets gets each row's fit alone, bit
for bit.
"""

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab.estimation import _bounded_relaxation_rows, _relaxation_design, fit_relaxation_model
from liouvlab.superop import Superoperator

seeds = st.integers(min_value=0, max_value=2**32 - 1)
held_sets = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4, unique=True)
RTOL = 1e-12


def _random_params(rng) -> np.ndarray:
    """Residual-field frequencies of either sign and rates well above 0."""
    return np.concatenate([rng.normal(0.0, 10.0, 3), rng.uniform(1.0, 30.0, 4)])


def _interior_target(rng) -> np.ndarray:
    """The flattened R_T of random params plus noise too small to take a rate to 0."""
    return _relaxation_design() @ _random_params(rng) + rng.normal(0.0, 0.05, 81)


def _planted_target(rng, held) -> tuple[np.ndarray, np.ndarray]:
    """A flattened R_T whose bound fit is exactly the returned params, with the rates
    ``held`` (0 = gamma_x .. 3 = gamma_iso) at 0: b = A p - A (A^T A)^-1 g + n,
    with g > 0 at the held rates and 0 elsewhere, and n orthogonal to the range of
    A, so that the gradient A^T (A p - b) is g."""
    design = _relaxation_design()
    params = _random_params(rng)
    rates = [3 + k for k in held]
    params[rates] = 0.0
    grad = np.zeros(7)
    grad[rates] = rng.uniform(1.0, 50.0, len(rates))
    noise = rng.normal(0.0, 1.0, 81)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    return design @ params - design @ np.linalg.solve(design.T @ design, grad) + noise, params


def _fit(target) -> np.ndarray:
    return fit_relaxation_model(Superoperator(dim=3, matrix=target.reshape(9, 9))).params


def _bvls(target) -> np.ndarray:
    lb = np.array([-np.inf] * 3 + [0.0] * 4)
    return scipy.optimize.lsq_linear(
        _relaxation_design(), target, bounds=(lb, np.inf), method="bvls"
    ).x


def _assert_close(params, ref):
    assert np.abs(params - ref).max() <= RTOL * np.abs(ref).max(), (params, ref)


def _assert_kkt(params, target):
    """Every rate >= 0, and the cost's gradient >= 0 at each rate held at 0."""
    design = _relaxation_design()
    grad = design.T @ (design @ params - target)
    held = np.flatnonzero(params == 0.0)
    assert params[3:].min() >= 0.0
    assert (grad[held] >= 0.0).all(), (held, grad)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=seeds)
def test_fit_of_a_target_with_no_rate_on_its_bound_is_bvls(seed):
    target = _interior_target(np.random.default_rng(seed))
    params = _fit(target)
    assert params[3:].min() > 0.0
    _assert_close(params, _bvls(target))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=seeds, held=held_sets)
def test_fit_of_a_planted_target_holds_its_rates_at_zero(seed, held):
    target, truth = _planted_target(np.random.default_rng(seed), held)
    params = _fit(target)
    assert np.array_equal(np.flatnonzero(params[3:] == 0.0), np.sort(held))
    _assert_close(params, truth)
    _assert_close(params, _bvls(target))
    _assert_kkt(params, target)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=seeds, data=st.data())
def test_a_stack_of_targets_fits_each_row_as_alone(seed, data):
    rng = np.random.default_rng(seed)
    helds = data.draw(st.lists(st.one_of(st.none(), held_sets), min_size=1, max_size=6))
    targets = np.stack([
        _interior_target(rng) if held is None else _planted_target(rng, held)[0]
        for held in helds
    ])
    batch = _bounded_relaxation_rows(targets)
    for target, row in zip(targets, batch):
        assert np.array_equal(row, _bounded_relaxation_rows(target[None])[0])
        _assert_kkt(row, target)
