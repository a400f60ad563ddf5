"""The exact MLE gradient.

The eigendecomposition (Daleckii-Krein) path is checked against central
finite differences, against the per-time ``expm_frechet`` formula written
out here, and on the generators where it is hardest: degenerate, nearly
degenerate and defective ones.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from liouvlab.basis import build_basis
from liouvlab.estimation import (
    _cost_and_matrix_grad,
    _eig,
    _field_design,
    _hermitian_design,
    _spin_generators,
)
from liouvlab.superop import dissipator_superop, hamiltonian_superop
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import reconstruct_processes


def _frechet_cost_and_grad(lmat, ts, ps):
    """sum_n ||exp(L t_n) - P_n||^2 and sum_n 2 t_n D_exp((L t_n)^T)[E_n]."""
    cost = 0.0
    grad = np.zeros_like(lmat)
    for t, p in zip(ts, ps):
        a = lmat * t
        err = scipy.linalg.expm(a) - p
        cost += float((err * err).sum())
        _, fre = scipy.linalg.expm_frechet(a.T, err)
        grad += (2.0 * t) * fre
    return cost, grad


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _gks_generator(rng, d) -> np.ndarray:
    """Random Lindblad-form generator with two non-Hermitian jump operators.

    The jumps make it non-unital: an O(1) last column beside a last row of
    rounding noise.
    """
    basis = build_basis(d)
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
    hc = hamiltonian_superop(random_hermitian(rng, d), basis).matrix
    return hc - 0.3 * dissipator_superop(jumps, basis).matrix


def _data(rng, d, ts):
    """Targets exp(L' t_n) of another random generator: a non-optimal point."""
    other = _gks_generator(rng, d)
    return np.stack([scipy.linalg.expm(other * t) for t in ts])


def _assert_eig_matches_frechet(lmat, ts, ps):
    cost, grad, used_frechet = _cost_and_matrix_grad(lmat, ts, ps)
    ref_cost, ref_grad = _frechet_cost_and_grad(lmat, ts, ps)
    assert not used_frechet
    assert cost == ref_cost
    assert _rel(grad, ref_grad) < 1e-10


# ---------------------------------------------------------------------------
# finite differences, per parametrization
# ---------------------------------------------------------------------------


def _processes(kind, n_times):
    ds = generate_dataset(make_scenario(kind), NoiseSpec(bloch_sigma=0.004, seed=70))
    pms = reconstruct_processes(ds)[:n_times]
    return np.array([pm.duration_s for pm in pms]), np.stack([pm.matrix for pm in pms])


def _check_finite_differences(build, design, theta, ts, ps):
    """Central differences of the cost along three random directions."""
    _, grad_l, used_frechet = _cost_and_matrix_grad(build(theta), ts, ps)
    assert not used_frechet
    grad = grad_l.ravel() if design is None else design.T @ grad_l.ravel()
    rng = np.random.default_rng(71)
    for _ in range(3):
        direction = rng.normal(size=theta.shape)
        h = 1e-6 * np.linalg.norm(theta) / np.linalg.norm(direction)
        up = _cost_and_matrix_grad(build(theta + h * direction), ts, ps)[0]
        down = _cost_and_matrix_grad(build(theta - h * direction), ts, ps)[0]
        fd = (up - down) / (2.0 * h)
        assert fd == pytest.approx(grad @ direction, rel=1e-6)


def test_gradient_finite_differences_free():
    ts, ps = _processes("relaxation_only", 6)
    rng = np.random.default_rng(72)
    truth = make_scenario("relaxation_only").liouvillian(0.0).matrix
    theta = (truth * (1.0 + 0.05 * rng.normal(size=truth.shape))).ravel()
    _check_finite_differences(lambda th: th.reshape(9, 9), None, theta, ts, ps)


@pytest.mark.parametrize("form", ["hermitian", "fields"])
def test_gradient_finite_differences_constrained(form):
    ts, ps = _processes("static_quadratic_zeeman", 5)
    rt = DEFAULT_RELAXATION.superoperator().matrix
    design = _hermitian_design() if form == "hermitian" else _field_design(_spin_generators())
    rng = np.random.default_rng(73)
    theta = 2e4 * rng.normal(size=design.shape[1])
    _check_finite_differences(
        lambda th: (design @ th).reshape(9, 9) - rt, design, theta, ts, ps
    )


# ---------------------------------------------------------------------------
# the eigendecomposition path against expm_frechet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_eig_gradient_matches_frechet_on_gks_generators(d, seed):
    rng = np.random.default_rng([74, d, seed])
    lmat = _gks_generator(rng, d)
    ts = np.sort(rng.uniform(0.05, 1.0, size=4))
    _assert_eig_matches_frechet(lmat, ts, _data(rng, d, ts))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_eigendecomposition_residual_of_non_unital_generators(d):
    # a balanced np.linalg.eig leaves relative residuals of 1e-12 to 1e-10
    # on these generators (d = 4), enough to move the gradient
    for seed in range(4):
        lmat = _gks_generator(np.random.default_rng([80, d, seed]), d)
        lam, v = _eig(lmat)
        resid = np.abs(lmat @ v - v * lam).max()
        assert resid <= 1e-13 * np.abs(lmat).max()
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0)


def test_eig_gradient_exactly_degenerate():
    # isotropic decay: eigenvalue -gamma of multiplicity 8, and 0
    lmat = -np.diag([1.0] * 8 + [0.0])
    rng = np.random.default_rng(75)
    ts = np.array([0.1, 0.4, 0.9])
    _assert_eig_matches_frechet(lmat, ts, _data(rng, 3, ts))


def test_eig_gradient_nearly_degenerate_normal():
    rng = np.random.default_rng(76)
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    lam = -np.array([1.0, 1.0 + 1e-9, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 0.0])
    lmat = (q * lam) @ q.T
    ts = np.array([0.1, 0.4, 0.9])
    _assert_eig_matches_frechet(lmat, ts, _data(rng, 3, ts))


def _jordan_block_case():
    ts = np.array([0.1, 0.4, 0.9])
    return -np.eye(9) + np.diag(np.ones(8), 1), ts, _data(np.random.default_rng(77), 3, ts)


def _single_time_case():
    rng = np.random.default_rng(78)
    lmat = _gks_generator(rng, 3)
    ts = np.array([0.3])
    return lmat, ts, _data(rng, 3, ts)


@pytest.mark.parametrize("case", [_jordan_block_case, _single_time_case])
def test_frechet_path_is_the_per_time_formula(case):
    lmat, ts, ps = case()
    cost, grad, used_frechet = _cost_and_matrix_grad(lmat, ts, ps)
    ref_cost, ref_grad = _frechet_cost_and_grad(lmat, ts, ps)
    assert used_frechet
    assert cost == ref_cost
    assert np.array_equal(grad, ref_grad)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    times=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_eig_gradient_matches_frechet_property(d, times, seed):
    rng = np.random.default_rng(seed)
    lmat = _gks_generator(rng, d)
    ts = np.array(sorted(times))
    ps = _data(rng, d, ts)
    cost, grad, _ = _cost_and_matrix_grad(lmat, ts, ps)
    ref_cost, ref_grad = _frechet_cost_and_grad(lmat, ts, ps)
    assert cost == ref_cost
    assert _rel(grad, ref_grad) < 1e-10
