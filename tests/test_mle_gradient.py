"""The Jacobian of the Gauss-Newton step and its gradient.

The Daleckii-Krein Jacobian (``_dk_jacobian``) and the free form's
gradient J^T r (``_frechet_adjoint``) are checked against central finite
differences and against the exact Frechet columns of ``_frechet_jacobian``,
on the generators where they are hardest: degenerate, nearly degenerate
and random non-unital GKS ones.  The exact columns themselves are checked
against ``scipy.linalg.expm_frechet`` per time and direction, also on a
defective generator, where the step takes them.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pade_cost, random_hermitian
from liouvlab.basis import build_basis
from liouvlab.dynamics import _eigvec_inverse
from liouvlab.estimation import (
    _directions,
    _dk_jacobian,
    _frechet_adjoint,
    _frechet_jacobian,
    _gauss_newton_step,
    _lm_solve,
    _t_phi,
)
from liouvlab.superop import (
    _field_design,
    _hermitian_design,
    dissipator_superop,
    hamiltonian_superop,
)
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import reconstruct_processes


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


def _eigen(lmat):
    lam, v = np.linalg.eig(lmat[None])
    vinv, ok = _eigvec_inverse(v)
    assert ok[0]
    return lam, v, vinv


def _dk(design, lmat, ts):
    """The Daleckii-Krein Jacobian (T n^2, P) of one generator."""
    dirs = _directions(design, len(lmat))
    return _dk_jacobian(dirs, *_eigen(lmat), ts[None])[0]


def _per_time_columns(design, lmat, ts):
    """D exp(L t)[E_p t] from ``scipy.linalg.expm_frechet``, one call per time and direction."""
    dirs = _directions(design, len(lmat))
    cols = [
        [scipy.linalg.expm_frechet(lmat * t, e * t)[1].ravel() for e in dirs] for t in ts
    ]
    return np.concatenate([np.array(c).T for c in cols])


def _assert_eig_matches_frechet(lmat, ts, ps):
    # the Jacobian of every entry and the free-form gradient J^T r
    exact = _frechet_jacobian(_directions(None, len(lmat)), lmat[None], ts[None])[0]
    assert _rel(_dk(None, lmat, ts), exact) < 1e-10
    lam, v, vinv = _eigen(lmat)
    resid = scipy.linalg.expm(lmat * ts[:, None, None]) - ps
    grad = _frechet_adjoint(v[0], vinv[0], _t_phi(lam[0], ts), resid)
    assert _rel(grad.ravel(), exact.T @ resid.ravel()) < 1e-10


# ---------------------------------------------------------------------------
# finite differences, per parametrization
# ---------------------------------------------------------------------------


def _processes(kind, n_times):
    ds = generate_dataset(make_scenario(kind), NoiseSpec(bloch_sigma=0.004, seed=70))
    mats, durations = reconstruct_processes(ds)
    return durations[:n_times], mats[:n_times]


def _check_finite_differences(build, design, theta, ts, ps):
    """Central differences of the cost against 2 J^T r along three random directions."""
    lmat = build(theta)
    resid = (scipy.linalg.expm(lmat * ts[:, None, None]) - ps).ravel()
    if design is None:
        lam, v, vinv = _eigen(lmat)
        errs = resid.reshape(ps.shape)
        grad = 2.0 * _frechet_adjoint(v[0], vinv[0], _t_phi(lam[0], ts), errs).ravel()
    else:
        grad = 2.0 * _dk(design, lmat, ts).T @ resid
    rng = np.random.default_rng(71)
    for _ in range(3):
        direction = rng.normal(size=theta.shape)
        h = 1e-6 * np.linalg.norm(theta) / np.linalg.norm(direction)
        up = pade_cost(build(theta + h * direction), ts, ps)
        down = pade_cost(build(theta - h * direction), ts, ps)
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
    design = _hermitian_design() if form == "hermitian" else _field_design()
    rng = np.random.default_rng(73)
    theta = 2e4 * rng.normal(size=design.shape[1])
    _check_finite_differences(
        lambda th: (design @ th).reshape(9, 9) - rt, design, theta, ts, ps
    )


# ---------------------------------------------------------------------------
# the eigendecomposition path against the exact Frechet columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_eig_gradient_matches_frechet_on_gks_generators(d, seed):
    rng = np.random.default_rng([74, d, seed])
    lmat = _gks_generator(rng, d)
    ts = np.sort(rng.uniform(0.05, 1.0, size=4))
    _assert_eig_matches_frechet(lmat, ts, _data(rng, d, ts))


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
    for design in (None, _hermitian_design()):
        exact = _frechet_jacobian(_directions(design, 9), lmat[None], ts[None])[0]
        assert _rel(exact, _per_time_columns(design, lmat, ts)) < 1e-13
    # the step of a defective generator is the least-squares step on these columns
    resid = (scipy.linalg.expm(lmat * ts[:, None, None]) - ps)[None]
    step, defective = _gauss_newton_step(None, lmat[None], ts[None], resid, np.zeros(1))
    assert defective[0] == (case is _jordan_block_case)
    if defective[0]:
        jac = _frechet_jacobian(_directions(None, 9), lmat[None], ts[None])
        assert np.array_equal(step, _lm_solve(jac, resid, np.zeros(1)))
        ref = np.linalg.lstsq(_per_time_columns(None, lmat, ts), resid.ravel(), rcond=None)[0]
        assert _rel(step[0], ref) < 1e-8


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
    _assert_eig_matches_frechet(lmat, ts, _data(rng, d, ts))
