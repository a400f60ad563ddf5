"""Properties of the principal logarithm and of its eigenvector guard.

Random generators are GKS (Lindblad) generators of d = 2..6 levels: a
random Hermitian Hamiltonian plus two random jump operators.  The
eigenvector guard ``_eigvec_inverse`` is checked against numpy's 2-norm
condition and against a stack with one exactly singular eigenvector matrix.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab.basis import build_basis
from liouvlab.dynamics import (
    BRANCH_TOL,
    EIGVEC_COND_MAX,
    GREGORY_RADIUS,
    _eigvec_inverse,
    _log_stack,
    principal_log,
    propagator,
)
from liouvlab.exceptions import BranchCutError
from liouvlab.superop import LindbladModel, hamiltonian_superop

from conftest import random_hermitian

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
MIN_MARGIN = 1e-3  # radians from the branch cut


def _random_gks(rng, d):
    jumps = [0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
    return LindbladModel(random_hermitian(rng, d), jumps).liouvillian()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(d=dims, seed=seeds, frac=st.floats(min_value=0.01, max_value=1.0))
def test_log_of_propagator_recovers_the_generator(d, seed, frac):
    l = _random_gks(np.random.default_rng(seed), d)
    # the largest rotation angle |Im lambda| t stays MIN_MARGIN below pi
    max_im = np.abs(np.linalg.eigvals(l.matrix).imag).max()
    t = frac * (np.pi - MIN_MARGIN) / max_im
    recovered = principal_log(propagator(l, t)).matrix / t
    np.testing.assert_allclose(recovered, l.matrix, rtol=0, atol=1e-9)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    d=dims,
    seed=seeds,
    push=st.floats(min_value=-0.5 * BRANCH_TOL, max_value=0.5 * BRANCH_TOL),
)
def test_rotation_pushed_onto_the_cut_raises(d, seed, push):
    h = random_hermitian(np.random.default_rng(seed), d)
    energies = np.linalg.eigvalsh(h)
    # the extreme levels rotate by pi - push, within BRANCH_TOL of the cut
    t = (np.pi - push) / (energies[-1] - energies[0])
    pm = propagator(hamiltonian_superop(h, build_basis(d)), t)
    with pytest.raises(BranchCutError):
        principal_log(pm)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, seed=seeds, defect=st.floats(min_value=0.0, max_value=12.0))
def test_frobenius_condition_bounds_the_two_norm_condition(d, seed, defect):
    rng = np.random.default_rng(seed)
    n = d * d
    # a shift scaled by 10**defect pulls eigenvectors together (near-defective)
    a = rng.normal(size=(n, n)) + 10.0**defect * np.eye(n, k=1)
    _, v = np.linalg.eig(a)
    vinv, ok = _eigvec_inverse(v[None])
    cond_f = np.linalg.norm(v) * np.linalg.norm(vinv[0])
    assert cond_f >= np.linalg.cond(v) * (1.0 - 1e-12)
    assert ok[0] == (cond_f < EIGVEC_COND_MAX)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    seed=seeds,
    n_near=st.integers(min_value=1, max_value=3),
    n_far=st.integers(min_value=1, max_value=3),
)
def test_stack_across_the_gregory_radius_logs_each_matrix_alone(d, seed, n_near, n_far):
    rng = np.random.default_rng(seed)
    l = _random_gks(rng, d)
    # near: ||L t||_1 <= log(1 + theta) bounds ||P - I||_1 by exp(||L t||_1) - 1 <= theta.
    # far: |lambda t| in [2, 3] for the largest eigenvalue, which has Re <= 0, gives
    # ||P - I||_1 >= |exp(lambda t) - 1| >= 1 - exp(-2) > theta, with every rotation
    # angle at most 3 < pi - MIN_MARGIN.  Near times stay above a tenth of t_near:
    # below that, logm's own error reaches 1e-12 of the log (a 40-digit log shows it)
    t_near = np.log1p(GREGORY_RADIUS) / np.abs(l.matrix).sum(axis=0).max()
    t_far = 1.0 / np.abs(np.linalg.eigvals(l.matrix)).max()
    times = rng.permutation(np.concatenate([
        t_near * rng.uniform(0.1, 1.0, n_near),
        t_far * rng.uniform(2.0, 3.0, n_far),
    ]))
    mats = np.stack([propagator(l, t).matrix for t in times])
    near = np.abs(mats - np.eye(d * d)).sum(axis=1).max(axis=1) <= GREGORY_RADIUS
    assert near.sum() == n_near
    logs = _log_stack(mats, times)
    for m, t, log in zip(mats, times, logs):
        np.testing.assert_array_equal(log, _log_stack(m[None], np.array([t]))[0])
        want = scipy.linalg.logm(m).real
        np.testing.assert_allclose(log, want, rtol=0, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(scipy.linalg.expm(log), m, rtol=0, atol=1e-13)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=seeds, size=st.integers(min_value=2, max_value=6), data=st.data())
def test_singular_eigenvectors_send_only_their_matrix_to_logm(seed, size, data):
    rng = np.random.default_rng(seed)
    planted = data.draw(st.integers(min_value=0, max_value=size - 1))
    # |lambda t| in [2, 3) for each generator's largest eigenvalue, which has Re <= 0,
    # gives ||P - I||_1 >= 1 - exp(-2) > theta: every matrix takes the eigen path
    stack = []
    for scale in 2.0 + np.arange(size) / size:
        l = _random_gks(rng, 3)
        stack.append(propagator(l, scale / np.abs(np.linalg.eigvals(l.matrix)).max()))
    assert all(np.abs(pm.matrix - np.eye(9)).sum(axis=0).max() > GREGORY_RADIUS for pm in stack)
    singles = [principal_log(pm).matrix for pm in stack]
    real_eig, real_logm = np.linalg.eig, scipy.linalg.logm
    logm_calls = []

    def planted_eig(mats):
        eigs, vecs = real_eig(mats)
        vecs[planted, :, 0] = 0.0  # an exactly singular eigenvector matrix
        return eigs, vecs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eig", planted_eig)
        mp.setattr(scipy.linalg, "logm", lambda m: logm_calls.append(m) or real_logm(m))
        stacked = _log_stack(
            np.stack([pm.matrix for pm in stack]), np.array([pm.duration_s for pm in stack])
        )
    assert len(logm_calls) == 1
    assert np.array_equal(logm_calls[0], stack[planted].matrix)
    for k, (got, want) in enumerate(zip(stacked, singles)):
        if k != planted:
            np.testing.assert_array_equal(got, want)
    np.testing.assert_allclose(stacked[planted], singles[planted], rtol=0, atol=1e-12)

