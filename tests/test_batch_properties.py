"""A batch of bootstrap draws gives each draw what it gets alone.

The draw fits run the reconstruction and log kernels once over a batch of
draws, with a leading draw axis.  Every matrix is treated by itself there,
so each draw's slice must equal the kernel's result for that draw alone bit
for bit, and a failing draw must fail the batch with the error it raises
alone.  The same holds for the draw fit of each model, ``fit_draws``.  Random draws are noisy chains of propagators of random GKS
generators for d = 2..4, with singular, branch-cut, defective and
near-defective matrices planted at random places.
"""

import warnings

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab.basis import build_basis, coords_of
from liouvlab.dynamics import _principal_logs
from liouvlab.estimation import fit_draws
from liouvlab.exceptions import LiouvlabError
from liouvlab.synthlab import DEFAULT_RELAXATION
from liouvlab.superop import LindbladModel
from liouvlab.tomography import _processes, _steps

from conftest import random_density_matrix, random_hermitian

dims = st.integers(min_value=2, max_value=4)
draws = st.integers(min_value=2, max_value=4)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_gks(rng, d) -> np.ndarray:
    jumps = [0.3 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
    return LindbladModel(random_hermitian(rng, d), jumps).liouvillian().matrix


def _singular(n):
    m = np.eye(n)
    m[0, 0] = 0.0
    return m


def _at_the_cut(n):
    m = np.eye(n)
    m[0, 0] = -1.0  # the eigenvalue -1 lies on the branch cut
    return m


def _defective(n):
    m = np.eye(n)
    m[0, 1] = 0.5  # a Jordan block: the eigenvectors are parallel
    return m


def _near_defective(n):
    m = _defective(n)
    m[1, 1] += 1e-9  # diagonalizable, with cond_F(V) near 1e9: the logm fallback
    return m


PLANTED = {f.__name__: f for f in (_singular, _at_the_cut, _defective, _near_defective)}


def _times(rng, n_times):
    return np.cumsum(rng.uniform(0.05, 0.2, n_times))


def _described(errors: dict) -> dict:
    return {k: (type(err), str(err)) for k, err in errors.items()}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, m=draws, n_times=st.integers(min_value=1, max_value=4), data=st.data(),
       seed=seeds)
def test_batch_logs_equal_the_logs_of_each_draw(d, m, n_times, data, seed):
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    mats = np.stack([
        scipy.linalg.expm(_random_gks(rng, d) * times[:, None, None]) for _ in range(m)
    ])
    plants = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(PLANTED)),
        st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=n_times - 1),
    ), max_size=4), label="planted")
    for kind, j, k in plants:
        mats[j, k] = PLANTED[kind](d * d)
    logs, errors = _principal_logs(mats, times)
    assert all(isinstance(key, tuple) for key in errors)
    for j in range(m):
        alone, alone_errors = _principal_logs(mats[j], times)
        assert np.array_equal(logs[j], alone, equal_nan=True)
        assert _described({k: e for (i, k), e in errors.items() if i == j}) == (
            _described(alone_errors)
        )


def _random_draws(rng, d, m, times, extra):
    """An (m, T+1, d**2, N) batch: random input states, then their noisy images
    under the propagators of a random GKS generator, one generator per draw."""
    basis = build_basis(d)
    batch = []
    for _ in range(m):
        states = [random_density_matrix(rng, d) for _ in range(d * d + extra)]
        inputs = np.column_stack([coords_of(s.entries, basis) for s in states])
        outputs = scipy.linalg.expm(_random_gks(rng, d) * times[:, None, None]) @ inputs
        outputs[:, :-1] += 1e-3 * rng.normal(size=outputs[:, :-1].shape)
        batch.append(np.concatenate([inputs[None], outputs]))
    return np.stack(batch)


def _outcome(kernel, states):
    try:
        return kernel(states)
    except LiouvlabError as err:
        return err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, m=draws, n_times=st.integers(min_value=1, max_value=4),
       extra=st.integers(min_value=0, max_value=3), data=st.data(), seed=seeds)
def test_batch_reconstruction_equals_each_draw(d, m, n_times, extra, data, seed):
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    states = _random_draws(rng, d, m, times, extra)
    collapsed = data.draw(st.none() | st.tuples(
        st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=n_times),
    ), label="collapsed state matrix")
    if collapsed is not None:  # every state the same: rank 1
        j, k = collapsed
        states[j, k] = states[j, k][:, :1]
    kernels = {"processes": _processes, "steps": lambda s: _steps(s, times)[0]}
    for name, kernel in kernels.items():
        batch = _outcome(kernel, states)
        alone = [_outcome(kernel, states[j : j + 1]) for j in range(m)]
        failed = [out for out in alone if isinstance(out, Exception)]
        if failed:  # the batch raises what its first failing draw raises alone
            assert (type(batch), str(batch)) == (type(failed[0]), str(failed[0])), name
        else:
            for j in range(m):
                assert np.array_equal(batch[j], alone[j][0]), (name, j)


# the draw fits: (model, known_form)
DRAW_FITS = [("relaxation", True), ("hermitian", True), ("fields", True), ("fields", False)]


def _draw_fit_outcome(states, times, model, known_form):
    try:
        with warnings.catch_warnings():  # a Hermitian fit warns of each time it skips
            warnings.simplefilter("ignore")
            return fit_draws(states, times, model, DEFAULT_RELAXATION.superoperator(), known_form)
    except (LiouvlabError, np.linalg.LinAlgError) as err:
        return err


@settings(derandomize=True, max_examples=40, deadline=None)
@given(m=draws, n_times=st.integers(min_value=1, max_value=4),
       extra=st.integers(min_value=0, max_value=3), data=st.data(), seed=seeds)
def test_batch_draw_fit_equals_each_draw_fitted_alone(m, n_times, extra, data, seed):
    rng = np.random.default_rng(seed)
    times = _times(rng, n_times)
    states = _random_draws(rng, 3, m, times, extra)
    plants = data.draw(st.lists(st.tuples(
        st.sampled_from(["collapsed", "flipped"]),
        st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=n_times),
    ), max_size=2), label="planted")
    for kind, j, k in plants:
        if kind == "collapsed":  # every state the same: rank 1
            states[j, k] = states[j, k][:, :1]
        else:  # the map from the inputs gets the eigenvalue -1, on the branch cut
            states[j, k] = np.diag([-1.0] + [1.0] * 8) @ states[j, 0]
    for model, known_form in DRAW_FITS:
        batch = _draw_fit_outcome(states, times, model, known_form)
        alone = [_draw_fit_outcome(states[j : j + 1], times, model, known_form) for j in range(m)]
        failed = [out for out in alone if isinstance(out, Exception)]
        if failed:  # the batch raises what its first failing draw raises alone
            assert (type(batch), str(batch)) == (type(failed[0]), str(failed[0])), model
        else:
            for j in range(m):
                assert np.array_equal(batch[j], alone[j][0]), (model, j)
