"""Properties of the stacked Gram kernel behind every reconstruction.

Random input sets are full-rank sets of random density matrices in the
generalized Gell-Mann basis for d = 2..4; random processes keep the pinned
trace row (last row e_last), so their outputs are valid Bloch matrices.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouvlab.basis import build_basis, coords_of
from liouvlab.exceptions import CompletenessError
from liouvlab.tomography import (
    MAX_CONDITION,
    TomographySet,
    _gram_health,
    canonical_input_states,
    reconstruct_processes,
    stepwise_processes,
)

from conftest import random_density_matrix

dims = st.integers(min_value=2, max_value=4)
# Gram condition of the state matrices below which a noiseless reconstruction
# is exact to 1e-10: its rounding error grows as eps times the condition, and
# random sets of d**2 states can come near MAX_CONDITION
WELL_CONDITIONED = 1e6
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random_inputs(rng, d, extra):
    basis = build_basis(d)
    states = [random_density_matrix(rng, d) for _ in range(d * d + extra)]
    return np.column_stack([coords_of(s.entries, basis) for s in states])


def _random_process(rng, d, scale):
    n2 = d * d
    p = np.eye(n2) + scale * rng.normal(size=(n2, n2))
    p[-1] = np.eye(n2)[-1]
    return p


def _near_degenerate_inputs(basis3):
    # nine independent canonical states, the last moved to within 1e-5 of
    # another: full rank, with a Gram condition of about 1.4e11
    cols = np.column_stack([coords_of(s.entries, basis3) for s in canonical_input_states()])
    chosen = []
    for k in range(cols.shape[1]):
        if np.linalg.matrix_rank(cols[:, chosen + [k]]) == len(chosen) + 1:
            chosen.append(k)
    m = cols[:, chosen[:9]].copy()
    m[:, 8] = m[:, 7] + 1e-5 * (m[:, 8] - m[:, 7])
    return m


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=4),
       n_times=st.integers(min_value=1, max_value=4), seed=seeds)
def test_reconstruct_processes_exact_on_noiseless_data(d, extra, n_times, seed):
    rng = np.random.default_rng(seed)
    inputs = _random_inputs(rng, d, extra)
    times = 0.1 * np.arange(1, n_times + 1)
    truth = np.stack([_random_process(rng, d, 0.5) for _ in times])
    ts = TomographySet(states=np.stack([inputs, *(truth @ inputs)]), times=times)
    mats, durations = reconstruct_processes(ts)
    assert np.array_equal(durations, times)
    np.testing.assert_allclose(mats, truth, rtol=0, atol=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=4),
       n_steps=st.integers(min_value=1, max_value=6), seed=seeds)
def test_stepwise_processes_exact_on_noiseless_chains(d, extra, n_steps, seed):
    rng = np.random.default_rng(seed)
    states = [_random_inputs(rng, d, extra)]
    truth = []
    for _ in range(n_steps):
        truth.append(_random_process(rng, d, 0.2))
        states.append(truth[-1] @ states[-1])
    assume(_gram_health(np.stack(states))[1].max() < WELL_CONDITIONED)
    times = 0.5 * np.arange(1, n_steps + 1)
    mats, durations = stepwise_processes(TomographySet(states=np.stack(states), times=times))
    assert durations.tolist() == [0.5] * n_steps
    np.testing.assert_allclose(mats, truth, rtol=0, atol=1e-10)


def _random_set(rng, d, extra, n_times) -> TomographySet:
    """A set of noisy outputs of a chain of random processes at random increasing times."""
    states = [_random_inputs(rng, d, extra)]
    for _ in range(n_times):
        state = _random_process(rng, d, 0.2) @ states[-1]
        state[:-1] += 1e-3 * rng.normal(size=state[:-1].shape)
        states.append(state)
    return TomographySet(states=np.stack(states), times=np.cumsum(rng.uniform(0.1, 1.0, n_times)))


def _bits(ts: TomographySet) -> tuple:
    return ts.states.shape, ts.states.tobytes(), ts.times.tobytes()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=3),
       n_times=st.integers(min_value=1, max_value=6), data=st.data(), seed=seeds)
def test_set_order_does_not_depend_on_insertion_order(d, extra, n_times, data, seed):
    # from_json sorts the outputs of a file, in whatever key order, into time
    # order, and reads back what to_json wrote bit for bit
    ts = _random_set(np.random.default_rng(seed), d, extra, n_times)
    obj = ts.to_json()
    order = data.draw(st.permutations(list(obj["outputs"])), label="insertion order")
    shuffled = {**obj, "outputs": {t: obj["outputs"][t] for t in order}}
    for text in (obj, shuffled):
        back = TomographySet.from_json(json.loads(json.dumps(text)))
        assert _bits(back) == _bits(ts)
        assert back.to_json() == obj


@settings(derandomize=True, max_examples=20, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=3),
       n_times=st.integers(min_value=1, max_value=4), seed=seeds)
def test_set_views_cannot_disagree_after_construction(d, extra, n_times, seed):
    ts = _random_set(np.random.default_rng(seed), d, extra, n_times)
    before = _bits(ts)
    for arr in (ts.states, ts.times, ts.inputs):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for name in ("states", "times", "inputs", "dim", "outputs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ts, name, None)
    assert _bits(ts) == before
    # every view reads the one stack and the one times array
    assert not hasattr(ts, "outputs")
    assert np.shares_memory(ts.inputs, ts.states) and np.array_equal(ts.inputs, ts.states[0])
    assert ts.dim == d and ts.states.shape == (n_times + 1, d * d, d * d + extra)
    obj = ts.to_json()
    assert obj["times_s"] == ts.times.tolist() == [float(t) for t in obj["outputs"]]
    assert np.array_equal(np.swapaxes(list(obj["outputs"].values()), 1, 2),
                          ts.states[1:])
    assert np.array_equal(np.transpose(obj["inputs"]), ts.inputs)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, n_steps=st.integers(min_value=2, max_value=6), data=st.data(), seed=seeds)
def test_stepwise_names_the_rank_deficient_step(d, n_steps, data, seed):
    # step k takes the state matrix at time k as its input; collapsing that
    # matrix to one repeated state fails step k, and no earlier step
    bad = data.draw(st.integers(min_value=1, max_value=n_steps - 1), label="bad step")
    rng = np.random.default_rng(seed)
    inputs = _random_inputs(rng, d, 2)
    states = [inputs]
    for _ in range(n_steps):
        states.append(_random_process(rng, d, 0.2) @ states[-1])
    states[bad] = np.tile(states[bad][:, :1], (1, inputs.shape[1]))
    times = np.arange(1.0, n_steps + 1)
    with pytest.raises(CompletenessError) as err:
        stepwise_processes(TomographySet(states=np.stack(states), times=times))
    assert f"step {bad} (" in str(err.value)
    assert err.value.rank == 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=4),
       decades=st.lists(st.floats(min_value=0.0, max_value=18.0), min_size=1, max_size=5),
       seed=seeds)
def test_gram_health_matches_numpy(d, extra, decades, seed):
    # singular values spaced evenly in log from 1 down to 10**-e, so the
    # smallest ones fall on both sides of the rank tolerance
    n2 = d * d
    rng = np.random.default_rng(seed)
    stack = []
    for e in decades:
        u = np.linalg.qr(rng.normal(size=(n2, n2)))[0]
        v = np.linalg.qr(rng.normal(size=(n2 + extra, n2)))[0]
        stack.append((u * np.logspace(0.0, -e, n2)) @ v.T)
    stack = np.array(stack)
    rank, cond = _gram_health(stack)
    for m, rk, c in zip(stack, rank, cond):
        assert rk == np.linalg.matrix_rank(m)
        if rk < n2:
            assert c > MAX_CONDITION
            continue
        assert c == pytest.approx(np.linalg.cond(m) ** 2, rel=1e-12)
        if c < 1e6:  # where the Gram matrix formed in floating point is accurate to 1e-10
            assert c == pytest.approx(np.linalg.cond(m @ m.T), rel=1e-8)


def test_input_rank_and_condition_of_the_canonical_set(basis3):
    inputs = np.column_stack([coords_of(s.entries, basis3) for s in canonical_input_states()])
    ts = TomographySet(states=np.stack([inputs, inputs]), times=[1.0])
    assert ts.input_rank == np.linalg.matrix_rank(inputs) == 9
    assert ts.input_condition == pytest.approx(np.linalg.cond(inputs @ inputs.T), rel=1e-8)


def test_input_rank_and_condition_of_a_rank_one_set(basis3):
    cols = np.column_stack([coords_of(canonical_input_states()[0].entries, basis3)] * 9)
    ts = TomographySet(states=np.stack([cols, cols]), times=[1.0])
    assert ts.input_rank == np.linalg.matrix_rank(cols) == 1
    assert ts.input_condition > MAX_CONDITION
    assert np.linalg.cond(cols @ cols.T) > MAX_CONDITION


def test_input_condition_of_a_near_degenerate_set(basis3):
    m = _near_degenerate_inputs(basis3)
    ts = TomographySet(states=np.stack([m, m]), times=[1.0])
    assert ts.input_rank == np.linalg.matrix_rank(m) == 9
    cond = ts.input_condition
    # an independent accurate reference: the singular values of R in
    # M^T = QR are those of M
    r = np.linalg.qr(m.T, mode="r")
    assert cond == pytest.approx(np.linalg.cond(r) ** 2, rel=1e-8)
    # the Gram matrix formed in floating point carries entry errors of about
    # eps ||M||^2, so numpy's cond of it is only good to about cond * eps
    gram_cond = np.linalg.cond(m @ m.T)
    assert abs(cond - gram_cond) <= cond * np.finfo(float).eps * cond
