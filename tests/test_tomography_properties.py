"""Properties of the stacked Gram kernel behind every reconstruction.

Random input sets are full-rank sets of random density matrices in the
generalized Gell-Mann basis for d = 2..4; random processes keep the pinned
trace row (last row e_last), so their outputs are valid Bloch matrices.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
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
    truth = {0.1 * (k + 1): _random_process(rng, d, 0.5) for k in range(n_times)}
    ts = TomographySet(dim=d, inputs=inputs, outputs={t: p @ inputs for t, p in truth.items()})
    pms = reconstruct_processes(ts)
    assert [pm.duration_s for pm in pms] == sorted(truth)
    for pm in pms:
        np.testing.assert_allclose(pm.matrix, truth[pm.duration_s], rtol=0, atol=1e-10)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=4),
       n_steps=st.integers(min_value=1, max_value=6), seed=seeds)
def test_stepwise_processes_exact_on_noiseless_chains(d, extra, n_steps, seed):
    rng = np.random.default_rng(seed)
    state = _random_inputs(rng, d, extra)
    inputs, outputs, truth = state, {}, []
    for k in range(n_steps):
        p = _random_process(rng, d, 0.2)
        state = p @ state
        outputs[0.5 * (k + 1)] = state
        truth.append(p)
    steps = stepwise_processes(TomographySet(dim=d, inputs=inputs, outputs=outputs))
    assert [pm.duration_s for pm in steps] == [0.5] * n_steps
    for pm, p in zip(steps, truth):
        np.testing.assert_allclose(pm.matrix, p, rtol=0, atol=1e-10)


def _pms_or_error(reconstruct, ts):
    """(matrix, duration_s) pairs of ``reconstruct(ts)``, or the error it raised."""
    try:
        return [(pm.matrix, pm.duration_s) for pm in reconstruct(ts)]
    except Exception as err:
        return (type(err), str(err))


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return len(a) == len(b) and all(
        np.array_equal(ma, mb) and ta == tb for (ma, ta), (mb, tb) in zip(a, b)
    )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(d=dims, extra=st.integers(min_value=0, max_value=3),
       n_times=st.integers(min_value=0, max_value=6), data=st.data(), seed=seeds)
def test_set_order_does_not_depend_on_insertion_order(d, extra, n_times, data, seed):
    rng = np.random.default_rng(seed)
    inputs = _random_inputs(rng, d, extra)
    times = np.cumsum(rng.uniform(0.1, 1.0, size=n_times))
    state, outputs = inputs, {}
    for t in times:
        state = _random_process(rng, d, 0.2) @ state
        state[:-1] += 1e-3 * rng.normal(size=state[:-1].shape)
        outputs[float(t)] = state
    order = data.draw(st.permutations(list(outputs)), label="insertion order")
    ordered = TomographySet(dim=d, inputs=inputs, outputs=outputs)
    shuffled = TomographySet(dim=d, inputs=inputs, outputs={t: outputs[t] for t in order})
    assert np.array_equal(shuffled.times, times) and np.array_equal(ordered.times, times)
    assert np.array_equal(shuffled.states, ordered.states)
    assert np.array_equal(ordered.states, np.stack([inputs, *outputs.values()]))
    assert list(shuffled.outputs) == times.tolist()
    for reconstruct in (reconstruct_processes, stepwise_processes):
        assert _same(_pms_or_error(reconstruct, shuffled), _pms_or_error(reconstruct, ordered))
    assert shuffled.to_json() == ordered.to_json()
    if not n_times:
        assert reconstruct_processes(shuffled) == [] == stepwise_processes(shuffled)
    for arr in (shuffled.states, shuffled.times):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for name in ("states", "times"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shuffled, name, None)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, n_steps=st.integers(min_value=2, max_value=6), data=st.data(), seed=seeds)
def test_stepwise_names_the_rank_deficient_step(d, n_steps, data, seed):
    # step k takes the state matrix at time k as its input; collapsing that
    # matrix to one repeated state fails step k, and no earlier step
    bad = data.draw(st.integers(min_value=1, max_value=n_steps - 1), label="bad step")
    rng = np.random.default_rng(seed)
    inputs = _random_inputs(rng, d, 2)
    outputs, state = {}, inputs
    for k in range(n_steps):
        state = _random_process(rng, d, 0.2) @ state
        outputs[float(k + 1)] = state
    outputs[float(bad)] = np.tile(outputs[float(bad)][:, :1], (1, inputs.shape[1]))
    with pytest.raises(CompletenessError) as err:
        stepwise_processes(TomographySet(dim=d, inputs=inputs, outputs=outputs))
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
    ts = TomographySet(dim=3, inputs=inputs, outputs={})
    assert ts.input_rank == np.linalg.matrix_rank(inputs) == 9
    assert ts.input_condition == pytest.approx(np.linalg.cond(inputs @ inputs.T), rel=1e-8)


def test_input_rank_and_condition_of_a_rank_one_set(basis3):
    cols = np.column_stack([coords_of(canonical_input_states()[0].entries, basis3)] * 9)
    ts = TomographySet(dim=3, inputs=cols, outputs={1.0: cols})
    assert ts.input_rank == np.linalg.matrix_rank(cols) == 1
    assert ts.input_condition > MAX_CONDITION
    assert np.linalg.cond(cols @ cols.T) > MAX_CONDITION


def test_input_condition_of_a_near_degenerate_set(basis3):
    m = _near_degenerate_inputs(basis3)
    ts = TomographySet(dim=3, inputs=m, outputs={1.0: m})
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
