import json

import numpy as np
import pytest
import scipy.linalg

from liouvlab.basis import coords_of
from liouvlab.dynamics import propagator
from liouvlab.exceptions import CompletenessError, DimensionError, IllConditionedError
from liouvlab.superop import LindbladModel
from liouvlab.synthlab import DEFAULT_RELAXATION, NoiseSpec, generate_dataset, make_scenario
from liouvlab.tomography import (
    TomographySet,
    canonical_input_states,
    direct_liouvillian,
    mean_log_liouvillian,
    reconstruct_process,
    reconstruct_processes,
    stepwise_processes,
)

from conftest import random_hermitian


def _bloch_columns(states, basis):
    return np.column_stack([coords_of(s.entries, basis) for s in states])


def _set_from_process(inputs, p, times):
    outputs = [scipy.linalg.expm(p * t) @ inputs for t in times]
    return TomographySet(states=np.stack([inputs, *outputs]), times=times)


# ---------------------------------------------------------------------------
# canonical input states
# ---------------------------------------------------------------------------


def test_canonical_count_and_rank(basis3):
    states = canonical_input_states()
    assert len(states) == 15
    m = _bloch_columns(states, basis3)
    assert np.linalg.matrix_rank(m) == 9


def test_canonical_state_4():
    s4 = canonical_input_states()[3]
    np.testing.assert_allclose(
        s4.entries, 0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]), atol=1e-15
    )


def test_canonical_state_13():
    s13 = canonical_input_states()[12]
    np.testing.assert_allclose(
        s13.entries, 0.5 * np.array([[1, 0, -1j], [0, 0, 0], [1j, 0, 1]]), atol=1e-15
    )


def test_canonical_projectors_and_phases():
    states = canonical_input_states()
    for i in range(3):
        expected = np.zeros((3, 3))
        expected[i, i] = 1.0
        np.testing.assert_allclose(states[i].entries, expected, atol=1e-15)
    # phase ordering 0, pi/2, pi, 3pi/2 on the (|0>, |-1>) pair
    s9 = states[8].entries  # second pair, phase pi/2
    np.testing.assert_allclose(
        s9, 0.5 * np.array([[0, 0, 0], [0, 1, -1j], [0, 1j, 1]]), atol=1e-15
    )


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------


def test_reconstruct_process_missing_time(basis3):
    inputs = _bloch_columns(canonical_input_states(), basis3)
    ts = TomographySet(states=np.stack([inputs, inputs]), times=[1e-3])
    with pytest.raises(KeyError, match="no outputs measured at t = 0.002"):
        reconstruct_process(ts, 2e-3)


def test_nine_state_symmetrization_equals_plain_inversion(basis3):
    # with exactly d**2 independent inputs the symmetrized route reduces to
    # the plain inverse algebraically
    states = canonical_input_states()
    subset = [states[i] for i in (0, 1, 2, 3, 4, 7, 8, 11, 12)]
    inputs = _bloch_columns(subset, basis3)
    assert np.linalg.matrix_rank(inputs) == 9
    rng = np.random.default_rng(41)
    p_true = np.eye(9) + 0.1 * rng.normal(size=(9, 9))
    p_true[8] = np.eye(9)[8]
    ts = _set_from_process(inputs, scipy.linalg.logm(p_true).real, [1.0])
    plain = ts.states[1] @ np.linalg.inv(inputs)
    sym = reconstruct_process(ts, 1.0).matrix
    np.testing.assert_allclose(sym, plain, atol=1e-10)


# ---------------------------------------------------------------------------
# process reconstruction
# ---------------------------------------------------------------------------


def test_identity_outputs_give_identity(basis3):
    inputs = _bloch_columns(canonical_input_states(), basis3)
    ts = TomographySet(states=np.stack([inputs, inputs]), times=[1e-3])
    np.testing.assert_allclose(reconstruct_process(ts, 1e-3).matrix, np.eye(9), atol=1e-12)


def test_quadratic_zeeman_noiseless_reconstruction():
    sc = make_scenario("static_quadratic_zeeman")
    ds = generate_dataset(sc, NoiseSpec(seed=1))
    l_true = sc.liouvillian(0.0)
    for t in ds.times:
        pm = reconstruct_process(ds, t)
        np.testing.assert_allclose(
            pm.matrix, propagator(l_true, t).matrix, atol=1e-10
        )


def test_relaxation_reconstruction_matches_forward_model():
    sc = make_scenario("relaxation_only")
    ds = generate_dataset(sc, NoiseSpec(seed=2))
    rt = DEFAULT_RELAXATION.superoperator()
    pm = reconstruct_process(ds, 0.5e-3)
    np.testing.assert_allclose(pm.matrix, scipy.linalg.expm(-rt.matrix * 0.5e-3), atol=1e-10)


def test_inversion_exact_for_nonphysical_map(basis3):
    # the reconstruction is purely linear-algebraic: any trace-preserving
    # map is recovered exactly, completely positive or not, contractive or
    # not
    inputs = _bloch_columns(canonical_input_states(), basis3)
    rng = np.random.default_rng(42)
    p_true = rng.normal(size=(9, 9)) * 2.0
    p_true[8] = 0.0
    p_true[8, 8] = 1.0
    assert np.abs(np.linalg.eigvals(p_true)).max() > 1.0  # clearly unphysical
    ts = TomographySet(states=np.stack([inputs, p_true @ inputs]), times=[1.0])
    np.testing.assert_allclose(reconstruct_process(ts, 1.0).matrix, p_true, atol=1e-10)


def test_mixed_state_inputs_still_exact():
    sc = make_scenario("static_quadratic_zeeman")
    ds = generate_dataset(sc, NoiseSpec(prep_fidelity=0.9, seed=3))
    l_true = sc.liouvillian(0.0)
    t = ds.times[-1]
    np.testing.assert_allclose(
        reconstruct_process(ds, t).matrix, propagator(l_true, t).matrix, atol=1e-10
    )


def test_reconstructed_trace_row(basis3):
    sc = make_scenario("relaxation_only")
    ds = generate_dataset(sc, NoiseSpec(seed=4))
    row = reconstruct_process(ds, ds.times[5]).matrix[8]
    expected = np.zeros(9)
    expected[8] = 1.0
    np.testing.assert_allclose(row, expected, atol=1e-9)


def test_rank_deficient_inputs_rejected(basis3):
    states = canonical_input_states()
    cols = _bloch_columns([states[0]] * 9, basis3)
    ts = TomographySet(states=np.stack([cols, cols]), times=[1.0])
    with pytest.raises(CompletenessError) as err:
        reconstruct_process(ts, 1.0)
    assert err.value.rank == 1


def test_reconstruct_processes_matches_per_time():
    sc = make_scenario("relaxation_only", n_times=7)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, prep_fidelity=0.95, seed=12))
    mats, durations = reconstruct_processes(ds)
    assert np.array_equal(durations, ds.times) and mats.shape == (7, 9, 9)
    for mat, t in zip(mats, durations):
        single = reconstruct_process(ds, t)
        assert single.duration_s == t
        np.testing.assert_allclose(mat, single.matrix, rtol=0, atol=1e-12)


def test_reconstruct_processes_rejects_rank_deficient(basis3):
    states = canonical_input_states()
    cols = _bloch_columns([states[0]] * 9, basis3)
    ts = TomographySet(states=np.stack([cols, cols, cols]), times=[1.0, 2.0])
    with pytest.raises(CompletenessError) as err:
        reconstruct_processes(ts)
    assert err.value.rank == 1


def test_reconstruct_processes_rejects_ill_conditioned(basis3):
    # nine independent states, the last moved to within 1e-5 of another:
    # full rank, but the Gram condition is about 1e10
    cols = _bloch_columns(canonical_input_states(), basis3)
    chosen = []
    for k in range(cols.shape[1]):
        if np.linalg.matrix_rank(cols[:, chosen + [k]]) == len(chosen) + 1:
            chosen.append(k)
    m = cols[:, chosen[:9]].copy()
    m[:, 8] = m[:, 7] + 1e-5 * (m[:, 8] - m[:, 7])
    ts = TomographySet(states=np.stack([m, m]), times=[1.0])
    assert ts.input_rank == 9
    with pytest.raises(IllConditionedError) as err:
        reconstruct_processes(ts)
    assert err.value.cond > 1e8
    with pytest.raises(IllConditionedError):
        reconstruct_process(ts, 1.0)


def test_mean_log_liouvillian_averages_direct_estimates():
    sc = make_scenario("relaxation_only", n_times=5)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=13))
    mean = mean_log_liouvillian(reconstruct_processes(ds)).matrix
    singles = [direct_liouvillian(ds, t).matrix for t in ds.times]
    np.testing.assert_allclose(mean, np.mean(singles, axis=0), rtol=1e-12, atol=1e-9)


def test_set_keeps_only_its_states_and_times():
    ds = generate_dataset(make_scenario("relaxation_only", n_times=3), NoiseSpec(seed=5))
    assert ds.input_rank == 9
    assert ds.input_condition < 1e3
    reconstruct_processes(ds)
    assert set(vars(ds)) == {"states", "times"}


def test_too_few_states_rejected(basis3):
    cols = _bloch_columns(canonical_input_states()[:5], basis3)
    with pytest.raises(CompletenessError):
        TomographySet(states=np.stack([cols, cols]), times=[1.0])


def test_set_checks_shape_then_trace_row_matrix_by_matrix(basis3):
    # from_json, the one reader of matrices that may differ in shape, names the
    # first faulty matrix in time order, whatever the order of its keys
    cols = _bloch_columns(canonical_input_states(), basis3)
    unpinned, non_finite = cols.copy(), cols.copy()
    unpinned[-1, 0] += 1e-6
    non_finite[2, 3] = np.nan
    short = cols[:, :-1]
    cases = [
        # (inputs, outputs, error, message)
        (unpinned, {"2.0": short, "1.0": cols}, ValueError, "inputs has unpinned"),
        (cols, {"2.0": short, "1.0": unpinned}, ValueError, "outputs[1.0] has unpinned"),
        (cols, {"2.0": unpinned, "1.0": short}, DimensionError, "outputs[1.0] shape"),
        (cols, {"2.0": unpinned, "1.0": cols}, ValueError, "outputs[2.0] has unpinned"),
        (cols, {"2.0": unpinned, "1.0": non_finite}, ValueError, "outputs[1.0] has a non-finite"),
        (non_finite, {"1.0": short}, ValueError, "inputs has a non-finite"),
    ]
    for inputs, outputs, error, message in cases:
        obj = {"dim": 3, "inputs": inputs.T.tolist(),
               "outputs": {t: m.T.tolist() for t, m in outputs.items()}}
        with pytest.raises(error) as err:
            TomographySet.from_json(obj)
        assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "where, message",
    [
        ((0, 2, 3), "inputs has a non-finite entry"),
        ((2, 4, 0), "outputs[2.0] has a non-finite entry"),
        ((1, -1, 7), "outputs[1.0] has a non-finite entry"),  # the trace row
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_set_rejects_non_finite_entries_at_construction(basis3, where, message, bad):
    cols = _bloch_columns(canonical_input_states(), basis3)
    states = np.stack([cols, cols, cols])
    states[where] = bad
    with pytest.raises(ValueError) as err:
        TomographySet(states=states, times=[1.0, 2.0])
    assert str(err.value) == message


def test_set_freezes_a_copy_of_the_callers_arrays(basis3):
    cols = _bloch_columns(canonical_input_states(), basis3)
    states, times = np.stack([cols, cols]), np.array([1.0])
    ts = TomographySet(states=states, times=times)
    assert states.flags.writeable and times.flags.writeable
    for arr in (ts.states, ts.inputs, ts.times):
        assert not arr.flags.writeable
    assert not np.shares_memory(ts.states, states) and not np.shares_memory(ts.times, times)
    assert np.shares_memory(ts.inputs, ts.states)
    np.testing.assert_array_equal(ts.states, states)
    assert (ts.dim, ts.inputs.shape) == (3, (9, 15))


# ---------------------------------------------------------------------------
# direct generator estimate
# ---------------------------------------------------------------------------


def test_direct_liouvillian_identity(basis3):
    inputs = _bloch_columns(canonical_input_states(), basis3)
    ts = TomographySet(states=np.stack([inputs, inputs]), times=[1e-3])
    assert np.abs(direct_liouvillian(ts, 1e-3).matrix).max() < 1e-9


def test_direct_liouvillian_round_trip(basis3):
    rng = np.random.default_rng(43)
    h = random_hermitian(rng, scale=2000.0)
    jumps = [2.0 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))]
    l_true = LindbladModel(h, jumps).liouvillian()
    inputs = _bloch_columns(canonical_input_states(), basis3)
    t = 1e-4
    ts = _set_from_process(inputs, l_true.matrix, [t])
    l_hat = direct_liouvillian(ts, t)
    rel = np.linalg.norm(l_hat.matrix - l_true.matrix) / np.linalg.norm(l_true.matrix)
    assert rel < 1e-8


# ---------------------------------------------------------------------------
# stepwise reconstruction
# ---------------------------------------------------------------------------


def test_stepwise_static_gives_constant_steps():
    sc = make_scenario("relaxation_only", n_times=6)
    ds = generate_dataset(sc, NoiseSpec(seed=5))
    mats, durations = stepwise_processes(ds)
    assert len(mats) == len(durations) == 6
    rt = DEFAULT_RELAXATION.superoperator()
    expected = scipy.linalg.expm(-rt.matrix * 0.5e-3)
    np.testing.assert_allclose(durations, 0.5e-3, rtol=1e-6)
    for mat in mats:
        np.testing.assert_allclose(mat, expected, atol=1e-9)


def test_stepwise_time_dependent_closed_loop():
    sc = make_scenario("three_axis_time_dependent", n_steps=12)
    ds = generate_dataset(sc, NoiseSpec(seed=6))
    mats, durations = stepwise_processes(ds)
    assert np.array_equal(durations, sc.grid.durations)
    for mat, l, dt in zip(mats, sc.interval_liouvillians(), durations):
        np.testing.assert_allclose(mat, scipy.linalg.expm(l.matrix * dt), atol=1e-9)


def test_stepwise_product_equals_global():
    sc = make_scenario("three_axis_time_dependent", n_steps=10)
    ds = generate_dataset(sc, NoiseSpec(seed=7))
    total = np.eye(9)
    for mat in stepwise_processes(ds)[0]:
        total = mat @ total
    final = reconstruct_process(ds, ds.times[-1]).matrix
    assert np.abs(total - final).max() < 1e-8


def test_stepwise_names_failing_step(basis3):
    sc = make_scenario("relaxation_only", n_times=4)
    ds = generate_dataset(sc, NoiseSpec(seed=8))
    states = ds.states.copy()
    states[2] = np.tile(states[2][:, :1], (1, states.shape[2]))  # the outputs at ds.times[1]
    broken = TomographySet(states=states, times=ds.times)
    with pytest.raises(CompletenessError) as err:
        stepwise_processes(broken)
    assert "step 2" in str(err.value)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_tomography_set_json_round_trip():
    sc = make_scenario("relaxation_only", n_times=3)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=9))
    ds2 = TomographySet.from_json(json.loads(json.dumps(ds.to_json())))
    np.testing.assert_array_equal(ds2.inputs, ds.inputs)
    assert list(ds2.times) == list(ds.times)
    assert np.array_equal(ds2.states, ds.states)
