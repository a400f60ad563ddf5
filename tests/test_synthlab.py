import json

import numpy as np
import pytest
import scipy.linalg

from liouvlab.basis import DensityMatrix, build_basis, coords_of
from liouvlab.exceptions import ZeroReferenceError
from liouvlab.estimation import frobenius_distance
from liouvlab.superop import hamiltonian_superop
from liouvlab.synthlab import (
    CALIBRATION_TARGET_DF,
    DEFAULT_RELAXATION,
    SCENARIO_DEFAULTS,
    NoiseSpec,
    _direct_max_df,
    generate_dataset,
    make_scenario,
    state_fidelity,
)
from liouvlab.tomography import canonical_input_states, reconstruct_process

EXP_STATE_1 = np.array(
    [
        [0.919, 0.001 - 0.080j, 0.011 + 0.011j],
        [0.001 + 0.080j, 0.045, -0.012 - 0.017j],
        [0.011 - 0.011j, -0.012 + 0.017j, 0.036],
    ]
)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_relaxation_scenario_defaults():
    sc = make_scenario("relaxation_only")
    assert sc.grid.n_intervals == 21
    assert sc.grid.times[0] == pytest.approx(0.5e-3)
    assert sc.grid.times[-1] == pytest.approx(10.5e-3)
    assert sc.is_static
    np.testing.assert_allclose(sc.relaxation.params, DEFAULT_RELAXATION.params)
    # generator is pure relaxation
    np.testing.assert_allclose(
        sc.liouvillian(0.0).matrix, -DEFAULT_RELAXATION.superoperator().matrix, atol=1e-12
    )


def test_linear_zeeman_scenario():
    sc = make_scenario("static_linear_zeeman", axis="x", omega=2 * np.pi * 800.0)
    fz_like = sc.static_hamiltonian
    expected = 2 * np.pi * 800.0 / np.sqrt(2) * np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    )
    np.testing.assert_allclose(fz_like, expected, atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_scenario("spin_echo")
    with pytest.raises(ValueError):
        make_scenario("relaxation_only", bogus=1)


_PARAM_VARIANTS = [
    ("relaxation_only", {}),
    ("relaxation_only", {"step": 1e-3, "n_times": 4}),
    ("static_quadratic_zeeman", {"q": 2e3}),
    *[("static_linear_zeeman", {"axis": a, "omega": 3e3}) for a in "xyz"],
    ("static_linear_zeeman", {"t_min": 50e-6, "t_max": 90e-6, "n_times": 3}),
    ("three_axis_time_dependent", {"n_steps": 6}),
    ("three_axis_time_dependent", {"n_steps": 6, "ramp": True}),
    ("three_axis_time_dependent", {"n_steps": 6, "ramp": True, "ramp_s": 12e-6}),
    ("three_axis_time_dependent", {"amplitudes": [1e4, 2e4, 3e4], "dt": 2e-6}),
]


@pytest.mark.parametrize("kind, params", _PARAM_VARIANTS)
def test_scenario_rebuilt_from_recorded_params(kind, params):
    # a dataset's provenance records kind and params; they rebuild the scenario
    sc = make_scenario(kind, **params)
    recorded = json.loads(json.dumps(sc.to_json()))
    again = make_scenario(recorded["kind"], **recorded["params"])
    assert again.params == sc.params == recorded["params"]
    assert set(sc.params) == set(SCENARIO_DEFAULTS[kind])
    assert np.array_equal(again._propagator_stack, sc._propagator_stack)


@pytest.mark.parametrize("kind", sorted(SCENARIO_DEFAULTS))
def test_unknown_parameter_rejected_for_every_kind(kind):
    with pytest.raises(ValueError, match="unknown parameters"):
        make_scenario(kind, bogus=1)
    others = set().union(*SCENARIO_DEFAULTS.values()) - set(SCENARIO_DEFAULTS[kind])
    for name in sorted(others):
        with pytest.raises(ValueError, match=name):
            make_scenario(kind, **{name: 1})


# one period in eighths: a unit triangle and a unit sine of phase 0
_TRIANGLE_EIGHTHS = np.array([0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0, -0.5])
_SINE_EIGHTHS = np.sin(np.pi / 4.0 * np.arange(8))


def test_three_axis_scenario_waveforms():
    # x: 5 kHz triangle, phase 0; y: 7.5 kHz sine, phase pi; z: 10 kHz sine,
    # phase pi/2; the eighths tell the triangle from a sine
    amplitudes = [1e4, 2e4, 3e4]
    sc = make_scenario("three_axis_time_dependent", amplitudes=amplitudes)
    expected = {
        0: (5000.0, _TRIANGLE_EIGHTHS),
        1: (7500.0, -_SINE_EIGHTHS),
        2: (10000.0, np.roll(_SINE_EIGHTHS, -2)),
    }
    for axis, (frequency, unit) in expected.items():
        times = np.arange(8) / (8.0 * frequency)
        om = sc.omegas_nominal(times)
        a = amplitudes[axis]
        np.testing.assert_allclose(om[:, axis], a * unit, rtol=0, atol=1e-9 * a)
        np.testing.assert_array_equal(sc.drive(times), om)  # unramped by default
    assert sc.grid.step == pytest.approx(4e-6)
    assert sc.ramp_s is None


def test_waveform_shapes():
    sc = make_scenario("three_axis_time_dependent", amplitudes=[2.0, 3.0, 0.0])
    period_x, period_y = 1.0 / 5000.0, 1.0 / 7500.0
    tri = sc.omegas_nominal(np.array([0.25, 0.75, 0.5]) * period_x)[:, 0]
    assert tri[0] == pytest.approx(2.0)  # peak of the triangle
    assert tri[1] == pytest.approx(-2.0)
    assert tri[2] == pytest.approx(0.0, abs=1e-12)
    # sine of phase pi: its quarter period is the negative peak
    assert sc.omegas_nominal(0.25 * period_y)[0, 1] == pytest.approx(-3.0)
    # a static kind has no drive at any time
    assert not make_scenario("static_linear_zeeman").omegas_nominal([0.0, 123.0]).any()
    with pytest.raises(ValueError):
        make_scenario("static_linear_zeeman", axis="w")


@pytest.mark.parametrize("ramp", [False, True])
def test_stacked_generators_match_each_midpoint_hamiltonian(ramp):
    # the one product over the grid equals K(H(t)) - R_T built time by time
    sc = make_scenario("three_axis_time_dependent", ramp=ramp)
    rt = sc.relaxation.superoperator().matrix
    basis = build_basis(3)
    stacked = np.stack([l.matrix for l in sc.interval_liouvillians()])
    reference = np.stack([
        hamiltonian_superop(sc.hamiltonian(t), basis).matrix - rt for t in sc.grid.midpoints
    ])
    tol = 1e-12 * np.abs(reference).max()
    assert np.abs(stacked - reference).max() <= tol
    assert np.abs(sc.liouvillian(sc.grid.midpoints[7]).matrix - reference[7]).max() <= tol


def test_ramp_scales_early_hamiltonian():
    sc = make_scenario("three_axis_time_dependent", ramp=True)
    assert sc.ramp_s == pytest.approx(64e-6)
    h_early = sc.hamiltonian(32e-6)
    om = sc.omegas_nominal(32e-6)[0]
    from liouvlab.superop import zeeman_hamiltonian

    np.testing.assert_allclose(h_early, zeeman_hamiltonian(om * 0.5), atol=1e-12)
    h_late = sc.hamiltonian(100e-6)
    np.testing.assert_allclose(
        h_late, zeeman_hamiltonian(sc.omegas_nominal(100e-6)[0]), atol=1e-12
    )


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_noiseless_closed_loop():
    sc = make_scenario("relaxation_only", n_times=5)
    ds = generate_dataset(sc, NoiseSpec(seed=1))
    t = ds.times[2]
    truth = scipy.linalg.expm(sc.liouvillian(0.0).matrix * t)
    np.testing.assert_allclose(reconstruct_process(ds, t).matrix, truth, atol=1e-10)


def _uncached_propagators(sc):
    if sc.is_static:
        lmat = sc.liouvillian(0.0).matrix
        return [scipy.linalg.expm(lmat * t) for t in sc.grid.times]
    out, total = [], np.eye(9)
    for l, dt in zip(sc.interval_liouvillians(), sc.grid.durations):
        total = scipy.linalg.expm(l.matrix * dt) @ total
        out.append(total)
    return out


@pytest.mark.parametrize(
    "kind, params",
    [("static_quadratic_zeeman", {}), ("three_axis_time_dependent", {"n_steps": 6, "ramp": True})],
)
def test_dataset_bit_identical_to_uncached_propagation(kind, params):
    sc = make_scenario(kind, **params)
    noise = NoiseSpec(bloch_sigma=0.004, prep_fidelity=0.97, seed=31)
    datasets = [generate_dataset(sc, noise) for _ in range(2)]  # cold, then cached
    basis = build_basis(3)
    pure = np.column_stack([coords_of(s.entries, basis) for s in canonical_input_states()])
    mixed = np.zeros(9)
    mixed[-1] = np.sqrt(1.0 / 6.0)
    prepared = noise.prep_fidelity * pure + (1.0 - noise.prep_fidelity) * mixed[:, None]

    def noisy(columns, stream):
        out = columns.copy()
        rng = np.random.default_rng([noise.seed, stream])
        out[:-1, :] += rng.normal(size=(8, columns.shape[1])) * noise.bloch_sigma
        out[-1, :] = np.sqrt(1.0 / 6.0)
        return out

    for ds in datasets:
        assert np.array_equal(ds.inputs, noisy(prepared, 0))
        for k, (t, p) in enumerate(zip(sc.grid.times, _uncached_propagators(sc))):
            assert np.array_equal(ds.outputs[float(t)], noisy(p @ prepared, k + 1))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "kind, params", [("relaxation_only", {}), ("three_axis_time_dependent", {"ramp": True})]
)
def test_stacked_forward_model_equals_per_time_evolution(kind, params, seed):
    # generate_dataset evolves every time in one stacked product and adds all
    # noise at once; the reference takes one product and one draw per time
    sc = make_scenario(kind, **params)
    noise = NoiseSpec(bloch_sigma=0.0042, prep_fidelity=0.98, seed=seed)
    ds = generate_dataset(sc, noise)
    mixed = np.zeros(9)
    mixed[-1] = np.sqrt(1.0 / 6.0)
    prepared = (
        noise.prep_fidelity * sc._input_coords + (1.0 - noise.prep_fidelity) * mixed[:, None]
    )

    def reported(columns, stream):
        out = columns.copy()
        out[:-1] += np.random.default_rng([seed, stream]).normal(size=(8, 15)) * 0.0042
        out[-1] = np.sqrt(1.0 / 6.0)
        return out

    assert np.array_equal(ds.inputs, reported(prepared, 0))
    assert list(ds.outputs) == [float(t) for t in sc.grid.times]
    for k, p in enumerate(sc.propagators()):
        assert np.array_equal(ds.outputs[p.duration_s], reported(p.matrix @ prepared, k + 1))


def test_scenario_propagates_once(monkeypatch):
    # all times of a scenario come from one stacked expm, taken once
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: calls.append(a.shape) or expm(a))
    for sc in (
        make_scenario("relaxation_only", n_times=4),
        make_scenario("three_axis_time_dependent", n_steps=4),
    ):
        calls.clear()
        for seed in range(3):
            generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=seed))
        assert calls == [(4, 9, 9)]


def test_prep_fidelity_band():
    sc = make_scenario("relaxation_only", n_times=1)
    ds = generate_dataset(sc, NoiseSpec(prep_fidelity=0.90, seed=2))
    from liouvlab.basis import build_basis, devectorize, BlochVector

    basis = build_basis(3)
    pure = canonical_input_states()
    for k in range(15):
        prepared = devectorize(BlochVector(dim=3, coords=ds.inputs[:, k]), basis)
        f = state_fidelity(pure[k], prepared)
        # fidelity formula for a depolarized pure state: p + (1 - p)/3
        assert f == pytest.approx(0.90 + 0.10 / 3.0, abs=1e-10)
        assert 0.88 <= f <= 0.94


def test_determinism_bit_identical():
    sc = make_scenario("three_axis_time_dependent", n_steps=8)
    spec = NoiseSpec(bloch_sigma=0.005, prep_fidelity=0.95, seed=77)
    a = generate_dataset(sc, spec)
    b = generate_dataset(sc, spec)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    for t in a.times:
        np.testing.assert_array_equal(a.outputs[t], b.outputs[t])


def test_different_seeds_differ():
    sc = make_scenario("relaxation_only", n_times=2)
    a = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=1))
    b = generate_dataset(sc, NoiseSpec(bloch_sigma=0.004, seed=2))
    assert np.abs(a.inputs - b.inputs).max() > 0


def test_noise_honesty():
    # empirical sigma of the perturbations within 2% of the requested one
    sc = make_scenario("relaxation_only", n_times=42)
    sigma = 3e-3
    noisy = generate_dataset(sc, NoiseSpec(bloch_sigma=sigma, seed=11))
    clean = generate_dataset(sc, NoiseSpec(seed=11))
    deltas = []
    for t in noisy.times:
        deltas.append((noisy.outputs[t] - clean.outputs[t])[:8, :].ravel())
    deltas = np.concatenate(deltas)  # 42 * 15 * 8 = 5040 draws
    assert deltas.size >= 5000
    assert abs(deltas.std() / sigma - 1.0) < 0.02


def test_trace_pinning_survives_noise():
    sc = make_scenario("relaxation_only", n_times=3)
    ds = generate_dataset(sc, NoiseSpec(bloch_sigma=0.05, seed=12))
    pinned = np.sqrt(1.0 / 6.0)
    assert np.abs(ds.inputs[-1] - pinned).max() == 0.0
    for t in ds.times:
        assert np.abs(ds.outputs[t][-1] - pinned).max() == 0.0


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_with_self(basis3):
    rng = np.random.default_rng(13)
    from conftest import random_density_matrix

    rho = random_density_matrix(rng)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_with_maximally_mixed():
    pure = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0]))
    mixed = DensityMatrix.from_matrix(np.eye(3) / 3.0)
    assert state_fidelity(pure, mixed) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fidelity_against_reconstructed_state():
    theory = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0]))
    experiment = DensityMatrix.from_matrix(EXP_STATE_1)
    assert state_fidelity(theory, experiment) == pytest.approx(0.919, abs=1e-9)


def test_fidelity_symmetric():
    rng = np.random.default_rng(14)
    from conftest import random_density_matrix

    a, b = random_density_matrix(rng), random_density_matrix(rng)
    assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-10)


# ---------------------------------------------------------------------------
# noise calibration
# ---------------------------------------------------------------------------


def test_calibrated_sigma_hits_target(calibrated_sigma):
    assert 1e-4 < calibrated_sigma < 0.05
    sc = make_scenario("relaxation_only")
    vals = [
        _direct_max_df(generate_dataset(sc, NoiseSpec(bloch_sigma=calibrated_sigma, seed=s)))
        for s in (101, 102, 103)
    ]
    assert np.mean(vals) == pytest.approx(CALIBRATION_TARGET_DF, rel=0.03)


def test_frobenius_distance_zero_reference():
    with pytest.raises(ZeroReferenceError):
        frobenius_distance(np.eye(9), np.zeros((9, 9)))


@pytest.mark.parametrize(
    "kind, params",
    [
        ("three_axis_time_dependent", {"ramp": "false"}),
        ("three_axis_time_dependent", {"n_steps": 4.9}),
        ("relaxation_only", {"n_times": True}),
        ("relaxation_only", {"step": "1e-3"}),
        ("static_quadratic_zeeman", {"q": float("nan")}),
        ("static_linear_zeeman", {"axis": 0}),
        ("three_axis_time_dependent", {"amplitudes": [1.0, 2.0]}),
        ("three_axis_time_dependent", {"amplitudes": [1.0, 2.0, True]}),
    ],
)
def test_parameter_of_another_type_than_its_default_is_rejected(kind, params):
    with pytest.raises(ValueError, match=f"parameter '{next(iter(params))}' must be"):
        make_scenario(kind, **params)


def test_numpy_scalars_are_taken_as_parameters():
    sc = make_scenario("three_axis_time_dependent", n_steps=np.int64(5), dt=np.float64(3e-6),
                       amplitudes=(1.0, 2, np.float32(3.0)))
    assert sc.params["n_steps"] == 5 and type(sc.params["n_steps"]) is int
    assert sc.params["amplitudes"] == [1.0, 2.0, 3.0]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"bloch_sigma": True}, "'bloch_sigma' must be a real number"),
        ({"prep_fidelity": "0.9"}, "'prep_fidelity' must be a real number"),
        ({"seed": 2.5}, "'seed' must be an integer"),
        ({"sigma": 0.1}, r"unknown noise fields: \['sigma'\]"),
    ],
)
def test_noise_fields_are_type_checked(fields, message):
    with pytest.raises(ValueError, match=message):
        NoiseSpec.from_json(fields)
    assert NoiseSpec.from_json({"seed": np.int64(3), "bloch_sigma": 1}) == NoiseSpec(1.0, 1.0, 3)
