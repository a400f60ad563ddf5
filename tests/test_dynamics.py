import warnings

import numpy as np
import pytest
import scipy.linalg

from liouvlab.basis import DensityMatrix, vectorize
from liouvlab.dynamics import (
    GREGORY_RADIUS,
    GREGORY_TERMS,
    ProcessMatrix,
    TimeGrid,
    _eigvec_inverse,
    _log_stack,
    _principal_logs,
    piecewise_propagator,
    principal_log,
    propagator,
)
from liouvlab.exceptions import (
    BranchCutError,
    DimensionError,
    PhysicalityWarning,
    SingularProcessError,
)
from liouvlab.superop import (
    LindbladModel,
    Superoperator,
    hamiltonian_superop,
    spin1_operators,
    zeeman_hamiltonian,
)
from liouvlab.synthlab import DEFAULT_RELAXATION, make_scenario
from liouvlab.tomography import mean_log_liouvillian

from conftest import random_density_matrix, random_hermitian


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Plain power-series exponential, summed to machine precision."""
    term = np.eye(a.shape[0])
    out = term.copy()
    for k in range(1, 200):
        term = term @ a / k
        out = out + term
        if np.abs(term).max() < 1e-18:
            break
    return out


def random_stable_liouvillian(rng, ham_scale=2000.0, jump_scale=3.0) -> Superoperator:
    h = random_hermitian(rng, scale=ham_scale)
    jumps = [
        jump_scale * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        for _ in range(2)
    ]
    return LindbladModel(h, jumps).liouvillian()


# ---------------------------------------------------------------------------
# propagator
# ---------------------------------------------------------------------------


def test_zero_generator_gives_identity():
    zero = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    pm = propagator(zero, 1e-3)
    np.testing.assert_allclose(pm.matrix, np.eye(9), atol=0)
    assert pm.duration_s == 1e-3


def test_isotropic_decay_closed_form():
    gamma, t = 29.4, 2e-3
    iso = np.eye(9)
    iso[8, 8] = 0.0
    pm = propagator(Superoperator(dim=3, matrix=-gamma * iso), t)
    expected = np.diag([np.exp(-gamma * t)] * 8 + [1.0])
    np.testing.assert_allclose(pm.matrix, expected, atol=1e-14)


def test_propagator_matches_taylor_series():
    rt = DEFAULT_RELAXATION.superoperator()
    t = 0.5e-3
    pm = propagator(Superoperator(dim=3, matrix=-rt.matrix), t)
    np.testing.assert_allclose(pm.matrix, expm_taylor(-rt.matrix * t), atol=1e-13)


def test_semigroup_property():
    rng = np.random.default_rng(31)
    l = random_stable_liouvillian(rng)
    t1, t2 = 0.3e-3, 0.7e-3
    lhs = propagator(l, t1 + t2).matrix
    rhs = propagator(l, t2).matrix @ propagator(l, t1).matrix
    assert np.abs(lhs - rhs).max() < 1e-10


def test_trace_preservation_propagates():
    rt = DEFAULT_RELAXATION.superoperator()
    pm = propagator(Superoperator(dim=3, matrix=-rt.matrix), 3e-3)
    expected_row = np.zeros(9)
    expected_row[8] = 1.0
    np.testing.assert_allclose(pm.matrix[8], expected_row, atol=1e-10)


def test_negative_time_rejected():
    zero = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    with pytest.raises(ValueError):
        propagator(zero, -1e-6)


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_non_finite_time_rejected(t):
    zero = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"evolution time must be finite and non-negative, got {t}"):
            propagator(zero, t)


def test_non_finite_generator_rejected():
    bad = np.zeros((9, 9))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        propagator(Superoperator(dim=3, matrix=bad), 1e-3)


def test_unphysical_propagator_warns():
    grow = Superoperator(dim=3, matrix=np.diag([10.0] + [0.0] * 8))
    with pytest.warns(PhysicalityWarning):
        propagator(grow, 1.0)


# ---------------------------------------------------------------------------
# time grid and piecewise evolution
# ---------------------------------------------------------------------------


def test_time_grid_uniform():
    g = TimeGrid.uniform(0.5e-3, 21)
    assert g.n_intervals == 21
    np.testing.assert_allclose(g.durations, 0.5e-3, rtol=1e-12)
    assert g.times[0] == pytest.approx(0.5e-3)
    assert g.times[-1] == pytest.approx(10.5e-3)
    np.testing.assert_allclose(g.midpoints[0], 0.25e-3)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(times=np.array([2.0, 1.0]))


def test_piecewise_constant_equals_direct():
    rng = np.random.default_rng(32)
    l = random_stable_liouvillian(rng)
    grid = TimeGrid.uniform(4e-6, 25)
    pw = piecewise_propagator([l] * 25, grid)
    direct = propagator(l, grid.times[-1])
    assert np.abs(pw.matrix - direct.matrix).max() < 1e-12


def test_piecewise_ordering_matters(basis3):
    f = spin1_operators()
    omega = 2.0 * np.pi * 20000.0
    lx = hamiltonian_superop(omega * f.fx, basis3)
    lz = hamiltonian_superop(omega * f.fz, basis3)
    grid = TimeGrid.uniform(5e-6, 2)
    pw = piecewise_propagator([lx, lz], grid)
    # ordered product: the later factor (z-rotation) multiplies on the left
    expected = (
        scipy.linalg.expm(lz.matrix * 5e-6) @ scipy.linalg.expm(lx.matrix * 5e-6)
    )
    np.testing.assert_allclose(pw.matrix, expected, atol=1e-12)
    naive = scipy.linalg.expm((lx.matrix + lz.matrix) * 5e-6)
    assert np.abs(pw.matrix - naive @ naive).max() > 1e-3


# window deliberately not a whole modulation period, so quadrature errors
# cannot cancel by symmetry
_AMPL, _FREQ, _TOTAL = 2.0 * np.pi * 3000.0, 10000.0, 90e-6


def _pw_sine_z(basis, n):
    f = spin1_operators()
    grid = TimeGrid.uniform(_TOTAL / n, n)
    ls = [
        hamiltonian_superop(_AMPL * np.sin(2 * np.pi * _FREQ * t) * f.fz, basis)
        for t in grid.midpoints
    ]
    return piecewise_propagator(ls, grid).matrix


def _pw_two_axis(basis, n):
    grid = TimeGrid.uniform(_TOTAL / n, n)
    ls = [
        hamiltonian_superop(
            zeeman_hamiltonian(
                (
                    _AMPL * np.sin(2 * np.pi * 5000.0 * t + 0.4),
                    0.0,
                    _AMPL * np.sin(2 * np.pi * _FREQ * t),
                )
            ),
            basis,
        )
        for t in grid.midpoints
    ]
    return piecewise_propagator(ls, grid).matrix


def test_piecewise_sine_converges_against_fine_oracle(basis3):
    # 10 kHz sinusoid at ~4-5 us steps, against a 100x-finer reference
    reference = _pw_sine_z(basis3, 1800)
    err = np.abs(_pw_sine_z(basis3, 18) - reference).max()
    assert err < 1e-3
    # halving the step shrinks the error by ~4 (second order)
    assert np.abs(_pw_sine_z(basis3, 36) - reference).max() < err / 3.0


def test_piecewise_noncommuting_fine_step_oracle(basis3):
    # two incommensurate axes: factors do not commute, ordering matters
    reference = _pw_two_axis(basis3, 1800)
    err = np.abs(_pw_two_axis(basis3, 18) - reference).max()
    assert 1e-5 < err < 1e-2
    assert np.abs(_pw_two_axis(basis3, 36) - reference).max() < err / 3.0


def test_piecewise_richardson_order(basis3):
    d1 = np.linalg.norm(_pw_two_axis(basis3, 18) - _pw_two_axis(basis3, 36))
    d2 = np.linalg.norm(_pw_two_axis(basis3, 36) - _pw_two_axis(basis3, 72))
    assert d1 / d2 >= 3.5


def test_piecewise_equals_per_interval_expm_loop():
    # the stacked time-ordered product keeps the bits of one expm per interval
    rng = np.random.default_rng(33)
    ls = [random_stable_liouvillian(rng) for _ in range(5)]
    grid = TimeGrid(times=np.array([1e-6, 3e-6, 3.5e-6, 7e-6, 8e-6]))
    total = np.eye(9)
    for l, dt in zip(ls, grid.durations):
        total = scipy.linalg.expm(l.matrix * dt) @ total
    assert np.array_equal(piecewise_propagator(ls, grid).matrix, total)


def test_piecewise_length_mismatch():
    zero = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    with pytest.raises(DimensionError):
        piecewise_propagator([zero] * 3, TimeGrid.uniform(1e-6, 4))


# ---------------------------------------------------------------------------
# a propagator acting on a state
# ---------------------------------------------------------------------------


def test_zero_generator_leaves_states_unchanged(basis3):
    rng = np.random.default_rng(33)
    v = vectorize(random_density_matrix(rng), basis3)
    pm = propagator(Superoperator(dim=3, matrix=np.zeros((9, 9))), 1e-3)
    np.testing.assert_array_equal(pm.matrix, np.eye(9))
    np.testing.assert_array_equal(pm.matrix @ v.coords, v.coords)


def test_evolve_precession_rotation_oracle(basis3):
    f = spin1_operators()
    omega, t = 2.0 * np.pi * 1500.0, 80e-6
    l = hamiltonian_superop(omega * f.fz, basis3)
    pm = propagator(l, t)
    rng = np.random.default_rng(34)
    v = vectorize(random_density_matrix(rng), basis3)
    out = pm.matrix @ v.coords
    # closed form: single-quantum pairs rotate by omega t, populations frozen
    angle = omega * t
    c, s = np.cos(angle), np.sin(angle)
    expected_a1 = c * v.coords[0] - s * v.coords[1]
    expected_a2 = s * v.coords[0] + c * v.coords[1]
    assert out[0] == pytest.approx(expected_a1, abs=1e-12)
    assert out[1] == pytest.approx(expected_a2, abs=1e-12)
    for idx in (2, 7, 8):
        assert out[idx] == pytest.approx(v.coords[idx], abs=1e-12)


def test_evolve_unital_fixed_point(basis3):
    mm = vectorize(DensityMatrix.from_matrix(np.eye(3) / 3), basis3)
    rng = np.random.default_rng(35)
    for _ in range(5):
        # unital maps: dephasing-only dissipators fix the maximally mixed state
        f = spin1_operators()
        gammas = rng.uniform(1.0, 10.0, size=3)
        l = LindbladModel(
            random_hermitian(rng, scale=1000.0),
            [np.sqrt(g) * fk for g, fk in zip(gammas, f)],
        ).liouvillian()
        pm = propagator(l, 1e-3)
        np.testing.assert_allclose(pm.matrix @ mm.coords, mm.coords, atol=1e-12)


# ---------------------------------------------------------------------------
# principal log
# ---------------------------------------------------------------------------


def test_log_of_identity_is_zero():
    ident = ProcessMatrix(dim=3, matrix=np.eye(9), duration_s=1.0)
    assert np.abs(principal_log(ident).matrix).max() == 0.0


def test_log_exp_round_trip_random():
    rng = np.random.default_rng(36)
    for _ in range(25):
        l = random_stable_liouvillian(rng)
        # pick t so the largest rotation angle stays below 0.9 pi
        max_im = np.abs(np.linalg.eigvals(l.matrix).imag).max()
        t = 0.9 * np.pi / max_im * 0.9 if max_im > 0 else 1e-3
        pm = propagator(l, t)
        recovered = principal_log(pm).matrix / t
        rel = np.linalg.norm(recovered - l.matrix) / np.linalg.norm(l.matrix)
        assert rel < 1e-8


def test_exp_log_inverse_pair():
    rng = np.random.default_rng(37)
    l = random_stable_liouvillian(rng)
    pm = propagator(l, 1e-4)
    np.testing.assert_allclose(
        scipy.linalg.expm(principal_log(pm).matrix), pm.matrix, atol=1e-9
    )


def test_rotation_at_pi_hits_branch_cut(basis3):
    f = spin1_operators()
    t = 50e-6
    omega = np.pi / t  # single-quantum angle exactly pi
    pm = propagator(hamiltonian_superop(omega * f.fz, basis3), t)
    with pytest.raises(BranchCutError):
        principal_log(pm)


def test_singular_process_rejected():
    m = np.eye(9)
    m[3, 3] = 0.0
    with pytest.raises(SingularProcessError):
        principal_log(ProcessMatrix(dim=3, matrix=m, duration_s=1.0))


def test_near_identity_jordan_block_gets_its_exact_log_without_eig(monkeypatch):
    # P = lam I + N on a 3x3 Jordan block, N nilpotent: log P = log(lam) I + N / lam
    # - N^2 / (2 lam^2) there; ||P - I||_1 = 0.35 puts it on the Gregory series
    lam, m = 0.85, np.eye(9)
    m[:3, :3] = lam * np.eye(3) + 0.2 * np.eye(3, k=1)
    assert np.abs(m - np.eye(9)).sum(axis=0).max() <= GREGORY_RADIUS
    expected = np.zeros((9, 9))
    nil = 0.2 * np.eye(3, k=1)
    expected[:3, :3] = np.log(lam) * np.eye(3) + nil / lam - nil @ nil / (2 * lam**2)
    monkeypatch.setattr(np.linalg, "eig", lambda a: pytest.fail("eig called"))
    monkeypatch.setattr(scipy.linalg, "logm", lambda a: pytest.fail("logm called"))
    log = principal_log(ProcessMatrix(dim=3, matrix=m, duration_s=1.0)).matrix
    np.testing.assert_allclose(log, expected, rtol=0, atol=2e-16)


def test_gregory_terms_are_the_least_the_tail_bound_allows():
    # on the series path ||Y||_1 <= r; the tail after Y^(2K+1) / (2K+1) is at most
    # 2 r^(2K+3) / ((2K+3)(1 - r^2)), against a log of about 2 r
    r = GREGORY_RADIUS / (2 - GREGORY_RADIUS)

    def tail_bound_met(k):
        return r ** (2 * k + 3) / ((2 * k + 3) * (1 - r**2)) <= 2.0**-53 * r

    assert tail_bound_met(GREGORY_TERMS) and not tail_bound_met(GREGORY_TERMS - 1)
    # the worst case: the eigenvalue 1 - GREGORY_RADIUS, where |Y| = r
    m = np.eye(9)
    m[0, 0] = 1.0 - GREGORY_RADIUS
    log = principal_log(ProcessMatrix(dim=3, matrix=m, duration_s=1.0)).matrix
    np.testing.assert_allclose(log[0, 0], np.log1p(-GREGORY_RADIUS), rtol=4e-16)


def test_stacked_log_matches_per_matrix_calls(monkeypatch, basis3):
    # one stack with every branch of the masked log kernel and the Gregory
    # series: each matrix gets exactly the log, or the error, of a one-matrix call
    rng = np.random.default_rng(38)
    singular = np.eye(9)
    singular[3, 3] = 0.0
    t_cut = 50e-6
    at_cut = propagator(hamiltonian_superop(np.pi / t_cut * spin1_operators().fz, basis3), t_cut)
    defective = np.eye(9)
    # a Jordan block: eigenvectors are parallel; ||P - I||_1 = 1 puts it beyond
    # the Gregory series, on the eigen path
    defective[0, 1] = 1.0
    near_defective = defective.copy()
    near_defective[1, 1] += 1e-9  # diagonalizable, with cond_F(V) near 1e9
    vinv_ok = _eigvec_inverse(np.linalg.eig(np.stack([defective, near_defective]))[1])[1]
    assert not vinv_ok.any()
    stack = [
        propagator(random_stable_liouvillian(rng), 1e-4),
        ProcessMatrix(dim=3, matrix=singular, duration_s=2e-4),
        at_cut,
        ProcessMatrix(dim=3, matrix=defective, duration_s=3e-4),
        propagator(random_stable_liouvillian(rng), 4e-4),
        ProcessMatrix(dim=3, matrix=near_defective, duration_s=5e-4),
        propagator(random_stable_liouvillian(rng), 1e-6),  # the Gregory series
    ]
    mats = np.stack([pm.matrix for pm in stack])
    durations = np.array([pm.duration_s for pm in stack])
    distances = np.abs(mats - np.eye(9)).sum(axis=1).max(axis=1)
    assert (distances[:-1] > GREGORY_RADIUS).all() and distances[-1] <= GREGORY_RADIUS
    singles = [_principal_logs(mats[k : k + 1], durations[k : k + 1]) for k in range(len(stack))]
    logm_calls = []
    logm = scipy.linalg.logm
    monkeypatch.setattr(scipy.linalg, "logm", lambda m: logm_calls.append(m) or logm(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the discarded logs of screened matrices warn nothing
        logs, errors = _principal_logs(mats, durations)
    assert [(k, type(e), str(e)) for k, e in errors.items()] == [
        (k, type(err[0]), str(err[0])) for k, (_, err) in enumerate(singles) if err
    ]
    assert [type(errors[k]) for k in errors] == [SingularProcessError, BranchCutError]
    for got, (want, _) in zip(logs, singles):
        np.testing.assert_array_equal(got, want[0])
    # only the two defective matrices take the Schur-form fallback
    assert len(logm_calls) == 2
    assert np.array_equal(logm_calls[0], defective) and np.array_equal(logm_calls[1], near_defective)
    expected = np.zeros((9, 9))
    expected[0, 1] = 1.0
    np.testing.assert_allclose(logs[3], expected, atol=1e-12)
    admissible = [0, 3, 4, 5, 6]
    np.testing.assert_array_equal(_log_stack(mats[admissible], durations[admissible]),
                                  logs[admissible])
    for k in admissible:
        np.testing.assert_array_equal(principal_log(stack[k]).matrix, logs[k])


def test_complex_fallback_log_is_nan_and_names_its_time(monkeypatch):
    # a Schur-form log with an imaginary residue has no real principal branch:
    # its slice is NaN, its BranchCutError names its duration, and the rest of
    # the batch is each matrix logged alone
    rng = np.random.default_rng(39)
    near_defective = np.eye(9)
    near_defective[0, 1] = 1.0  # ||P - I||_1 = 1: beyond the Gregory series
    near_defective[1, 1] += 1e-9  # cond_F(V) near 1e9: the logm fallback
    durations = np.array([1e-6, 2e-4, 4e-4])
    mats = np.stack([
        [propagator(random_stable_liouvillian(rng), t).matrix for t in durations]
        for _ in range(2)
    ])
    mats[1, 1] = near_defective
    singles = {
        (j, k): _principal_logs(mats[j, k][None], durations[k : k + 1])
        for j in range(2) for k in range(3) if (j, k) != (1, 1)
    }
    logm_calls = []
    logm = scipy.linalg.logm
    monkeypatch.setattr(scipy.linalg, "logm", lambda m: logm_calls.append(m) or logm(m) + 1e-3j)
    logs, errors = _principal_logs(mats, durations)
    assert len(logm_calls) == 1 and np.array_equal(logm_calls[0], near_defective)
    assert list(errors) == [(1, 1)] and isinstance(errors[1, 1], BranchCutError)
    assert str(errors[1, 1]).startswith(
        "matrix logarithm at t = 0.0002 s has imaginary residue 1.000e-03;"
    )
    assert np.isnan(logs[1, 1]).all()
    for (j, k), (alone, alone_errors) in singles.items():
        assert not alone_errors
        np.testing.assert_array_equal(logs[j, k], alone[0])


def test_stacked_log_names_the_time_at_the_cut(basis3):
    f = spin1_operators()
    t = 50e-6
    at_cut = propagator(hamiltonian_superop(np.pi / t * f.fz, basis3), t)
    fine = propagator(hamiltonian_superop(1000.0 * f.fz, basis3), 1e-4)
    pair = np.stack([fine.matrix, at_cut.matrix, fine.matrix]), np.array([1e-4, t, 1e-4])
    with pytest.raises(BranchCutError, match=r"t = 5e-05 s"):
        mean_log_liouvillian(pair)
