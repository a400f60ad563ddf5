import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from liouvlab.basis import OperatorBasis, build_basis
from liouvlab.exceptions import DimensionError, NonHermitianError
from liouvlab.superop import (
    HermitianParams,
    KossakowskiMatrix,
    LindbladModel,
    Superoperator,
    assemble_liouvillian,
    dissipator_superop,
    explicit_qutrit_superop,
    hamiltonian_superop,
    kossakowski_generator,
    kossakowski_shift,
    params_from_superop,
    spin1_operators,
    zeeman_hamiltonian,
)

from conftest import random_hermitian
from qutrit_table import explicit_qutrit_superop as hand_written_table


def brute_force_hamiltonian_superop(h, elements):
    """Independent entry-by-entry evaluation of -(i/2) Tr([H, s_j] s_i)."""
    n = len(elements)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            val = -0.5j * np.trace((h @ elements[j] - elements[j] @ h) @ elements[i])
            assert abs(val.imag) < 1e-12
            out[i, j] = val.real
    return out


def brute_force_dissipator(jumps, elements):
    n = len(elements)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0 + 0.0j
            for l in jumps:
                ldl = l.conj().T @ l
                a = 0.5 * (ldl @ elements[j] + elements[j] @ ldl) - l @ elements[j] @ l.conj().T
                acc += 0.5 * np.trace(a @ elements[i])
            assert abs(acc.imag) < 1e-10
            out[i, j] = acc.real
    return out


# ---------------------------------------------------------------------------
# Hamiltonian superoperator
# ---------------------------------------------------------------------------


def test_identity_hamiltonian_gives_zero(basis3):
    k = hamiltonian_superop(2.7 * np.eye(3), basis3)
    assert np.abs(k.matrix).max() < 1e-14


def test_explicit_matches_generic(basis3):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = HermitianParams(h=rng.normal(size=9))
        generic = hamiltonian_superop(p.to_matrix(), basis3)
        explicit = explicit_qutrit_superop(p)
        np.testing.assert_allclose(explicit.matrix, generic.matrix, atol=1e-12)


def test_fz_precession_generator(basis3):
    f = spin1_operators()
    omega = 2.0 * np.pi * 350.0
    k = hamiltonian_superop(omega * f.fz, basis3)
    oracle = brute_force_hamiltonian_superop(omega * f.fz, basis3.elements)
    np.testing.assert_allclose(k.matrix, oracle, atol=1e-9)
    # single-quantum coherences rotate at omega, double-quantum at 2 omega
    assert k.matrix[0, 1] == pytest.approx(-omega)
    assert k.matrix[3, 4] == pytest.approx(-2 * omega)
    assert k.matrix[5, 6] == pytest.approx(-omega)
    # populations (a3, a8) and the trace component are untouched
    for idx in (2, 7, 8):
        assert np.abs(k.matrix[idx]).max() < 1e-9
        assert np.abs(k.matrix[:, idx]).max() < 1e-9


def test_antisymmetry_property(basis3):
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = hamiltonian_superop(random_hermitian(rng, scale=100.0), basis3).matrix
        assert np.abs(k + k.T).max() < 1e-12 * max(1.0, np.abs(k).max())
        assert np.abs(np.diag(k)).max() < 1e-12
        assert np.abs(k[-1]).max() < 1e-12
        assert np.abs(k[:, -1]).max() < 1e-12


def test_unitary_on_traceless_block(basis3):
    rng = np.random.default_rng(9)
    k = hamiltonian_superop(random_hermitian(rng, scale=3.0), basis3)
    u = scipy.linalg.expm(k.matrix)[:8, :8]
    np.testing.assert_allclose(u.T @ u, np.eye(8), atol=1e-10)


def test_non_hermitian_rejected(basis3):
    with pytest.raises(NonHermitianError):
        hamiltonian_superop(np.triu(np.ones((3, 3))), basis3)


def test_model_hamiltonian_non_hermitian_rejected():
    with pytest.raises(NonHermitianError, match="model Hamiltonian is not Hermitian"):
        LindbladModel(hamiltonian=np.triu(np.ones((3, 3))))


def test_hermiticity_tolerance_is_relative_to_the_norm(basis3):
    # one anti-Hermitian residual of 1e-9: negligible beside a norm of 1e6,
    # not beside a norm of 1, for the model and the superoperator alike
    rng = np.random.default_rng(10)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1e-9
    for scale, accepted in ((1e6, True), (1.0, False)):
        h = random_hermitian(rng, scale=scale)
        h = h / np.linalg.norm(h) * scale + skew
        if accepted:
            LindbladModel(hamiltonian=h)
            hamiltonian_superop(h, basis3)
        else:
            with pytest.raises(NonHermitianError, match="model Hamiltonian"):
                LindbladModel(hamiltonian=h)
            with pytest.raises(NonHermitianError, match="^Hamiltonian is not Hermitian"):
                hamiltonian_superop(h, basis3)


# ---------------------------------------------------------------------------
# explicit closed form
# ---------------------------------------------------------------------------


def test_explicit_zero_params():
    assert np.abs(explicit_qutrit_superop(HermitianParams(h=np.zeros(9))).matrix).max() == 0


def test_explicit_h3_only_entries():
    h3 = 0.83
    p = np.zeros(9)
    p[2] = h3
    m = explicit_qutrit_superop(HermitianParams(h=p)).matrix
    expected = {
        (0, 2): 2 * h3,
        (2, 0): -2 * h3,
        (3, 5): -h3,
        (5, 3): h3,
        (4, 6): -h3,
        (6, 4): h3,
    }
    for (i, j), val in expected.items():
        assert m[i, j] == pytest.approx(val)
    mask = np.ones((9, 9), dtype=bool)
    for ij in expected:
        mask[ij] = False
    assert np.abs(m[mask]).max() == 0.0
    # the generic mapping is the authority for all signs
    basis = build_basis(3)
    np.testing.assert_allclose(
        m, hamiltonian_superop(HermitianParams(h=p).to_matrix(), basis).matrix, atol=1e-14
    )


def test_explicit_matches_hand_written_table():
    rng = np.random.default_rng(16)
    for _ in range(50):
        p = HermitianParams(h=rng.normal(size=9))
        table = hand_written_table(p).matrix
        np.testing.assert_allclose(explicit_qutrit_superop(p).matrix, table, atol=1e-12)
    # the design reproduces every structural zero of the table
    for k in range(9):
        unit = HermitianParams(h=np.eye(9)[k])
        zeros = hand_written_table(unit).matrix == 0.0
        assert np.abs(explicit_qutrit_superop(unit).matrix[zeros]).max() < 1e-15


def _traceless(h: np.ndarray) -> np.ndarray:
    out = h.copy()
    shift = (h[0] + h[5] + h[8]) / 3.0
    out[[0, 5, 8]] -= shift
    return out


def test_params_round_trip_traceless():
    # the identity component of H is unobservable, so exact recovery is
    # defined on the traceless gauge slice
    rng = np.random.default_rng(5)
    p = HermitianParams(h=_traceless(rng.normal(size=9)))
    fit = params_from_superop(explicit_qutrit_superop(p))
    np.testing.assert_allclose(fit.params.h, p.h, atol=1e-12)
    assert fit.residual < 1e-10


def test_params_recover_traceless_representative():
    rng = np.random.default_rng(15)
    p = HermitianParams(h=rng.normal(size=9))
    fit = params_from_superop(explicit_qutrit_superop(p))
    np.testing.assert_allclose(fit.params.h, _traceless(p.h), atol=1e-12)
    # the generator itself round-trips exactly either way
    np.testing.assert_allclose(
        explicit_qutrit_superop(fit.params).matrix,
        explicit_qutrit_superop(p).matrix,
        atol=1e-12,
    )


def test_params_least_squares_residual(basis3):
    rng = np.random.default_rng(6)
    p = HermitianParams(h=rng.normal(size=9))
    perturb = rng.normal(size=(9, 9)) * 0.01
    perturb = 0.5 * (perturb + perturb.T)  # symmetric part is not representable
    target = explicit_qutrit_superop(p).matrix + perturb
    fit = params_from_superop(Superoperator(dim=3, matrix=target))

    # normal-equations oracle built from the generic mapping (pinv handles
    # the trace null direction)
    design = np.column_stack(
        [
            hamiltonian_superop(HermitianParams(h=np.eye(9)[k]).to_matrix(), basis3).matrix.ravel()
            for k in range(9)
        ]
    )
    sol = np.linalg.pinv(design.T @ design) @ design.T @ target.ravel()
    np.testing.assert_allclose(fit.params.h, sol, atol=1e-10)
    resid_oracle = np.linalg.norm(design @ sol - target.ravel())
    assert fit.residual == pytest.approx(resid_oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# dissipator
# ---------------------------------------------------------------------------


def test_identity_jump_is_zero(basis3):
    r = dissipator_superop([1.3 * np.eye(3)], basis3)
    assert np.abs(r.matrix).max() < 1e-12


def test_equal_rate_axes_dephasing_sectors(basis3):
    # equal-rate dephasing along all three axes is rotationally invariant:
    # diagonal in the irreducible dipole/quadrupole sectors (rates gamma and
    # 3 gamma), which the Gell-Mann basis mixes (e.g. F_x = (s1 + s6)/sqrt 2)
    f = spin1_operators()
    gamma = 4.0
    jumps = [np.sqrt(gamma) * fk for fk in f]
    r = dissipator_superop(jumps, basis3)
    oracle = brute_force_dissipator(jumps, basis3.elements)
    np.testing.assert_allclose(r.matrix, oracle, atol=1e-10)
    block = r.matrix[:8, :8]
    np.testing.assert_allclose(block, block.T, atol=1e-10)
    rates = np.sort(np.linalg.eigvalsh(block))
    np.testing.assert_allclose(rates[:3], gamma, atol=1e-10)
    np.testing.assert_allclose(rates[3:], 3.0 * gamma, atol=1e-10)
    assert np.abs(r.matrix[8]).max() < 1e-12
    assert r.matrix[8, 8] == pytest.approx(0.0, abs=1e-12)


def test_isotropic_from_gell_mann_jumps(basis3):
    # uniform jumps along all eight traceless basis directions give the
    # fully isotropic relaxation with an untouched trace row
    gamma_iso = 13.3
    jumps = [np.sqrt(gamma_iso / 6.0) * s for s in basis3.elements[:8]]
    r = dissipator_superop(jumps, basis3)
    target = gamma_iso * np.diag([1.0] * 8 + [0.0])
    np.testing.assert_allclose(r.matrix, target, atol=1e-10)


def test_dissipator_trace_row_zero(basis3):
    rng = np.random.default_rng(8)
    for _ in range(20):
        jumps = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]
        r = dissipator_superop(jumps, basis3)
        assert np.abs(r.matrix[-1]).max() < 1e-12 * max(1.0, np.abs(r.matrix).max())


def test_dissipator_dimension_check(basis3):
    with pytest.raises(DimensionError):
        dissipator_superop([np.eye(2)], basis3)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_trivial_cases(basis3):
    rng = np.random.default_rng(12)
    hc = hamiltonian_superop(random_hermitian(rng), basis3)
    rt = dissipator_superop([rng.normal(size=(3, 3)) + 0j], basis3)
    zero = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    np.testing.assert_allclose(assemble_liouvillian(zero, rt).matrix, -rt.matrix)
    np.testing.assert_allclose(assemble_liouvillian(hc, zero).matrix, hc.matrix)
    combined = assemble_liouvillian(hc, rt)
    assert np.abs(combined.matrix[-1]).max() < 1e-10 * max(1.0, np.abs(rt.matrix).max())


def test_assemble_dimension_mismatch(basis3):
    zero2 = Superoperator(dim=2, matrix=np.zeros((4, 4)))
    zero3 = Superoperator(dim=3, matrix=np.zeros((9, 9)))
    with pytest.raises(DimensionError):
        assemble_liouvillian(zero2, zero3)


def test_lindblad_model_liouvillian(basis3):
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, scale=50.0)
    jumps = [0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))]
    model = LindbladModel(h, jumps)
    l = model.liouvillian(basis3)
    expected = hamiltonian_superop(h, basis3).matrix - dissipator_superop(jumps, basis3).matrix
    np.testing.assert_allclose(l.matrix, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Kossakowski form
# ---------------------------------------------------------------------------


def _random_psd_kossakowski(rng, scale=50.0) -> KossakowskiMatrix:
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    return KossakowskiMatrix(dim=3, c=scale * (g @ g.conj().T) / 9.0)


def test_shift_with_zero_hamiltonian_is_identity(basis3):
    rng = np.random.default_rng(21)
    c = _random_psd_kossakowski(rng)
    shifted = kossakowski_shift(c, np.zeros((3, 3)), basis3)
    np.testing.assert_allclose(shifted.c, c.c, atol=0)


def test_shift_absorbs_larmor_precession(basis3):
    f = spin1_operators()
    omega = 2.0 * np.pi * 150.0
    zero_c = KossakowskiMatrix(dim=3, c=np.zeros((9, 9), dtype=complex))
    shifted = kossakowski_shift(zero_c, omega * f.fz, basis3)
    # only the identity row/column carries the absorbed Hamiltonian
    interior = shifted.c[:8, :8]
    assert np.abs(interior).max() == 0.0
    assert np.abs(shifted.c[:, 8]).max() > 0.0
    g_ham = kossakowski_generator(zero_c, omega * f.fz, basis3)
    g_shift = kossakowski_generator(shifted, np.zeros((3, 3)), basis3)
    np.testing.assert_allclose(g_shift.matrix, g_ham.matrix, atol=1e-10 * omega)
    # and the evolution is pure Larmor precession
    expected = hamiltonian_superop(omega * f.fz, basis3)
    np.testing.assert_allclose(g_shift.matrix, expected.matrix, atol=1e-10 * omega)


def test_shifted_matrix_not_psd(basis3):
    f = spin1_operators()
    zero_c = KossakowskiMatrix(dim=3, c=np.zeros((9, 9), dtype=complex))
    shifted = kossakowski_shift(zero_c, 2.0 * np.pi * 150.0 * f.fz, basis3)
    herm_part = 0.5 * (shifted.c + shifted.c.conj().T)
    assert np.linalg.eigvalsh(herm_part).min() < 0.0


def test_shift_equivalence_random(basis3):
    rng = np.random.default_rng(22)
    t = 1e-3
    for _ in range(20):
        c = _random_psd_kossakowski(rng)
        hr = random_hermitian(rng, scale=300.0)
        g_full = kossakowski_generator(c, hr, basis3)
        g_shifted = kossakowski_generator(
            kossakowski_shift(c, hr, basis3), np.zeros((3, 3)), basis3
        )
        p_full = scipy.linalg.expm(g_full.matrix * t)
        p_shifted = scipy.linalg.expm(g_shifted.matrix * t)
        assert np.abs(p_full - p_shifted).max() < 1e-10


def test_kossakowski_generator_pure_hamiltonian_limit(basis3):
    rng = np.random.default_rng(23)
    hr = random_hermitian(rng, scale=10.0)
    zero_c = KossakowskiMatrix(dim=3, c=np.zeros((9, 9), dtype=complex))
    g = kossakowski_generator(zero_c, hr, basis3)
    np.testing.assert_allclose(g.matrix, hamiltonian_superop(hr, basis3).matrix, atol=1e-10)


def test_kossakowski_psd_generates_decay(basis3):
    # a PSD coefficient matrix must produce a contractive semigroup
    rng = np.random.default_rng(24)
    c = _random_psd_kossakowski(rng, scale=20.0)
    g = kossakowski_generator(c, np.zeros((3, 3)), basis3)
    p = scipy.linalg.expm(g.matrix * 1e-3)
    assert np.abs(np.linalg.eigvals(p)).max() <= 1.0 + 1e-9
    assert np.abs(g.matrix[-1]).max() < 1e-8 * np.abs(g.matrix).max()


def brute_force_kossakowski(c, h, elements):
    """Entry-by-entry (1/2) Tr(sigma_i G(sigma_j)) of the basis-form generator."""
    n = len(elements)
    out = np.zeros((n, n))
    for j, sj in enumerate(elements):
        act = -1j * (h @ sj - sj @ h)
        for a, sa in enumerate(elements):
            for b, sb in enumerate(elements):
                act = act + c[a, b] * (2 * sa @ sj @ sb - sb @ sa @ sj - sj @ sb @ sa)
        for i, si in enumerate(elements):
            val = 0.5 * np.trace(act @ si)
            assert abs(val.imag) < 1e-10 * max(1.0, abs(val))
            out[i, j] = val.real
    return out


@pytest.mark.parametrize("d", [2, 4])
def test_kossakowski_generator_trace_oracle(d):
    rng = np.random.default_rng(25 + d)
    basis = build_basis(d)
    n = d * d
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = KossakowskiMatrix(dim=d, c=5.0 * (g @ g.conj().T) / n)
    hr = random_hermitian(rng, d=d, scale=10.0)
    for cm in (c, kossakowski_shift(c, hr, basis)):
        got = kossakowski_generator(cm, hr, basis).matrix
        oracle = brute_force_kossakowski(cm.c, hr, basis.elements)
        np.testing.assert_allclose(got, oracle, atol=1e-11 * np.abs(oracle).max())


def test_kossakowski_generator_memory_d6():
    # a fresh basis object starts without its cached product tensor
    d = 6
    n = d * d
    basis = OperatorBasis(dim=d, elements=build_basis(d).elements)
    rng = np.random.default_rng(26)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = KossakowskiMatrix(dim=d, c=(g @ g.conj().T) / n)
    tracemalloc.start()
    try:
        kossakowski_generator(c, np.zeros((d, d)), basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# spin operators and Zeeman Hamiltonians
# ---------------------------------------------------------------------------


def test_spin1_commutators():
    f = spin1_operators()
    assert np.linalg.norm(f.fx @ f.fy - f.fy @ f.fx - 1j * f.fz) < 1e-14
    assert np.linalg.norm(f.fy @ f.fz - f.fz @ f.fy - 1j * f.fx) < 1e-14
    assert np.linalg.norm(f.fz @ f.fx - f.fx @ f.fz - 1j * f.fy) < 1e-14


def test_spin1_fz_diagonal():
    f = spin1_operators()
    np.testing.assert_allclose(f.fz, np.diag([1.0, 0.0, -1.0]), atol=0)


def test_spin1_casimir():
    f = spin1_operators()
    total = f.fx @ f.fx + f.fy @ f.fy + f.fz @ f.fz
    np.testing.assert_allclose(total, 2.0 * np.eye(3), atol=1e-14)


def test_spin1_eigenvalues():
    f = spin1_operators()
    for fk in f:
        np.testing.assert_allclose(np.linalg.eigvalsh(fk), [-1.0, 0.0, 1.0], atol=1e-14)


def test_zeeman_hamiltonian():
    f = spin1_operators()
    assert np.abs(zeeman_hamiltonian((0, 0, 0))).max() == 0.0
    omega = 2.0 * np.pi * 500.0
    np.testing.assert_allclose(
        zeeman_hamiltonian((0, 0, omega)), omega * np.diag([1.0, 0.0, -1.0]), atol=1e-12
    )
    qy = 2.0 * np.pi * 1000.0
    np.testing.assert_allclose(
        zeeman_hamiltonian((0, 0, 0), (0, qy, 0)), qy * (f.fy @ f.fy), atol=1e-12
    )


def test_superoperator_json_round_trip(basis3):
    rng = np.random.default_rng(30)
    s = hamiltonian_superop(random_hermitian(rng), basis3)
    s2 = Superoperator.from_json(json.loads(json.dumps(s.to_json())))
    np.testing.assert_allclose(s2.matrix, s.matrix, atol=0)
