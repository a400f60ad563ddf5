
import numpy as np
import pytest

from liouvlab.basis import (
    BlochVector,
    DensityMatrix,
    OperatorBasis,
    build_basis,
    devectorize,
    vectorize,
)
from liouvlab.dynamics import ProcessMatrix, TimeGrid
from liouvlab.estimation import RelaxationModel
from liouvlab.exceptions import DimensionError, NonHermitianError
from liouvlab.superop import HermitianParams, KossakowskiMatrix, LindbladModel, Superoperator
from liouvlab.tomography import TomographySet

from conftest import random_density_matrix

# The eight conventional Gell-Mann matrices plus the scaled identity,
# hardcoded independently of the construction code.
GM3 = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.diag([1, 1, -2]).astype(complex) / np.sqrt(3),
    np.sqrt(2.0 / 3.0) * np.eye(3, dtype=complex),
]

# One experimentally reconstructed state (x-polarized superposition with
# phase pi/2) used as realistic ingestion data.
EXP_STATE_5 = np.array(
    [
        [0.467, 0.041 - 0.436j, -0.010 + 0.021j],
        [0.041 + 0.436j, 0.480, -0.035 - 0.033j],
        [-0.010 - 0.021j, -0.035 + 0.033j, 0.053],
    ]
)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthonormality(d):
    b = build_basis(d)
    gram = 0.5 * np.einsum("iab,jba->ij", b.elements, b.elements)
    assert np.abs(gram - np.eye(d * d)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_hermiticity_of_elements(d):
    for s in build_basis(d).elements:
        assert np.linalg.norm(s - s.conj().T) < 1e-14


def test_d3_matches_conventional_gell_mann():
    b = build_basis(3)
    for got, want in zip(b.elements, GM3):
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_d2_is_pauli_then_identity():
    b = build_basis(2)
    paulis = [
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
        np.eye(2),
    ]
    for got, want in zip(b.elements, paulis):
        np.testing.assert_allclose(got, want, atol=1e-15)


def test_d4_gram_matrix_oracle():
    b = build_basis(4)
    assert b.elements.shape == (16, 4, 4)
    for i in range(16):
        for j in range(16):
            val = 0.5 * np.trace(b.elements[i] @ b.elements[j])
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_last_element_is_scaled_identity():
    for d in (2, 3, 5):
        b = build_basis(d)
        np.testing.assert_allclose(b.elements[-1], np.sqrt(2.0 / d) * np.eye(d), atol=1e-15)


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        build_basis(1)
    with pytest.raises(DimensionError):
        build_basis(0)


def test_vectorize_maximally_mixed(basis3):
    v = vectorize(DensityMatrix.from_matrix(np.eye(3) / 3), basis3)
    expected = np.zeros(9)
    expected[8] = 1.0 / np.sqrt(6.0)
    np.testing.assert_allclose(v.coords, expected, atol=1e-14)
    assert abs(v.coords[-1] - 0.408248) < 1e-6


def test_vectorize_basis_state(basis3):
    rho = DensityMatrix.from_matrix(np.diag([1.0, 0.0, 0.0]))
    v = vectorize(rho, basis3)
    # independent trace-formula oracle over the hardcoded basis
    oracle = np.array([0.5 * np.trace(rho.entries @ s).real for s in GM3])
    np.testing.assert_allclose(v.coords, oracle, atol=1e-14)
    expected = np.zeros(9)
    expected[2] = 0.5
    expected[7] = 1.0 / (2.0 * np.sqrt(3.0))
    expected[8] = 1.0 / np.sqrt(6.0)
    np.testing.assert_allclose(v.coords, expected, atol=1e-14)


def test_vectorize_equal_superposition(basis3):
    rho = DensityMatrix.from_matrix(0.5 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    v = vectorize(rho, basis3)
    oracle = np.array([0.5 * np.trace(rho.entries @ s).real for s in GM3])
    np.testing.assert_allclose(v.coords, oracle, atol=1e-14)
    expected = np.zeros(9)
    expected[0] = 0.5
    expected[7] = 1.0 / (2.0 * np.sqrt(3.0))
    expected[8] = 1.0 / np.sqrt(6.0)
    np.testing.assert_allclose(v.coords, expected, atol=1e-14)


def test_round_trip_random_states(basis3):
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho = random_density_matrix(rng)
        back = devectorize(vectorize(rho, basis3), basis3)
        np.testing.assert_allclose(back.entries, rho.entries, atol=1e-12)


def test_round_trip_on_vectors(basis3):
    # devectorize then vectorize is the identity on trace-pinned real vectors
    rng = np.random.default_rng(3)
    for _ in range(20):
        coords = rng.normal(size=9) * 0.05
        coords[8] = 1.0 / np.sqrt(6.0)
        v = BlochVector(dim=3, coords=coords)
        try:
            rho = devectorize(v, basis3)
        except ValueError:
            continue  # drew an unphysical vector; irrelevant here
        np.testing.assert_allclose(vectorize(rho, basis3).coords, coords, atol=1e-12)


def test_devectorize_identity_component(basis3):
    coords = np.zeros(9)
    coords[8] = 1.0 / np.sqrt(6.0)
    rho = devectorize(BlochVector(dim=3, coords=coords), basis3)
    np.testing.assert_allclose(rho.entries, np.eye(3) / 3.0, atol=1e-14)


def test_experimental_state_round_trip(basis3):
    rho = DensityMatrix.from_matrix(EXP_STATE_5)
    v = vectorize(rho, basis3)
    again = vectorize(devectorize(v, basis3), basis3)
    np.testing.assert_allclose(again.coords, v.coords, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_trace_pinning(d):
    rng = np.random.default_rng(d)
    b = build_basis(d)
    for _ in range(10):
        v = vectorize(random_density_matrix(rng, d), b)
        assert abs(v.coords[-1] - np.sqrt(1.0 / (2.0 * d))) < 1e-12


def test_vectorize_rejects_non_hermitian(basis3):
    from liouvlab.basis import coords_of

    m = np.array([[0.5, 0.2, 0], [0.0, 0.5, 0], [0, 0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitianError):
        coords_of(m + 1j * np.triu(np.ones((3, 3)), 1) * 0.3, basis3)


def test_dimension_mismatch(basis3):
    b2 = build_basis(2)
    rho = DensityMatrix.from_matrix(np.eye(3) / 3)
    with pytest.raises(DimensionError):
        vectorize(rho, b2)
    v = vectorize(rho, basis3)
    with pytest.raises(DimensionError):
        devectorize(v, b2)


def test_density_matrix_validation():
    with pytest.raises(NonHermitianError):
        DensityMatrix.from_matrix(np.array([[1, 0.5], [0.0, 0]]) + 0j)
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.eye(3))  # trace 3
    with pytest.raises(ValueError):
        DensityMatrix.from_matrix(np.diag([1.5, -0.5, 0.0]))  # strongly negative


def test_density_matrix_tolerates_marginal_negativity():
    # a reconstructed state may dip just below zero
    rho = DensityMatrix.from_matrix(np.diag([1.0 + 6e-7, 0.0, -6e-7]))
    assert rho.dim == 3


def _pinned_stack():
    m = np.ones((2, 4, 4))
    m[:, -1] = 0.5  # the trace row of a qubit Bloch vector
    return m


# (caller's array, wrapper built from it, stored array of the wrapper); each
# array has the dtype its wrapper stores, so no conversion copies it first
FROZEN_CASES = {
    "OperatorBasis": (lambda: build_basis(2).elements.copy(),
                      lambda a: OperatorBasis(dim=2, elements=a), lambda w: w.elements),
    "DensityMatrix": (lambda: np.eye(2, dtype=complex) / 2,
                      lambda a: DensityMatrix(dim=2, entries=a), lambda w: w.entries),
    "BlochVector": (lambda: np.zeros(4),
                    lambda a: BlochVector(dim=2, coords=a), lambda w: w.coords),
    "Superoperator": (lambda: np.zeros((9, 9)),
                      lambda a: Superoperator(dim=3, matrix=a), lambda w: w.matrix),
    "LindbladModel.hamiltonian": (lambda: np.zeros((3, 3), dtype=complex),
                                  lambda a: LindbladModel(a), lambda w: w.hamiltonian),
    "LindbladModel.jumps": (lambda: np.zeros((3, 3), dtype=complex),
                            lambda a: LindbladModel(np.eye(3), (a,)), lambda w: w.jumps[0]),
    "HermitianParams": (lambda: np.zeros(9), lambda a: HermitianParams(h=a), lambda w: w.h),
    "KossakowskiMatrix": (lambda: np.zeros((4, 4), dtype=complex),
                          lambda a: KossakowskiMatrix(dim=2, c=a), lambda w: w.c),
    "ProcessMatrix": (lambda: np.eye(4),
                      lambda a: ProcessMatrix(dim=2, matrix=a, duration_s=1.0),
                      lambda w: w.matrix),
    "TimeGrid": (lambda: np.array([1.0, 2.0]), lambda a: TimeGrid(times=a), lambda w: w.times),
    "RelaxationModel": (lambda: np.zeros(3),
                        lambda a: RelaxationModel(a, np.ones(3), 1.0),
                        lambda w: w.omega_residual),
    "TomographySet": (_pinned_stack,
                      lambda a: TomographySet(states=a, times=[1.0]),
                      lambda w: w.states),
}


@pytest.mark.parametrize("case", FROZEN_CASES)
def test_wrappers_freeze_a_copy_of_the_callers_array(case):
    make, wrap, stored = FROZEN_CASES[case]
    array = make()
    wrapper = wrap(array)
    assert array.flags.writeable
    assert not stored(wrapper).flags.writeable
    before = stored(wrapper).copy()
    array[...] += 1.0
    np.testing.assert_array_equal(stored(wrapper), before)
