"""Generalized Gell-Mann operator basis and Bloch-vector conversions.

A d-level density matrix is expanded over d**2 Hermitian basis operators
sigma_i normalized so that (1/2) Tr(sigma_i sigma_j) = delta_ij.  The first
d**2 - 1 elements are the generalized Gell-Mann matrices (the SU(d)
generators); the last element is sqrt(2/d) * identity.  The expansion
coefficients

    a_i = (1/2) Tr(rho sigma_i)

are real, turning every Hermitian operator into a real d**2-vector and (in
the other modules) every linear map on operators into a real d**2 x d**2
matrix.  For a unit-trace state the last coefficient is pinned to
sqrt(1/(2d)) by trace conservation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .exceptions import DimensionError, NonHermitianError

__all__ = [
    "OperatorBasis",
    "DensityMatrix",
    "BlochVector",
    "build_basis",
    "vectorize",
    "devectorize",
]

# Acceptance tolerances for state ingestion.  The PSD bound is deliberately
# loose: experimentally reconstructed states can be marginally unphysical.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = -1e-6


def _frozen_array(a: np.ndarray) -> np.ndarray:
    """Read-only C-contiguous copy of ``a``; the caller's array stays writable."""
    a = np.array(a, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Ordered Hermitian operator basis for a d-level system.

    Attributes:
        dim: Hilbert-space dimension d (>= 2).
        elements: array of shape (d**2, d, d); ``elements[-1]`` is
            sqrt(2/d) * identity.
    """

    dim: int
    elements: NDArray[np.complex128]

    def __post_init__(self):
        object.__setattr__(self, "elements", _frozen_array(self.elements))

    @property
    def size(self) -> int:
        return self.dim * self.dim

    @functools.cached_property
    def _product_tensor(self) -> np.ndarray:
        """Product tensor Z_abc = (1/2) Tr(sigma_a sigma_b sigma_c).

        sigma_a sigma_b = sum_c Z_abc sigma_c; F = Im Z is totally
        antisymmetric and D = Re Z totally symmetric (Bertlmann & Krammer,
        J. Phys. A 41, 235303 (2008)).  d**6 entries, built once per basis,
        so once per dimension for :func:`build_basis`.
        """
        s, n = self.elements, self.size
        pairs = np.matmul(s[:, None], s[None, :]).reshape(n * n, -1)
        z = 0.5 * pairs @ s.transpose(0, 2, 1).reshape(n, -1).T
        return _frozen_array(z.reshape(n, n, n))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated quantum state: Hermitian, unit trace, PSD within tolerance."""

    dim: int
    entries: NDArray[np.complex128]

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionError(
                f"expected a {self.dim}x{self.dim} matrix, got shape {m.shape}"
            )
        if np.linalg.norm(m - m.conj().T) > HERMITICITY_TOL:
            raise NonHermitianError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise ValueError(
                "density matrix has a significantly negative eigenvalue "
                f"({np.linalg.eigvalsh(m).min():.3e})"
            )
        object.__setattr__(self, "entries", _frozen_array(m))

    @classmethod
    def from_matrix(cls, entries) -> "DensityMatrix":
        entries = np.asarray(entries, dtype=complex)
        return cls(dim=entries.shape[0], entries=entries)


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real d**2-vector of Bloch-Fano coordinates a_i = (1/2) Tr(rho sigma_i)."""

    dim: int
    coords: NDArray[np.float64]

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.dim * self.dim,):
            raise DimensionError(
                f"expected {self.dim * self.dim} coordinates, got shape {c.shape}"
            )
        object.__setattr__(self, "coords", _frozen_array(c))


def _gell_mann_parts(d: int):
    """Symmetric, antisymmetric and diagonal SU(d) generators.

    Off-diagonal pairs are enumerated in row-major order (0,1), (0,2), ...,
    (d-2,d-1); diagonal generators are sqrt(2/(l(l+1))) diag(1,...,1,-l,0,...).
    """
    sym, asym = [], []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((d, d), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            sym.append(s)
            asym.append(a)
    diag = []
    for l in range(1, d):
        v = np.zeros(d)
        v[:l] = 1.0
        v[l] = -l
        diag.append(np.sqrt(2.0 / (l * (l + 1))) * np.diag(v).astype(complex))
    return sym, asym, diag


@functools.lru_cache(maxsize=None)
def build_basis(d: int) -> OperatorBasis:
    """Construct the d**2-element generalized Gell-Mann basis.

    For d = 3 the ordering is the conventional Gell-Mann one (pair (1,2)
    symmetric/antisymmetric, first diagonal, pairs (1,3) and (2,3), second
    diagonal); for other dimensions all symmetric pairs come first, then all
    antisymmetric pairs, then the diagonals.  The scaled identity is always
    last.  The ordering is deterministic so serialized superoperators stay
    stable across versions.

    Raises:
        DimensionError: if d < 2.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"basis dimension must be an integer >= 2, got {d!r}")
    sym, asym, diag = _gell_mann_parts(d)
    if d == 3:
        # pairs in row-major order are (0,1), (0,2), (1,2)
        ordered = [sym[0], asym[0], diag[0], sym[1], asym[1], sym[2], asym[2], diag[1]]
    else:
        ordered = sym + asym + diag
    ordered.append(np.sqrt(2.0 / d) * np.eye(d, dtype=complex))
    return OperatorBasis(dim=int(d), elements=np.array(ordered))


def _raw_coords(m: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Complex coordinates (1/2) Tr(M sigma_i) of one matrix or a stack."""
    return 0.5 * np.einsum("...ab,iba->...i", m, basis.elements)


def coords_of(matrix: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Raw Bloch coordinates (1/2) Tr(M sigma_i) of a Hermitian matrix.

    Array-level helper used by the tomography pipelines; the imaginary
    residue is checked and discarded.
    """
    raw = _raw_coords(matrix, basis)
    if np.abs(raw.imag).max() > HERMITICITY_TOL:
        raise NonHermitianError(
            "non-negligible imaginary residue in Bloch coordinates "
            f"({np.abs(raw.imag).max():.3e}); input is not Hermitian"
        )
    return raw.real


def matrix_of(coords: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Inverse of :func:`coords_of`: sum_i coords[i] * sigma_i."""
    return np.einsum("i,iab->ab", np.asarray(coords, dtype=float), basis.elements)


def vectorize(rho: DensityMatrix, basis: OperatorBasis) -> BlochVector:
    """Project a density matrix onto the operator basis.

    Raises:
        DimensionError: if ``rho.dim != basis.dim``.
        NonHermitianError: if the traces carry a non-negligible imaginary
            part (the input was corrupted rather than merely noisy).
    """
    if rho.dim != basis.dim:
        raise DimensionError(f"state dim {rho.dim} != basis dim {basis.dim}")
    return BlochVector(dim=basis.dim, coords=coords_of(rho.entries, basis))


def devectorize(v: BlochVector, basis: OperatorBasis) -> DensityMatrix:
    """Rebuild the density matrix sum_i coords[i] * sigma_i.

    Raises:
        DimensionError: if ``v.dim != basis.dim``.
    """
    if v.dim != basis.dim:
        raise DimensionError(f"vector dim {v.dim} != basis dim {basis.dim}")
    return DensityMatrix(dim=basis.dim, entries=matrix_of(v.coords, basis))
