"""Superoperators in the Bloch-Fano frame.

Every linear map on operators becomes a real d**2 x d**2 matrix acting on
Bloch vectors.  Conventions used throughout the package:

* ``hamiltonian_superop(H)`` returns the real generator of -i[H, .], i.e.
  the matrix K with entries K_ij = -(i/2) Tr([H, sigma_j] sigma_i), so that
  d|rho>>/dt = K |rho>> for purely Hamiltonian evolution.  K is
  antisymmetric with vanishing last row and column.
* ``dissipator_superop(jumps)`` returns R with entries
  R_ij = (1/2) sum_mu Tr([ (1/2){L+L, sigma_j} - L sigma_j L+ ] sigma_i),
  signed so that d|rho>>/dt contains -R |rho>>.  Trace preservation makes
  the last row of R vanish.
* A full generator is assembled as L = K - R (``assemble_liouvillian``).

Every map comes from the product tensor Z of the basis (F = Im Z): K_ij =
2 sum_k h_k F_kji, and R and the Kossakowski generator share one GKS
contraction with Z, into which a jump set enters as c = sum_mu l_mu l_mu^+.

All outputs are real: K by construction, and the GKS contraction verifies
that its imaginary residue is below 1e-10.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import OperatorBasis, build_basis, _frozen_array, _raw_coords
from .exceptions import DimensionError, NonHermitianError

__all__ = [
    "Superoperator",
    "LindbladModel",
    "HermitianParams",
    "KossakowskiMatrix",
    "SpinOperators",
    "hamiltonian_superop",
    "dissipator_superop",
    "assemble_liouvillian",
    "explicit_qutrit_superop",
    "params_from_superop",
    "kossakowski_generator",
    "kossakowski_shift",
    "spin1_operators",
    "zeeman_hamiltonian",
]

REALNESS_TOL = 1e-10
_HERM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Real d**2 x d**2 matrix acting on Bloch vectors.

    Units depend on the role: rad/s for Hamiltonian generators, 1/s for
    dissipators, dimensionless for propagators.
    """

    dim: int
    matrix: NDArray[np.float64]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _frozen_array(m))

    def to_json(self) -> dict:
        return {"dim": self.dim, "matrix": self.matrix.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Superoperator":
        """The superoperator of ``to_json``'s fields; ValueError for a NaN or
        infinite entry of its matrix."""
        matrix = np.asarray(obj["matrix"], dtype=float)
        if not np.isfinite(matrix).all():
            raise ValueError("'matrix' has a non-finite entry")
        return cls(dim=int(obj["dim"]), matrix=matrix)


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Hamiltonian (rad/s) plus quantum-jump operators (sqrt(1/s) units)."""

    hamiltonian: NDArray[np.complex128]
    jumps: tuple = ()

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        _check_hermitian(h, "model Hamiltonian")
        object.__setattr__(self, "hamiltonian", _frozen_array(h))
        object.__setattr__(
            self,
            "jumps",
            tuple(_frozen_array(np.asarray(j, dtype=complex)) for j in self.jumps),
        )

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def liouvillian(self, basis: OperatorBasis | None = None) -> Superoperator:
        """Full Bloch-frame generator K - R of the master equation."""
        basis = basis or build_basis(self.dim)
        return assemble_liouvillian(
            hamiltonian_superop(self.hamiltonian, basis),
            dissipator_superop(self.jumps, basis),
        )


@dataclass(frozen=True, eq=False)
class HermitianParams:
    """Nine real parameters of a general 3x3 Hermitian operator.

    The parametrization places h[0], h[5], h[8] on the diagonal and
    (h[1] -/+ i h[2]), (h[3] -/+ i h[4]), (h[6] -/+ i h[7]) on the
    (1,2), (1,3) and (2,3) off-diagonals.
    """

    h: NDArray[np.float64]

    def __post_init__(self):
        v = np.asarray(self.h, dtype=float)
        if v.shape != (9,):
            raise DimensionError(f"expected 9 parameters, got shape {v.shape}")
        object.__setattr__(self, "h", _frozen_array(v))

    def to_matrix(self) -> np.ndarray:
        h = self.h
        return np.array(
            [
                [h[0], h[1] - 1j * h[2], h[3] - 1j * h[4]],
                [h[1] + 1j * h[2], h[5], h[6] - 1j * h[7]],
                [h[3] + 1j * h[4], h[6] + 1j * h[7], h[8]],
            ]
        )

    def to_json(self) -> dict:
        return {"h": self.h.tolist()}


@dataclass(frozen=True, eq=False)
class KossakowskiMatrix:
    """Coefficient matrix of the basis-form dissipator (1/s).

    The generator built from it is
        drho/dt = -i[H, rho] + sum_ij c_ij ([s_i, rho s_j] + [s_i rho, s_j]),
    with the basis including the scaled identity as its last element.
    Hermitian (and PSD) before a shift; a shifted matrix that absorbs a
    Hamiltonian need be neither.
    """

    dim: int
    c: NDArray[np.complex128]

    def __post_init__(self):
        m = np.asarray(self.c, dtype=complex)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        object.__setattr__(self, "c", _frozen_array(m))


class SpinOperators(NamedTuple):
    """Dimensionless f=1 angular-momentum matrices in the |+1>,|0>,|-1> basis."""

    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray


def _check_square(m: np.ndarray, d: int, what: str):
    if m.shape != (d, d):
        raise DimensionError(f"{what} has shape {m.shape}, expected ({d}, {d})")


def _check_hermitian(h: np.ndarray, what: str):
    if np.linalg.norm(h - h.conj().T) > _HERM_TOL * max(1.0, np.linalg.norm(h)):
        raise NonHermitianError(f"{what} is not Hermitian")


def _real_part(m: np.ndarray, what: str) -> np.ndarray:
    resid = np.abs(m.imag).max() if np.iscomplexobj(m) else 0.0
    if resid > REALNESS_TOL * max(1.0, np.abs(m).max()):
        raise ValueError(f"{what} has imaginary residue {resid:.3e}")
    return np.ascontiguousarray(m.real) if np.iscomplexobj(m) else m


def _hermitian_coords(matrix, basis: OperatorBasis, what: str) -> np.ndarray:
    """Real Bloch coordinates h_k = (1/2) Tr(H sigma_k) of a Hermitian H."""
    h = np.asarray(matrix, dtype=complex)
    _check_square(h, basis.dim, what)
    _check_hermitian(h, what)
    return _raw_coords(h, basis).real


def _gks_action(c: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Bloch matrix of rho -> sum_ab c_ab (2 s_a rho s_b - s_b s_a rho - rho s_b s_a).

    Entry (i, j) is sum_ab c_ab (2 T_ajbi - T_baji - T_jbai) with
    T_pqrs = (1/2) Tr(s_p s_q s_r s_s) = sum_e Z_pqe Z_ers (Gorini,
    Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976)).  Contracting c
    into Z first keeps every intermediate at d**6 entries.
    """
    z = basis._product_tensor
    x = np.tensordot(c, z, axes=(0, 0))  # x_bje = sum_a c_ab Z_aje
    first = np.tensordot(z, x, axes=([0, 1], [2, 0]))  # sum_be Z_ebi x_bje
    w = np.tensordot(c, z, axes=([0, 1], [1, 0]))
    wz = np.tensordot(w, z, axes=(0, 0))  # sum_e w_e Z_epq
    return 2.0 * first - wz - wz.T


def hamiltonian_superop(hamiltonian, basis: OperatorBasis) -> Superoperator:
    """Real Bloch-frame generator of -i[H, .].

    Entries are K_ij = -(i/2) Tr([H, sigma_j] sigma_i) = 2 sum_k h_k F_kji
    with h the Bloch coordinates of H.  The output is antisymmetric, has
    zero diagonal, and zero last row and column (the identity component
    neither drives nor is driven).

    Raises:
        NonHermitianError: if H is not Hermitian.
        DimensionError: on shape mismatch with the basis.
    """
    h = _hermitian_coords(hamiltonian, basis, "Hamiltonian")
    n = basis.size
    k = -2.0 * h @ basis._product_tensor.imag.reshape(n, n * n)
    return Superoperator(dim=basis.dim, matrix=k.reshape(n, n))


def dissipator_superop(jumps: Sequence, basis: OperatorBasis) -> Superoperator:
    """Bloch-frame relaxation matrix R of a set of jump operators.

    R_ij = (1/2) sum_mu Tr([ (1/2){L+L, sigma_j} - L sigma_j L+ ] sigma_i);
    the generated evolution contains -R |rho>>.  R is minus one half of the
    GKS form of :func:`kossakowski_generator` with c = sum_mu l_mu l_mu^+,
    l_mu the complex coordinates of L_mu.  The last row vanishes because
    the jump terms conserve the trace.

    Raises:
        DimensionError: if any jump operator has the wrong shape.
    """
    d = basis.dim
    for mu, jump in enumerate(jumps):
        _check_square(np.asarray(jump), d, f"jump operator {mu}")
    lc = _raw_coords(np.array(jumps, dtype=complex).reshape(-1, d, d), basis)
    r = -0.5 * _gks_action(lc.T @ lc.conj(), basis)
    return Superoperator(dim=d, matrix=_real_part(r, "dissipator superoperator"))


def assemble_liouvillian(hc: Superoperator, rt: Superoperator) -> Superoperator:
    """Combine a Hamiltonian generator and a relaxation matrix: L = hc - rt.

    ``hc`` already carries the -i convention of :func:`hamiltonian_superop`,
    so subtraction of the dissipator is all that is left.
    """
    if hc.dim != rt.dim:
        raise DimensionError(f"dimension mismatch: {hc.dim} vs {rt.dim}")
    return Superoperator(dim=hc.dim, matrix=hc.matrix - rt.matrix)


def _qutrit_design(hamiltonians) -> np.ndarray:
    """Read-only 81 x P matrix whose column p is the flattened K(H_p)."""
    basis = build_basis(3)
    cols = [hamiltonian_superop(h, basis).matrix.ravel() for h in hamiltonians]
    return _frozen_array(np.column_stack(cols))


@functools.cache
def _hermitian_design() -> np.ndarray:
    """81 x 9 map from ``HermitianParams.h`` to the flattened generator.

    2F contracted with the fixed map from the nine parameters to Bloch
    coordinates, one column per unit parameter.
    """
    return _qutrit_design(HermitianParams(h=e).to_matrix() for e in np.eye(9))


@functools.cache
def _field_design() -> np.ndarray:
    """81 x 3 map from the Larmor frequencies Omega to the flattened K(Omega . F).

    The simulator, the field fits and the relaxation model all read it.
    """
    return _qutrit_design(spin1_operators())


def explicit_qutrit_superop(params: HermitianParams) -> Superoperator:
    """Qutrit Hamiltonian generator as a linear function of the nine parameters.

    The same matrix as ``hamiltonian_superop(params.to_matrix())``, taken as
    one product with the cached design matrix; the Hermitian-constrained
    fits use this linear parametrization.
    """
    return Superoperator(dim=3, matrix=(_hermitian_design() @ params.h).reshape(9, 9))


class ParamsFit(NamedTuple):
    params: HermitianParams
    residual: float


def params_from_superop(hs: Superoperator) -> ParamsFit:
    """Least-squares Hermitian parameters of a 9x9 generator.

    Equates ``hs`` with the linear qutrit form over all 81 entries and
    solves the overdetermined linear system; the returned residual is the
    Frobenius norm of the non-representable component.  Never raises on a
    poor fit -- the residual carries that information.

    The identity component of a Hamiltonian is unobservable (it commutes
    with everything), so the parameter-to-generator map has a one-
    dimensional null space along the trace; the minimum-norm solution
    returned here is the traceless gauge representative.
    """
    if hs.dim != 3:
        raise DimensionError("Hermitian parametrization is defined for dim 3 only")
    a = _hermitian_design()
    sol, _, _, _ = np.linalg.lstsq(a, hs.matrix.ravel(), rcond=None)
    resid = float(np.linalg.norm(a @ sol - hs.matrix.ravel()))
    return ParamsFit(params=HermitianParams(h=sol), residual=resid)


def kossakowski_generator(
    c: KossakowskiMatrix, hamiltonian, basis: OperatorBasis
) -> Superoperator:
    """Bloch-frame generator of the basis-form master equation.

    Implements drho/dt = -i[H, rho]
    + sum_ij c_ij ([sigma_i, rho sigma_j] + [sigma_i rho, sigma_j]),
    where the basis sum includes the scaled-identity element.  A PSD
    coefficient matrix yields a completely positive relaxation.
    """
    if c.dim != basis.dim:
        raise DimensionError(f"dimension mismatch: {c.dim} vs {basis.dim}")
    g = _real_part(_gks_action(c.c, basis), "Kossakowski generator")
    k = hamiltonian_superop(hamiltonian, basis)
    return Superoperator(dim=basis.dim, matrix=g + k.matrix)


def kossakowski_shift(
    c: KossakowskiMatrix, hr, basis: OperatorBasis
) -> KossakowskiMatrix:
    """Absorb a Hamiltonian into the coefficient matrix.

    With h_k = Tr(H_R sigma_k), the replacement

        c'_ij = c_ij - (i sqrt(d) / (2 sqrt(2))) h_i (delta_{j,d^2} - delta_{i,d^2})

    makes the dissipator-only generator built from c' reproduce the
    evolution generated by (H_R, c).  Only the traceless part of H_R enters:
    its identity component commutes away, so h_{d^2} is dropped.  The
    shifted matrix mixes coherent and dissipative parts and is generally
    neither Hermitian nor positive semi-definite.
    """
    h = 2.0 * _hermitian_coords(hr, basis, "residual Hamiltonian")
    # the delta_{i,d^2} term only ever multiplies h_{d^2}, which is dropped
    h[-1] = 0.0
    shifted = np.array(c.c, dtype=complex)
    shifted[:, -1] -= 1j * np.sqrt(basis.dim) / (2.0 * np.sqrt(2.0)) * h
    return KossakowskiMatrix(dim=basis.dim, c=shifted)


def spin1_operators() -> SpinOperators:
    """Standard f=1 angular-momentum matrices; [fx, fy] = i fz and cyclic."""
    s2 = 1.0 / np.sqrt(2.0)
    fx = s2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    fy = s2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
    fz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    return SpinOperators(fx=fx, fy=fy, fz=fz)


def zeeman_hamiltonian(omega, q=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Linear plus quadratic Zeeman Hamiltonian (rad/s).

    H = sum_k omega[k] F_k + sum_k q[k] F_k**2 for the f=1 spin operators.
    """
    f = spin1_operators()
    omega = np.asarray(omega, dtype=float)
    q = np.asarray(q, dtype=float)
    h = np.zeros((3, 3), dtype=complex)
    for k, fk in enumerate(f):
        h += omega[k] * fk + q[k] * (fk @ fk)
    return h
