"""Propagators, piecewise time-ordered evolution, and generator extraction.

The propagator of a constant generator L over time t is the matrix
exponential P(t) = exp(L t); a time-dependent generator is handled by a
time-ordered product of per-interval exponentials, with the generator
sampled at each interval midpoint for second-order accuracy.  The inverse
operation -- recovering L from a measured propagator -- is the principal
matrix logarithm, well-defined only while all rotation angles stay below
pi; proximity to that branch cut is surfaced as an explicit error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .basis import _frozen_array
from .exceptions import (
    BranchCutError,
    DimensionError,
    PhysicalityWarning,
    SingularProcessError,
)
from .superop import Superoperator

__all__ = [
    "ProcessMatrix",
    "TimeGrid",
    "propagator",
    "piecewise_propagator",
    "principal_log",
]

BRANCH_TOL = 1e-6  # radians from the negative real axis
SPECTRAL_RADIUS_SLACK = 1e-6
# limit on the Frobenius condition ||V||_F ||V^-1||_F of an eigenvector
# matrix V below which an eigendecomposition is used (logs, gradients and
# Gauss-Newton steps); it bounds the 2-norm condition from above
EIGVEC_COND_MAX = 1e6


@dataclass(frozen=True, eq=False)
class ProcessMatrix:
    """Propagator in the Bloch frame: |rho(t)>> = matrix |rho(0)>>."""

    dim: int
    matrix: NDArray[np.float64]
    duration_s: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionError(f"expected a {n}x{n} matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _frozen_array(m))

    def spectral_radius(self) -> float:
        return float(np.abs(np.linalg.eigvals(self.matrix)).max())

    def to_json(self) -> dict:
        return {"dim": self.dim, "matrix": self.matrix.tolist(), "duration_s": self.duration_s}


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Measurement times (seconds): finite, positive and strictly increasing.

    The grid implies len(times) evolution intervals with boundaries
    [0, t_1, ..., t_N].
    """

    times: NDArray[np.float64]

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen_array(_checked_times(self.times)))

    @property
    def boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], self.times])

    @property
    def n_intervals(self) -> int:
        return self.times.size

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def midpoints(self) -> np.ndarray:
        b = self.boundaries
        return 0.5 * (b[:-1] + b[1:])

    @classmethod
    def uniform(cls, step: float, n: int) -> "TimeGrid":
        return cls(times=step * np.arange(1, n + 1))

    def to_json(self) -> dict:
        return {"times_s": self.times.tolist()}


def _checked_times(times) -> np.ndarray:
    """``times`` as an array, by the one rule for measurement times: a non-empty 1-d
    array, finite, positive and strictly increasing; the first time that breaks it
    (NaN and infinity included) is named."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DimensionError(f"time grid must be a non-empty 1-d array, got shape {t.shape}")
    before = np.concatenate([[0.0], t[:-1]])
    bad = np.flatnonzero(~(np.isfinite(t) & (t > before)))
    if bad.size:
        raise ValueError(
            "times must be finite, positive and strictly increasing, got "
            f"{float(t[bad[0]])!r} after {float(before[bad[0]])!r}"
        )
    return t


def _check_physical(pm: ProcessMatrix):
    radius = pm.spectral_radius()
    if radius > 1.0 + SPECTRAL_RADIUS_SLACK:
        warnings.warn(
            f"process matrix has spectral radius {radius:.6f} > 1; "
            "keeping it as-is (physicality is checked, not enforced)",
            PhysicalityWarning,
            stacklevel=3,
        )


def propagator(liouvillian: Superoperator, t: float) -> ProcessMatrix:
    """exp(L t) via scaling-and-squaring Pade approximation.

    Raises:
        ValueError: for negative times or non-finite generator entries.
    """
    if t < 0:
        raise ValueError(f"evolution time must be non-negative, got {t}")
    if not np.all(np.isfinite(liouvillian.matrix)):
        raise ValueError("generator has non-finite entries")
    pm = ProcessMatrix(
        dim=liouvillian.dim,
        matrix=scipy.linalg.expm(liouvillian.matrix * t),
        duration_s=float(t),
    )
    _check_physical(pm)
    return pm


def piecewise_propagator(
    liouvillians: Sequence[Superoperator], grid: TimeGrid
) -> ProcessMatrix:
    """Time-ordered product of per-interval propagators.

    ``liouvillians[k]`` acts on the k-th interval of the grid; later factors
    multiply on the left, so the result maps the state at time 0 to the
    state at the final grid time.

    Raises:
        DimensionError: if the number of generators does not match the
            number of grid intervals.
    """
    if len(liouvillians) != grid.n_intervals:
        raise DimensionError(
            f"{len(liouvillians)} generators for {grid.n_intervals} grid intervals"
        )
    dim = liouvillians[0].dim
    if any(l.dim != dim for l in liouvillians):
        raise DimensionError("generators have mixed dimensions")
    total = _time_ordered(np.stack([l.matrix for l in liouvillians]), grid.durations)[-1]
    pm = ProcessMatrix(dim=dim, matrix=total, duration_s=float(grid.times[-1]))
    _check_physical(pm)
    return pm


def _time_ordered(gens: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Cumulative products exp(L_k dt_k) ... exp(L_1 dt_1) of a (K, n, n) stack.

    Slice k maps the state at time 0 to the state after interval k; all K
    exponentials come from one stacked ``expm`` (which equals K separate
    calls bit for bit), and later factors multiply on the left.
    """
    steps = scipy.linalg.expm(gens * durations[:, None, None])
    out = np.empty_like(steps)
    total = np.eye(steps.shape[-1])
    for k, step in enumerate(steps):
        total = out[k] = step @ total
    return out


def principal_log(pm: ProcessMatrix) -> Superoperator:
    """Real principal matrix logarithm of a process matrix.

    Dividing the result by ``pm.duration_s`` yields the generator estimate.
    Eigenvalues are screened first so branch ambiguity surfaces as an
    error instead of a silently wrong sheet.  When the matrix is safely
    diagonalizable (Frobenius eigenvector condition ||V||_F ||V^-1||_F, an
    upper bound on cond_2(V), below EIGVEC_COND_MAX, and a faithful
    reconstruction residual) its log is taken on the eigendecomposition as
    (V log E) V^-1, which is bit-reproducible across runs; otherwise it
    falls back to the inverse scaling-and-squaring algorithm on the Schur
    form (``_principal_logs``, which logs whole stacks with the same guards
    per matrix).  Errors name the ``duration_s``.

    Raises:
        SingularProcessError: if the process matrix is numerically singular.
        BranchCutError: if an eigenvalue lies within BRANCH_TOL radians of
            the negative real axis; reduce the evolution time so that
            |Omega * t| stays below pi.
    """
    logs = _log_stack(pm.matrix[None], np.array([pm.duration_s], dtype=float))
    return Superoperator(dim=pm.dim, matrix=logs[0])


def _eigvec_inverse(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (K, n, n) stack of eigenvector matrices, and which are safe.

    Returns (V^-1, ok), where ok marks the V whose Frobenius condition
    cond_F(V) = ||V||_F ||V^-1||_F is below EIGVEC_COND_MAX.  cond_F bounds
    the 2-norm condition from above (cond_2 <= cond_F <= n cond_2; Golub &
    Van Loan, Matrix Computations, 4th ed., sec. 2.3), so the test is at
    least as strict as cond_2 < EIGVEC_COND_MAX, and the inverse it needs is
    the one an eigendecomposition takes anyway.  All K come from one batched
    ``inv``; when that raises for an exactly singular V, the stack is
    inverted matrix by matrix and only the singular ones are not ok (their
    inverse is NaN).
    """
    try:
        vinv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        vinv = np.full_like(vecs, np.nan)
        for k, v in enumerate(vecs):
            try:
                vinv[k] = np.linalg.inv(v)
            except np.linalg.LinAlgError:
                pass
    cond = np.linalg.norm(vecs, axis=(1, 2)) * np.linalg.norm(vinv, axis=(1, 2))
    return vinv, cond < EIGVEC_COND_MAX


def _process_dim(mats: np.ndarray, durations: np.ndarray) -> int:
    """The d of a (T, d**2, d**2) process stack with T >= 1 and its (T,) durations,
    each finite and positive; any other pair raises ValueError or DimensionError."""
    shape, durations = np.shape(mats), np.asarray(durations, dtype=float)
    one_each = durations.shape == shape[:1] and ((durations > 0) & (durations < np.inf)).all()
    if not len(mats) or not one_each:
        raise ValueError(
            "need one or more process matrices with a finite positive duration each; got "
            f"{shape[:1]} matrices and durations {durations.tolist()}"
        )
    if len(shape) != 3 or shape[1] != shape[2] or math.isqrt(shape[1]) ** 2 != shape[1]:
        raise DimensionError(f"expected a (T, d**2, d**2) process stack, got shape {shape}")
    return math.isqrt(shape[1])


def _log_stack(mats: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Logs of a (T, n, n) stack or an (m, T, n, n) batch; the first inadmissible one
    raises, naming its duration."""
    logs, errors = _principal_logs(mats, durations)
    if errors:
        raise next(iter(errors.values()))
    return logs


def _principal_logs(
    mats: np.ndarray, durations: Sequence[float]
) -> tuple[np.ndarray, dict]:
    """Guarded real logs of a (T, n, n) stack, or of an (m, T, n, n) batch of
    such stacks, one per draw; the (T,) ``durations`` label errors.

    Returns (logs, errors): ``errors`` maps the index of every matrix without
    an admissible log (k in a stack, (draw, k) in a batch) to its
    SingularProcessError or BranchCutError, those of the eigenvalue screen
    first, and that matrix's slice of ``logs`` is NaN.  The eigen-log of
    every matrix comes from one pass over all of them; the screen, cond_F
    and faithful-residual masks only choose, per matrix, between that log,
    the Schur-form ``logm`` and NaN.  So each matrix's log and error do not
    depend on the others, and a batch equals its draws logged alone.
    """
    lead, n = mats.shape[:-2], mats.shape[-1]
    labels = np.broadcast_to(np.asarray(durations), lead).ravel()
    mats = mats.reshape(-1, n, n)
    eigs, vecs = np.linalg.eig(mats)
    mags = np.abs(eigs)
    scale = mags.max(axis=1)
    singular = (scale == 0) | (mags.min(axis=1) < 1e-12 * scale)
    margin = (np.pi - np.abs(np.angle(eigs))).min(axis=1)
    screened = singular | (margin < BRANCH_TOL)
    errors: dict = {}
    for k in np.flatnonzero(screened):
        if singular[k]:
            errors[int(k)] = SingularProcessError(
                f"process matrix at t = {labels[k]} s is singular; the "
                "generator cannot be recovered"
            )
        else:
            errors[int(k)] = BranchCutError(
                f"process matrix at t = {labels[k]} s has an eigenvalue within "
                f"{margin[k]:.2e} rad of the branch cut; reduce the evolution time "
                "so rotation angles stay below pi"
            )
    # screened matrices (a zero eigenvalue, say) give infinities here; their
    # slices are discarded below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vinv, ok = _eigvec_inverse(vecs)
        e = eigs[:, None, :]
        # log(P) = V log(E) V^-1 and the rebuilt P = V E V^-1 in one product
        sol = np.concatenate([vecs * np.log(e), vecs * e], axis=1) @ vinv
        resid = np.abs(sol[:, n:] - mats).max(axis=(1, 2))
    eigen_log = ok & (resid < 1e-11 * np.maximum(1.0, scale)) & ~screened
    logs = np.where(eigen_log[:, None, None], sol[:, :n], np.nan)
    for k in np.flatnonzero(~eigen_log & ~screened):
        logs[k] = scipy.linalg.logm(mats[k])
    # screened slices are NaN and compare False here
    resid = np.abs(logs.imag).max(axis=(1, 2))
    for k in np.flatnonzero(resid > 1e-9 * np.maximum(1.0, np.abs(logs.real).max(axis=(1, 2)))):
        errors[int(k)] = BranchCutError(
            f"matrix logarithm at t = {labels[k]} s has imaginary residue "
            f"{resid[k]:.3e}; the principal branch is not real here"
        )
    if len(lead) == 2:  # a batch's keys are (draw, k) pairs
        errors = {divmod(k, lead[1]): err for k, err in errors.items()}
    return np.ascontiguousarray(logs.real).reshape(*lead, n, n), errors
