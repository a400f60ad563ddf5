"""Propagators, piecewise time-ordered evolution, and generator extraction.

The propagator of a constant generator L over time t is the matrix
exponential P(t) = exp(L t); a time-dependent generator is handled by a
time-ordered product of per-interval exponentials, with the generator
sampled at each interval midpoint for second-order accuracy.  The inverse
operation -- recovering L from a measured propagator -- is the principal
matrix logarithm, well-defined only while all rotation angles stay below
pi; proximity to that branch cut is surfaced as an explicit error.

A process matrix with ||P - I||_1 <= GREGORY_RADIUS is logged by the
Gregory series log P = 2 sum_j Y^(2j+1) / (2j+1), Y = (P + I)^-1 (P - I),
cut by a tail bound after j = GREGORY_TERMS; it needs no eigenvectors and
cannot fail (``_gregory_logs``).  Every other matrix takes
the guarded eigen-log, with a Schur-form ``logm`` fallback and named errors.
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
# ||P - I||_1 up to which a log takes the Gregory series; there
# ||Y||_1 <= r = GREGORY_RADIUS / (2 - GREGORY_RADIUS), and GREGORY_TERMS is the
# least K with r**(2K+3) / ((2K+3) (1 - r**2)) <= 2**-53 r, so the tail after
# Y^(2K+1) / (2K+1) is below unit roundoff relative to ||Y||_1
GREGORY_RADIUS = 0.7
GREGORY_TERMS = 26
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
        ValueError: for negative or non-finite times, or non-finite
            generator entries.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"evolution time must be finite and non-negative, got {t}")
    if not np.all(np.isfinite(liouvillian.matrix)):
        raise ValueError("generator has non-finite entries")
    pm = ProcessMatrix(
        dim=liouvillian.dim,
        matrix=_expm(liouvillian.matrix, t),
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
    steps = _expm(gens, durations)
    out = np.empty_like(steps)
    total = np.eye(steps.shape[-1])
    for k, step in enumerate(steps):
        total = out[k] = step @ total
    return out


def _expm(mats: np.ndarray, ts) -> np.ndarray:
    """exp(M t) of each matrix M of an (..., n, n) stack times its t of ``ts`` (...),
    broadcast: the package's one matrix exponential, one stacked scaling-and-squaring
    Pade call (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) on the (k, n, n)
    stack of the products M t, whose slices equal separate calls bit for bit."""
    args = mats * np.asarray(ts)[..., None, None]
    return scipy.linalg.expm(args.reshape(-1, *args.shape[-2:])).reshape(args.shape)


def principal_log(pm: ProcessMatrix) -> Superoperator:
    """Real principal matrix logarithm of a process matrix.

    Dividing the result by ``pm.duration_s`` yields the generator estimate.
    A matrix with ||P - I||_1 <= GREGORY_RADIUS is logged by the Gregory
    series, cut after j = GREGORY_TERMS, which cannot fail there: such a
    matrix is nonsingular and at least pi/2 from the branch cut (see
    ``_gregory_logs``).  Any other matrix has its eigenvalues screened
    first so branch ambiguity surfaces as an error instead of a silently
    wrong sheet.  When it is safely diagonalizable (Frobenius eigenvector
    condition ||V||_F ||V^-1||_F, an upper bound on cond_2(V), below
    EIGVEC_COND_MAX, and a faithful reconstruction residual) its log is
    taken on the eigendecomposition as (V log E) V^-1, which is
    bit-reproducible across runs; otherwise it falls back to the inverse
    scaling-and-squaring algorithm on the Schur form (``_principal_logs``,
    which logs whole stacks with the same paths and guards per matrix).
    Errors name the ``duration_s``.

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
    first, and that matrix's slice of ``logs`` is NaN.  Each matrix takes one
    of two paths by its distance ||P - I||_1 alone: up to GREGORY_RADIUS the
    Gregory series (``_gregory_logs``), which raises nothing, and beyond it,
    or for a NaN or infinite matrix, the guarded eigen-log (``_eigen_logs``).
    Each path logs its matrices in one pass, and neither lets a matrix's log
    or error depend on the others, so a batch equals its draws logged alone.
    """
    lead, n = mats.shape[:-2], mats.shape[-1]
    labels = np.broadcast_to(np.asarray(durations), lead).ravel()
    mats = mats.reshape(-1, n, n)
    # ||P - I||_1 is the largest column sum; a NaN one compares False, so
    # such a matrix takes the eigen path
    near = (np.ones(n) @ np.abs(mats - np.eye(n))).max(axis=1) <= GREGORY_RADIUS
    if not near.any():
        logs, errors = _eigen_logs(mats, labels)
    else:
        logs, errors = np.empty(mats.shape), {}
        logs[near] = _gregory_logs(mats[near])
        far = np.flatnonzero(~near)
        if far.size:
            logs[far], far_errors = _eigen_logs(mats[far], labels[far])
            errors = {int(far[k]): err for k, err in far_errors.items()}
    if len(lead) == 2:  # a batch's keys are (draw, k) pairs
        errors = {divmod(k, lead[1]): err for k, err in errors.items()}
    return logs.reshape(*lead, n, n), errors


def _gregory_logs(mats: np.ndarray) -> np.ndarray:
    """Real principal logs of an (m, n, n) stack with every ||P - I||_1 <= GREGORY_RADIUS.

    log P = 2 Y p(Y^2) with Y = (P + I)^-1 (P - I), one batched ``solve``,
    and p(Z) = sum_{j <= GREGORY_TERMS} Z^j / (2j + 1) by Paterson-Stockmeyer
    (Higham, Functions of Matrices, SIAM 2008, ch. 4 and 11; Kenney & Laub,
    SIAM J. Matrix Anal. Appl. 10, 191 (1989)).  Stacked ``solve`` and
    ``matmul`` act per matrix, so each log is that of its matrix alone.

    This path needs no guard.  ||P - I||_1 <= GREGORY_RADIUS = theta < 1 puts
    every eigenvalue in |lambda - 1| <= theta, so P is nonsingular
    (|lambda| >= 1 - theta), every |arg lambda| <= arcsin(theta) < pi/2 lies at
    least pi/2 from the branch cut, and the principal log of the real P is
    real.  P + I = 2 (I + (P - I) / 2) is nonsingular with ||(P + I)^-1||_1 <=
    1 / (2 - theta), so ||Y||_1 <= theta / (2 - theta) < 1 and the series
    converges; GREGORY_TERMS holds its tail below unit roundoff.  So no
    matrix of this path is screened, falls back or raises.  A defective
    matrix needs no special case: the series never forms eigenvectors.
    """
    eye = np.eye(mats.shape[-1])
    y = np.linalg.solve(mats + eye, mats - eye)
    z = y @ y
    # the factor 2 of log P = 2 Y p(Y^2) rides on the coefficients
    coeffs = 2.0 / (2.0 * np.arange(GREGORY_TERMS + 1) + 1.0)
    s = math.isqrt(GREGORY_TERMS) + 1  # block size
    powers = [eye, z]
    while len(powers) <= s:
        powers.append(powers[-1] @ z)
    # p(Z) = B_0 + Z^s (B_1 + Z^s (B_2 + ...)), each B_k = sum_i c_(ks+i) Z^i
    p, term = None, np.empty_like(z)
    for start in reversed(range(0, GREGORY_TERMS + 1, s)):
        block = np.zeros_like(z) if p is None else powers[s] @ p
        block += coeffs[start] * eye
        for c, zi in zip(coeffs[start + 1 : start + s], powers[1:]):
            block += np.multiply(zi, c, out=term)
        p = block
    return y @ p


def _eigen_logs(mats: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, dict]:
    """Guarded eigen-logs of a (K, n, n) stack labelled by its (K,) durations.

    Returns (logs, errors) as ``_principal_logs`` does for a stack.  The
    eigen-log of every matrix comes from one pass over all of them; the
    screen, cond_F and faithful-residual masks only choose, per matrix,
    between that log, the Schur-form ``logm`` and NaN, so each matrix's log
    and error do not depend on the others.
    """
    n = mats.shape[-1]
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
        logs[k] = np.nan
        errors[int(k)] = BranchCutError(
            f"matrix logarithm at t = {labels[k]} s has imaginary residue "
            f"{resid[k]:.3e}; the principal branch is not real here"
        )
    return np.ascontiguousarray(logs.real), errors
