"""Fitting generators and physical models to measured process matrices.

Two complementary estimators are provided throughout:

* direct: take the principal log of each measured process matrix over its
  time, average over the admissible times (a field fit keeps one per
  interval), and project onto the constrained form by linear least
  squares (``_direct_rows``).  Fast, no iteration, but noise can push the
  raw estimate off the physical set.
* maximum-likelihood (MLE): find the least cumulative squared Frobenius
  deviation

      cost(L) = sum_n || exp(L t_n) - P_n ||_F^2

  over a constrained parameter set, so physical structure (fixed
  dissipator, Hermitian Hamiltonian, parametric field form) holds by
  construction, starting from the direct estimate of its form.  The cost
  is a Pade ``expm`` per time.

Every FitReport, direct or MLE, reports this Pade cost of its estimate,
so the costs of two fits of one dataset compare on one scale.

One damped Gauss-Newton solver fits every MLE problem: the fits of
``mle_liouvillian`` (one problem of one or more times, of a free, Hermitian
or relaxation-model generator) and the
per-interval field fits of ``estimate_fields`` (one problem of one time per
interval, all intervals in lockstep on stacked arrays).  These are
small-residual least-squares problems, where Gauss-Newton converges in a
few steps.  Each step takes one batched eigendecomposition
G = V diag(lambda) V^-1, the Jacobian of exp(G t) from Daleckii-Krein
divided differences (Najfeld & Havel, Adv. Appl. Math. 16 (1995)) and the
min-norm least-squares step.  A problem stops, converged, when a step
changes its Pade cost by less than CONVERGENCE_RTOL relative (or than the
rounding of a cost near 0; a linearly converging problem goes on to a
hundredth of that).  A step that raises the cost by more is not taken and
is tried again with Levenberg damping (Levenberg 1944; Marquardt 1963;
More, Lecture Notes in Math. 630 (1978)), which starts at 0, so an
undamped step is the plain Gauss-Newton step.  A generator is
near-defective when its eigenvector matrix V has a Frobenius condition
||V||_F ||V^-1||_F >= EIGVEC_COND_MAX, an upper bound on the 2-norm
condition that costs the one inverse the step needs anyway; its Jacobian
columns then come from the Frechet derivative of ``expm`` itself, exact
without an eigendecomposition.  A problem still running
after GN_MAX_ITERS steps is reported as not converged.

``fit_relaxation_model``, least squares over the seven relaxation params
with the four rates >= 0, is solved exactly with no iteration: of the fits
with each of the 2^4 = 16 sets of rates held at 0, one cached
pseudo-inverse each, it takes the least-cost one with every rate >= 0.  The
relaxation bootstrap draws run it a batch at a time, and a ``relaxation``
MLE fit with a negative rate refits over the same sets.

Uncertainty is quantified by a percentile bootstrap: ``bootstrap`` takes
a fit of a list of per-draw seeds (the caller's simulation and fit of
each draw) and a base seed.  Each draw is seeded by its index alone, so
the draws are independent.  They are fitted in batches of DRAW_BATCH
consecutive draws; a batch that fails numerically, in its simulation or
its fit, is refitted seed by seed.  On Linux, ``bootstrap`` runs the
batches in one process per CPU in the process's affinity mask (the
caller's own process and ``os.fork``ed workers), at most one per batch:
each process claims the next unclaimed batch from one locked counter
whenever it is free, so a process on a slower or busier CPU takes fewer,
and the results merge in draw order.  Elsewhere, or with one CPU, every
batch runs in process.  So the result is the same for any worker count,
any order of claims and any batch size.  The package caps no BLAS
threads; keep ``OPENBLAS_NUM_THREADS=1`` so that the workers do not
oversubscribe the CPUs.
"""

from __future__ import annotations

import fcntl
import functools
import math
import os
import pickle
import signal
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.optimize  # unused; bench/run.py --trace 1 times its import (ROADMAP items 1-2)
from numpy.typing import NDArray

from .basis import build_basis, _frozen_array
from .dynamics import _eigvec_inverse, _log_stack, _principal_logs, _process_dim
from .exceptions import (
    BootstrapError,
    DimensionError,
    LiouvlabError,
    ZeroReferenceError,
)
from .superop import (
    HermitianParams,
    Superoperator,
    _field_design,
    _hermitian_design,
    dissipator_superop,
    explicit_qutrit_superop,
    spin1_operators,
)
from .tomography import _check_stack, _mean_logs, _processes, _steps

__all__ = [
    "RelaxationModel",
    "FitReport",
    "BootstrapResult",
    "frobenius_distance",
    "mle_liouvillian",
    "fit_relaxation_model",
    "direct_hamiltonian",
    "estimate_fields",
    "df_per_time",
    "fit_draws",
    "bootstrap",
]

CONVERGENCE_RTOL = 1e-10
# bootstrap draws per call of the draw fit
DRAW_BATCH = 4
# Gauss-Newton steps tried per problem before the fit ends unconverged
GN_MAX_ITERS = 16
# relative singular-value cut of the Gauss-Newton step
GN_PINV_RCOND = 1e-10

# names of the fitted columns: Larmor frequencies, RelaxationModel.params and
# HermitianParams.h (the fields.csv headers of a field fit); by constrained form
FIELD_PARAM_NAMES = ("omega_x", "omega_y", "omega_z")
RELAXATION_PARAM_NAMES = FIELD_PARAM_NAMES + ("gamma_x", "gamma_y", "gamma_z", "gamma_iso")
HERMITIAN_PARAM_NAMES = tuple(f"h{i}" for i in range(1, 10))
_FORM_PARAM_NAMES = {"hermitian": HERMITIAN_PARAM_NAMES, "relaxation": RELAXATION_PARAM_NAMES}


@dataclass(frozen=True, eq=False)
class RelaxationModel:
    """Three-channel relaxation model of a spin-1 vapor.

    Residual magnetic fields precess the spin at angular frequencies
    ``omega_residual`` (rad/s); field inhomogeneities dephase each axis via
    jump operators sqrt(gamma_k) F_k; wall and collisional relaxation is
    isotropic at rate ``gamma_iso``.
    """

    omega_residual: NDArray[np.float64]
    gamma_dephase: NDArray[np.float64]
    gamma_iso: float

    def __post_init__(self):
        om = np.asarray(self.omega_residual, dtype=float)
        gk = np.asarray(self.gamma_dephase, dtype=float)
        if om.shape != (3,) or gk.shape != (3,):
            raise DimensionError("omega_residual and gamma_dephase must be 3-vectors")
        if gk.min() < 0 or self.gamma_iso < 0:
            raise ValueError("relaxation rates must be non-negative")
        object.__setattr__(self, "omega_residual", _frozen_array(om))
        object.__setattr__(self, "gamma_dephase", _frozen_array(gk))

    @classmethod
    def from_params(cls, p) -> "RelaxationModel":
        """The model of a parameter vector in the order of RELAXATION_PARAM_NAMES."""
        return cls(omega_residual=p[:3], gamma_dephase=p[3:6], gamma_iso=float(p[6]))

    def superoperator(self) -> Superoperator:
        """Effective total relaxation matrix R_T (zero last row).

        The residual-field precession enters with the opposite sign of the
        Hamiltonian generator because R_T is subtracted from the full
        generator: L = -R_T when no controlled field is applied.
        """
        return Superoperator(
            dim=3, matrix=(_relaxation_design() @ self.params).reshape(9, 9)
        )

    @property
    def params(self) -> np.ndarray:
        return np.concatenate(
            [self.omega_residual, self.gamma_dephase, [self.gamma_iso]]
        )

    def to_json(self) -> dict:
        return {
            "omega_residual_rad_s": self.omega_residual.tolist(),
            "gamma_dephase_per_s": self.gamma_dephase.tolist(),
            "gamma_iso_per_s": self.gamma_iso,
        }


@dataclass(eq=False)
class FitReport:
    """Outcome of one fitting procedure.

    ``estimate`` is the model-specific object (Superoperator,
    HermitianParams, RelaxationModel, ...); ``params`` is the flat
    parameter vector behind it; ``cost`` is the Pade cost
    sum_t ||exp(L t) - P_t||_F^2 of the fitted generator L, direct or MLE;
    ``ci_low``/``ci_high`` are filled only after a bootstrap run.
    ``extras["optimizer"]``, set by
    ``mle_liouvillian``, counts the Pade cost evaluations, the Gauss-Newton
    steps and those whose Jacobian took exact Frechet columns
    (``expm_frechet_evaluations``); set by
    ``estimate_fields(method="mle")``, it counts the last two summed over
    intervals and lists the ``unconverged_intervals``.
    ``extras["bootstrap"]``, set by the CLI, records the draw count, the
    failed draws and the first few failure messages.  ``to_json`` writes
    each of the two only when present.  ``extras["skipped_times"]``, set by
    ``direct_hamiltonian``, lists the (time, error) of each time that it
    left out; ``to_json`` writes it only when it is not empty.
    ``extras["flagged"]``, set by
    ``estimate_fields``, marks the intervals of nearly vanishing total
    field; ``to_json`` leaves it out.
    """

    model: str
    estimate: object
    params: np.ndarray
    cost: float
    df_per_time: Optional[np.ndarray] = None
    iterations: int = 0
    converged: bool = True
    ci_low: Optional[np.ndarray] = None
    ci_high: Optional[np.ndarray] = None
    param_names: Optional[tuple] = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        est = self.estimate
        ci = None
        if self.ci_low is not None and self.ci_high is not None:
            names = self.param_names or tuple(f"p{i}" for i in range(len(self.params)))
            ci = {
                name: [float(lo), float(hi)]
                for name, lo, hi in zip(names, self.ci_low, self.ci_high, strict=True)
            }
        out = {
            "model": self.model,
            "estimate": est.to_json() if hasattr(est, "to_json") else np.asarray(est).tolist(),
            "params": np.asarray(self.params, dtype=float).tolist(),
            "cost": float(self.cost),
            "df_per_time": None
            if self.df_per_time is None
            else np.asarray(self.df_per_time, dtype=float).tolist(),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "ci": ci,
        }
        for key in ("optimizer", "bootstrap"):
            if key in self.extras:
                out[key] = self.extras[key]
        if skipped := self.extras.get("skipped_times"):
            out["skipped_times"] = [{"time_s": t, "error": msg} for t, msg in skipped]
        return out


def _as_matrix(x) -> np.ndarray:
    return np.asarray(getattr(x, "matrix", x), dtype=float)


def frobenius_distance(a, b) -> float:
    """Normalized Frobenius distance ||a - b||_F / ||b||_F.

    ``b`` is the reference; a measured quantity in ``a`` is thus reported
    as a relative error.

    Raises:
        ZeroReferenceError: when ||b||_F = 0 (the normalization is then
            meaningless -- this happens e.g. at instants of vanishing
            total field).
        DimensionError: on shape mismatch.
    """
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise DimensionError(f"shape mismatch: {am.shape} vs {bm.shape}")
    ref = np.linalg.norm(bm)
    if ref == 0.0:
        raise ZeroReferenceError("reference operator has zero Frobenius norm")
    return float(np.linalg.norm(am - bm) / ref)


def _distances(ps, exps) -> np.ndarray:
    """``frobenius_distance`` of each process matrix to its exponential, in order."""
    return np.array([frobenius_distance(p, e) for p, e in zip(ps, exps)])


def _check_dissipator(dim: int, rt: Superoperator | None):
    """Raise DimensionError unless ``rt`` (None passes) is of the processes' ``dim``."""
    if rt is not None and rt.dim != dim:
        raise DimensionError(
            f"relaxation matrix has dim {rt.dim}, but the process matrices have dim {dim}"
        )


def df_per_time(processes: tuple[np.ndarray, np.ndarray], generator: np.ndarray) -> np.ndarray:
    """``frobenius_distance`` of each process matrix P_t to exp(G t).

    ``processes`` is a (mats, durations) pair, ``t`` the duration of P_t
    and ``generator`` one (n, n) generator G or a (T, n, n) stack, one per
    process.  All exponentials come from one stacked ``expm``, whose slices
    equal separate calls bit for bit.
    """
    return _expm_fit(processes, generator)[1]


def _expm_fit(processes, generator) -> tuple[float, np.ndarray]:
    """The Pade cost sum_t ||exp(G t) - P_t||_F^2 and the ``df_per_time`` of a
    generator G (or stack), both from one stacked ``expm``."""
    ps, ts = processes
    exps = scipy.linalg.expm(generator * ts[:, None, None])
    return float(np.sum(_squared_norms(exps - ps))), _distances(ps, exps)


# ---------------------------------------------------------------------------
# MLE over the matrix-exponential cost
# ---------------------------------------------------------------------------


def _squared_norms(errs: np.ndarray) -> np.ndarray:
    """||E_n||_F^2 per entry of the first axis of a (T, ...) stack."""
    flat = errs.reshape(len(errs), -1)
    return (flat * flat).sum(axis=1)


def _t_phi(lam: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Divided differences t Phi_ij = (e^{lambda_i t} - e^{lambda_j t}) / (lambda_i - lambda_j).

    ``ts`` has shape (..., T) and ``lam`` shape (..., n), one spectrum per
    leading index; the result is (..., T, n, n).  The kernel of the Frechet
    derivative of exp(L t) in the eigenbasis of L.  It is evaluated as
    t e^{(z_i + z_j)/2} sinh(delta)/delta with z = lambda t and
    delta = (z_i - z_j)/2, which does not cancel for close eigenvalues;
    sinh(delta)/delta is 1 at delta = 0 (the diagonal and equal
    eigenvalues).
    """
    z = ts[..., :, None] * lam[..., None, :]
    zi, zj = z[..., :, None], z[..., None, :]
    delta = 0.5 * (zi - zj)
    sinhc = np.divide(np.sinh(delta), delta, out=np.ones_like(delta), where=delta != 0)
    return ts[..., :, None, None] * np.exp(0.5 * (zi + zj)) * sinhc


def _frechet_adjoint(v, vinv, t_phi, errs) -> np.ndarray:
    """sum_n D exp(L t_n)^T [E_n] = Re[V^-H (sum_n conj(t Phi_n) o (V^H E_n V^-H)) V^H].

    ``v``, ``vinv`` (..., n, n), ``t_phi`` and ``errs`` (..., T, n, n).
    """
    vh, vinv_h = v.conj().swapaxes(-1, -2), vinv.conj().swapaxes(-1, -2)
    inner = (t_phi.conj() * (vh[..., None, :, :] @ errs @ vinv_h[..., None, :, :])).sum(axis=-3)
    return (vinv_h @ inner @ vh).real


def _generators(design, rt, thetas) -> np.ndarray:
    """Generators B_k - rt, one per row of ``thetas``.

    B_k = design @ theta_k, or theta_k itself as an n x n matrix when
    ``design`` is None (the free form); ``rt`` None stands for no
    dissipator.
    """
    b = thetas if design is None else thetas @ design.T
    n = math.isqrt(b.shape[1])
    b = b.reshape(-1, n, n)
    return b.copy() if rt is None else b - rt


def _directions(design, n: int) -> np.ndarray:
    """Generator direction E_p of each parameter, (P, n, n).

    The design's columns, or the n^2 unit matrices of the free form.
    """
    return np.eye(n * n).reshape(-1, n, n) if design is None else design.T.reshape(-1, n, n)


def _stacked_expm(gens, ts) -> np.ndarray:
    """exp(G_k t_kn), (K, T, n, n), from one stacked Pade ``expm`` call."""
    n = gens.shape[-1]
    args = (gens[:, None] * ts[:, :, None, None]).reshape(-1, n, n)
    return scipy.linalg.expm(args).reshape(*ts.shape, n, n)


def _stacked_costs(exps, ps) -> np.ndarray:
    """Pade cost sum_n ||E_kn - P_kn||_F^2 per problem, summed in time order."""
    n = ps.shape[-1]
    sq = _squared_norms((exps - ps).reshape(-1, n, n)).reshape(ps.shape[:2])
    costs = sq[:, 0].copy()
    for col in sq.T[1:]:
        costs += col
    return costs


def _dk_jacobian(dirs, lam, v, vinv, ts) -> np.ndarray:
    """Jacobian J (K, T n^2, P) of the residuals exp(G_k t) - P by Daleckii-Krein.

    ``lam``, ``v``, ``vinv`` (K, n), (K, n, n), (K, n, n) are the
    eigendecompositions G_k = V diag(lambda) V^-1 and ``ts`` (K, T) the
    times.  The column of direction E_p at time t is
    D exp(G t)[E_p t] = V (t Phi o V^-1 E_p V) V^-1 (``_t_phi``), with rows
    in the row-major order of (T, n, n).
    """
    t_phi = _t_phi(lam, ts)
    n_prob, n_times = ts.shape
    m = vinv[:, None] @ dirs @ v[:, None]
    jac = (v[:, None, None] @ (t_phi[:, :, None] * m[:, None]) @ vinv[:, None, None]).real
    jac = jac.reshape(n_prob, n_times, len(dirs), -1).transpose(0, 1, 3, 2)
    return jac.reshape(n_prob, -1, len(dirs))


def _frechet_jacobian(dirs, gens, ts) -> np.ndarray:
    """The Jacobian of ``_dk_jacobian``, exact without an eigendecomposition.

    Each column D exp(G t)[E_p t] is the top-right block of
    exp([[G t, E_p t], [0, G t]]) (Higham, Functions of Matrices, SIAM
    2008, ch. 3), all problems, times and directions in one stacked Pade
    ``expm``.  It costs P T expm calls of twice the size, so it serves
    only generators whose eigenvectors are too ill-conditioned for
    Daleckii-Krein.
    """
    n_prob, n_times = ts.shape
    n = gens.shape[-1]
    gt = gens[:, None, None] * ts[:, :, None, None, None]
    blocks = np.zeros((n_prob, n_times, len(dirs), 2 * n, 2 * n))
    blocks[..., :n, :n] = blocks[..., n:, n:] = gt
    blocks[..., :n, n:] = dirs * ts[:, :, None, None, None]
    jac = scipy.linalg.expm(blocks.reshape(-1, 2 * n, 2 * n))[:, :n, n:]
    jac = jac.reshape(n_prob, n_times, len(dirs), -1).transpose(0, 1, 3, 2)
    return jac.reshape(n_prob, -1, len(dirs))


def _lm_solve(jac, resid, damping) -> np.ndarray:
    """Damped least-squares step argmin ||J d - r||^2 + mu ||d||^2 of each problem.

    ``jac`` (K, M, P), ``resid`` (K, ...) with M entries per problem and
    ``damping`` (K,) the Levenberg factor lambda, with
    mu = lambda tr(J^T J) / P.  From one SVD J = U S W^T the step is
    W diag(1 / (s + mu / s)) U^T r over the singular values above
    GN_PINV_RCOND s_max; the rest are dropped, so the step never moves along
    the null space of J (the trace of H).  At lambda = 0 it is pinv(J) r,
    computed as ``np.linalg.pinv`` computes it.
    """
    u, s, wt = np.linalg.svd(jac, full_matrices=False)
    mu = damping[:, None] * (s * s).sum(axis=1, keepdims=True) / jac.shape[-1]
    large = s > GN_PINV_RCOND * s.max(axis=1, keepdims=True)
    shift = np.divide(mu, s, out=np.zeros_like(s), where=large)
    inv = np.divide(1.0, s + shift, out=np.zeros_like(s), where=large)
    pinv = wt.swapaxes(-1, -2) @ (inv[..., None] * u.swapaxes(-1, -2))
    return (pinv @ resid.reshape(len(jac), -1, 1))[..., 0]


def _free_form_step(lam, v, vinv, ts, resid, damping) -> np.ndarray:
    """``_lm_solve`` of the free form, from eigenbasis normal equations.

    The free form has a column per entry of B (P = n^2 = 81 for qutrits)
    and no null space, as D exp is invertible unless two eigenvalues differ
    by 2 pi i k / t at every time.  With row-major vec, J_n = S D_n S^-1
    for S = V (x) V^-T and D_n = diag(vec t Phi_n), so
    J^T J = S^-H [(S^H S) o (Phi^H Phi)] S^-1 (Phi holds one vec t Phi_n
    per row) and J^T r is the Daleckii-Krein gradient over 2.  The normal
    equations (J^T J + mu I) d = J^T r are built from (n^2, n^2) matrices,
    never from J itself, and solved directly.  Their rounding grows with
    cond(V), which EIGVEC_COND_MAX bounds, and a step that raises the cost
    is never taken.
    """
    n_prob, n_times, n = resid.shape[:3]
    n2 = n * n
    t_phi = _t_phi(lam, ts)
    grad = _frechet_adjoint(v, vinv, t_phi, resid).reshape(n_prob, n2, 1)
    vh, vinv_h = v.conj().transpose(0, 2, 1), vinv.conj().transpose(0, 2, 1)
    # S^-1 = V^-1 (x) V^T and S^H S = (V^H V) (x) conj(V^-1 V^-H)
    s_inv = vinv[:, :, None, :, None] * v.transpose(0, 2, 1)[:, None, :, None, :]
    s_inv = s_inv.reshape(n_prob, n2, n2)
    gram = (vh @ v)[:, :, None, :, None] * (vinv @ vinv_h).conj()[:, None, :, None, :]
    phi = t_phi.reshape(n_prob, n_times, n2)
    weights = gram.reshape(n_prob, n2, n2) * (phi.conj().transpose(0, 2, 1) @ phi)
    normal = (s_inv.conj().transpose(0, 2, 1) @ weights @ s_inv).real
    diag = np.arange(n2)
    normal[:, diag, diag] += damping[:, None] * np.trace(normal, axis1=1, axis2=2)[:, None] / n2
    return np.linalg.solve(normal, grad)[..., 0]


def _gauss_newton_step(design, gens, ts, resid, damping):
    """Damped Gauss-Newton step of each of K problems.

    ``gens`` (K, n, n) are the running generators, ``ts`` (K, T) the times,
    ``resid`` (K, T, n, n) the residuals exp(G_k t) - P and ``damping``
    (K,) the Levenberg factors of ``_lm_solve``.  The Jacobian comes from
    one batched eigendecomposition G = V diag(lambda) V^-1 and the V^-1 of
    ``_eigvec_inverse`` (``_dk_jacobian``; the free form solves
    ``_free_form_step`` instead).  A generator whose Frobenius eigenvector
    condition is at least EIGVEC_COND_MAX takes the exact columns of
    ``_frechet_jacobian``.

    Returns:
        (steps, defective): the steps (K, P) and the mask of the problems
        whose Jacobian took ``_frechet_jacobian``.
    """
    dirs = _directions(design, gens.shape[-1])
    lam, v = np.linalg.eig(gens)
    vinv, ok = _eigvec_inverse(v)
    step = np.empty((len(gens), len(dirs)))
    args = lam[ok], v[ok], vinv[ok], ts[ok]
    if design is None and ok.any():
        step[ok] = _free_form_step(*args, resid[ok], damping[ok])
    elif ok.any():
        step[ok] = _lm_solve(_dk_jacobian(dirs, *args), resid[ok], damping[ok])
    defective = ~ok
    if defective.any():
        jac = _frechet_jacobian(dirs, gens[defective], ts[defective])
        step[defective] = _lm_solve(jac, resid[defective], damping[defective])
    return step, defective


def _gauss_newton(design, rt, ts, ps, theta0):
    """Lockstep damped Gauss-Newton fits of K problems of T times each.

    Problem k seeks the least Pade cost sum_n ||exp(G_k t_kn) - P_kn||_F^2
    of ``mle_liouvillian``, with G_k = B(theta_k) - rt (``_generators``),
    starting from ``theta0[k]``; ``ts`` is (K, T) and ``ps`` (K, T, n, n).
    All problems step together on stacked arrays (``_gauss_newton_step``;
    theta never moves along the design's null space, such as the trace of
    H).  Each problem has its own Levenberg damping factor, 0 at the start.
    A step is judged by its cost change against tol = CONVERGENCE_RTOL
    cost + (n eps)^2 sum_t ||P_t||_F^2, the second term the rounding level
    of a cost near 0, an error of n eps ||P|| in each n x n ``expm`` (a
    noiseless or one-time free-form fit reaches it):

    * a drop of at least tol is taken and the damping falls tenfold;
    * a change below tol either way (a small rise included) ends the
      problem as converged, and is taken if it lowers the cost;
    * a rise of at least tol, or a non-finite cost, is not taken: the
      damping rises to 1e-3, or tenfold, and the step is tried again.

    On a large-residual problem Gauss-Newton converges only linearly, and
    the drops still to come after a drop below tol sum to about q/(1 - q)
    times it, q the ratio of successive drops.  So a drop below tol that is
    at least 1e-2 times the last taken drop ends the problem only once it
    is also below 1e-2 tol; a small-residual fit, whose drops shrink
    faster, is not affected.

    A problem whose start has a non-finite cost, or that is still running
    after GN_MAX_ITERS steps, is not converged.

    Returns:
        (thetas, gens, costs, exps, converged, counts): parameters (K, P),
        generators (K, n, n), Pade costs (K,) and exponentials
        (K, T, n, n) at the last taken step, the boolean converged mask,
        and the counts ``gauss_newton_iterations`` (steps tried summed over
        problems, each one Pade cost evaluation) and
        ``expm_frechet_evaluations`` (those whose Jacobian took
        ``_frechet_jacobian``).
    """
    thetas = np.array(theta0, dtype=float)
    gens = _generators(design, rt, thetas)
    exps = _stacked_expm(gens, ts)
    costs = _stacked_costs(exps, ps)
    floor = (ps.shape[-1] * np.finfo(float).eps) ** 2 * _squared_norms(ps)
    damping = np.zeros(len(thetas))
    running = np.isfinite(costs)
    converged = np.zeros(len(thetas), dtype=bool)
    last_drop = np.full(len(thetas), np.inf)
    steps = frechet = 0
    for _ in range(GN_MAX_ITERS):
        idx = np.flatnonzero(running)
        if not idx.size:
            break
        step, defective = _gauss_newton_step(
            design, gens[idx], ts[idx], exps[idx] - ps[idx], damping[idx]
        )
        trial = thetas[idx] - step
        trial_gens = _generators(design, rt, trial)
        trial_exps = _stacked_expm(trial_gens, ts[idx])
        trial_costs = _stacked_costs(trial_exps, ps[idx])
        steps += len(idx)
        frechet += int(defective.sum())
        drop = costs[idx] - trial_costs
        tol = CONVERGENCE_RTOL * costs[idx] + floor[idx]
        rise = ~(drop > -tol)
        # a linearly converging problem goes on to a drop below 1e-2 tol
        linear = (drop >= 1e-2 * last_drop[idx]) & (drop >= 1e-2 * tol)
        done = idx[~rise & (drop < tol) & ~linear]
        converged[done], running[done] = True, False
        damping[idx[rise]] = np.maximum(10.0 * damping[idx[rise]], 1e-3)
        take = drop >= 0
        took = idx[take]
        damping[took] /= 10.0
        thetas[took], costs[took] = trial[take], trial_costs[take]
        last_drop[took] = drop[take]
        gens[took], exps[took] = trial_gens[take], trial_exps[take]
    counts = {"gauss_newton_iterations": steps, "expm_frechet_evaluations": frechet}
    return thetas, gens, costs, exps, converged, counts


def mle_liouvillian(
    processes: tuple[np.ndarray, np.ndarray],
    *,
    dissipator: Superoperator | None = None,
    form: str = "free",
    x0: np.ndarray | None = None,
) -> FitReport:
    """Maximum-likelihood generator from process matrices at one or more times.

    Args:
        processes: the (mats, durations) pair of ``reconstruct_processes``:
            (T, d**2, d**2) process matrices in any order and their
            evolution times > 0; they are fitted in time order.
        dissipator: fixed relaxation matrix R_T, of the processes'
            dimension (else DimensionError).  When given, the fitted
            parameters describe the Hamiltonian generator B and the full
            generator is L = B - R_T; when absent, L itself is fitted.
        form: constraint on B --
            ``"free"``        all d**4 entries free (no physical constraint);
            ``"hermitian"``   B generated by a 3x3 Hermitian operator
                              (9 parameters, Hermitian by construction);
            ``"relaxation"``  B = -R_T of a ``RelaxationModel`` (7 parameters,
                              rates >= 0); no dissipator (else ValueError).
            Field fits (B in the span of the spin-1 precession
            generators) run through ``estimate_fields``.
        x0: optional initial parameter vector; defaults to the form's
            direct estimate (``_direct_rows``): the mean of log(P_t)/t
            (+ R_T) over the admissible times, projected onto the
            parameter space.  Its component along the null space of the
            ``hermitian`` design (the trace of H), which the cost does not
            see, is kept.

    The fit is one damped Gauss-Newton problem (``_gauss_newton``) from
    ``x0``, with one time or many alike.  A ``relaxation`` fit with a
    negative rate is replaced by the least-cost fit with every rate >= 0
    among the 15 fits with a set of rates held at 0.

    Returns:
        FitReport whose ``estimate`` is the fitted generator L (the
        ``RelaxationModel`` of a ``relaxation`` fit); a fit still
        running after GN_MAX_ITERS steps, or from a start of non-finite
        cost, is reported (``converged=False``), never raised.
        ``iterations`` is the Gauss-Newton steps tried.
        ``extras["optimizer"]`` holds ``evaluations`` (every Pade cost
        evaluation, the start's included), ``gauss_newton_iterations`` and
        ``expm_frechet_evaluations`` (the steps whose Jacobian took exact
        Frechet columns because the generator was near-defective), summed
        over every fit run.
    """
    dim = _process_dim(*processes)
    _check_dissipator(dim, dissipator)
    order = np.argsort(processes[1], kind="stable")
    ps, ts = processes[0][order], processes[1][order]
    n2 = dim * dim
    rt_mat = None if dissipator is None else dissipator.matrix

    if form == "free":
        design = None
    elif form not in _FORM_PARAM_NAMES:
        raise ValueError(f"unknown constraint form {form!r}")
    elif dim != 3:
        raise DimensionError(f"{form} form is defined for qutrits only")
    elif form == "relaxation" and rt_mat is not None:
        raise ValueError("the relaxation form fits the whole generator; it takes no dissipator")
    else:
        design = _hermitian_design() if form == "hermitian" else -_relaxation_design()
    n_params = n2 * n2 if design is None else design.shape[1]

    if x0 is None:
        x0 = _direct_rows(ps[None], ts, rt_mat, design)[0][0]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n_params,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({n_params},)")

    fits = [_gauss_newton(design, rt_mat, ts[None], ps[None], x0[None])]
    if form == "relaxation" and fits[0][0][0, 3:].min() < 0:
        # refit with each set of rates held at 0, each left out of the design
        # and the start (active sets; Lawson & Hanson, 1974, ch. 23)
        for free in _free_relaxation_params()[1:]:
            full = np.zeros((1, 7))
            fit = _gauss_newton(design[:, free], None, ts[None], ps[None], x0[None, free])
            full[:, free] = fit[0]
            fits.append((full, *fit[1:]))
    feasible = [fit for fit in fits if form != "relaxation" or fit[0][0, 3:].min() >= 0]
    thetas, gens, costs, exps, converged, _ = min(feasible, key=lambda fit: fit[2][0])
    theta, l_hat = thetas[0], gens[0]
    dfs = _distances(ps, exps[0])
    counts = {key: sum(fit[5][key] for fit in fits) for key in fits[0][5]}
    steps = counts["gauss_newton_iterations"]
    extras = {"optimizer": {"evaluations": len(fits) + steps, **counts}}
    if rt_mat is not None:
        extras["hamiltonian_superop"] = Superoperator(dim=dim, matrix=l_hat + rt_mat)
    return FitReport(
        model=f"mle-{form}",
        estimate=RelaxationModel.from_params(theta)
        if form == "relaxation"
        else Superoperator(dim=dim, matrix=l_hat),
        params=theta,
        cost=float(costs[0]),
        df_per_time=dfs,
        iterations=steps,
        converged=bool(converged[0]),
        param_names=_FORM_PARAM_NAMES.get(form),
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Physical-model decompositions
# ---------------------------------------------------------------------------


@functools.cache
def _relaxation_design() -> np.ndarray:
    basis = build_basis(3)
    dephasing = [dissipator_superop([f], basis).matrix.ravel() for f in spin1_operators()]
    iso = np.diag([1.0] * 8 + [0.0]).ravel()
    return _frozen_array(np.column_stack([-_field_design(), *dephasing, iso]))


@functools.cache
def _free_relaxation_params() -> np.ndarray:
    """(16, 7) masks of the free relaxation params, one per set of rates held at 0:
    set h holds rate k of (gamma_x, gamma_y, gamma_z, gamma_iso) when bit k of h is
    set, so set 0 holds none and set 15 all four (active sets; Lawson & Hanson,
    Solving Least Squares Problems, 1974, ch. 23)."""
    held = (np.arange(16)[:, None] >> np.arange(4)) & 1
    return _frozen_array(np.hstack([np.ones((16, 3), dtype=bool), held == 0]))


@functools.cache
def _held_pinvs() -> np.ndarray:
    """(16, 81, 7): per set of ``_free_relaxation_params``, the transposed
    pseudo-inverse of the relaxation design's free columns, zero at the held rates."""
    design = _relaxation_design()
    pinvs = np.zeros((16, 7, 81))
    for pinv, free in zip(pinvs, _free_relaxation_params()):
        pinv[free] = np.linalg.pinv(design[:, free])
    return _frozen_array(pinvs.transpose(0, 2, 1).copy())


def _bounded_relaxation_rows(targets: np.ndarray) -> np.ndarray:
    """The (m, 7) relaxation params nearest each row of an (m, 81) stack of
    flattened relaxation matrices R_T, by least squares with every rate >= 0.

    The design has full column rank, so the bound fit is unique, and it is
    the unbounded fit with its rates at 0 held there: the least-cost fit with
    every rate >= 0 among the 16 fits of ``_free_relaxation_params``, each one
    pseudo-inverse (``_held_pinvs``).  Every product is stacked per row, so a
    row gets the bits it gets alone.  Rows of another length than 81 (not a
    qutrit's) raise DimensionError.
    """
    if targets.shape[-1] != 81:
        raise DimensionError("relaxation model is defined for qutrits only")
    fits = (targets[:, None, None, :] @ _held_pinvs())[:, :, 0]
    resid = fits @ _relaxation_design().T - targets[:, None, :]
    costs = np.where(fits[..., 3:].min(axis=-1) >= 0, (resid * resid).sum(axis=-1), np.inf)
    return fits[np.arange(len(fits)), np.argmin(costs, axis=1)]


def fit_relaxation_model(rt: Superoperator) -> RelaxationModel:
    """The three-channel model nearest a qutrit relaxation matrix R_T.

    Least squares over the seven parameters, in which R_T is linear, with
    the rates >= 0, solved exactly by enumerating the 16 sets of rates held
    at 0 (``_bounded_relaxation_rows``, of which this is the one-row call;
    every relaxation bootstrap draw fits its mean log generator by the same
    kernel, a batch at a time).  An R_T with a NaN or infinite entry raises
    ValueError, and one of another dimension than 3 DimensionError.
    """
    if not np.isfinite(rt.matrix).all():
        raise ValueError("relaxation matrix has a non-finite entry")
    return RelaxationModel.from_params(_bounded_relaxation_rows(rt.matrix.reshape(1, -1))[0])


def direct_hamiltonian(processes: tuple[np.ndarray, np.ndarray], rt: Superoperator) -> FitReport:
    """Averaged direct estimate of a static Hamiltonian generator.

    ``processes`` is the (mats, durations) pair of ``reconstruct_processes``.
    For each admissible process matrix the generator log-estimate is taken,
    the known relaxation matrix is added back (isolating the Hamiltonian
    part), and the per-time estimates are averaged; a final least-squares
    projection onto the Hermitian parametrization enforces physicality
    (``_direct_rows``).  ``cost`` is the Pade cost of the estimate.
    Times where the logarithm hits the branch cut are skipped with a
    warning and listed in ``extras["skipped_times"]``.  Processes of another
    dimension than 3, or an ``rt`` of another dimension than the processes,
    raise DimensionError.
    """
    dim = _process_dim(*processes)
    _check_dissipator(dim, rt)
    if dim != 3:
        raise DimensionError("hermitian form is defined for qutrits only")
    ps, ts = processes
    [h], errors = _direct_rows(ps[None], ts, rt.matrix, _hermitian_design())
    skipped = [(float(ts[k]), str(errors[0, k])) for k in range(len(ts)) if (0, k) in errors]
    for t, msg in skipped:
        warnings.warn(f"skipping t = {t}: {msg}", stacklevel=2)
    estimate = HermitianParams(h=h)
    cost, dfs = _expm_fit(processes, explicit_qutrit_superop(estimate).matrix - rt.matrix)
    return FitReport(
        model="direct-hamiltonian", estimate=estimate, params=estimate.h, cost=cost,
        df_per_time=dfs, iterations=1, param_names=HERMITIAN_PARAM_NAMES,
        extras={"skipped_times": skipped},
    )


def _direct_rows(mats: np.ndarray, ts: np.ndarray, rt_mat, design) -> tuple[np.ndarray, dict]:
    """The (m, P) direct estimates of an (m, T, n, n) batch of processes at ``ts``,
    and the ``_principal_logs`` errors of the times left out: per draw, the mean of
    log(P_t) / t + ``rt_mat`` (None: no dissipator) over its admissible times, projected
    onto ``design`` by least squares (None, the free form: the flattened mean).  A draw
    with no admissible time raises its earliest time's error class (SingularProcessError or
    BranchCutError), with a message that names that error."""
    logs, errors = _principal_logs(mats, ts)
    rows = []
    for j, draw_logs in enumerate(logs):
        keep = [k for k in range(len(ts)) if (j, k) not in errors]
        if not keep:
            earliest = errors[j, int(np.argmin(ts))]
            raise type(earliest)(f"no evolution time admits a principal logarithm ({earliest})")
        per_time = draw_logs[keep] / ts[keep, None, None]
        mean = np.mean(per_time if rt_mat is None else per_time + rt_mat, axis=0).ravel()
        rows.append(mean if design is None else np.linalg.lstsq(design, mean, rcond=None)[0])
    return np.array(rows), errors


# ---------------------------------------------------------------------------
# Time-resolved multiparameter field estimation
# ---------------------------------------------------------------------------


def estimate_fields(
    psteps: tuple[np.ndarray, np.ndarray],
    rt: Superoperator,
    known_form: bool = True,
    method: str = "direct",
) -> FitReport:
    """Track time-dependent fields from per-interval process matrices.

    Args:
        psteps: the (mats, durations) pair of ``stepwise_processes``, one
            qutrit process matrix per interval; each interval is fitted
            with its own duration, so they need not be equal.
        rt: fixed relaxation matrix, added back before reading off the
            Hamiltonian part.
        known_form: if True, each interval is reduced to the three Larmor
            frequencies (Omega_x, Omega_y, Omega_z); if False, the full
            nine Hermitian parameters are returned per interval.
        method: ``"direct"`` (log + least-squares projection) or ``"mle"``
            (per-interval cost minimization, Hermitian or field-parametric
            by construction).

    Returns:
        FitReport whose ``estimate`` has one row per interval, in the order
        of ``psteps``, with columns FIELD_PARAM_NAMES when the field form
        is known and HERMITIAN_PARAM_NAMES otherwise; ``params`` is its
        flattening, named ``<column>[<interval>]``; ``cost`` is the Pade
        cost of its rows, sum_k ||exp(G_k dt_k) - P_k||_F^2, for either
        method.  ``extras["flagged"]`` marks the intervals whose total
        field is below a tenth of the largest: the normalized error metric
        diverges there, an artifact of the normalization rather than of
        the reconstruction.

    Both methods start from the direct estimate: the principal log of each
    step, with ``rt`` added back, projected onto the parameters by least
    squares.  ``"mle"`` then lowers each interval's Pade cost by damped
    Gauss-Newton, all intervals in lockstep as one-time problems of
    ``_gauss_newton``.
    ``extras["optimizer"]`` then holds ``gauss_newton_iterations``
    (steps summed over intervals, also ``iterations``),
    ``expm_frechet_evaluations`` (the steps of near-defective generators)
    and ``unconverged_intervals``, the indices of the intervals still
    running after GN_MAX_ITERS steps; ``converged`` is True when that list
    is empty.

    Branch-cut errors propagate per step.  Steps of another dimension than
    3, or an ``rt`` of another dimension than the steps, raise
    DimensionError.
    """
    ps, dts = psteps
    if method not in ("direct", "mle"):
        raise ValueError(f"unknown method {method!r}")
    dim = _process_dim(ps, dts)
    _check_dissipator(dim, rt)
    if dim != 3:
        raise DimensionError("field tracking is defined for qutrits only")
    design = _field_design() if known_form else _hermitian_design()
    columns = FIELD_PARAM_NAMES if known_form else HERMITIAN_PARAM_NAMES
    [theta0] = _direct_field_rows(ps[None], dts, rt, design)
    if method == "direct":
        rows = theta0
        cost, dfs = _expm_fit(psteps, _generators(design, rt.matrix, rows))
    else:
        rows, _, costs, exps, converged, counts = _gauss_newton(
            design, rt.matrix, dts[:, None], ps[:, None], theta0
        )
        cost, dfs = float(np.sum(costs)), _distances(ps, exps[:, 0])

    # |Omega| times a constant for the known form: the field design's columns
    # are orthogonal with one norm
    magnitudes = np.linalg.norm(rows @ design.T, axis=1)
    flagged = (magnitudes < 0.1 * magnitudes.max()) | (magnitudes.max() == 0)
    report = FitReport(
        model=f"fields-{method}-{'known' if known_form else 'unknown'}",
        estimate=rows,
        params=rows.ravel(),
        cost=cost,
        df_per_time=dfs,
        iterations=1,
        param_names=tuple(f"{c}[{k}]" for k in range(len(rows)) for c in columns),
        extras={"flagged": flagged},
    )
    if method == "mle":
        report.iterations = counts["gauss_newton_iterations"]
        report.converged = bool(converged.all())
        report.extras["optimizer"] = {
            **counts,
            "unconverged_intervals": np.flatnonzero(~converged).tolist(),
        }
    return report


def _direct_field_rows(steps: np.ndarray, dts: np.ndarray, rt: Superoperator, design) -> np.ndarray:
    """The (m, T, P) direct rows of ``design`` of each draw of an (m, T, 9, 9) batch
    of steps, the log-estimates log(P) / dt + rt projected by least squares: one
    ``_log_stack`` pass, then one projection per draw."""
    k_direct = _log_stack(steps, dts) / dts[:, None, None] + rt.matrix
    k_direct = k_direct.reshape(*steps.shape[:2], -1)
    rows = np.stack([np.linalg.lstsq(design, k.T, rcond=None)[0] for k in k_direct])
    return rows.transpose(0, 2, 1)


def fit_draws(states, times, model: str, rt: Superoperator | None = None, known_form: bool = True):
    """The (m, P) params of an (m, T+1, d**2, N) batch of state stacks at ``times``, checked
    as a TomographySet checks its stack, by the direct estimator of ``model`` (relaxation,
    hermitian or fields): the kernels of its direct point fit, once per batch."""
    _check_stack(states, times)
    if model == "fields":
        design = _field_design() if known_form else _hermitian_design()
        rows = _direct_field_rows(*_steps(states, times), rt, design)
        return rows.reshape(len(rows), -1)
    mats = _processes(states)
    if model == "hermitian":
        return _direct_rows(mats, times, rt.matrix, _hermitian_design())[0]
    if model != "relaxation":
        raise ValueError(f"no draw fit of model {model!r}")
    return _bounded_relaxation_rows(-_mean_logs(mats, times).reshape(len(mats), -1))


# ---------------------------------------------------------------------------
# Bootstrap uncertainty quantification
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BootstrapResult:
    """Percentile bootstrap bounds (16th/84th) per parameter."""

    low: np.ndarray
    high: np.ndarray
    samples: np.ndarray
    n_failed: int
    failures: list

    def contains(self, truth) -> np.ndarray:
        truth = np.asarray(truth, dtype=float)
        return (self.low <= truth) & (truth <= self.high)


# the failures of a draw; any other exception is a bug and propagates
_DRAW_ERRORS = (LiouvlabError, np.linalg.LinAlgError)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for draw ``index``."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def _draw_batches(fit, seed: int, n_draws: int, starts) -> dict:
    """``{draw: params or failure message}`` of the batches of DRAW_BATCH
    consecutive draws that begin at ``starts``: one ``fit`` of the seeds of
    each batch or, if that raises a numeric error, one per seed, so that a
    draw's outcome does not depend on its batch.  A ``fit`` that returns
    other than one row per seed is a bug: ValueError."""

    def rows(draws: range) -> np.ndarray:
        seeds = [derive_seed(seed, draw) for draw in draws]
        out = np.asarray(fit(seeds), dtype=float)
        if len(out) != len(seeds):
            raise ValueError(f"fit of draws {list(draws)}: {len(out)} rows for {len(seeds)} seeds")
        return out

    out = {}
    for start in starts:
        batch = range(start, min(start + DRAW_BATCH, n_draws))
        try:
            out.update(zip(batch, rows(batch)))
            continue
        except _DRAW_ERRORS:
            pass
        for draw in batch:
            try:
                out[draw] = rows(range(draw, draw + 1))[0]
            except _DRAW_ERRORS as err:
                out[draw] = f"draw {draw}: {err}"
    return out


def _claims(counter: int, n_draws: int):
    """The batch starts this process claims, each the next unclaimed one: read
    from the file ``counter`` (empty reads as 0) and advanced by DRAW_BATCH
    under a POSIX record lock, which belongs to the process, not to the file
    description that a fork shares, and dies with it."""
    while True:
        fcntl.lockf(counter, fcntl.LOCK_EX)
        try:
            start = int.from_bytes(os.pread(counter, 8, 0), "little")
            os.pwrite(counter, (start + DRAW_BATCH).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(counter, fcntl.LOCK_UN)
        if start >= n_draws:
            return
        yield start


def _worker_count(n_batches: int) -> int:
    """One worker per CPU this process may run on, at most one per batch."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(len(affinity(0)), n_batches) if affinity else 1


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a bootstrap worker."""


def _fork_worker(run: Callable[[], dict]):
    """Run ``run()`` in a forked child; returns its pid and the read end of a
    pipe that carries the pickled ``(True, result)`` or
    ``(False, exception, _WorkerTraceback)``.  The child never returns."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        try:
            payload = pickle.dumps((True, run()))
        except BaseException as err:  # noqa: BLE001 - re-raised by the parent
            cause = _WorkerTraceback("".join(traceback.format_exception(err)))
            try:
                payload = pickle.dumps((False, err, cause))
                pickle.loads(payload)
            except Exception:  # noqa: BLE001 - an exception that does not pickle
                payload = pickle.dumps(
                    (False, RuntimeError(f"{type(err).__name__}: {err}"), cause)
                )
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _worker_result(pid: int, data: bytes, status: int) -> dict:
    """The draws a reaped worker sent, or its exception raised again."""
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        cause = f" ({signal.Signals(-code).name})" if code < 0 else ""
        raise ChildProcessError(
            f"bootstrap worker {pid} ended with exit status {code}{cause}; no draws returned"
        )
    ok, result, *cause = pickle.loads(data)
    if not ok:
        raise result from cause[0]
    return result


def _run_in_workers(run, n_draws: int, n_workers: int) -> dict:
    """``run`` of the batches this process claims, merged with ``run`` of
    those that ``n_workers - 1`` forked workers claim from the same counter."""
    counter = os.memfd_create("bootstrap-claims")
    workers = {}  # pid -> read end of its pipe, until the worker is reaped
    try:
        for _ in range(1, n_workers):
            pid, pipe = _fork_worker(lambda: run(_claims(counter, n_draws)))
            workers[pid] = pipe
        results = run(_claims(counter, n_draws))
        for pid, pipe in list(workers.items()):
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            results.update(_worker_result(pid, data, status))
    finally:
        os.close(counter)
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def bootstrap(fit: Callable[[list], np.ndarray], seed: int, n_draws: int) -> BootstrapResult:
    """Re-run a fit on ``n_draws`` seeded draws.

    Args:
        fit: maps a list of m per-draw seeds to an (m, P) array, the
            parameter vector of each draw (its simulation and fit).  It is
            called once per batch of up to DRAW_BATCH consecutive draws,
            with the seeds ``derive_seed(seed, draw)``; when that
            raises a numeric error, once per seed of the batch (m = 1), so
            that each draw keeps the params or the failure it has alone.
        seed: anchor of the deterministic per-draw seeds.
        n_draws: number of bootstrap draws (>= 2).

    Returns:
        BootstrapResult with asymmetric 16th/84th-percentile bounds, the
        raw samples, and the recorded failures.

    Only numeric failures (package errors and LinAlgError) count as failed
    draws; any other exception is a bug and propagates, also from a worker,
    where it is raised again with the worker's traceback as its cause.  The
    batches run in one process per CPU in the affinity mask, each process
    claiming the next unclaimed batch when it is free (see the module
    docstring); no worker outlives the call.  The workers are forked, so
    ``fit`` may be a closure, but a caller that runs other threads risks a
    worker that inherits a held lock.

    Raises:
        BootstrapError: if more than 10% of draws fail.
        ValueError: if ``fit`` returns other than one row per seed.
        ChildProcessError: if a worker dies (say, from a signal); its exit
            status is named and no samples are returned.
    """
    if n_draws < 2:
        raise ValueError("bootstrap needs at least 2 draws")
    run = functools.partial(_draw_batches, fit, seed, n_draws)
    starts = range(0, n_draws, DRAW_BATCH)
    n_workers = _worker_count(len(starts))
    results = run(starts) if n_workers == 1 else _run_in_workers(run, n_draws, n_workers)
    outcomes = [results[draw] for draw in range(n_draws)]
    samples = [v for v in outcomes if not isinstance(v, str)]
    failures = [v for v in outcomes if isinstance(v, str)]
    if len(failures) > 0.1 * n_draws:
        raise BootstrapError(
            f"{len(failures)}/{n_draws} bootstrap draws failed; first: {failures[0]}"
        )
    samples = np.array(samples)
    low, high = np.percentile(samples, [16, 84], axis=0)
    return BootstrapResult(
        low=low, high=high, samples=samples, n_failed=len(failures), failures=failures
    )
