"""Fitting generators and physical models to measured process matrices.

Two complementary estimators are provided throughout:

* direct: take the principal log of each measured process matrix, average,
  and (optionally) project onto a constrained model by linear least
  squares.  Fast, no iteration, but noise can push the raw estimate off
  the physical set.
* maximum-likelihood (MLE): find the least cumulative squared Frobenius
  deviation

      cost(L) = sum_n || exp(L t_n) - P_n ||_F^2

  over a constrained parameter set, so physical structure (fixed
  dissipator, Hermitian Hamiltonian, parametric field form) holds by
  construction.  The cost is a Pade ``expm`` per time.

One damped Gauss-Newton solver fits every MLE problem: the fits of
``mle_liouvillian`` (one problem of one or more times) and the
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

Uncertainty is quantified by a percentile bootstrap over re-simulated
noisy datasets.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize
from numpy.typing import NDArray

from .basis import build_basis, _frozen_array
from .dynamics import (
    EIGVEC_COND_MAX,
    ProcessMatrix,
    TimeGrid,
    _eigvec_inverse,
    _log_stack,
    _principal_logs,
)
from .exceptions import (
    BootstrapError,
    BranchCutError,
    DimensionError,
    LiouvlabError,
    ZeroReferenceError,
)
from .superop import (
    Superoperator,
    _field_design,
    _hermitian_design,
    dissipator_superop,
    explicit_qutrit_superop,
    params_from_superop,
    spin1_operators,
)
from .tomography import TomographySet

__all__ = [
    "RelaxationModel",
    "FitReport",
    "FieldTrack",
    "BootstrapResult",
    "frobenius_distance",
    "mle_liouvillian",
    "fit_relaxation_model",
    "direct_hamiltonian",
    "estimate_fields",
    "bootstrap",
]

CONVERGENCE_RTOL = 1e-10
# Gauss-Newton steps tried per problem before the fit ends unconverged
GN_MAX_ITERS = 16
# relative singular-value cut of the Gauss-Newton step
GN_PINV_RCOND = 1e-10

# names of the fitted columns: Larmor frequencies, RelaxationModel.params
# and HermitianParams.h (the fields.csv headers of a field fit)
FIELD_PARAM_NAMES = ("omega_x", "omega_y", "omega_z")
RELAXATION_PARAM_NAMES = FIELD_PARAM_NAMES + ("gamma_x", "gamma_y", "gamma_z", "gamma_iso")
HERMITIAN_PARAM_NAMES = tuple(f"h{i}" for i in range(1, 10))


@dataclass(frozen=True)
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


@dataclass
class FitReport:
    """Outcome of one fitting procedure.

    ``estimate`` is the model-specific object (Superoperator,
    HermitianParams, RelaxationModel, ...); ``params`` is the flat
    parameter vector behind it; ``ci_low``/``ci_high`` are filled only
    after a bootstrap run.  ``extras["optimizer"]``, set by
    ``mle_liouvillian``, counts the Pade cost evaluations, the Gauss-Newton
    steps and those whose Jacobian took exact Frechet columns
    (``expm_frechet_evaluations``); set by
    ``estimate_fields(method="mle")``, it counts the last two summed over
    intervals and lists the ``unconverged_intervals``.
    ``extras["bootstrap"]``, set by the CLI, records the draw count, the
    failed draws and the first few failure messages.  ``to_json`` writes
    each of the two only when present.
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
        def _estimate_json(est):
            if hasattr(est, "to_json"):
                return est.to_json()
            if isinstance(est, np.ndarray):
                return est.tolist()
            return est

        ci = None
        if self.ci_low is not None and self.ci_high is not None:
            names = self.param_names or tuple(f"p{i}" for i in range(len(self.params)))
            ci = {
                name: [float(lo), float(hi)]
                for name, lo, hi in zip(names, self.ci_low, self.ci_high)
            }
        out = {
            "model": self.model,
            "estimate": _estimate_json(self.estimate),
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


def _df_per_time(processes: Sequence[ProcessMatrix], generator: np.ndarray) -> np.ndarray:
    """``frobenius_distance`` of each process matrix P_t to exp(G t).

    ``t`` is the ``duration_s`` of P_t and ``generator`` one (n, n)
    generator G or a (T, n, n) stack, one per process.  All exponentials
    come from one stacked ``expm``, whose slices equal separate calls bit
    for bit.
    """
    ts = np.array([p.duration_s for p in processes])
    exps = scipy.linalg.expm(generator * ts[:, None, None])
    return np.array([frobenius_distance(p.matrix, e) for p, e in zip(processes, exps)])


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


def _direct_init(ts, ps, rt_mat: np.ndarray | None) -> np.ndarray:
    """Generator estimate from the earliest time whose log is admissible.

    ``ts`` (T,) and ``ps`` (T, n, n) are in time order.  The times are
    logged one at a time, so the search stops at the first admissible one.
    """
    for k in range(len(ts)):
        logs, errors = _principal_logs(ps[k : k + 1], ts[k : k + 1])
        if not errors:
            l_est = logs[0] / ts[k]
            return l_est + rt_mat if rt_mat is not None else l_est
    raise BranchCutError(
        f"no evolution time admits a principal logarithm ({errors[0]}); "
        "supply an explicit initial guess"
    )


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
    processes: Sequence[ProcessMatrix],
    *,
    dissipator: Superoperator | None = None,
    form: str = "free",
    x0: np.ndarray | None = None,
) -> FitReport:
    """Maximum-likelihood generator from process matrices at one or more times.

    Args:
        processes: process matrices in any order, each at its evolution
            time ``duration_s`` > 0; they are fitted in time order.
        dissipator: fixed relaxation matrix R_T.  When given, the fitted
            parameters describe the Hamiltonian generator B and the full
            generator is L = B - R_T; when absent, L itself is fitted.
        form: constraint on B --
            ``"free"``       all d**4 entries free (no physical constraint);
            ``"hermitian"``  B generated by a 3x3 Hermitian operator
                             (9 parameters, Hermitian by construction).
            Field fits (B in the span of the spin-1 precession
            generators) run through ``estimate_fields``.
        x0: optional initial parameter vector; defaults to the direct
            log-estimate at the earliest admissible time, projected onto
            the parameter space.  Its component along the null space of
            the ``hermitian`` design (the trace of H), which the cost does
            not see, is kept.

    The fit is one damped Gauss-Newton problem (``_gauss_newton``) from
    ``x0``, with one time or many alike.

    Returns:
        FitReport whose ``estimate`` is the fitted generator L; a fit still
        running after GN_MAX_ITERS steps, or from a start of non-finite
        cost, is reported (``converged=False``), never raised.
        ``iterations`` is the Gauss-Newton steps tried.
        ``extras["optimizer"]`` holds ``evaluations`` (every Pade cost
        evaluation, the start's included), ``gauss_newton_iterations`` and
        ``expm_frechet_evaluations`` (the steps whose Jacobian took exact
        Frechet columns because the generator was near-defective).
    """
    processes = sorted(processes, key=lambda p: p.duration_s)
    if not processes:
        raise ValueError("need at least one measured process matrix")
    ts = np.array([p.duration_s for p in processes], dtype=float)
    if (ts <= 0).any():
        raise ValueError(f"evolution times must be positive, got {ts.min()}")
    ps = np.stack([p.matrix for p in processes])
    dim = processes[0].dim
    n2 = dim * dim
    rt_mat = None if dissipator is None else dissipator.matrix

    if form == "free":
        design = None
    elif form == "hermitian":
        if dim != 3:
            raise DimensionError("hermitian form is defined for qutrits only")
        design = _hermitian_design()
    else:
        raise ValueError(f"unknown constraint form {form!r}")
    n_params = n2 * n2 if design is None else design.shape[1]

    if x0 is None:
        b0 = _direct_init(ts, ps, rt_mat)
        if design is None:
            x0 = b0.ravel()
        else:
            x0, _, _, _ = np.linalg.lstsq(design, b0.ravel(), rcond=None)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n_params,):
        raise DimensionError(f"x0 has shape {x0.shape}, expected ({n_params},)")

    thetas, gens, costs, exps, converged, counts = _gauss_newton(
        design, rt_mat, ts[None], ps[None], x0[None]
    )
    theta, l_hat = thetas[0], gens[0]
    dfs = np.array([frobenius_distance(p, e) for p, e in zip(ps, exps[0])])
    steps = counts["gauss_newton_iterations"]
    extras = {"optimizer": {"evaluations": 1 + steps, **counts}}
    if rt_mat is not None:
        extras["hamiltonian_superop"] = Superoperator(
            dim=dim, matrix=l_hat + rt_mat
        )
    return FitReport(
        model=f"mle-{form}",
        estimate=Superoperator(dim=dim, matrix=l_hat),
        params=theta,
        cost=float(costs[0]),
        df_per_time=dfs,
        iterations=steps,
        converged=bool(converged[0]),
        param_names=HERMITIAN_PARAM_NAMES if form == "hermitian" else None,
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


def fit_relaxation_model(rt: Superoperator) -> FitReport:
    """Decompose a relaxation matrix into the three-channel model.

    Linear least squares over (Omega_x, Omega_y, Omega_z, gamma_x, gamma_y,
    gamma_z, gamma_iso): the model matrix is linear in all seven
    parameters.  Rates are constrained non-negative by the exact
    active-set solver (BVLS): the iterative default stops short, by about
    1e-6 relative, when a rate sits on its bound.  The residual norm of the
    non-representable component is reported, never raised.
    """
    if rt.dim != 3:
        raise DimensionError("relaxation model is defined for qutrits only")
    a = _relaxation_design()
    b = rt.matrix.ravel()
    lb = np.array([-np.inf] * 3 + [0.0] * 4)
    ub = np.full(7, np.inf)
    sol = scipy.optimize.lsq_linear(a, b, bounds=(lb, ub), method="bvls")
    residual = float(np.linalg.norm(a @ sol.x - b))
    model = RelaxationModel(
        omega_residual=sol.x[:3], gamma_dephase=sol.x[3:6], gamma_iso=float(sol.x[6])
    )
    return FitReport(
        model="relaxation",
        estimate=model,
        params=sol.x,
        cost=residual**2,
        iterations=int(getattr(sol, "nit", 1) or 1),
        converged=True,
        param_names=RELAXATION_PARAM_NAMES,
        extras={"residual": residual},
    )


def direct_hamiltonian(processes: Sequence[ProcessMatrix], rt: Superoperator) -> FitReport:
    """Averaged direct estimate of a static Hamiltonian generator.

    For each admissible process matrix the generator log-estimate is taken,
    the known relaxation matrix is added back (isolating the Hamiltonian
    part), and the per-time estimates are averaged; a final least-squares
    projection onto the Hermitian parametrization enforces physicality.
    Times where the logarithm hits the branch cut are skipped with a
    warning and listed in ``extras["skipped_times"]``.
    """
    ts = np.array([pm.duration_s for pm in processes])
    logs, errors = _principal_logs(np.stack([pm.matrix for pm in processes]), ts)
    skipped = [(float(ts[k]), str(errors[k])) for k in sorted(errors)]
    for t, msg in skipped:
        warnings.warn(f"skipping t = {t}: {msg}", stacklevel=2)
    keep = [k for k in range(len(ts)) if k not in errors]
    if not keep:
        raise BranchCutError("no evolution time admits a principal logarithm")
    per_time = logs[keep] / ts[keep, None, None] + rt.matrix
    fit = params_from_superop(Superoperator(dim=rt.dim, matrix=np.mean(per_time, axis=0)))
    k_hat = explicit_qutrit_superop(fit.params).matrix
    return FitReport(
        model="direct-hamiltonian",
        estimate=fit.params,
        params=fit.params.h,
        cost=fit.residual**2,
        df_per_time=_df_per_time(processes, k_hat - rt.matrix),
        iterations=1,
        converged=True,
        param_names=HERMITIAN_PARAM_NAMES,
        extras={
            "residual": fit.residual,
            "skipped_times": skipped,
        },
    )


# ---------------------------------------------------------------------------
# Time-resolved multiparameter field estimation
# ---------------------------------------------------------------------------


def _field_form(known_form: bool) -> tuple[np.ndarray, tuple[str, ...]]:
    """Design matrix and column names of a field fit: Omega, or HermitianParams.h."""
    if known_form:
        return _field_design(), FIELD_PARAM_NAMES
    return _hermitian_design(), HERMITIAN_PARAM_NAMES


@dataclass
class FieldTrack:
    """Per-interval field estimates from a stepwise reconstruction.

    ``report.estimate`` has one row per interval, with columns named by
    ``columns``: (Omega_x, Omega_y, Omega_z) when the field form is known,
    read as ``omegas``, otherwise the nine Hermitian parameters, read as
    ``params``.  ``times`` are interval midpoints.  Steps
    whose total field magnitude is small are flagged: the normalized error
    metric diverges there, an artifact of the normalization rather than of
    the reconstruction.
    """

    times: np.ndarray
    known_form: bool
    method: str
    report: FitReport
    flagged: Optional[np.ndarray] = None

    @property
    def omegas(self) -> Optional[np.ndarray]:
        return self.report.estimate if self.known_form else None

    @property
    def params(self) -> Optional[np.ndarray]:
        return None if self.known_form else self.report.estimate

    @property
    def columns(self) -> tuple[str, ...]:
        return _field_form(self.known_form)[1]

    def hamiltonian_superops(self) -> list[Superoperator]:
        """Reconstructed Hamiltonian generator per interval."""
        design, rows = _field_form(self.known_form)[0], self.report.estimate
        return [Superoperator(dim=3, matrix=(design @ r).reshape(9, 9)) for r in rows]


def estimate_fields(
    psteps: Sequence[ProcessMatrix],
    grid: TimeGrid,
    rt: Superoperator,
    known_form: bool = True,
    method: str = "direct",
) -> FieldTrack:
    """Track time-dependent fields from per-interval process matrices.

    Args:
        psteps: one process matrix per grid interval (stepwise
            reconstruction output).
        grid: uniform measurement grid; estimates are labelled with the
            interval midpoints.  A non-uniform grid raises LiouvlabError.
        rt: fixed relaxation matrix, added back before reading off the
            Hamiltonian part.
        known_form: if True, each interval is reduced to the three Larmor
            frequencies (Omega_x, Omega_y, Omega_z); if False, the full
            nine Hermitian parameters are returned per interval.
        method: ``"direct"`` (log + least-squares projection) or ``"mle"``
            (per-interval cost minimization, Hermitian or field-parametric
            by construction).

    Both methods start from the direct estimate: the principal log of each
    step, with ``rt`` added back, projected onto the parameters by least
    squares.  ``"mle"`` then lowers each interval's Pade cost
    ||exp(G dt) - P||_F^2 by damped Gauss-Newton, all intervals in
    lockstep as one-time problems of ``_gauss_newton``.
    ``report.extras["optimizer"]`` then holds ``gauss_newton_iterations``
    (steps summed over intervals, also ``report.iterations``),
    ``expm_frechet_evaluations`` (the steps of near-defective generators)
    and ``unconverged_intervals``, the indices of the intervals still
    running after GN_MAX_ITERS steps; ``report.converged`` is True when
    that list is empty.

    Branch-cut errors propagate per step; steps with nearly vanishing
    total field are flagged in the result.
    """
    if grid.step is None:
        raise LiouvlabError(
            "field estimation expects a uniform time grid, but its intervals last "
            f"from {grid.durations.min():g} to {grid.durations.max():g} s"
        )
    if len(psteps) != grid.n_intervals:
        raise DimensionError(
            f"{len(psteps)} process matrices for {grid.n_intervals} intervals"
        )
    if method not in ("direct", "mle"):
        raise ValueError(f"unknown method {method!r}")

    design, columns = _field_form(known_form)
    dts = np.array([p.duration_s for p in psteps])
    ps = np.stack([p.matrix for p in psteps])
    logs = _log_stack(psteps)
    k_direct = (logs / dts[:, None, None] + rt.matrix).reshape(len(ps), -1)
    theta0 = np.linalg.lstsq(design, k_direct.T, rcond=None)[0].T
    if method == "direct":
        rows = theta0
        costs = np.linalg.norm(rows @ design.T - k_direct, axis=1) ** 2
        dfs = _df_per_time(psteps, _generators(design, rt.matrix, rows))
    else:
        rows, _, costs, exps, converged, counts = _gauss_newton(
            design, rt.matrix, dts[:, None], ps[:, None], theta0
        )
        dfs = np.array([frobenius_distance(p, e) for p, e in zip(ps, exps[:, 0])])

    # |Omega| times a constant for the known form: the field design's columns
    # are orthogonal with one norm
    magnitudes = np.linalg.norm(rows @ design.T, axis=1)
    flagged = (magnitudes < 0.1 * magnitudes.max()) | (magnitudes.max() == 0)
    report = FitReport(
        model=f"fields-{method}-{'known' if known_form else 'unknown'}",
        estimate=rows,
        params=rows.ravel(),
        cost=float(np.sum(costs)),
        df_per_time=dfs,
        iterations=1,
        param_names=tuple(f"{c}[{k}]" for k in range(len(rows)) for c in columns),
    )
    if method == "mle":
        report.iterations = counts["gauss_newton_iterations"]
        report.converged = bool(converged.all())
        report.extras["optimizer"] = {
            **counts,
            "unconverged_intervals": np.flatnonzero(~converged).tolist(),
        }
    return FieldTrack(
        times=grid.midpoints,
        known_form=known_form,
        method=method,
        report=report,
        flagged=flagged,
    )


# ---------------------------------------------------------------------------
# Bootstrap uncertainty quantification
# ---------------------------------------------------------------------------


@dataclass
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


def derive_seed(seed: int, index: int) -> int:
    """Deterministic child seed for draw ``index``."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def bootstrap(
    fit: Callable[[TomographySet], np.ndarray],
    dataset_factory: Callable,
    noise,
    n_draws: int = 1000,
) -> BootstrapResult:
    """Re-run a fit on ``n_draws`` re-simulated noisy datasets.

    Args:
        fit: maps a dataset to a flat parameter vector.
        dataset_factory: maps a NoiseSpec (with a per-draw derived seed) to
            a synthetic dataset.
        noise: base NoiseSpec; its seed anchors the deterministic per-draw
            seeds.
        n_draws: number of bootstrap datasets (>= 2).

    Returns:
        BootstrapResult with asymmetric 16th/84th-percentile bounds, the
        raw samples, and the recorded failures.

    Only numeric failures (package errors and LinAlgError) count as failed
    draws; any other exception is a bug and propagates.

    Raises:
        BootstrapError: if more than 10% of draws fail.
    """
    if n_draws < 2:
        raise ValueError("bootstrap needs at least 2 draws")
    samples = []
    failures = []
    for draw in range(n_draws):
        spec = dataclasses.replace(noise, seed=derive_seed(noise.seed, draw))
        try:
            samples.append(np.asarray(fit(dataset_factory(spec)), dtype=float))
        except (LiouvlabError, np.linalg.LinAlgError) as err:
            failures.append(f"draw {draw}: {err}")
    if len(failures) > 0.1 * n_draws:
        raise BootstrapError(
            f"{len(failures)}/{n_draws} bootstrap draws failed; first: {failures[0]}"
        )
    samples = np.array(samples)
    low, high = np.percentile(samples, [16, 84], axis=0)
    return BootstrapResult(
        low=low, high=high, samples=samples, n_failed=len(failures), failures=failures
    )
