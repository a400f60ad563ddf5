from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from liouvlab import build_basis, calibrate_bloch_sigma, estimation
from liouvlab.basis import DensityMatrix
from liouvlab.superop import Superoperator
from liouvlab.synthlab import noisy_states
from liouvlab.tomography import TomographySet


@pytest.fixture(scope="session")
def basis3():
    return build_basis(3)


@pytest.fixture(scope="session")
def calibrated_sigma():
    """Bloch-coordinate noise level matched to the reference error budget.

    Computed once per session; every noisy acceptance-style test uses it.
    """
    return calibrate_bloch_sigma()


def planted_dataset(generator, times, noise) -> TomographySet:
    """The dataset of a constant qutrit generator at ``times``, through the public
    forward model ``noisy_states``: how a test plants a truth no scenario kind has."""
    times = np.asarray(times, dtype=float)
    propagators = scipy.linalg.expm(generator * times[:, None, None])
    return TomographySet(states=noisy_states(propagators, noise), times=times)


def random_density_matrix(rng, d=3) -> DensityMatrix:
    """Full-rank random state from a Ginibre draw."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def random_hermitian(rng, d=3, scale=1.0) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (g + g.conj().T)


def pade_cost(lmat, ts, ps) -> float:
    """The MLE cost sum_n ||expm(L t_n) - P_n||_F^2, one ``expm`` per time, in time order."""
    cost = 0.0
    for t, p in zip(ts, ps):
        err = scipy.linalg.expm(lmat * t) - p
        cost += float((err * err).sum())
    return cost


def lbfgs_reference(design, rt, ts, ps, x0):
    """L-BFGS fit of the MLE cost from ``x0``, the reference for the Gauss-Newton fits.

    The generator is B - rt with B = design @ theta, or theta itself when
    ``design`` is None; ``rt`` None stands for no dissipator.  The gradient is
    exact, sum_n 2 t_n D_exp((L t_n)^T)[E_n] from ``expm_frechet``.
    """
    n = ps.shape[-1]

    def fun(theta):
        b = theta.reshape(n, n) if design is None else (design @ theta).reshape(n, n)
        lmat = b if rt is None else b - rt
        cost, grad = 0.0, np.zeros_like(lmat)
        for t, p in zip(ts, ps):
            err = scipy.linalg.expm(lmat * t) - p
            cost += float((err * err).sum())
            grad += (2.0 * t) * scipy.linalg.expm_frechet((lmat * t).T, err)[1]
        return cost, grad.ravel() if design is None else design.T @ grad.ravel()

    return scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-14},
    )


def gauss_newton_fit(design, rt, ts, ps, x0):
    """The one ``_gauss_newton`` problem of an MLE fit, with its step budget, from ``x0``.

    ``mle_liouvillian`` always starts from its form's direct estimate; a test
    that needs another start calls the solver itself.  The result reads as
    the fit's FitReport: ``params``, ``estimate`` (the generator),
    ``cost``, ``converged``, ``iterations`` and
    ``extras["optimizer"]``, whose ``evaluations`` counts the solver's Pade
    cost evaluations (its calls of ``_stacked_costs``).
    """
    calls = []
    stacked_costs = estimation._stacked_costs

    def counted(exps, ps):
        calls.append(len(ps))
        return stacked_costs(exps, ps)

    with mock.patch.object(estimation, "_stacked_costs", counted):
        thetas, gens, costs, _, converged, counts = estimation._gauss_newton(
            design, rt, np.asarray(ts, dtype=float)[None], np.asarray(ps)[None],
            np.asarray(x0, dtype=float)[None], estimation.GN_MAX_ITERS,
        )
    return SimpleNamespace(
        params=thetas[0], estimate=Superoperator(dim=3, matrix=gens[0]), cost=float(costs[0]),
        converged=bool(converged[0]), iterations=counts["gauss_newton_iterations"],
        extras={"optimizer": {"evaluations": len(calls), **counts}},
    )
