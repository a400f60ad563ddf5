"""Algebraic properties of the generator and basis maps, for d = 2..6.

Every random Kossakowski generator preserves the trace; with a positive
semi-definite Kossakowski matrix its propagator keeps states physical;
and ``vectorize``/``devectorize`` undo each other.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_hermitian
from liouvlab.basis import BlochVector, build_basis, devectorize, vectorize
from liouvlab.dynamics import propagator
from liouvlab.superop import KossakowskiMatrix, kossakowski_generator

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _kossakowski(rng, d, psd) -> KossakowskiMatrix:
    """A random Hermitian coefficient matrix, PSD when ``psd``."""
    n = d * d
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    c = g @ g.conj().T / n if psd else 0.5 * (g + g.conj().T)
    return KossakowskiMatrix(dim=d, c=c)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(d=dims, seed=seeds)
def test_kossakowski_generator_preserves_the_trace(d, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(d)
    c = _kossakowski(rng, d, psd=False)
    gen = kossakowski_generator(c, random_hermitian(rng, d), basis).matrix
    # the trace is the last Bloch coordinate, which no coordinate drives
    np.testing.assert_allclose(gen[-1], 0.0, rtol=0, atol=1e-12 * np.abs(gen).max())


@settings(derandomize=True, max_examples=15, deadline=None)
@given(d=dims, seed=seeds, t=st.floats(min_value=0.0, max_value=2.0))
def test_psd_kossakowski_propagator_keeps_states_physical(d, seed, t):
    rng = np.random.default_rng(seed)
    basis = build_basis(d)
    c = _kossakowski(rng, d, psd=True)
    pm = propagator(kossakowski_generator(c, random_hermitian(rng, d), basis), t)
    rho = random_density_matrix(rng, d)
    coords = pm.matrix @ vectorize(rho, basis).coords
    # devectorize checks Hermiticity and unit trace; the spectrum is checked
    # here, tighter than the state's own tolerance
    out = devectorize(BlochVector(dim=d, coords=coords), basis).entries
    assert np.linalg.eigvalsh(out).min() >= -1e-12
    assert abs(coords[-1] - np.sqrt(1.0 / (2 * d))) <= 1e-14


@settings(derandomize=True, max_examples=15, deadline=None)
@given(d=dims, seed=seeds)
def test_vectorize_devectorize_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(d)
    rho = random_density_matrix(rng, d)
    v = vectorize(rho, basis)
    back = devectorize(v, basis)
    np.testing.assert_allclose(back.entries, rho.entries, rtol=0, atol=1e-14)
    np.testing.assert_allclose(vectorize(back, basis).coords, v.coords, rtol=0, atol=1e-14)
    assert abs(v.coords[-1] - np.sqrt(1.0 / (2 * d))) <= 1e-15
