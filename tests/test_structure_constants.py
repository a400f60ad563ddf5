"""Algebraic properties of the basis product tensor, for d = 2...6.

Z_abc = (1/2) Tr(sigma_a sigma_b sigma_c) with F = Im Z and D = Re Z; the
superoperators built from Z are checked against the entry-by-entry trace
oracles of ``test_superop``.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liouvlab.basis import build_basis
from liouvlab.superop import dissipator_superop, hamiltonian_superop

from conftest import random_hermitian
from test_superop import brute_force_dissipator, brute_force_hamiltonian_superop

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(d=dims, seed=seeds)
def test_product_tensor_rebuilds_products(d, seed):
    basis = build_basis(d)
    z = basis._product_tensor
    a, b = np.random.default_rng(seed).integers(d * d, size=2)
    s = basis.elements
    np.testing.assert_allclose(
        s[a] @ s[b], np.tensordot(z[a, b], s, axes=1), atol=1e-13
    )


@settings(derandomize=True, max_examples=20, deadline=None)
@given(d=dims)
def test_f_antisymmetric_d_symmetric(d):
    z = build_basis(d)._product_tensor
    f, dd = z.imag, z.real
    for perm in itertools.permutations(range(3)):
        sign = np.linalg.det(np.eye(3)[list(perm)])
        np.testing.assert_allclose(f.transpose(perm), sign * f, atol=1e-14)
        np.testing.assert_allclose(dd.transpose(perm), dd, atol=1e-14)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, seed=seeds)
def test_f_jacobi_identity(d, seed):
    # sum_e F_abe F_ecg + F_bce F_eag + F_cae F_ebg = 0, one slice a per draw
    f = build_basis(d)._product_tensor.imag
    a = np.random.default_rng(seed).integers(d * d)
    fa = f[:, a, :]  # F_cae as (c, e), and F_eag as (e, g)
    jacobi = (
        np.tensordot(f[a], f, axes=(1, 0))
        + np.tensordot(f, fa, axes=(2, 0))
        + np.tensordot(fa, f, axes=(1, 0)).transpose(1, 0, 2)
    )
    assert np.abs(jacobi).max() < 1e-13


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, seed=seeds)
def test_mixed_f_d_identity(d, seed):
    # sum_e F_abe D_ecg + F_ace D_beg - D_bce F_aeg = 0, one slice a per draw;
    # from [s_a, {s_b, s_c}] = {[s_a, s_b], s_c} + {s_b, [s_a, s_c]}
    z = build_basis(d)._product_tensor
    f, dd = z.imag, z.real
    a = np.random.default_rng(seed).integers(d * d)
    mixed = (
        np.tensordot(f[a], dd, axes=(1, 0))  # (b, c, g)
        + np.tensordot(f[a], dd, axes=(1, 1)).transpose(1, 0, 2)
        - np.tensordot(dd, f[a], axes=(2, 0))
    )
    assert np.abs(mixed).max() < 1e-13


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, seed=seeds)
def test_hamiltonian_superop_matches_trace_oracle(d, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(d)
    h = random_hermitian(rng, d=d)
    np.testing.assert_allclose(
        hamiltonian_superop(h, basis).matrix,
        brute_force_hamiltonian_superop(h, basis.elements),
        atol=1e-12,
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(d=dims, n_jumps=st.integers(min_value=0, max_value=3), seed=seeds)
def test_dissipator_superop_matches_trace_oracle(d, n_jumps, seed):
    rng = np.random.default_rng(seed)
    basis = build_basis(d)
    jumps = [
        rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_jumps)
    ]
    np.testing.assert_allclose(
        dissipator_superop(jumps, basis).matrix,
        brute_force_dissipator(jumps, basis.elements),
        atol=1e-11,
    )
