import numpy as np
import pytest

from rydpump.linalg import (
    BipartiteDims,
    hermitian_eigvals,
    partial_transpose,
)

from conftest import random_density, random_hermitian, random_unitary


def test_partial_transpose_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    got = partial_transpose(np.kron(rho_a, rho_b), BipartiteDims(2, 3))
    assert np.allclose(got, np.kron(rho_a.T, rho_b), atol=1e-15)


def test_partial_transpose_involution(rng):
    rho = random_density(rng, 6)
    dims = BipartiteDims(2, 3)
    assert np.array_equal(partial_transpose(partial_transpose(rho, dims), dims), rho)


def test_partial_transpose_singlet_spectrum():
    # Two-qubit singlet; oracle = full 4x4 eigensolve of the partial transpose.
    s = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    rho_pt = partial_transpose(np.outer(s, s), BipartiteDims(2, 2))
    eig = np.linalg.eigvalsh(rho_pt)
    assert np.allclose(eig, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    rho = random_density(rng, 12)
    pt = partial_transpose(rho, BipartiteDims(3, 4))
    assert abs(np.trace(pt) - np.trace(rho)) <= 1e-13
    assert np.max(np.abs(pt - pt.conj().T)) <= 1e-13


def test_partial_transpose_dimension_error():
    with pytest.raises(ValueError, match="6x6"):
        partial_transpose(np.eye(5), BipartiteDims(2, 3))


def test_eigvals_diagonal():
    assert np.array_equal(hermitian_eigvals(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])


def test_eigvals_pauli_x():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(hermitian_eigvals(sx), [-1.0, 1.0], atol=1e-15)


def test_eigvals_characteristic_polynomial(rng):
    # oracle: det(M - lambda I) ~ 0 for each reported eigenvalue
    m = random_hermitian(rng, 6)
    scale = max(1.0, np.linalg.norm(m)) ** 5
    for lam in hermitian_eigvals(m):
        assert abs(np.linalg.det(m - lam * np.eye(6))) <= 1e-12 * scale


def test_eigvals_sum_is_trace(rng):
    m = random_hermitian(rng, 8)
    assert abs(np.sum(hermitian_eigvals(m)) - np.trace(m).real) <= 1e-10 * 8


def test_eigvals_unitary_invariance(rng):
    m = random_hermitian(rng, 6)
    u = random_unitary(rng, 6)
    a = hermitian_eigvals(m)
    b = hermitian_eigvals(u @ m @ u.conj().T)
    assert np.max(np.abs(a - b)) <= 1e-9


def test_eigvals_rejects_non_square():
    with pytest.raises(ValueError, match=r"^eigvals input must be square, got shape \(2, 3\)$"):
        hermitian_eigvals(np.zeros((2, 3)))


def test_eigvals_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(m)

