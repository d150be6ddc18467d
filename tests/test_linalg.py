import numpy as np
import pytest

from rydpump.linalg import (
    BipartiteDims,
    hermitian_eigvals,
    kron,
    partial_transpose,
)

from conftest import random_density, random_hermitian, random_unitary


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_zero_factor():
    a = np.arange(4.0).reshape(2, 2) + 1j
    assert np.array_equal(kron(a, np.zeros((2, 2))), np.zeros((4, 4)))


def test_kron_index_formula(rng):
    # brute-force oracle: entry ((i*Br+k),(j*Bc+l)) = A[i,j]*B[k,l]
    # (vectorized complex multiply may differ from the scalar product in
    # the last ulp, hence the rounding-level tolerance)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(out[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) <= 1e-14


def test_kron_associativity(rng):
    a, b, c = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(3))
    left = kron(kron(a, b), c)
    right = kron(a, kron(b, c))
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(left))


@pytest.mark.parametrize("shape_a, shape_b", [((3, 3), (3, 3)), ((2, 5), (4, 1)),
                                              ((1, 1), (3, 2)), ((1, 1), (1, 1))])
def test_kron_bit_identical_to_numpy(shape_a, shape_b, rng):
    def sample(shape, is_complex):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if is_complex else x

    for ca, cb in [(True, True), (False, False), (False, True), (True, False)]:
        a, b = sample(shape_a, ca), sample(shape_b, cb)
        for x, y in [(a, b), (a.T, b), (a, b.T)]:
            got, want = kron(x, y), np.kron(x, y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_kron_rejects_vectors():
    with pytest.raises(ValueError):
        kron(np.ones(3), np.eye(2))


def test_partial_transpose_product_state(rng):
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    got = partial_transpose(kron(rho_a, rho_b), BipartiteDims(2, 3))
    assert np.allclose(got, kron(rho_a.T, rho_b), atol=1e-15)


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


def test_eigvals_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigvals(m)

