import dataclasses

import numpy as np
import pytest

from anumrad import direct_sum, gen_psd, new_frame
from anumrad.errors import NotHermitian, NotPSD
from anumrad.matrixcore import frob


def assert_eigendecomposition(f, tol=1e-10):
    # A = U diag(lam) U*, [U | N] unitary, lam positive, shapes by rank
    n, r = f.dim, f.rank
    u, un = f.range_u, f.null_u
    assert f.lam.shape == (r,) and u.shape == (n, r) and un.shape == (n, n - r)
    assert np.all(f.lam > 0.0)
    assert frob((u * f.lam) @ u.conj().T - f.a) <= tol * (1.0 + frob(f.a))
    basis = np.hstack((u, un))
    assert frob(basis.conj().T @ basis - np.eye(n)) <= 1e-12
    assert f.strictly_positive == (r == n)


def test_identity_frame():
    f = new_frame(np.eye(3))
    assert f.strictly_positive and f.rank == 3
    np.testing.assert_array_equal(f.lam, np.ones(3))
    assert_eigendecomposition(f)


def test_rank_one_frame():
    f = new_frame(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert f.rank == 1 and not f.strictly_positive
    np.testing.assert_allclose(f.lam, [1.0], atol=1e-13)
    np.testing.assert_allclose(np.abs(f.range_u), [[0.0], [1.0]], atol=1e-13)
    np.testing.assert_allclose(np.abs(f.null_u), [[1.0], [0.0]], atol=1e-13)
    assert_eigendecomposition(f)


def test_diagonal_frame_spectrum():
    # dominant eigendirection first, so the compression keeps the coordinate order
    f = new_frame(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(f.lam, [4.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(np.abs(f.range_u), np.eye(2), atol=1e-13)
    assert_eigendecomposition(f)


def test_new_frame_rejections():
    with pytest.raises(NotHermitian):
        new_frame(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSD):
        new_frame(-np.eye(2))
    with pytest.raises(NotHermitian):
        new_frame(np.zeros((2, 3)))


def test_hermitian_test_is_scale_free():
    # A enters the test divided by its largest entry: c [[1, 1], [0, 1]] was
    # accepted and symmetrized at c = 1e-12 (absolute tolerance) and at 1e160
    # (both norms overflowed to inf)
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    near = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
    for c in (1e-300, 1e-100, 1e-12, 1.0, 1e160, 1e300):
        with pytest.raises(NotHermitian):
            new_frame(c * skew)
        f = new_frame(c * near)
        assert f.rank == 2, c
        np.testing.assert_allclose(f.lam, [3.0 * c, c], rtol=1e-11)


def test_frame_invariants_random():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        f = new_frame(gen_psd(n, int(rng.integers(0, n + 1)), int(rng.integers(0, 2**63))))
        assert_eigendecomposition(f)
        assert np.all(np.diff(f.lam) <= 0.0)
        for m in (f.a, f.lam, f.range_u, f.null_u):
            assert not m.flags.writeable


def test_rank_zero_frame():
    f = new_frame(np.zeros((3, 3)))
    assert f.rank == 0 and not f.strictly_positive
    assert f.lam.shape == (0,)
    assert_eigendecomposition(f)


def test_strict_positivity_is_read_from_the_rank():
    # dim, rank and strict positivity are read from the stored matrices, so
    # no replaced field can contradict the eigendecomposition
    f = new_frame(np.diag([0.0, 1.0]))
    for field, value in (("strictly_positive", True), ("rank", 2), ("dim", 3)):
        with pytest.raises(TypeError):
            dataclasses.replace(f, **{field: value})
    assert (f.dim, f.rank, f.strictly_positive) == (2, 1, False)


def test_direct_sum_examples():
    f = new_frame(np.eye(2))
    bf = direct_sum(f)
    np.testing.assert_allclose(bf.a, np.eye(4), atol=1e-13)

    f = new_frame(np.diag([0.0, 1.0]))
    bf = direct_sum(f)
    np.testing.assert_allclose(np.diag(bf.a), [0.0, 1.0, 0.0, 1.0], atol=1e-13)
    assert bf.rank == 2 and not bf.strictly_positive

    f = new_frame(np.diag([4.0, 1.0]))
    bf = direct_sum(f)
    np.testing.assert_allclose(bf.lam, [4.0, 1.0, 4.0, 1.0], atol=1e-13)
    assert bf.strictly_positive


def test_direct_sum_tiles_the_eigendecomposition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        f = new_frame(gen_psd(n, int(rng.integers(0, n + 1)), int(rng.integers(0, 2**63))))
        bf = direct_sum(f)
        assert_eigendecomposition(bf)
        np.testing.assert_array_equal(bf.lam, np.concatenate((f.lam, f.lam)))
        for big, small in ((bf.a, f.a), (bf.range_u, f.range_u), (bf.null_u, f.null_u)):
            rows, cols = small.shape
            np.testing.assert_array_equal(big[:rows, :cols], small)
            np.testing.assert_array_equal(big[rows:, cols:], small)
            assert frob(big[:rows, cols:]) == frob(big[rows:, :cols]) == 0.0
