import numpy as np
import pytest

from anumrad import direct_sum, gen_psd, new_frame
from anumrad.errors import NotHermitian, NotPSD
from anumrad.matrixcore import frob


def test_identity_frame():
    f = new_frame(np.eye(3))
    assert f.strictly_positive and f.rank == 3
    np.testing.assert_allclose(f.projector, np.eye(3), atol=1e-13)
    np.testing.assert_allclose(f.sqrt_a, np.eye(3), atol=1e-13)


def test_rank_one_frame():
    f = new_frame(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert f.rank == 1 and not f.strictly_positive
    np.testing.assert_allclose(f.projector, np.diag([0.0, 1.0]), atol=1e-13)
    np.testing.assert_allclose(f.pinv_a, np.diag([0.0, 1.0]), atol=1e-13)  # its own pseudoinverse


def test_diagonal_frame_derived_matrices():
    f = new_frame(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(f.sqrt_a, np.diag([2.0, 1.0]), atol=1e-13)
    np.testing.assert_allclose(f.pinv_sqrt_a, np.diag([0.5, 1.0]), atol=1e-13)
    np.testing.assert_allclose(f.pinv_a, np.diag([0.25, 1.0]), atol=1e-13)


def test_new_frame_rejections():
    with pytest.raises(NotHermitian):
        new_frame(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPSD):
        new_frame(-np.eye(2))
    with pytest.raises(NotHermitian):
        new_frame(np.zeros((2, 3)))


def test_frame_invariants_random():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        r = int(rng.integers(0, n + 1))
        f = new_frame(gen_psd(n, r, int(rng.integers(0, 2**63))))
        scale = 1.0 + frob(f.a)
        assert frob(f.sqrt_a @ f.sqrt_a - f.a) <= 1e-10 * scale
        assert frob(f.sqrt_a @ f.pinv_sqrt_a - f.projector) <= 1e-10 * scale
        assert frob(f.pinv_sqrt_a @ f.sqrt_a - f.projector) <= 1e-10 * scale
        assert frob(f.projector @ f.projector - f.projector) <= 1e-12
        assert frob(f.projector - f.projector.conj().T) <= 1e-12
        assert f.strictly_positive == (f.rank == n)
        assert f.range_u.shape == (n, f.rank)
        assert f.null_u.shape == (n, n - f.rank)


def test_pinv_a_penrose_identities():
    # A^dagger is the Moore-Penrose pseudoinverse of A, on every rank
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        f = new_frame(gen_psd(n, int(rng.integers(0, n + 1)), int(rng.integers(0, 2**63))))
        a, p = f.a, f.pinv_a
        scale = 1.0 + frob(a)
        assert frob(a @ p @ a - a) <= 1e-10 * scale
        assert frob(p @ a @ p - p) <= 1e-10 * (1.0 + frob(p))
        assert frob((a @ p) - (a @ p).conj().T) <= 1e-10 * scale
        assert frob((p @ a) - (p @ a).conj().T) <= 1e-10 * scale
        assert frob(f.range_u.conj().T @ f.range_u - np.eye(f.rank)) <= 1e-12
        assert frob(f.projector @ a - a) <= 1e-10 * scale


def test_rank_zero_frame():
    f = new_frame(np.zeros((3, 3)))
    assert f.rank == 0 and not f.strictly_positive
    assert f.range_u.shape == (3, 0) and f.null_u.shape == (3, 3)
    for m in (f.sqrt_a, f.pinv_sqrt_a, f.pinv_a, f.projector):
        np.testing.assert_allclose(m, 0.0, atol=0.0)


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
    np.testing.assert_allclose(np.diag(bf.sqrt_a), [2.0, 1.0, 2.0, 1.0], atol=1e-13)
    assert bf.strictly_positive


def test_direct_sum_projector_blockdiag():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        f = new_frame(gen_psd(n, int(rng.integers(0, n + 1)), int(rng.integers(0, 2**63))))
        bf = direct_sum(f)
        expected = np.zeros((2 * n, 2 * n), dtype=complex)
        expected[:n, :n] = f.projector
        expected[n:, n:] = f.projector
        assert frob(bf.projector - expected) <= 1e-12
