import numpy as np
import pytest

from anumrad import (
    admits_a_adjoint,
    direct_sum,
    gen_compatible,
    gen_psd,
    is_a_positive,
    new_frame,
    reduced,
    sharp,
)
from anumrad.errors import NoAdjoint
from anumrad.matrixcore import frob


def rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_frame(rng, n=None, rank=None):
    n = n or int(rng.integers(2, 6))
    rank = rank if rank is not None else int(rng.integers(1, n + 1))
    return new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))


def test_no_adjoint_swap_example():
    f = new_frame(np.array([[0.0, 0.0], [0.0, 1.0]]))
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not admits_a_adjoint(f, t)
    with pytest.raises(NoAdjoint):
        sharp(f, t)


def test_strictly_positive_admits_everything():
    rng = np.random.default_rng(20)
    f = new_frame(gen_psd(4, 4, 7))
    for _ in range(5):
        assert admits_a_adjoint(f, rand_complex(rng, (4, 4)))


def test_diagonal_admits_example():
    f = new_frame(np.diag([0.0, 1.0]))
    assert admits_a_adjoint(f, np.diag([5.0, 7.0]))


def test_sharp_classical_adjoint():
    rng = np.random.default_rng(21)
    f = new_frame(np.eye(3))
    t = rand_complex(rng, (3, 3))
    np.testing.assert_allclose(sharp(f, t), t.conj().T, atol=1e-12)


def test_sharp_derived_examples():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        sharp(new_frame(np.diag([1.0, 2.0])), t),
        np.array([[0.0, 0.0], [0.5, 0.0]]),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        sharp(new_frame(np.diag([4.0, 1.0])), t),
        np.array([[0.0, 0.0], [4.0, 0.0]]),
        atol=1e-12,
    )


def test_sharp_intertwines_with_metric():
    # A T# = T* A whenever the adjoint exists
    rng = np.random.default_rng(22)
    for _ in range(25):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        assert frob(f.a @ s - t.conj().T @ f.a) <= 1e-10 * (1.0 + frob(f.a @ s))


def test_positivity_predicates():
    rng = np.random.default_rng(24)
    for _ in range(15):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        assert is_a_positive(f, s @ t)
        assert is_a_positive(f, t @ s)
        assert is_a_positive(f, np.eye(f.dim))
    f = new_frame(np.eye(2))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not is_a_positive(f, t)


def test_swap_is_unitary_on_doubled_frame():
    for a in (np.eye(2), np.diag([0.0, 1.0]), np.diag([4.0, 1.0])):
        bf = direct_sum(new_frame(a))
        n = a.shape[0]
        swap = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [np.eye(n), np.zeros((n, n))],
        ])
        # U#U = U##U# = P: the swap is A-unitary on the doubled frame
        us = sharp(bf, swap)
        tol = 1e-9 * (1.0 + frob(bf.projector))
        assert frob(us @ swap - bf.projector) <= tol
        assert frob(sharp(bf, us) @ us - bf.projector) <= tol


def test_reduced_examples():
    rng = np.random.default_rng(26)
    f = new_frame(np.eye(3))
    t = rand_complex(rng, (3, 3))
    np.testing.assert_allclose(reduced(f, t), t, atol=1e-12)

    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(
        reduced(new_frame(np.diag([4.0, 1.0])), t),
        np.array([[0.0, 2.0], [0.0, 0.0]]),
        atol=1e-12,
    )

    red = reduced(new_frame(np.diag([0.0, 1.0])), np.diag([5.0, 7.0]))
    assert red.shape == (1, 1)
    assert red[0, 0] == pytest.approx(7.0)


def test_reduced_calculus_invariants():
    rng = np.random.default_rng(27)
    for _ in range(30):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = gen_compatible(f, int(rng.integers(0, 2**63)))
        kt = reduced(f, t)
        scale = 1.0 + frob(kt)

        # sharp in reduced form is the conjugate transpose
        assert frob(reduced(f, sharp(f, t)) - kt.conj().T) <= 1e-10 * scale
        # involution up to the range projector
        assert frob(reduced(f, sharp(f, sharp(f, t))) - kt) <= 1e-10 * scale
        assert frob(sharp(f, sharp(f, t)) - f.projector @ t @ f.projector) <= 1e-10 * (
            1.0 + frob(t)
        )
        # multiplicativity
        assert frob(
            reduced(f, s @ t) - reduced(f, s) @ kt
        ) <= 1e-10 * (1.0 + frob(reduced(f, s)) * frob(kt))


def test_adjoint_pairing():
    rng = np.random.default_rng(28)
    for _ in range(20):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        x = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        y = rng.standard_normal(f.dim) + 1j * rng.standard_normal(f.dim)
        # <x, y>_A = <Ax, y> = np.vdot(y, A x)
        lhs = np.vdot(y, f.a @ (t @ x))
        rhs = np.vdot(s @ y, f.a @ x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs) + abs(rhs))


def test_admits_iff_null_space_invariant():
    rng = np.random.default_rng(29)
    for _ in range(20):
        f = random_frame(rng, n=4, rank=2)
        t_good = gen_compatible(f, int(rng.integers(0, 2**63)))
        t_bad = rand_complex(rng, (4, 4))
        for t in (t_good, t_bad):
            null_image_norm = frob(f.sqrt_a @ t @ f.null_u)
            invariant = null_image_norm <= 1e-9 * (1.0 + frob(t))
            assert admits_a_adjoint(f, t) == invariant


def test_compression_is_a_star_homomorphism_on_every_rank():
    # the identities that let the checks run in compressed coordinates:
    # K(T#) = K(T)*, K(XY) = K(X) K(Y), and under diag(A, A) the antidiagonal
    # block compresses to [[0, K(X)], [K(Y), 0]]
    rng = np.random.default_rng(30)
    for n in range(2, 7):
        for rank in range(1, n + 1):
            f = new_frame(gen_psd(n, rank, int(rng.integers(0, 2**63))))
            t, x, y = (gen_compatible(f, int(rng.integers(0, 2**63))) for _ in range(3))
            kt, kx, ky = reduced(f, t), reduced(f, x), reduced(f, y)
            tol = 1e-12 * (1.0 + frob(kt) + frob(kx) * frob(ky))
            assert frob(reduced(f, sharp(f, t)) - kt.conj().T) <= tol, (n, rank)
            assert frob(reduced(f, x @ y) - kx @ ky) <= tol, (n, rank)
            zero = np.zeros((n, n))
            anti = np.block([[zero, x], [y, zero]])
            kz = np.zeros((rank, rank))
            want = np.block([[kz, kx], [ky, kz]])
            assert frob(reduced(direct_sum(f), anti) - want) <= tol, (n, rank)
