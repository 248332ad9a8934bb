import numpy as np
import pytest

from anumrad import (
    admits_a_adjoint,
    direct_sum,
    gen_compatible,
    gen_psd,
    new_frame,
    reduced,
    sharp,
)
from anumrad.errors import NoAdjoint
from anumrad.matrixcore import frob, herm_part, spec_norm


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


def _is_a_positive(f, m, tol=1e-9):
    # A m Hermitian PSD, within tol relative
    am = f.a @ m
    if frob(am - am.conj().T) > tol * (1.0 + frob(am)):
        return False
    return np.linalg.eigvalsh(herm_part(am))[0] >= -tol * (1.0 + spec_norm(am))


def _compression_is_psd(f, m, tol=1e-9):
    k = reduced(f, m)
    if frob(k - k.conj().T) > tol * (1.0 + frob(k)):
        return False
    return k.size == 0 or np.linalg.eigvalsh(herm_part(k))[0] >= -tol * (1.0 + frob(k))


def test_positivity_predicates():
    # T#T, TT# and I are A-positive, and A-positivity of an operator with an
    # A-adjoint is Hermitian positivity of its compression K(T)
    rng = np.random.default_rng(24)
    for _ in range(15):
        f = random_frame(rng)
        t = gen_compatible(f, int(rng.integers(0, 2**63)))
        s = sharp(f, t)
        for m in (s @ t, t @ s, np.eye(f.dim)):
            assert _is_a_positive(f, m)
            assert _compression_is_psd(f, m)
        assert _is_a_positive(f, t) == _compression_is_psd(f, t)
    f = new_frame(np.eye(2))
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not _is_a_positive(f, t)
    assert not _compression_is_psd(f, t)


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
        proj = bf.range_u @ bf.range_u.conj().T
        tol = 1e-9 * (1.0 + frob(proj))
        assert frob(us @ swap - proj) <= tol
        assert frob(sharp(bf, us) @ us - proj) <= tol


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
        proj = f.range_u @ f.range_u.conj().T
        assert frob(sharp(f, sharp(f, t)) - proj @ t @ proj) <= 1e-10 * (1.0 + frob(t))
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
            # T N stays in span N exactly when its range part U* T N vanishes
            invariant = frob(f.range_u.conj().T @ t @ f.null_u) <= 1e-9 * (1.0 + frob(t))
            assert admits_a_adjoint(f, t) == invariant


def test_douglas_test_is_scale_free():
    # T enters the test divided by its largest entry and A by lambda_max: at
    # 1e155 the unscaled norms overflowed to inf and accepted every operand,
    # and at small metric scales the 1 + of the tolerance made it absolute
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(31)
    g1 = random_frame(rng, n=4, rank=2)
    t_good = gen_compatible(g1, int(rng.integers(0, 2**63)))
    t_bad = rand_complex(rng, (4, 4))
    scales = (1e-300, 1e-155, 1e-8, 1.0, 1e8, 1e155, 1e300)
    for a_scale in scales:
        f = new_frame(a_scale * np.diag([0.0, 1.0]))
        g = new_frame(a_scale * g1.a)
        assert (f.rank, g.rank) == (1, 2), a_scale
        for c in scales:
            assert not admits_a_adjoint(f, c * swap), (a_scale, c)
            assert admits_a_adjoint(f, c * np.diag([5.0, 7.0])), (a_scale, c)
            assert admits_a_adjoint(g, c * t_good), (a_scale, c)
            assert not admits_a_adjoint(g, c * t_bad), (a_scale, c)
        assert admits_a_adjoint(g, np.zeros((4, 4))), a_scale


def _four_product_route(f, t):
    # U* A^{1/2} T (A^{1/2})^dagger U with both square roots formed on H
    u, root = f.range_u, np.sqrt(f.lam)
    sqrt_a = herm_part((u * root) @ u.conj().T)
    pinv_sqrt_a = herm_part((u / root) @ u.conj().T)
    return u.conj().T @ sqrt_a @ t @ pinv_sqrt_a @ u


def test_reduced_matches_the_four_product_route():
    rng = np.random.default_rng(32)
    cases = [(n, rank, gen_psd(n, rank, int(rng.integers(0, 2**63))))
             for n in range(1, 7) for rank in range(n + 1)]
    q, _ = np.linalg.qr(rand_complex(rng, (4, 4)))
    cases.append((4, 4, (q * np.array([1e-9, 1e-6, 1e-3, 1.0])) @ q.conj().T))
    for n, rank, a in cases:
        f = new_frame(a)
        assert f.rank == rank
        cond = f.lam[0] / f.lam[-1] if rank else 1.0
        for _ in range(3):
            t = gen_compatible(f, int(rng.integers(0, 2**63)))
            k = reduced(f, t)
            assert k.shape == (rank, rank)
            tol = 1e-13 * np.sqrt(cond) * (1.0 + frob(t))
            assert frob(k - _four_product_route(f, t)) <= tol, (n, rank)


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


@pytest.mark.filterwarnings("error")
def test_douglas_test_takes_subnormal_operators():
    # dividing T by a subnormal peak formed the peak's reciprocal, which
    # overflowed: from s = 1e-310 the test warned and rejected every operand
    f = new_frame(np.diag([0.0, 1.0]))
    keeps = np.array([[1.0, 0.5j], [0.0, 2.0]])  # maps N = span(e1) into itself
    swaps = np.array([[0.0, 1.0], [1.0, 0.0]])
    for s in (1.0, 1e-310, 1e-320):
        assert admits_a_adjoint(f, s * keeps), s
        assert not admits_a_adjoint(f, s * swaps), s
