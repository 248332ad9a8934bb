import numpy as np
import pytest

from anumrad import (
    a_numerical_radius,
    assemble,
    b_sharp_blockwise_check,
    block_gauge,
    direct_sum,
    gen_compatible,
    gen_psd,
    new_frame,
    sharp,
)
from anumrad.errors import DimensionMismatch
from anumrad.matrixcore import frob


def rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_assemble_examples():
    eye, zero = np.eye(2), np.zeros((2, 2))
    assert frob(assemble(eye, zero, zero, eye) - np.eye(4)) == 0.0
    x, y = np.full((2, 2), 2.0), np.full((2, 2), 3.0)
    anti = assemble(zero, x, y, zero)
    np.testing.assert_array_equal(anti[:2, 2:], x)
    np.testing.assert_array_equal(anti[2:, :2], y)
    sym = assemble(x, y, y, x)
    np.testing.assert_array_equal(sym[:2, :2], x)
    np.testing.assert_array_equal(sym[2:, :2], y)


def test_assemble_rejects_mismatched_blocks():
    with pytest.raises(DimensionMismatch):
        assemble(np.eye(2), np.eye(3), np.eye(2), np.eye(2))


def test_blockwise_sharp_identity_frame():
    rng = np.random.default_rng(50)
    f = new_frame(np.eye(3))
    blk = assemble(*(rand_complex(rng, (3, 3)) for _ in range(4)))
    assert b_sharp_blockwise_check(f, blk) <= 1e-12


def test_blockwise_sharp_weighted_frame():
    rng = np.random.default_rng(51)
    f = new_frame(np.diag([4.0, 1.0]))
    blk = assemble(*(rand_complex(rng, (2, 2)) for _ in range(4)))
    assert b_sharp_blockwise_check(f, blk) <= 1e-10


def test_blockwise_sharp_zero_blocks():
    f = new_frame(np.diag([4.0, 1.0]))
    zero = np.zeros((2, 2))
    assert b_sharp_blockwise_check(f, assemble(zero, zero, zero, zero)) == 0.0


def test_blockwise_sharp_rejects_a_matrix_not_twice_the_frame():
    f = new_frame(np.diag([4.0, 1.0]))
    for shape in ((2, 2), (3, 3), (4, 2), (6, 6)):
        with pytest.raises(DimensionMismatch):
            b_sharp_blockwise_check(f, np.ones(shape))


def test_blockwise_sharp_degenerate_frame():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        f = new_frame(gen_psd(n, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63))))
        blocks = [gen_compatible(f, int(rng.integers(0, 2**63))) for _ in range(4)]
        blk = assemble(*blocks)
        scale = 1.0 + frob(blk)
        assert b_sharp_blockwise_check(f, blk) <= 1e-9 * scale


def test_block_gauge_diag_example():
    f = new_frame(np.eye(2))
    x = np.array([[0.0, 2.0], [0.0, 0.0]])
    wb, rhs = block_gauge(f, "diag", x, np.eye(2))
    assert rhs == pytest.approx(1.0, abs=1e-10)
    assert wb == pytest.approx(1.0, abs=1e-10)


def test_block_gauge_symmetric_corollary():
    # X = 0 collapses the symmetric pattern to w_A(Y)
    rng = np.random.default_rng(53)
    f = new_frame(gen_psd(3, 3, 4))
    y = gen_compatible(f, 9)
    wb, rhs = block_gauge(f, "symmetric", np.zeros((3, 3)), y)
    assert rhs == pytest.approx(a_numerical_radius(f, y), abs=1e-9)
    assert abs(wb - a_numerical_radius(f, y)) <= 1e-7


def test_block_gauge_phase_zero_matches_antidiag():
    rng = np.random.default_rng(54)
    f = new_frame(gen_psd(2, 2, 5))
    x = gen_compatible(f, 1)
    y = gen_compatible(f, 2)
    wb_plain, rhs_plain = block_gauge(f, "antidiag", x, y)
    wb_phase, rhs_phase = block_gauge(f, "antidiag_phase", x, y, theta=0.0)
    assert wb_phase == pytest.approx(wb_plain, abs=1e-12)
    assert rhs_phase == pytest.approx(rhs_plain, abs=1e-12)
    assert abs(wb_plain - rhs_plain) <= 1e-7


def test_block_gauge_validation():
    x = np.eye(2)
    with pytest.raises(ValueError):
        block_gauge(new_frame(np.eye(2)), "bogus", x, x)
    with pytest.raises(ValueError):
        block_gauge(new_frame(np.eye(2)), "antidiag_phase", x, x)


@pytest.mark.parametrize("pattern", ["diag", "antidiag", "antidiag_phase", "symmetric"])
def test_block_identities_random(pattern):
    # every pattern holds on degenerate metrics as well: rank 1..n
    rng = np.random.default_rng(55)
    degenerate = set()
    for _ in range(15):
        n = int(rng.integers(2, 5))
        f = new_frame(gen_psd(n, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63))))
        degenerate.add(f.rank < n)
        x = gen_compatible(f, int(rng.integers(0, 2**63)))
        y = gen_compatible(f, int(rng.integers(0, 2**63)))
        kwargs = {"theta": float(rng.uniform(0, 2 * np.pi))} if pattern == "antidiag_phase" else {}
        wb, rhs = block_gauge(f, pattern, x, y, **kwargs)
        assert abs(wb - rhs) <= 1e-7, (n, f.rank)
    assert degenerate == {True, False}


def test_b_unitary_conjugation_invariance():
    # w_B is invariant under conjugation by the swap unitary
    rng = np.random.default_rng(56)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        f = new_frame(gen_psd(n, int(rng.integers(1, n + 1)), int(rng.integers(0, 2**63))))
        bf = direct_sum(f)
        blocks = [gen_compatible(f, int(rng.integers(0, 2**63))) for _ in range(4)]
        t = assemble(*blocks)
        zero, eye = np.zeros((n, n)), np.eye(n)
        u = assemble(zero, eye, eye, zero)
        conj = sharp(bf, u) @ t @ u
        assert abs(
            a_numerical_radius(bf, conj) - a_numerical_radius(bf, t)
        ) <= 1e-7
