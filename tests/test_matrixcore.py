import numpy as np
import pytest

from anumrad import as_cmatrix, new_frame
from anumrad.catalog import _Ctx
from anumrad.matrixcore import singular_values, spec_norm, tile


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])


def test_tile_is_np_block_byte_for_byte():
    # square, n x r and n x 0 blocks (the shapes direct_sum tiles), and the
    # scalar zero that fills an off-diagonal quarter
    rng = np.random.default_rng(90)
    for shape in ((1, 1), (3, 3), (4, 2), (3, 0), (2, 5)):
        blocks = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for _ in range(4)]
        got = tile(*blocks)
        want = np.block([blocks[:2], blocks[2:]])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        m = blocks[0]
        zero = np.zeros_like(m)
        assert tile(m, 0, 0, m).tobytes() == np.block([[m, zero], [zero, m]]).tobytes()


def _norm_inputs():
    rng = np.random.default_rng(91)
    for n in range(1, 13):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = max(1, n // 2)
        yield g
        yield g[:, :k] @ g[:k]  # rank k, deficient for n >= 2
        yield np.zeros((n, n), dtype=complex)
        yield g + g.conj().T  # Hermitian


def test_norm_reads_match_the_wrappers_they_skip():
    # spec_norm reads the SVD that np.linalg.norm(m, 2) reads, and _Ctx
    # memoizes singular_values
    ctx = _Ctx(new_frame(np.eye(2)), {}, 0)
    for m in _norm_inputs():
        assert spec_norm(m).hex() == float(np.linalg.norm(m, 2)).hex()
        assert spec_norm(m.real).hex() == float(np.linalg.norm(m.real, 2)).hex()
        sv = singular_values(m)
        assert ctx.nrm(m).hex() == float(sv[0]).hex()
        assert ctx.mm(m).hex() == float(sv[-1]).hex()
