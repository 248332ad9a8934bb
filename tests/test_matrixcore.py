import numpy as np
import pytest

from anumrad import as_cmatrix
from anumrad.matrixcore import tile


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
