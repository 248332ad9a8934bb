import numpy as np
import pytest

from anumrad import as_cmatrix


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])
