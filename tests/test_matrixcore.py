import numpy as np
import pytest

from anumrad import EigDecomp, as_cmatrix, herm_eig
from anumrad.errors import NotHermitian
from anumrad.matrixcore import frob, herm_part


def rand_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_herm_eig_identity():
    dec = herm_eig(np.eye(3))
    assert isinstance(dec, EigDecomp)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_herm_eig_diagonal_sorted_ascending():
    dec = herm_eig(np.diag([-2.0, 0.0, 5.0]))
    np.testing.assert_allclose(dec.eigenvalues, [-2.0, 0.0, 5.0], atol=1e-14)


def test_herm_eig_tridiagonal_top_eigenvalue():
    # characteristic polynomial lam*(lam^2 - 5/4) = 0, largest root sqrt(5)/2
    h = 0.5 * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    dec = herm_eig(h)
    assert dec.eigenvalues[-1] == pytest.approx(np.sqrt(5.0) / 2.0, abs=1e-12)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_reconstruction_residual():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        h = herm_part(rand_complex(rng, (n, n)))
        lam, v = herm_eig(h)
        res = frob(h @ v - v * lam)
        assert res <= 1e-10 * (1.0 + frob(h))
        assert frob(v.conj().T @ v - np.eye(n)) <= 1e-12


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf, 0.0], [0.0, 1.0]])
