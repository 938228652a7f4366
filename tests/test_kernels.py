"""Legendre and Chebyshev kernels: orthonormality, known values, numpy parity."""

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebvander

from krtransport import kernels


@pytest.mark.parametrize("nmax", [0, 1, 5, 12])
def test_legendre_table_numpy_orthonormal(nmax):
    # check orthonormality by quadrature: int L_m L_n dmu = delta_mn
    from krtransport.quadrature import gauss_legendre

    rule = gauss_legendre(nmax + 2)
    tab = kernels.legendre_table(rule.nodes, nmax)
    gram = tab.T @ (tab * rule.weights[:, None])
    assert np.allclose(gram, np.eye(nmax + 1), atol=1e-13)


def test_legendre_table_known_values():
    x = np.array([0.0, 1.0, -1.0, 0.5])
    tab = kernels.legendre_table(x, 2)
    assert np.allclose(tab[:, 0], 1.0)
    assert np.allclose(tab[:, 1], np.sqrt(3.0) * x)
    assert np.allclose(tab[:, 2], np.sqrt(5.0) * 0.5 * (3 * x**2 - 1))


@pytest.mark.parametrize("nmax", [0, 1, 2, 7, 64, 256])
def test_chebyshev_table_is_chebvander(nmax):
    rng = np.random.Generator(np.random.Philox(nmax))
    x = np.concatenate([[-1.0, 1.0, 0.0, -0.0, 0.5], rng.uniform(-1.0, 1.0, 200)])
    tab = kernels.chebyshev_table(x, nmax)
    assert tab.shape == (x.size, nmax + 1)
    ref = chebvander(x, nmax)
    assert np.array_equal(tab.view(np.int64), ref.view(np.int64))  # bitwise
