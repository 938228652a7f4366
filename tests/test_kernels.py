"""Legendre kernel: orthonormality and known values."""

import numpy as np
import pytest

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
