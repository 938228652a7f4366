"""Gauss-Legendre rules and tensor grids against scipy and closed forms."""

import numpy as np
import pytest
from scipy.integrate import quad

from krtransport.quadrature import (
    MAX_GRID_COORDINATES,
    gauss_legendre,
    integrate,
    tensor_grid,
    uniform_grid,
)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32, 64])
def test_nodes_match_numpy_gauss(n):
    ref_nodes, ref_w = np.polynomial.legendre.leggauss(n)
    rule = gauss_legendre(n)
    assert np.allclose(rule.nodes, ref_nodes, atol=1e-14)
    # package weights are scaled for the probability measure
    assert np.allclose(rule.weights, ref_w / 2.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 10, 40])
def test_weights_sum_to_one(n):
    rule = gauss_legendre(n)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(rule.weights > 0)
    assert np.all(np.diff(rule.nodes) > 0)


def test_polynomial_exactness():
    # n nodes integrate degree <= 2n-1 exactly
    n = 6
    rule = gauss_legendre(n)
    for deg in range(2 * n):
        exact = (1.0 / (deg + 1)) if deg % 2 == 0 else 0.0
        got = float((rule.nodes**deg) @ rule.weights)
        assert got == pytest.approx(exact, abs=1e-14)


def test_integrate_smooth_1d():
    exact = quad(lambda t: np.exp(np.sin(3 * t)), -1, 1)[0] / 2.0
    got = integrate(lambda p: np.exp(np.sin(3 * p[:, 0])), uniform_grid(30, 1))
    assert got == pytest.approx(exact, abs=1e-12)


def test_tensor_grid_product_structure():
    g = tensor_grid([3, 4])
    pts, w = g.points_weights()
    assert pts.shape == (12, 2)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    # separable integrand factorizes
    val = integrate(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, g)
    assert val == pytest.approx(1.0 / 9.0, abs=1e-14)


def test_integrate_rejects_nonfinite():
    with pytest.raises(ValueError):
        integrate(lambda p: np.full(p.shape[0], np.nan), uniform_grid(3, 1))


def test_rule_order_validation():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_tensor_grid_built_once():
    g = tensor_grid([3, 4])
    assert g.points_weights() is g.points_weights()


@pytest.mark.parametrize("orders, nodes", [([15] * 8, 15**8), ([60] * 5, 60**5)],
                         ids=["d8", "d5_oversampled"])
def test_tensor_grid_too_large_fails_before_allocation(orders, nodes):
    g = tensor_grid(orders)
    assert g.size * g.d > MAX_GRID_COORDINATES
    with pytest.raises(ValueError, match=f"= {nodes} nodes exceeds"):
        g.points_weights()
