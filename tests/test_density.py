"""Density families: positivity, normalization, marginals, conditionals."""

import numpy as np
import pytest
from scipy.special import erf

from krtransport.density import (
    conditional,
    density_from_config,
    gaussian_posterior,
    linear_density,
    marginal_hat,
    uniform,
)
from krtransport.quadrature import integrate, uniform_grid


def test_uniform_is_one():
    f = uniform(3)
    pts = np.zeros((4, 3))
    assert np.allclose(f.evaluate(pts), 1.0)
    assert integrate(f.evaluate, uniform_grid(4, 3)) == pytest.approx(1.0)


def test_linear_density_normalized_and_positive():
    f = linear_density([0.3, -0.4])
    assert integrate(f.evaluate, uniform_grid(6, 2)) == pytest.approx(1.0, abs=1e-14)
    corners = np.array([[s1, s2] for s1 in (-1, 1) for s2 in (-1, 1)], dtype=float)
    assert np.all(f.evaluate(corners) > 0)


def test_linear_density_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_density([0.7, 0.3])
    with pytest.raises(ValueError):
        linear_density([])


def test_linear_marginal_oracle_matches_quadrature():
    c = [0.2, 0.3, -0.1]
    f = linear_density(c)
    # strip the oracle to force the quadrature path
    from dataclasses import replace

    g = replace(f, marginal_oracle=None)
    rng = np.random.Generator(np.random.Philox(1))
    for k in [1, 2, 3]:
        x = rng.uniform(-1, 1, size=(20, k))
        assert np.allclose(
            marginal_hat(f, k, x), marginal_hat(g, k, x), atol=1e-13
        )


def test_conditional_integrates_to_one():
    f = linear_density([0.25, 0.35])
    prefix = np.array([[0.4]])

    def fk(t):
        pts = np.concatenate([np.repeat(prefix, len(t), axis=0),
                              t.reshape(-1, 1)], axis=1)
        return conditional(f, 2, pts)

    val = integrate(lambda p: fk(p[:, 0]), uniform_grid(8, 1))
    assert val == pytest.approx(1.0, abs=1e-13)


def test_gaussian_posterior_normalized():
    f = gaussian_posterior([[1.0, 0.5]], [0.3], 0.8)
    assert integrate(f.evaluate, uniform_grid(40, 2)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_gaussian_posterior_1d_closed_form():
    # A=[1], varsigma=0, sigma=1: Z = (1/2) int exp(-y^2/2) dy over [-1,1]
    f = gaussian_posterior([[1.0]], [0.0], 1.0)
    z_exact = 0.5 * np.sqrt(2 * np.pi) * erf(1.0 / np.sqrt(2.0))
    assert f.params["Z"] == pytest.approx(z_exact, abs=1e-13)


def test_gaussian_posterior_validation():
    with pytest.raises(ValueError):
        gaussian_posterior([[1.0]], [0.0], 0.0)
    with pytest.raises(ValueError):
        gaussian_posterior([[1.0, 0.0]], [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        gaussian_posterior(np.ones((1, 6)), [0.0], 1.0)


def test_anisotropy_fields():
    f = linear_density([0.3, -0.2])
    assert f.anisotropy == (0.3, 0.2)
    g = gaussian_posterior([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 1.0)
    assert g.anisotropy == pytest.approx((2.0, 1.0))
    # zero column -> anisotropy undefined
    h = gaussian_posterior([[1.0, 0.0]], [0.0], 1.0)
    assert h.anisotropy is None


def test_density_from_config():
    f = density_from_config({"family": "linear", "c": [0.1, 0.2]})
    assert f.family == "linear" and f.d == 2
    g = density_from_config({"family": "uniform", "d": 3})
    assert g.d == 3
    with pytest.raises(ValueError):
        density_from_config({"family": "nope"})
    with pytest.raises(ValueError):
        density_from_config({"c": [0.1]})
    with pytest.raises(ValueError):
        density_from_config({"family": "uniform", "d": 2, "extra": 1})


def test_marginal_hat_validation():
    f = linear_density([0.2])
    with pytest.raises(ValueError):
        marginal_hat(f, 2, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        conditional(f, 0, np.zeros((1, 0)))


def test_marginal_rule_built_once_per_trailing_dimension(monkeypatch):
    # repeated marginals at d - k = 2 and 1 build each trailing rule once;
    # the posterior's own normalisation grid is built before counting
    from krtransport import density

    f = gaussian_posterior([[1.0, 0.5, 0.25]], [0.3], 0.8)
    built = []

    def counted(n, d):
        built.append((n, d))
        return uniform_grid(n, d)

    density._trailing_rule.cache_clear()
    monkeypatch.setattr(density, "uniform_grid", counted)
    x = np.random.Generator(np.random.Philox(2)).uniform(-1, 1, size=(5, 2))
    first = [marginal_hat(f, k, x[:, :k]) for k in (1, 2)]
    again = [marginal_hat(f, k, x[:, :k]) for k in (1, 2, 1)]
    assert built == [(density.DEFAULT_MARGINAL_ORDER, 2),
                     (density.DEFAULT_MARGINAL_ORDER, 1)]
    assert all(np.array_equal(a, b) for a, b in zip(first + first[:1], again))
    pts, w = density._trailing_rule(2)
    assert not pts.flags.writeable and not w.flags.writeable
