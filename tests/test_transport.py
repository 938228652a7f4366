"""Exact triangular transport: closed forms, pushforward identity, inverses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtransport.density import (
    DEFAULT_MARGINAL_ORDER,
    gaussian_posterior,
    linear_density,
    marginal_hat,
    uniform,
)
from krtransport.quadrature import gauss_legendre, integrate, uniform_grid
from krtransport.transport import (
    ExactTransport,
    invert_monotone,
    pushforward_density,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_invert_monotone_cubic():
    y = np.linspace(-0.9, 0.9, 13)

    def F(t):
        return t + 0.2 * t**3

    def dF(t):
        return 1 + 0.6 * t**2

    t = invert_monotone(F, y, lo=-1.5, hi=1.5, fprime=dF)
    assert np.allclose(F(t), y, atol=1e-11)


def test_invert_monotone_without_derivative():
    t = invert_monotone(np.tanh, np.tanh(np.array([0.3, -0.7])), lo=-2, hi=2)
    assert np.allclose(t, [0.3, -0.7], atol=1e-10)


def test_invert_monotone_bracket_guard():
    with pytest.raises(ValueError):
        invert_monotone(lambda t: t, np.array([5.0]))


def test_invert_monotone_unconverged_is_loud():
    # sign jumps over 0.5 at t = 0: bisection shrinks onto 0 but the
    # residual stays 0.5, which must be reported, not returned
    with pytest.raises(ValueError, match=r"1 of 1 roots unconverged.*5\.000e-01"):
        invert_monotone(np.sign, [0.5])


def test_identity_transport():
    rho = uniform(2)
    t = ExactTransport(reference=rho, target=uniform(2))
    pts = _rng(1).uniform(-1, 1, size=(20, 2))
    assert np.allclose(t.forward(pts), pts, atol=1e-12)
    assert np.allclose(t.diag_deriv(2, pts), 1.0, atol=1e-12)


def test_linear_target_1d_closed_form():
    # F_pi(t) = (t+1)/2 + c (t^2-1)/4; T(x) = (-1 + sqrt(1+c^2+2cx)) / c
    c = 0.4
    t = ExactTransport(reference=uniform(1), target=linear_density([c]))
    x = np.linspace(-1, 1, 21).reshape(-1, 1)
    expect = (-1.0 + np.sqrt(1 + c * c + 2 * c * x[:, 0])) / c
    assert np.allclose(t.forward(x)[:, 0], expect, atol=1e-10)


def test_forward_monotone_in_diagonal():
    t = ExactTransport(reference=uniform(2), target=linear_density([0.3, 0.2]))
    prefix = np.full((15, 1), 0.3)
    xs = np.linspace(-1, 1, 15).reshape(-1, 1)
    vals = t.component(2, np.concatenate([prefix, xs], axis=1))
    assert np.all(np.diff(vals) > 0)
    assert vals[0] == pytest.approx(-1.0, abs=1e-9)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "target",
    [
        linear_density([0.3, 0.2]),
        gaussian_posterior([[1.0, 0.4]], [0.2], 0.9),
    ],
)
def test_pushforward_identity(target):
    # det dT(x) * f_pi(T(x)) = f_rho(x)
    rho = uniform(2)
    t = ExactTransport(reference=rho, target=target)
    pts = _rng(2).uniform(-0.95, 0.95, size=(30, 2))
    y = t.forward(pts)
    det = t.diag_deriv(1, pts[:, :1]) * t.diag_deriv(2, pts)
    assert np.allclose(det * target.evaluate(y), rho.evaluate(pts), atol=1e-10)


def test_inverse_roundtrip_and_method_agreement():
    t = ExactTransport(reference=uniform(2), target=linear_density([0.3, 0.2]))
    pts = _rng(3).uniform(-0.9, 0.9, size=(25, 2))
    y = t.forward(pts)
    x = t.inverse(y)
    assert np.allclose(x, pts, atol=1e-9)
    swapped = ExactTransport(reference=t.target, target=t.reference)
    assert np.allclose(swapped.forward(y), x, atol=1e-9)


def _integrate_from_minus_one(fn, t, n):
    """(1/2) int_{-1}^{t_i} g for each t_i: an n-point Gauss rule mapped
    onto [-1, t_i]; fn maps the (m, n) mapped nodes to g there."""
    rule = gauss_legendre(n)
    half = 0.5 * (t + 1.0)
    return half * (fn(-1.0 + np.outer(half, rule.nodes + 1.0)) @ rule.weights)


@pytest.mark.parametrize("k", [1, 2])
def test_conditional_cdf_matches_fine_rule(k):
    # a peaked posterior: the CDF from one normalised Legendre series per
    # prefix against the self-normalised 400-node rule mapped onto [-1, t],
    # int_{-1}^{t} hat f_k / int_{-1}^{1} hat f_k
    pi = gaussian_posterior([[4.0, 2.0]], [0.3], 0.3)
    t = ExactTransport(reference=uniform(2), target=pi)
    rng = _rng(5)
    prefix = rng.uniform(-1, 1, size=(40, k - 1))
    s = rng.uniform(-1, 1, size=40)

    def fk(nodes):
        pts = np.empty(nodes.shape + (k,))
        pts[..., : k - 1] = prefix[:, None, :]
        pts[..., k - 1] = nodes
        return marginal_hat(pi, k, pts.reshape(-1, k)).reshape(nodes.shape)

    ref = (_integrate_from_minus_one(fk, s, 400)
           / _integrate_from_minus_one(fk, np.ones_like(s), 400))
    assert np.allclose(t.conditional_cdf(pi, k, prefix, s), ref, rtol=0, atol=1e-12)


def test_pushforward_density_matches_target():
    rho = uniform(2)
    pi = linear_density([0.25, -0.3])
    t = ExactTransport(reference=rho, target=pi)
    y = _rng(4).uniform(-0.9, 0.9, size=(20, 2))
    assert np.allclose(pushforward_density(t, rho, y), pi.evaluate(y), atol=1e-9)


def test_pushforward_integrates_to_one():
    rho = uniform(1)
    pi = linear_density([0.5])
    t = ExactTransport(reference=rho, target=pi)
    val = integrate(lambda y: pushforward_density(t, rho, y), uniform_grid(16, 1))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_dimension_mismatch_guard():
    with pytest.raises(ValueError):
        ExactTransport(reference=uniform(1), target=uniform(2))


def test_single_point_shapes():
    t = ExactTransport(reference=uniform(2), target=linear_density([0.3, 0.2]))
    y = t.forward(np.array([0.1, -0.2]))
    assert y.shape == (2,)
    x = t.inverse(y)
    assert x.shape == (2,)
    assert np.allclose(x, [0.1, -0.2], atol=1e-9)


@pytest.mark.parametrize(
    "target", [linear_density([0.3, 0.2]), gaussian_posterior([[1.0, 0.4]], [0.2], 0.9)]
)
def test_empty_batch(target):
    t = ExactTransport(reference=uniform(2), target=target)
    empty = np.zeros((0, 2))
    assert t.forward(empty).shape == (0, 2)
    assert t.inverse(empty).shape == (0, 2)
    for k in (1, 2):
        assert t.component(k, empty[:, :k]).shape == (0,)
        assert t.diag_deriv(k, empty[:, :k]).shape == (0,)
    assert t.conditional_cdf(target, 2, np.zeros((0, 1)), np.zeros(0)).shape == (0,)


def _mixed_batch(d, rng):
    # a tensor grid (shared prefixes), random rows, and duplicated rows
    q = np.linspace(-0.9, 0.8, 3)
    grid = np.stack(np.meshgrid(*[q] * d, indexing="ij"), axis=-1).reshape(-1, d)
    rand = rng.uniform(-1, 1, size=(6, d))
    return np.concatenate([grid, rand, grid[[0, 4]], rand[[1, 1, 3]]], axis=0)


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_grouped_batch_matches_rows_and_permutes(direction):
    pi = gaussian_posterior([[1.0, 0.5, 0.25]], [0.3], 0.5)
    t = ExactTransport(reference=uniform(3), target=pi)
    rng = _rng(6)
    x = _mixed_batch(3, rng)
    run = getattr(t, direction)
    y = run(x)
    by_row = np.array([run(row) for row in x])
    assert np.max(np.abs(y - by_row)) <= 1e-14
    perm = rng.permutation(x.shape[0])
    assert np.array_equal(run(x[perm]), y[perm])


def test_series_built_once_per_distinct_prefix():
    # a broad posterior: every conditional series stops at n = 32 nodes
    pi = gaussian_posterior([[1.0, 0.5, 0.25]], [0.3], 0.9)
    counted = []

    def evaluate(x):
        counted.append(x.shape[0])
        return pi.evaluate(x)

    t = ExactTransport(reference=uniform(3), target=replace(pi, evaluate=evaluate))
    q, d, n, nq = 4, 3, 32, DEFAULT_MARGINAL_ORDER
    grid = np.stack(
        np.meshgrid(*[np.linspace(-0.8, 0.7, q)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    t.forward(grid)
    # component k: q^(k-1) distinct prefixes, each with n nodes of
    # hat f_k (nq^(d-k) trailing nodes each) and no separate denominator;
    # every call fits one block
    expect = [q ** (k - 1) * n * nq ** (d - k) for k in range(1, d + 1)]
    assert counted == expect

    # grouping is bitwise: a prefix one ulp away gets its own series
    counted.clear()
    prefix = np.repeat(grid[:5, :2], 3, axis=0)
    prefix[0, 1] = np.nextafter(prefix[0, 1], 1.0)
    t.conditional_cdf(t.target, 3, prefix, np.linspace(-1, 1, 15))
    distinct = np.unique(prefix, axis=0).shape[0]
    assert distinct == 3
    assert counted == [distinct * n]


def _repeated_prefix_points(draw, d):
    # few values per coordinate, so that many rows share a prefix
    pool = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                           max_size=d), min_size=1, max_size=3)))
    picks = draw(st.lists(st.lists(st.integers(0, pool.shape[0] - 1), min_size=d,
                                   max_size=d), min_size=1, max_size=12))
    return pool[np.array(picks), np.arange(d)]


@st.composite
def _linear_target_and_points(draw):
    d = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    c = draw(st.floats(0.0, 0.9)) * w / max(float(np.sum(np.abs(w))), 1.0)
    return linear_density(c), _repeated_prefix_points(draw, d)


@st.composite
def _posterior_target_and_points(draw):
    # the marginals are 24-node quadratures, not oracles; near the edge of
    # the bulk T_1' reaches ~1e13, so round trips are not checked
    a = draw(st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2))
    pi = gaussian_posterior([a], [draw(st.floats(-1.0, 1.0))],
                            draw(st.floats(0.5, 1.0)))
    return pi, _repeated_prefix_points(draw, 2)


def _check_endpoints_monotone(t, x):
    xs = np.linspace(-1.0, 1.0, 9)
    for k in range(1, x.shape[1] + 1):
        line = np.repeat(x[:1, :k], xs.size, axis=0)
        line[:, k - 1] = xs
        vals = t.component(k, line)
        assert abs(vals[0] + 1.0) <= 1e-12
        assert abs(vals[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(vals) > 0)


@settings(max_examples=40, deadline=None)
@given(_linear_target_and_points())
def test_roundtrip_endpoints_monotone_property(target_points):
    pi, x = target_points
    t = ExactTransport(reference=uniform(pi.d), target=pi)
    assert np.max(np.abs(t.inverse(t.forward(x)) - x)) <= 1e-10
    _check_endpoints_monotone(t, x)


@settings(max_examples=25, deadline=None)
@given(_posterior_target_and_points())
def test_posterior_endpoints_monotone_property(target_points):
    pi, x = target_points
    t = ExactTransport(reference=uniform(2), target=pi)
    y = t.forward(x)
    back = t.inverse(y)
    assert np.all(np.abs(y) <= 1.0) and np.all(np.abs(back) <= 1.0)
    _check_endpoints_monotone(t, x)


def test_peaked_posterior_endpoint_maps_to_one():
    # F_1(1) of the target series used to fall 1e-9 short of 1 (the
    # numerator and a separate denominator quadrature disagreed), and
    # u = 1 was outside the bracket
    pi = gaussian_posterior([[4.0, 2.0]], [0.3], 0.5)
    t = ExactTransport(reference=uniform(2), target=pi)
    assert t.forward(np.array([[1.0, 0.0]]))[0, 0] == 1.0


def test_peaked_posterior_inverse_is_onto():
    # with F_1(1) = 1 + 1.8e-5 the image of [-1, 1] missed (0.81, 1), and
    # inverse returned a point that forward sent back to 0.809
    pi = gaussian_posterior([[4.0, 2.0]], [0.3], 0.3)
    t = ExactTransport(reference=uniform(2), target=pi)
    y = t.forward(t.inverse(np.array([[0.9, 0.0]])))
    assert abs(y[0, 0] - 0.9) <= 1e-7
