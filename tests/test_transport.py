"""Exact triangular transport: closed forms, pushforward identity, inverses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtransport.density import (
    DEFAULT_MARGINAL_ORDER,
    conditional,
    gaussian_posterior,
    linear_density,
    uniform,
)
from krtransport.quadrature import integrate, integrate_from_minus_one, uniform_grid
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


@pytest.mark.parametrize("k", [1, 2])
def test_conditional_cdf_matches_fine_rule(k):
    # a peaked posterior: the CDF from one Legendre series per prefix
    # against a 400-node Gauss rule mapped onto [-1, t]
    pi = gaussian_posterior([[4.0, 2.0]], [0.3], 0.3)
    t = ExactTransport(reference=uniform(2), target=pi)
    rng = _rng(5)
    prefix = rng.uniform(-1, 1, size=(40, k - 1))
    s = rng.uniform(-1, 1, size=40)

    def fk(nodes):
        pts = np.empty(nodes.shape + (k,))
        pts[..., : k - 1] = prefix[:, None, :]
        pts[..., k - 1] = nodes
        return conditional(pi, k, pts.reshape(-1, k)).reshape(nodes.shape)

    ref = integrate_from_minus_one(fk, s, 400)
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
    # component k: q^(k-1) distinct prefixes, each with one denominator
    # hat f_{k-1} (nq^(d-k+1) trailing nodes), then n numerator nodes
    # hat f_k (nq^(d-k) trailing nodes each); every call fits one block
    expect = []
    for k in range(1, d + 1):
        expect += [q ** (k - 1) * nq ** (d - k + 1), q ** (k - 1) * n * nq ** (d - k)]
    assert counted == expect

    # grouping is bitwise: a prefix one ulp away gets its own series
    counted.clear()
    prefix = np.repeat(grid[:5, :2], 3, axis=0)
    prefix[0, 1] = np.nextafter(prefix[0, 1], 1.0)
    t.conditional_cdf(t.target, 3, prefix, np.linspace(-1, 1, 15))
    distinct = np.unique(prefix, axis=0).shape[0]
    assert distinct == 3
    assert counted == [distinct * nq, distinct * n]


@st.composite
def _linear_target_and_points(draw):
    d = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    c = draw(st.floats(0.0, 0.9)) * w / max(float(np.sum(np.abs(w))), 1.0)
    # few values per coordinate, so that many rows share a prefix
    pool = np.array(draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                           max_size=d), min_size=1, max_size=3)))
    picks = draw(st.lists(st.lists(st.integers(0, pool.shape[0] - 1), min_size=d,
                                   max_size=d), min_size=1, max_size=12))
    x = pool[np.array(picks), np.arange(d)]
    return linear_density(c), x


@settings(max_examples=40, deadline=None)
@given(_linear_target_and_points())
def test_roundtrip_endpoints_monotone_property(target_points):
    pi, x = target_points
    d = pi.d
    t = ExactTransport(reference=uniform(d), target=pi)
    assert np.max(np.abs(t.inverse(t.forward(x)) - x)) <= 1e-10
    xs = np.linspace(-1.0, 1.0, 9)
    for k in range(1, d + 1):
        line = np.repeat(x[:1, :k], xs.size, axis=0)
        line[:, k - 1] = xs
        vals = t.component(k, line)
        assert abs(vals[0] + 1.0) <= 1e-12
        assert abs(vals[-1] - 1.0) <= 1e-12
        assert np.all(np.diff(vals) > 0)
