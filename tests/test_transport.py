"""Exact triangular transport: closed forms, pushforward identity, inverses."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krtransport import transport
from krtransport.approx import build_approx_transport
from krtransport.density import (
    DEFAULT_MARGINAL_ORDER,
    gaussian_posterior,
    linear_density,
    marginal_hat,
    uniform,
)
from krtransport.indexsets import WeightVector
from krtransport.polybasis import chebyshev_series
from krtransport.quadrature import gauss_legendre, integrate, uniform_grid
from krtransport.transport import (
    ExactTransport,
    invert_monotone,
    pushforward_density,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def test_invert_monotone_cubic():
    y = np.linspace(-1.1, 1.1, 13)

    def F(t):
        return t + 0.2 * t**3

    def dF(t):
        return 1 + 0.6 * t**2

    ends = (np.full(13, -1.2), np.full(13, 1.2))
    t = invert_monotone(F, y, fprime=dF, ends=ends)
    assert np.allclose(F(t), y, atol=1e-11)


def test_invert_monotone_midpoint_when_newton_leaves_bracket():
    # a slope of 1e-30 sends every Newton step out of the bracket, so each
    # step falls back to the midpoint and the solve is a bisection
    calls = []

    def F(t):
        calls.append(t)
        return np.tanh(2.0 * t)

    y = np.tanh(np.array([0.6, -1.4]))
    ends = (np.full(2, np.tanh(-2.0)), np.full(2, np.tanh(2.0)))
    t = invert_monotone(F, y, fprime=lambda t: np.full_like(t, 1e-30), ends=ends)
    assert np.allclose(t, [0.3, -0.7], atol=1e-10)
    assert len(calls) > 30  # about one bit of t per evaluation


def test_invert_monotone_linear_solved_at_first_evaluation():
    # the regula-falsi start of the bracket is the root of a linear F
    calls = []

    def F(t):
        calls.append(t)
        return 2.0 * t + 0.5

    y = np.array([-1.2, 0.0, 0.7, 2.4])
    ends = (np.full(4, -1.5), np.full(4, 2.5))
    t = invert_monotone(F, y, fprime=lambda t: np.full_like(t, 2.0), ends=ends)
    assert len(calls) == 1  # the start only
    assert np.allclose(F(t), y, rtol=0, atol=1e-12)


def test_invert_monotone_given_ends_are_not_evaluated():
    # roots inside the bracket never evaluate F at t = +-1, whose values
    # the solver takes from ends
    def F(t):
        assert np.all(np.abs(t) < 1.0), "F evaluated at a bracket end"
        return t + 0.2 * t**3

    y = np.array([-1.1, -0.3, 0.0, 0.5, 1.15])
    ends = (np.full(5, -1.2), np.full(5, 1.2))
    t = invert_monotone(F, y, fprime=lambda t: 1 + 0.6 * t**2, ends=ends)
    assert np.allclose(F(t), y, rtol=0, atol=1e-12)


def test_invert_monotone_bracket_guard_on_given_ends():
    # ends that miss y raise before any evaluation of F
    def F(t):
        raise AssertionError("F evaluated")

    with pytest.raises(ValueError, match="do not bracket"):
        invert_monotone(F, np.array([0.5, 0.2]), fprime=F,
                        ends=(np.array([0.0, 0.3]), np.array([1.0, 1.0])))
    with pytest.raises(ValueError, match="do not bracket"):
        invert_monotone(F, np.array([0.9]), fprime=F,
                        ends=(np.zeros(1), np.full(1, 0.5)))


def test_cdf_solve_reads_bracket_ends_off_the_series():
    # Chebyshev coefficients of F(t) = (1 + t) / 4, the CDF of the density
    # series B = [1/2]: F(-1) = 0 is the alternating row sum and F(1) = 1/2
    # the row sum, which misses u = 0.9
    B = np.array([[0.5], [1.0]])
    C = np.array([[0.25, 0.25], [0.5, 0.5]])
    assert np.array_equal(transport._cdf_series(B), C)
    with pytest.raises(ValueError, match="do not bracket"):
        transport._invert_cdf(C, B, np.array([0.9, 0.9]))
    # F(t) = (1 + t) / 2: the slope F' = B . T / 2 comes off the solve's table
    t, dF = transport._invert_cdf(C[1:], B[1:], np.array([0.75]))
    assert t == pytest.approx([0.5], abs=1e-14)
    assert dF.tolist() == [0.5]


def test_invert_monotone_unconverged_is_loud():
    # sign jumps over 0.5 at t = 0: a zero slope leaves every step to
    # bisection, which shrinks onto 0 but the residual stays 0.5, which
    # must be reported, not returned
    with pytest.raises(ValueError, match=r"1 of 1 roots unconverged.*5\.000e-01"):
        invert_monotone(np.sign, np.array([0.5]), fprime=np.zeros_like,
                        ends=(np.full(1, -1.0), np.ones(1)))


def _inside_reference(t, a, b):
    bad = ~np.isfinite(t) | (t <= a) | (t >= b)
    return np.where(bad, 0.5 * (a + b), t)


def _invert_monotone_reference(F, y, *, fprime, ends, start=None):
    """``invert_monotone`` as a plain loop: new arrays for every bracket
    update, one errstate per step, and the midpoint test through isfinite;
    start replaces the regula-falsi point when given."""
    tol, maxiter = transport.DEFAULT_ROOT_TOL, transport.DEFAULT_ROOT_MAXIT
    m = y.shape[0]
    a, b = np.full(m, -1.0), np.full(m, 1.0)
    fa, fb = ends[0] - y, ends[1] - y
    assert not (np.any(fa > tol) or np.any(fb < -tol))
    with np.errstate(all="ignore"):
        t = a - fa * (b - a) / (fb - fa) if start is None else start
        t = _inside_reference(t, a, b)
    for it in range(maxiter + 1):
        ft = F(t) - y
        done = np.abs(ft) <= tol
        if np.all(done):
            return np.clip(t, -1.0, 1.0)
        assert it < maxiter, "unconverged"
        neg = ft < 0
        a = np.where(neg, t, a)
        b = np.where(neg, b, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(done, t, _inside_reference(t - ft / fprime(t), a, b))


@pytest.mark.parametrize("seed", range(4))
def test_invert_monotone_matches_the_plain_loop(seed):
    # random CDF series (densities that are squares of random series), with
    # rows at the bracket ends u = 0 and 1, starts inside, at and outside
    # the bracket, NaN and inf among them, and a zero slope, which leaves
    # every step to the midpoint: the roots and the points F is evaluated at
    # are bitwise those of the plain loop
    from numpy.polynomial.chebyshev import chebmul

    rng = _rng(seed)
    m, n = 40, 1 + seed
    B = np.array([chebmul(g, g) for g in rng.normal(size=(m, n + 1))])
    B /= (B[:, ::2] @ (1.0 / (1.0 - np.arange(0, B.shape[1], 2) ** 2.0)))[:, None]
    C = transport._cdf_series(B)
    ends = (C[:, 0::2].sum(axis=1) - C[:, 1::2].sum(axis=1), C.sum(axis=1))
    u = rng.uniform(0.0, 1.0, m)
    u[:4] = [0.0, 1.0, 0.0, 1.0]
    u = np.clip(u, ends[0], ends[1])
    start = rng.uniform(-1.0, 1.0, m)
    start[4:10] = [-1.0, 1.0, 1.5, -np.inf, np.inf, np.nan]

    def solve(how, start, slope):
        evaluated = []

        def F(t):
            evaluated.append(t.copy())
            return chebyshev_series(C, t)

        def fprime(t):
            return slope * chebyshev_series(B, t)

        return how(F, u, fprime=fprime, ends=ends, start=start), evaluated

    for s in (None, start):
        for slope in (0.5, 0.0):
            t, ts = solve(invert_monotone, s, slope)
            t_ref, ts_ref = solve(_invert_monotone_reference, s, slope)
            assert np.array_equal(t, t_ref)
            assert len(ts) == len(ts_ref)
            assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(ts, ts_ref))


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


def test_exact_pushforward_density_is_one_solve(monkeypatch):
    # the inverse solve returns the whole diagonal of the Jacobian; a forward
    # re-solve per component would make d + 1 solves
    rho = uniform(4)
    pi = linear_density([0.3, -0.2, 0.15, 0.1])
    t = ExactTransport(reference=rho, target=pi)
    solve = ExactTransport._solve
    calls = []

    def counted(self, src, dst, x, kmax):
        calls.append((x.shape, kmax))
        return solve(self, src, dst, x, kmax)

    monkeypatch.setattr(ExactTransport, "_solve", counted)
    y = _rng(6).uniform(-1.0, 1.0, size=(10, 4))
    q = pushforward_density(t, rho, y)
    assert calls == [((10, 4), 4)]
    assert np.max(np.abs(q - pi.evaluate(y))) <= 1e-9


def test_pushforward_integrates_to_one():
    rho = uniform(1)
    pi = linear_density([0.5])
    t = ExactTransport(reference=rho, target=pi)
    val = integrate(lambda y: pushforward_density(t, rho, y), uniform_grid(16, 1))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_dimension_mismatch_guard():
    with pytest.raises(ValueError):
        ExactTransport(reference=uniform(1), target=uniform(2))


def _maps_2d():
    rho, pi = uniform(2), linear_density([0.3, 0.2])
    exact = ExactTransport(reference=rho, target=pi)
    approx = build_approx_transport(rho, pi, WeightVector((2.0, 3.0)), 1e-2,
                                    exact=exact)
    return {"exact": exact, "approx": approx}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("method", ["forward", "inverse", "pushforward_density"])
@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_wrong_point_width_is_loud(kind, method, width):
    tmap = _maps_2d()[kind]
    pts = np.zeros((3, width))
    match = f"expected points with 2 coordinates, got {width}"
    with pytest.raises(ValueError, match=match):
        if method == "pushforward_density":
            pushforward_density(tmap, uniform(2), pts)
        else:
            getattr(tmap, method)(pts)


@pytest.mark.parametrize("value", [1.5, np.nextafter(-1.0, -2.0), np.nan])
@pytest.mark.parametrize("method", ["forward", "inverse", "pushforward_density"])
@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_points_outside_cube_are_loud(kind, method, value):
    # the series of component 2 would be read at an extrapolated x_1, and a
    # NaN would run every Newton step before failing
    tmap = _maps_2d()[kind]
    pts = np.array([[0.1, -0.2], [value, 0.0]])
    with pytest.raises(ValueError, match=r"finite and in \[-1, 1\]\^2"):
        if method == "pushforward_density":
            pushforward_density(tmap, uniform(2), pts)
        else:
            getattr(tmap, method)(pts)


@pytest.mark.parametrize("k, x", [
    (0, [[0.5]]),
    (3, [[0.5, -0.3, 0.1]]),
    (1, [[0.5, -0.3]]),
    (2, [[0.5, 1.5]]),
    (2, [[0.5, np.nan]]),
], ids=["k_zero", "k_above_d", "k_plus_one_columns", "outside_cube", "nan"])
@pytest.mark.parametrize("method", ["component", "diag_deriv"])
@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_component_arguments_are_checked(kind, method, k, x):
    # unchecked, a wrong k or an extra column is misread (x_2 taken as t,
    # k = 0 as component d) and a point outside the cube is clipped to 1
    tmap = _maps_2d()[kind]
    with pytest.raises(ValueError):
        getattr(tmap, method)(k, np.array(x))


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_pushforward_reference_dimension_is_checked(kind):
    tmap = _maps_2d()[kind]
    with pytest.raises(ValueError, match="dimension 3"):
        pushforward_density(tmap, uniform(3), np.zeros((2, 2)))


@pytest.mark.parametrize("kind", ["exact", "approx"])
def test_cube_corners_are_accepted(kind):
    tmap = _maps_2d()[kind]
    corners = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    # the approximate map pins the endpoints up to rounding, and its
    # inverse solves them to the root tolerance
    assert np.max(np.abs(tmap.forward(corners) - corners)) <= 1e-14
    assert np.max(np.abs(tmap.inverse(corners) - corners)) <= 1e-10
    assert np.all(pushforward_density(tmap, uniform(2), corners) > 0)


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
    # a broad posterior: the series of component 1 stops at 33 points
    # (9 + 8 + 16 evaluations per prefix), those of components 2 and 3 at
    # 17 (9 + 8); no refinement evaluates a point twice
    pi = gaussian_posterior([[1.0, 0.5, 0.25]], [0.3], 0.9)
    counted = []

    def evaluate(x):
        counted.append(x.shape[0])
        return pi.evaluate(x)

    t = ExactTransport(reference=uniform(3), target=replace(pi, evaluate=evaluate))
    q, d, nq = 4, 3, DEFAULT_MARGINAL_ORDER
    levels = {1: [9, 8, 16], 2: [9, 8], 3: [9, 8]}
    grid = np.stack(
        np.meshgrid(*[np.linspace(-0.8, 0.7, q)] * d, indexing="ij"), axis=-1
    ).reshape(-1, d)
    t.forward(grid)
    # component k: q^(k-1) distinct prefixes, each sampled at the new
    # points of every level (nq^(d-k) trailing nodes each) and with no
    # separate denominator; every call fits one block
    expect = [q ** (k - 1) * n * nq ** (d - k)
              for k in range(1, d + 1) for n in levels[k]]
    assert counted == expect

    # grouping is bitwise: a prefix one ulp away gets its own series
    counted.clear()
    prefix = np.repeat(grid[:5, :2], 3, axis=0)
    prefix[0, 1] = np.nextafter(prefix[0, 1], 1.0)
    t.conditional_cdf(t.target, 3, prefix, np.linspace(-1, 1, 15))
    distinct = np.unique(prefix, axis=0).shape[0]
    assert distinct == 3
    assert counted == [distinct * n for n in levels[3]]


def test_linear_series_costs_its_nine_points():
    # hat f_k is linear in t: resolved by the first 9-point rule, whose
    # interpolant keeps two coefficients; 9 evaluations per distinct prefix
    pi = linear_density([0.3, 0.2, 0.1])
    counted = []

    def oracle(k, x):
        counted.append((k, x.shape[0]))
        return pi.marginal_oracle(k, x)

    t = ExactTransport(reference=uniform(3),
                       target=replace(pi, marginal_oracle=oracle))
    axes = [np.linspace(-0.9, 0.8, 3)] * 2 + [np.linspace(-0.95, 0.95, 11)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    t.forward(grid)
    assert counted == [(1, 9), (2, 3 * 9), (3, 9 * 9)]
    series = t._density_series(t.target, 2, grid[:1, :1])
    assert series.shape == (1, 2)


@pytest.mark.parametrize("n", [9, 17, 33, 65, 129, 257])
def test_lobatto_rule_interpolates_chebyshev_polynomials(n):
    # the values of T_0..T_{n-1} at the points map to the identity; the
    # rule of 2n - 1 points holds this one's points at its even indices
    x, M = transport._lobatto_rule(n)
    assert not x.flags.writeable and not M.flags.writeable
    assert transport._lobatto_rule(n)[1] is M  # cached
    assert x[0] == 1.0 and x[-1] == -1.0 and np.array_equal(x, -x[::-1])
    assert np.allclose(x, np.cos(np.pi * np.arange(n) / (n - 1)), rtol=0,
                       atol=1e-15)
    assert np.array_equal(transport._lobatto_rule(2 * n - 1)[0][::2], x)
    # chebvander's recurrence itself errs by up to about n^2 ulps here
    V = np.polynomial.chebyshev.chebvander(x, n - 1)
    assert np.max(np.abs(V @ M - np.eye(n))) <= 2e-17 * n * n


def test_cdf_series_is_half_chebint_from_minus_one():
    rng = _rng(12)
    for n in [1, 2, 3, 8, 33]:
        B = rng.normal(size=(4, n))
        C = transport._cdf_series(B)
        expect = 0.5 * np.array(
            [np.polynomial.chebyshev.chebint(b, lbnd=-1) for b in B])
        assert C.shape == (4, n + 1)
        assert np.allclose(C, expect, rtol=0, atol=1e-15)
        # F(-1) = 0: the alternating coefficient sum
        alt = C[:, 0::2].sum(axis=1) - C[:, 1::2].sum(axis=1)
        assert np.allclose(alt, 0.0, rtol=0, atol=1e-15)


def test_unresolved_series_names_its_component():
    # a peaked posterior: the series of component 1 is not resolved by the
    # largest rule, and the error says so instead of solving on it
    pi = gaussian_posterior([[4.0, 2.0]], [0.3], 0.05)
    t = ExactTransport(reference=uniform(2), target=pi)
    with pytest.raises(ValueError, match="component 1 is not resolved by 257 "
                                         "Chebyshev coefficients"):
        t.forward(np.array([[0.1, 0.2]]))


def _check_prefix_groups(x, kmax):
    """Every level of _prefix_groups against np.unique on the bit patterns."""
    levels = 0
    for k, (group, first) in enumerate(transport._prefix_groups(x, kmax)):
        bits = x[:, :k].view(np.int64)
        rows, inverse = np.unique(bits, axis=0, return_inverse=True)
        assert np.array_equal(group, inverse.ravel())
        assert np.array_equal(bits[first], rows)
        levels += 1
    assert levels == kmax + 1


@pytest.mark.parametrize("m, kmax", [(0, 3), (1, 3), (1, 0), (7, 0)])
def test_prefix_groups_small_cases(m, kmax):
    _check_prefix_groups(_rng(m).uniform(-1, 1, size=(m, kmax + 1)), kmax)


def test_prefix_groups_match_unique():
    # duplicated and shuffled rows from few values, -0.0 beside 0.0 (a
    # different bit pattern, so a different group) and a one-ulp neighbour
    values = np.array([0.0, -0.0, 0.5, -0.5, 1.0, np.nextafter(0.5, 1.0)])
    rng = _rng(11)
    for _ in range(300):
        m, kmax = int(rng.integers(0, 40)), int(rng.integers(0, 5))
        x = rng.choice(values, size=(m, kmax + 1))
        x = np.concatenate([x, x[rng.integers(0, m, size=m // 2)]]) if m else x
        _check_prefix_groups(x[rng.permutation(x.shape[0])], kmax)


def test_root_solved_once_per_distinct_prefix(monkeypatch):
    # a 3 x 3 x 11 grid has 3, 9 and 99 distinct x_[k] at k = 1, 2, 3
    t = ExactTransport(reference=uniform(3), target=linear_density([0.3, 0.2, 0.1]))
    axes = [np.linspace(-0.9, 0.8, 3)] * 2 + [np.linspace(-0.95, 0.95, 11)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    solve = transport.invert_monotone
    received = []

    def counted(F, y, **kw):
        received.append(np.size(y))
        return solve(F, y, **kw)

    monkeypatch.setattr(transport, "invert_monotone", counted)
    t.forward(grid)
    assert received == [3, 9, 99]


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


@st.composite
def _linear_target_rows_and_batch(draw):
    # the distinct rows of a repeated-prefix batch, and a batch that repeats
    # and shuffles them
    pi, x = draw(_linear_target_and_points())
    rows = np.unique(x, axis=0)
    extra = draw(st.lists(st.integers(0, rows.shape[0] - 1), max_size=12))
    idx = np.array(draw(st.permutations(list(range(rows.shape[0])) + extra)))
    return pi, rows, idx


@settings(max_examples=40, deadline=None)
@given(_linear_target_rows_and_batch())
def test_duplicated_shuffled_rows_are_bitwise_property(target_rows_idx):
    pi, rows, idx = target_rows_idx
    t = ExactTransport(reference=uniform(pi.d), target=pi)
    assert np.array_equal(t.forward(rows[idx]), t.forward(rows)[idx])
    for k in range(1, pi.d + 1):
        assert np.array_equal(t.diag_deriv(k, rows[idx, :k]),
                              t.diag_deriv(k, rows[:, :k])[idx])


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
