"""Rational monotone components and the assembled approximate transport."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev, Legendre
from numpy.polynomial.legendre import legmul

from krtransport.approx import (
    DEFAULT_MARGIN,
    GROUP_MAX_POINTS,
    ApproxTransport,
    RationalComponent,
    _square_cdf_matrices,
    build_approx_transport,
    fit_component,
    projection_grid,
    sqrt_shift_target,
)
from krtransport import transport
from krtransport.density import linear_density, uniform
from krtransport.indexsets import (
    IndexSet,
    WeightVector,
    enumerate_lambda,
    xi_from_anisotropy,
)
from krtransport.kernels import legendre_table, poly_eval_tables
from krtransport.polybasis import (
    SparsePolynomial,
    canon,
    chebyshev_series,
    zero_polynomial,
)
from krtransport.quadrature import gauss_legendre
from krtransport.transport import ExactTransport


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _series_deriv(comp, x):
    """Tt_k' read off the density series that ``invert`` solves on, where
    its slope comes from (``deriv`` sums q at the point instead)."""
    _, S = comp._series(x[:, :-1])
    return chebyshev_series(S, x[:, -1])


def _setup(c=(0.3, 0.2), eps=1e-3, alpha=0.5):
    pi = linear_density(list(c))
    rho = uniform(len(c))
    xi = xi_from_anisotropy(pi.anisotropy, alpha)
    exact = ExactTransport(reference=rho, target=pi)
    approx = build_approx_transport(rho, pi, xi, eps, exact=exact)
    return rho, pi, exact, approx


def test_identity_component():
    comp = RationalComponent(k=1, p=zero_polynomial(1))
    x = np.linspace(-1, 1, 9).reshape(-1, 1)
    assert comp.is_identity
    assert np.allclose(comp.eval(x), x[:, 0])
    assert np.allclose(comp.deriv(x), 1.0)
    assert np.allclose(comp.normalization(np.zeros((3, 0))), 2.0)


def test_component_maps_interval_onto_itself():
    p = SparsePolynomial(1, {(1,): 0.4, (2,): -0.1})
    comp = RationalComponent(k=1, p=p)
    ends = comp.eval(np.array([[-1.0], [1.0]]))
    assert ends[0] == pytest.approx(-1.0, abs=1e-14)
    assert ends[1] == pytest.approx(1.0, abs=1e-14)
    # a fitted 2d component: c_k and the integral up to x_2 = 1 round
    # independently, so without clipping some prefixes land just past 1
    comp = _setup(eps=1e-6)[3].components[1]
    prefix = _rng(9).uniform(-1, 1, size=(2000, 1))
    inner = _rng(10).uniform(-1, 1, size=(2000, 1))
    assert np.all(np.abs(comp.eval(np.concatenate([prefix, inner], axis=1))) <= 1.0)
    for s in (-1.0, 1.0):
        vals = comp.eval(np.concatenate([prefix, np.full((2000, 1), s)], axis=1))
        assert np.all(np.abs(vals) <= 1.0)
        assert np.max(np.abs(vals - s)) <= 1e-14


def test_component_monotone_for_any_p():
    # (1+p)^2 >= 0 makes the component nondecreasing regardless of p
    rng = _rng(7)
    for trial in range(5):
        terms = {(n,): float(rng.normal()) for n in range(4)}
        comp = RationalComponent(k=1, p=SparsePolynomial(1, terms))
        xs = np.linspace(-1, 1, 101).reshape(-1, 1)
        vals = comp.eval(xs)
        assert np.all(np.diff(vals) >= -1e-12)


def test_component_derivative_consistency():
    p = SparsePolynomial(2, {(0, 1): 0.3, (1, 1): -0.15})
    comp = RationalComponent(k=2, p=p)
    pts = _rng(8).uniform(-0.9, 0.9, size=(40, 2))
    h = 1e-6
    up, dn = pts.copy(), pts.copy()
    up[:, 1] += h
    dn[:, 1] -= h
    fd = (comp.eval(up) - comp.eval(dn)) / (2 * h)
    assert np.allclose(fd, comp.deriv(pts), atol=1e-7)


def test_component_invert():
    p = SparsePolynomial(1, {(1,): 0.3})
    comp = RationalComponent(k=1, p=p)
    x = np.linspace(-0.95, 0.95, 11).reshape(-1, 1)
    y = comp.eval(x)
    back, dback = comp.invert(np.zeros((11, 0)), y)
    assert np.allclose(back, x[:, 0], atol=1e-10)
    # the derivative comes from the solve's last slope, at the root itself
    expect = _series_deriv(comp, back[:, None])
    assert np.max(np.abs(dback - expect) / expect) <= 1e-14


_COEFF = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e3, 1e3))


@st.composite
def _random_component(draw):
    k = draw(st.integers(1, 2))
    nus = st.tuples(*[st.integers(0, 5)] * k)
    terms = draw(st.dictionaries(nus, _COEFF, min_size=1, max_size=8))
    p = SparsePolynomial(k, {canon(nu): c for nu, c in terms.items()})
    prefix = draw(st.lists(st.floats(-1.0, 1.0), min_size=k - 1, max_size=k - 1))
    return RationalComponent(k=k, p=p), np.array([prefix])


@settings(max_examples=60, deadline=None)
@given(_random_component(), st.floats(-1.0, 1.0))
def test_closed_form_matches_quadrature_and_inverts(comp_prefix, xk):
    comp, prefix = comp_prefix
    rule = gauss_legendre(64)
    pts = np.concatenate([np.repeat(prefix, rule.n, axis=0),
                          rule.nodes.reshape(-1, 1)], axis=1)
    q = 1.0 + comp.p.eval(pts)
    reference = 2.0 * float((q * q) @ rule.weights)
    assume(reference > 1e-8)
    c = float(comp.normalization(prefix)[0])
    assert abs(c - reference) <= 1e-12 * reference
    x = np.concatenate([prefix, [[xk]]], axis=1)
    # Tt_k = -1 + (2/c) int_{-1}^{x_k} q^2 by the same rule mapped onto [-1, x_k]
    half = 0.5 * (xk + 1.0)
    pts[:, -1] = -1.0 + half * (rule.nodes + 1.0)
    q = 1.0 + comp.p.eval(pts)
    expect = -1.0 + 4.0 * half * float((q * q) @ rule.weights) / reference
    assert abs(comp.eval(x)[0] - expect) <= 1e-12
    # Tt_k' = 2 q(x_k)^2 / c_k, with q and c from the same independent sums
    q = 1.0 + comp.p.eval(x)[0]
    expect = 2.0 * q * q / reference
    assert abs(comp.deriv(x)[0] - expect) <= 1e-12 * (1.0 + expect)
    # the solve stops at |Tt(t) - y| <= 1e-12, i.e. |t - x_k| <~ 1e-12 / Tt'
    assume(comp.deriv(x)[0] >= 0.02)
    back, dback = comp.invert(prefix, comp.eval(x))
    assert abs(back[0] - xk) <= 1e-10
    expect = _series_deriv(comp, np.concatenate([prefix, back[:, None]], axis=1))[0]
    assert abs(dback[0] - expect) <= 1e-14 * expect


def _with_a_root(root, g, k=1):
    """The component k whose q = (t - root) g(t) ignores the prefix, from
    classical Legendre coefficients g, or None if its c_k is below 1e-8."""
    a = legmul([-root, 1.0], g)
    b = a / np.sqrt(2.0 * np.arange(len(a)) + 1.0)  # L_n = sqrt(2n + 1) P_n
    if not 2.0 * np.sum(b * b) > 1e-8:  # c_k, the Parseval sum
        return None
    b[0] -= 1.0  # p = q - 1
    head = (0,) * (k - 1)
    return RationalComponent(k, SparsePolynomial(
        k, {canon(head + (n,)): float(v) for n, v in enumerate(b) if v}))


@settings(max_examples=200, deadline=None)
@given(st.floats(-0.9, 0.9), st.lists(_COEFF, min_size=1, max_size=4))
def test_deriv_is_nonnegative_near_a_root_of_q(root, g):
    comp = _with_a_root(root, g)
    assume(comp is not None)
    x = np.concatenate([np.linspace(-1.0, 1.0, 203), [root]]).reshape(-1, 1)
    assert np.all(comp.deriv(x) >= 0.0)


@pytest.mark.parametrize("n1", range(1, 21))
def test_square_cdf_matrices_match_numpy_legmul(n1):
    # q^2 at the Lobatto points, times M, is numpy's Chebyshev series of
    # the Legendre product q * q; times MC, its half antiderivative, with
    # F(1) = (1/2) int q^2 = c / 2
    L, M, MC = _square_cdf_matrices(n1)
    assert _square_cdf_matrices(n1)[2] is MC  # cached
    assert not (L.flags.writeable or M.flags.writeable or MC.flags.writeable)
    B = _rng(n1).normal(size=(3, n1))
    q = B @ L
    got = (q * q) @ M
    c = RationalComponent(k=1, p=zero_polynomial(1))._c(B)
    for i, b in enumerate(B):
        P = b * np.sqrt(2.0 * np.arange(n1) + 1.0)  # classical Legendre
        expect = Legendre(legmul(P, P)).convert(kind=Chebyshev).coef
        assert got.shape[1] >= expect.size
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(got[i, : expect.size] - expect)) <= 1e-13 * scale
        assert np.max(np.abs(got[i, expect.size:]), initial=0.0) <= 1e-13 * scale
    F1 = ((q * q) @ MC).sum(axis=1)  # T_n(1) = 1
    assert np.allclose(F1, c / 2, rtol=1e-13, atol=0)


@pytest.mark.parametrize("comp", [
    RationalComponent(1, SparsePolynomial(1, {(): 0.5})),
    RationalComponent(2, SparsePolynomial(2, {(1,): 0.3})),
], ids=["constant", "prefix_only"])
def test_component_constant_in_t_is_identity(comp):
    # q does not depend on t (N = 0): the density 2 q^2 / c_k is 1, so
    # Tt_k(x) = x_k; its rule still has two points
    x = _rng(15).uniform(-1.0, 1.0, size=(50, comp.k))
    x[:2, -1] = [-1.0, 1.0]
    y = comp.eval(x)
    assert np.max(np.abs(y - x[:, -1])) <= 1e-14
    assert y[0] == -1.0 and y[1] == 1.0
    assert np.allclose(comp.deriv(x), 1.0, rtol=0, atol=1e-14)
    # the solve stops at |F(t) - u| <= 1e-12, and F' = 1/2
    back, dback = comp.invert(x[:, :-1], y)
    assert np.max(np.abs(back - x[:, -1])) <= 2e-12
    assert np.allclose(dback, 1.0, rtol=0, atol=1e-14)


def test_component_rejects_lambda_of_another_k():
    lam = IndexSet(k=1, epsilon=0.1, members=((), (1,)))
    with pytest.raises(ValueError, match="lambda is for k = 1, expected 2"):
        RationalComponent(2, SparsePolynomial(2, {(0, 1): 0.1}), lam=lam)
    blob = RationalComponent(2, SparsePolynomial(2, {(0, 1): 0.1})).to_json()
    with pytest.raises(ValueError, match="lambda is for k = 1"):
        RationalComponent.from_json({**blob, "lambda": lam.to_json()})


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficient_is_rejected_when_read(coeff):
    blob = SparsePolynomial(1, {(1,): 0.3}).to_json()
    blob["terms"][0]["coeff"] = coeff
    with pytest.raises(ValueError, match=r"non-finite coefficient of index \(1,\)"):
        SparsePolynomial.from_json(blob)


@pytest.mark.parametrize("coeff", [1e300, float("nan")])
def test_non_finite_normalization_names_the_component(coeff, tmp_path, capsys):
    # c_k = 2 sum b_n^2 overflows to inf for a 1e300 coefficient; a NaN
    # fails the comparison with the floor as well. The first two p ignore
    # the prefix, so their one cached row raises, and again on every call
    # (an exception is not cached); the third reads x_1
    for k, nu in [(1, (1,)), (2, (0, 1)), (2, (1, 1))]:
        comp = RationalComponent(k, SparsePolynomial(k, {nu: coeff}))
        x = np.array([[0.1, 0.2]])[:, -k:]
        calls = (comp.eval, comp.deriv,
                 lambda x: comp.invert(x[:, :-1], x[:, -1]))
        for call in calls + calls:
            with pytest.raises(ValueError, match=f"normalization in component {k}"):
                call(x)
    # component 3 shares one root solve with component 2 (both ignore the
    # prefix and have two terms in t): the inverse still names component 3
    tmap = ApproxTransport((
        RationalComponent(1, zero_polynomial(1)),
        RationalComponent(2, SparsePolynomial(2, {(0, 1): 0.3})),
        RationalComponent(3, SparsePolynomial(3, {(0, 0, 1): coeff})),
    ))
    assert [[c.k for c in g] for g, _ in tmap._groups] == [[2, 3]]
    y = np.array([[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
    for call in (tmap.inverse,
                 lambda y: transport.pushforward_density(tmap, uniform(3), y)):
        with pytest.raises(ValueError, match="normalization in component 3"):
            call(y)
    # through the CLI: exit 3 naming the component; a NaN is already
    # rejected when the map file is read (exit 2)
    from krtransport.cli import main

    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(tmap.to_json()))
    cfg = tmp_path / "eval.json"
    cfg.write_text(json.dumps({
        "reference": {"family": "uniform", "d": 3},
        "target": {"family": "linear", "c": [0.3, 0.2, 0.1]},
        "mode": "approx", "inverse": True, "map_file": str(map_file),
        "points": y.tolist(),
    }))
    capsys.readouterr()
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "transport", "eval"])
    err = json.loads(capsys.readouterr().err)
    if np.isfinite(coeff):
        assert rc == 3 and err["kind"] == "numerical"
        assert "normalization in component 3" in err["error"]
    else:
        assert rc == 2 and "non-finite coefficient" in err["error"]


def _t_coeffs_term_by_term(p, prefix):
    """B of 1 + p(prefix, t), summing the terms of each last exponent."""
    exps, coeffs = p.arrays
    head, last = exps[:, :-1], exps[:, -1]
    nmax = int(head.max(initial=0))
    tables = np.empty((prefix.shape[0], p.dim - 1, nmax + 1))
    for j in range(p.dim - 1):
        tables[:, j, :] = legendre_table(prefix[:, j], nmax)
    B = np.zeros((prefix.shape[0], int(last.max(initial=0)) + 1))
    for n in np.unique(last):
        sel = last == n
        B[:, n] = poly_eval_tables(tables, head[sel], coeffs[sel])
    B[:, 0] += 1.0
    return B


@st.composite
def _component_and_prefixes(draw, prefix_free=False, kmax=4):
    """k = 1..kmax; heads on a random subset of the prefix coordinates,
    which may be empty (only last exponents) and is when prefix_free; no
    terms gives the identity."""
    k = draw(st.integers(1, kmax))
    used = [False] * (k - 1) if prefix_free else draw(
        st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    head = st.tuples(*[st.integers(0, 4) if u else st.just(0) for u in used])
    nus = st.tuples(head, st.integers(0, 5)).map(lambda hn: hn[0] + (hn[1],))
    terms = draw(st.dictionaries(nus, _COEFF, max_size=12))
    p = SparsePolynomial(k, {canon(nu): c for nu, c in terms.items()})
    m = draw(st.integers(1, 6))
    flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * (k - 1),
                         max_size=m * (k - 1)))
    return RationalComponent(k=k, p=p), np.array(flat).reshape(m, k - 1)


@settings(max_examples=200, deadline=None)
@given(_component_and_prefixes())
def test_t_coeffs_matches_term_by_term(comp_prefix):
    comp, prefix = comp_prefix
    expect = _t_coeffs_term_by_term(comp.p, prefix)
    got = comp._t_coeffs(prefix)
    assert got.shape == expect.shape
    scale = float(np.max(np.abs(expect)))
    assert np.max(np.abs(got - expect)) <= 1e-13 * scale


def _map_eval_2d():
    """The benchmark's 2d map, N_eps = 104."""
    from krtransport.indexsets import xi_from_anisotropy

    pi = linear_density([0.3, 0.2])
    tmap = build_approx_transport(uniform(2), pi,
                                  xi_from_anisotropy(pi.anisotropy, 0.5), 1e-6)
    assert tmap.n_eps == 104
    return tmap


def test_inverse_solve_count_on_2d_map(monkeypatch):
    # the benchmark's 2d map: a regula-falsi start plus Newton takes 4 F
    # evaluations per root here, as the bracket ends are given (6 when
    # they were evaluated; a midpoint start took 9.4)
    tmap = _map_eval_2d()
    solve = transport.invert_monotone
    counts = {"F": 0, "roots": 0}

    def counted(F, y, *args, **kwargs):
        def F_counted(t):
            counts["F"] += np.size(t)
            return F(t)

        counts["roots"] += np.size(y)
        return solve(F_counted, y, *args, **kwargs)

    monkeypatch.setattr(transport, "invert_monotone", counted)
    y = _rng(11).uniform(-1.0, 1.0, size=(100, 2))
    x = tmap.inverse(y)
    assert counts["roots"] == 200
    assert counts["F"] / counts["roots"] <= 6.5
    assert np.allclose(tmap.forward(x), y, atol=1e-10)


def test_density_batch_root_solve_count(monkeypatch):
    # the bracket ends F(+-1) are read off the Chebyshev series in closed
    # form, so a root of the benchmark's density batch costs at most 4 F
    # evaluations (6 when the ends were evaluated)
    tmap = _map_eval_2d()
    solve = transport.invert_monotone
    counts = {"F": 0, "roots": 0}

    def counted(F, y, *args, **kwargs):
        def F_counted(t):
            counts["F"] += np.size(t)
            return F(t)

        counts["roots"] += np.size(y)
        return solve(F_counted, y, *args, **kwargs)

    monkeypatch.setattr(transport, "invert_monotone", counted)
    y = _rng(12).uniform(-1.0, 1.0, size=(100, 2))
    q = transport.pushforward_density(tmap, uniform(2), y)
    assert counts["roots"] == 200
    assert counts["F"] / counts["roots"] <= 4.0
    assert np.all(np.isfinite(q)) and np.all(q > 0)


def test_prefix_free_roots_start_from_the_cdf_table(monkeypatch):
    # every component of the d = 3 posterior map ignores the prefix, so
    # both of its grouped solves start from the components' CDF tables and
    # take 2 F evaluations each (10 in all from the regula-falsi point)
    tmap = _posterior_map()
    solve = transport.invert_monotone
    calls = []

    def counted(F, y, *args, **kwargs):
        def F_counted(t):
            calls[-1] += 1
            return F(t)

        calls.append(0)
        return solve(F_counted, y, *args, **kwargs)

    monkeypatch.setattr(transport, "invert_monotone", counted)
    y = _rng(19).uniform(-1.0, 1.0, size=(100, 3))
    q = transport.pushforward_density(tmap, uniform(3), y)
    assert calls == [2, 2]
    assert np.all(np.isfinite(q)) and np.all(q > 0)


def test_density_batch_builds_each_series_once(monkeypatch):
    # the inverse solve hands back the diagonal derivatives, so a density
    # batch builds B once per component instead of again in diag_deriv;
    # component 1's p ignores the prefix, so its one row was built by the
    # inverse above and the batch builds only component 2's
    tmap = _map_eval_2d()
    rho = uniform(2)
    y = _rng(13).uniform(-1.0, 1.0, size=(100, 2))
    x = tmap.inverse(y)
    expect = rho.evaluate(x) / (_series_deriv(tmap.components[0], x[:, :1])
                                * _series_deriv(tmap.components[1], x))
    t_coeffs = RationalComponent._t_coeffs
    calls = []

    def counted(self, prefix):
        calls.append(self.k)
        return t_coeffs(self, prefix)

    monkeypatch.setattr(RationalComponent, "_t_coeffs", counted)
    got = transport.pushforward_density(tmap, rho, y)
    assert calls == [2]
    assert np.array_equal(got, expect)


def _normalizable(comp, prefix):
    """c_k > 1e-8 at every row of prefix, without ``_c``'s raise."""
    B = comp._t_coeffs(prefix)
    return bool(np.all(2.0 * np.sum(B * B, axis=1) > 1e-8))


def _per_row(comp):
    """comp with its series built per row (``_square``), the route of a
    component whose p reads the prefix, whatever p is."""
    ref = RationalComponent(comp.k, comp.p, comp.lam)
    object.__setattr__(ref, "_one_row", None)  # shadows the cached_property
    return ref


def test_prefix_free_component_builds_its_series_once(monkeypatch):
    # component 1 always ignores the prefix, and component 2 of the
    # benchmark's map reads it. Every series build (eval's CDF series alone,
    # the inverse's pair through _square) starts from the density values.
    # The CDF table the inverse starts from is built at the first inversion
    # of component 1 only, never by eval or deriv
    values = RationalComponent._density_values
    calls = []

    def counted(self, prefix):
        calls.append((self.k, prefix.shape[0]))
        return values(self, prefix)

    monkeypatch.setattr(RationalComponent, "_density_values", counted)
    x = _rng(16).uniform(-1.0, 1.0, size=(50, 2))
    for comp in _map_eval_2d().components:
        for rep in range(2):
            y = comp.eval(x[:, : comp.k])
            comp.deriv(x[:, : comp.k])
            assert ("_inverse_table" in vars(comp)) == (comp.k == 1 and rep > 0)
            comp.invert(x[:, : comp.k - 1], y)
        assert ("_inverse_table" in vars(comp)) == (comp.k == 1)
    assert calls == [(1, 1)] + [(2, 50)] * 4


@st.composite
def _prefix_free_with_a_root(draw):
    """``_with_a_root`` at k = 1..3, so that F is flat at a point of
    (-1, 1), and prefixes for it as ``_component_and_prefixes`` draws."""
    k = draw(st.integers(1, 3))
    comp = _with_a_root(draw(st.floats(-0.9, 0.9)),
                        draw(st.lists(_COEFF, min_size=1, max_size=4)), k)
    assume(comp is not None)
    m = draw(st.integers(1, 6))
    flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=m * (k - 1),
                         max_size=m * (k - 1)))
    return comp, np.array(flat).reshape(m, k - 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_component_and_prefixes(prefix_free=True),
                 _prefix_free_with_a_root()),
       st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_prefix_free_row_matches_the_per_row_series(comp_prefix, xk):
    comp, prefix = comp_prefix
    assume(not comp.is_identity and _normalizable(comp, prefix))
    ref = _per_row(comp)
    assert comp._one_row is not None
    x = np.concatenate([prefix, np.array(xk[: prefix.shape[0]])[:, None]], axis=1)

    def close(got, expect):
        return np.all(np.abs(got - expect) <= 1e-14 * (1.0 + np.abs(expect)))

    y = ref.eval(x)
    assert close(comp.eval(x), y)
    assert close(comp.deriv(x), ref.deriv(x))
    # the root solves the per-row F(t) = (y + 1) / 2 to the solve's 1e-12
    # (two routes can stop at different points within it: 3.6e-13 apart
    # near y = -1 for p = 311.7 L_2), and its slope is the per-row density
    # series there
    t, dt = comp.invert(prefix, y)
    x = np.concatenate([prefix, t[:, None]], axis=1)
    assert np.all(np.abs(ref.eval(x) - y) <= 2e-12 + 1e-14)
    assert close(dt, _series_deriv(ref, x))
    # the roots start from the CDF table, which decides only where Newton
    # begins: on y from -1 to 1, 0.01 apart (far above the solve's
    # tolerance), the roots pin the ends, are nondecreasing and solve
    # Tt_k(t) = y, also where q changes sign and F is flat
    y = np.linspace(-1.0, 1.0, 201)
    t, _ = comp.invert(np.zeros((y.size, comp.k - 1)), y)
    assert t[0] == -1.0 and t[-1] == 1.0
    assert np.all(np.diff(t) >= 0.0)
    x = np.concatenate([np.zeros((y.size, comp.k - 1)), t[:, None]], axis=1)
    assert np.all(np.abs(comp.eval(x) - y) <= 1e-10)


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(
           lambda free: _component_and_prefixes(prefix_free=free, kmax=3)),
       st.sampled_from([-1.0, 1.0]))
def test_invert_pins_the_ends(comp_prefix, end):
    # the solve resolves F to 1e-12 only; y_k = +-1 is x_k = +-1 exactly,
    # and eval maps it back to within rounding of +-1
    comp, prefix = comp_prefix
    assume(_normalizable(comp, prefix))
    y = np.full(prefix.shape[0], end)
    t, dt = comp.invert(prefix, y)
    assert np.all(t == end)
    x = np.concatenate([prefix, t[:, None]], axis=1)
    assert np.all(np.abs(comp.eval(x) - end) <= 1e-14)
    # the slope is the density's at +-1, where the root now is
    if not comp.is_identity:
        assert np.array_equal(dt, _series_deriv(comp, x))


@st.composite
def _scaled_map(draw):
    """A map of d = 1..3 components, each with up to 8 terms of any
    exponents up to 4, coefficients scaled by 1e-2..1e3 (an empty p is the
    identity); and the 2^d corners of the cube with, per corner, a point
    of the same last coordinates and a random prefix."""
    d = draw(st.integers(1, 3))
    scale = draw(st.floats(1e-2, 1e3))
    comps = []
    for k in range(1, d + 1):
        nus = st.tuples(*[st.integers(0, 4)] * k)
        terms = draw(st.dictionaries(nus, st.floats(-1.0, 1.0), max_size=8))
        comps.append(RationalComponent(k, SparsePolynomial(
            k, {canon(nu): scale * c for nu, c in terms.items()})))
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    flat = draw(st.lists(st.floats(-1.0, 1.0), min_size=corners.size,
                         max_size=corners.size))
    return ApproxTransport(tuple(comps)), corners, np.array(flat).reshape(corners.shape)


@settings(max_examples=200, deadline=None)
@given(_scaled_map())
def test_forward_pins_the_corners(map_points):
    # eval gives x_k = +-1 back exactly, whatever the prefix, so forward
    # returns every corner of the cube unchanged
    tmap, corners, inner = map_points
    for comp in tmap.components:
        k = comp.k
        x = np.concatenate([inner[:, :k - 1], corners[:, k - 1:k]], axis=1)
        assume(_normalizable(comp, x[:, :-1])
               and _normalizable(comp, corners[:, :k - 1]))
        assert np.array_equal(comp.eval(x), x[:, -1])
    assert np.array_equal(tmap.forward(corners), corners)


def _pullback_per_component(tmap, y):
    """(x, D) of ``_pullback`` one component at a time: its series, one
    root solve and the +-1 pin, in the order k = 1..d. A component starts
    its roots from its CDF table when its group holds only components whose
    p ignores the prefix (a hand-written map can group one with another)."""
    x, D = y.copy(), np.ones_like(y)
    free = {c.k for comps, _ in tmap._groups
            if all(not c.p.t_series[0].any() for c in comps) for c in comps}
    for comp in tmap.components:
        if comp.is_identity:
            continue
        k, yk = comp.k, y[:, comp.k - 1]
        C, S = comp._series(x[:, : k - 1])
        u = 0.5 * (yk + 1.0)
        start = None
        if k in free:
            F, t = comp._inverse_table
            start = np.interp(u, F, t)
        t, dF = transport._invert_cdf(C, S, u, start)
        end = np.abs(yk) == 1.0
        t[end] = yk[end]
        S = np.broadcast_to(S, (yk.shape[0], S.shape[1]))
        dF[end] = 0.5 * chebyshev_series(S[end], yk[end])
        x[:, k - 1], D[:, k - 1] = t, 2.0 * dF
    return x, D


@st.composite
def _map_and_points(draw):
    """A map of d = 2..5 components, each the identity, prefix-free or
    reading a random subset of its prefix, with last exponents up to 2 so
    that components of one solve step often share a series length; and a
    batch of m = 0 or 2..5 points with many coordinates at +-1."""
    d = draw(st.integers(2, 5))
    comps = []
    for k in range(1, d + 1):
        kind = draw(st.sampled_from(["identity", "free", "reads"]))
        terms = {}
        if kind != "identity":
            used = [kind == "reads" and draw(st.booleans()) for _ in range(k - 1)]
            head = st.tuples(*[st.integers(0, 2) if u else st.just(0) for u in used])
            nus = st.tuples(head, st.integers(0, 2)).map(lambda hn: hn[0] + (hn[1],))
            terms = draw(st.dictionaries(nus, st.floats(-1.0, 1.0), min_size=1,
                                         max_size=6))
        comps.append(RationalComponent(k, SparsePolynomial(
            k, {canon(nu): c for nu, c in terms.items()})))
    m = draw(st.sampled_from([2, 3, 5, 0]))
    coord = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]))
    flat = draw(st.lists(coord, min_size=m * d, max_size=m * d))
    return ApproxTransport(tuple(comps)), np.array(flat).reshape(m, d)


@settings(max_examples=200, deadline=None)
@given(_map_and_points())
def test_grouped_pullback_matches_one_solve_per_component(map_points):
    # a group's rows solve as they would alone, so x and D are bitwise
    # those of one solve per component for batches of m != 1 points
    tmap, y = map_points
    try:
        x_ref, D_ref = _pullback_per_component(tmap, y)
    except ValueError:  # a c_k at the floor or a CDF that does not bracket
        with pytest.raises(ValueError):
            tmap._pullback(y)
        return
    x, D = tmap._pullback(y)
    assert np.array_equal(x, x_ref) and np.array_equal(D, D_ref)
    # every prefix a group reads is solved by an earlier group
    done = {c.k for c in tmap.components if c.is_identity}
    for comps, cols in tmap._groups:
        assert np.arange(tmap.d)[cols].tolist() == [c.k - 1 for c in comps]
        for c in comps:
            reads = np.flatnonzero(c.p.t_series[0].any(axis=0)) + 1
            assert set(reads.tolist()) <= done
        done |= {c.k for c in comps}
    assert done == set(range(1, tmap.d + 1))


def _truncation_map():
    """The d = 32 truncation sweep's finest map cut to d = 12 (the same
    components 1..10, the rest identities), N_eps = 44."""
    from krtransport.studies import truncation_target

    pi = truncation_target(0.5 * 6 / np.pi**2, 3.0, 12)
    tmap = build_approx_transport(uniform(12), pi,
                                  xi_from_anisotropy(pi.anisotropy, 1.0), 3e-4)
    assert tmap.n_eps == 44
    return tmap


def _posterior_map():
    """The map of the d = 3 posterior demo (alpha 2, epsilon 0.1)."""
    from krtransport.density import gaussian_posterior

    pi = gaussian_posterior([[1.0, 0.5, 0.25]], [0.3], 0.5)
    return build_approx_transport(uniform(3), pi,
                                  xi_from_anisotropy(pi.anisotropy, 2.0), 0.1)


@pytest.mark.parametrize("build, groups", [
    (_truncation_map, [[7, 8, 9, 10], [1], [4, 5, 6], [2], [3]]),
    (_posterior_map, [[2, 3], [1]]),
    (_map_eval_2d, [[1], [2]]),
], ids=["truncation_d12", "posterior_d3", "map_eval_2d"])
def test_density_batch_solves_once_per_group(monkeypatch, build, groups):
    # components that share a solve step and a series length share one
    # root solve: 5 solves for the 10 nonidentity truncation components.
    # A batch of more than GROUP_MAX_POINTS points solves them one at a time
    tmap = build()
    calls = []

    def counted(C, S, u, start=None):
        calls.append(u.shape[0])
        return transport._invert_cdf(C, S, u, start)

    monkeypatch.setattr("krtransport.approx._invert_cdf", counted)
    y = _rng(17).uniform(-1.0, 1.0, size=(100, tmap.d))
    q = transport.pushforward_density(tmap, uniform(tmap.d), y)
    assert calls == [100 * len(g) for g in groups]
    assert [[c.k for c in g] for g, _ in tmap._groups] == groups
    assert np.all(np.isfinite(q)) and np.all(q > 0)
    m = GROUP_MAX_POINTS + 1
    y = _rng(18).uniform(-1.0, 1.0, size=(m, tmap.d))
    y[::7, -1] = 1.0
    calls.clear()
    x, D = tmap._pullback(y)
    assert calls == [m] * sum(len(g) for g in groups)
    x_ref, D_ref = _pullback_per_component(tmap, y)
    assert np.array_equal(x, x_ref) and np.array_equal(D, D_ref)


def test_sqrt_shift_target_identity_is_zero():
    rho = uniform(1)
    t = ExactTransport(reference=rho, target=rho)
    f = sqrt_shift_target(t, 1)
    vals = f(np.linspace(-1, 1, 7).reshape(-1, 1))
    assert np.allclose(vals, 0.0, atol=1e-12)
    assert f.clamp_count == 0


def test_fit_component_reduces_with_epsilon():
    rho, pi, exact, _ = _setup()
    xi = WeightVector((3.0,))
    pts = np.linspace(-1, 1, 101).reshape(-1, 1)
    errs = []
    for eps in [0.3, 0.05, 0.005]:
        lam = enumerate_lambda(xi, eps)
        comp = fit_component(exact, 1, lam, xi)
        errs.append(float(np.max(np.abs(comp.eval(pts) - exact.component(1, pts)))))
    assert errs[0] > errs[1] > errs[2]


def test_empty_index_set_gives_identity():
    rho, pi, exact, _ = _setup()
    lam = IndexSet(k=1, epsilon=0.9, members=())
    comp = fit_component(exact, 1, lam, WeightVector((3.0,)))
    assert comp.is_identity


def test_build_and_accuracy():
    rho, pi, exact, approx = _setup(eps=1e-4)
    pts = _rng(11).uniform(-1, 1, size=(300, 2))
    y_ex = exact.forward(pts)
    y_ap = approx.forward(pts)
    assert np.max(np.abs(y_ex - y_ap)) < 1e-3
    # diagonal derivatives close too
    d_ex = exact.diag_deriv(2, pts)
    d_ap = approx.diag_deriv(2, pts)
    assert np.max(np.abs(d_ex - d_ap)) < 1e-2


def test_forward_inverse_roundtrip():
    _, _, _, approx = _setup(eps=1e-3)
    pts = _rng(12).uniform(-0.95, 0.95, size=(50, 2))
    back = approx.inverse(approx.forward(pts))
    assert np.allclose(back, pts, atol=1e-9)


def test_json_round_trip_bitwise():
    _, _, _, approx = _setup(eps=1e-3)
    blob = json.dumps(approx.to_json())
    back = ApproxTransport.from_json(json.loads(blob))
    pts = _rng(14).uniform(-1, 1, size=(40, 2))
    assert np.array_equal(approx.forward(pts), back.forward(pts))
    assert back.epsilon == approx.epsilon and back.xi == approx.xi


def test_components_out_of_order_are_rejected():
    _, _, _, approx = _setup(eps=1e-3)
    with pytest.raises(ValueError, match="k = 1..d in order"):
        ApproxTransport(components=approx.components[::-1])
    blob = approx.to_json()
    with pytest.raises(ValueError, match="k = 1..d in order"):
        ApproxTransport.from_json({**blob, "components": blob["components"][1:]})


def test_n_eps_counts_index_sets():
    _, _, _, approx = _setup(eps=1e-3)
    total = sum(len(c.lam) for c in approx.components)
    assert approx.n_eps == total > 0


def test_projection_grid_follows_the_weights():
    # ten inactive dimensions and a non-monotone anisotropy b: exactly the
    # inactive j whose degree-2 weight xi_j^-2 reaches eps get 3 nodes
    b = [0.1, 0.3, 0.05, 0.2, 0.02, 0.25, 0.01, 0.15, 0.04, 0.3, 0.2]
    xi = xi_from_anisotropy(b, 0.3)
    lam = IndexSet(k=11, epsilon=0.1, members=((), (0,) * 10 + (1,)))
    g = projection_grid(lam, xi)
    upgraded = {j for j in range(10) if g.rules[j].n == 3}
    assert upgraded == {j for j in range(10) if xi[j] ** -2 >= lam.epsilon}
    assert [r.n for r in g.rules] == [1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 11]
    # diagonal dimension always resolved
    assert g.rules[-1].n == 1 + DEFAULT_MARGIN


def test_projection_grids_of_the_truncation_sweep():
    # the d = 32 sweep of acceptance criterion 6: its nonempty components
    # project on 4,525 nodes in total
    c = 0.5 * 6 / np.pi**2 * np.arange(1, 33, dtype=np.float64) ** -3.0
    xi = xi_from_anisotropy(c, 1.0)
    total = 0
    for eps in [3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4]:
        for k in range(1, 33):
            lam = enumerate_lambda(xi.prefix(k), eps)
            if lam.members:
                total += projection_grid(lam, xi).size
    assert total == 4_525


def test_truncate_is_a_fresh_fit_with_the_fine_coefficients():
    # the d = 12 truncation map at 3e-4 and the coarser epsilons of its sweep
    from krtransport.studies import truncation_target

    pi = truncation_target(0.5 * 6 / np.pi**2, 3.0, 12)
    rho, xi = uniform(12), xi_from_anisotropy(pi.anisotropy, 1.0)
    exact = ExactTransport(reference=rho, target=pi)
    fine = build_approx_transport(rho, pi, xi, 3e-4, exact=exact)
    same = fine.truncate(3e-4)
    assert all(a is b for a, b in zip(same.components, fine.components))
    for eps in [3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3]:
        cut = fine.truncate(eps)
        fresh = build_approx_transport(rho, pi, xi, eps, exact=exact)
        assert (cut.epsilon, cut.xi, cut.n_eps) == (eps, fine.xi, fresh.n_eps)
        for c, f, c_fine in zip(cut.components, fresh.components, fine.components):
            assert c.lam == f.lam  # the members, so per_k_cards, and epsilon
            assert c.p.terms == {nu: c_fine.p.terms[nu] for nu in f.lam.members}
    with pytest.raises(ValueError, match="finer"):
        fine.truncate(1e-4)
    with pytest.raises(ValueError, match="epsilon and xi"):
        ApproxTransport(fine.components, epsilon=3e-4).truncate(1e-3)


def test_weight_vector_length_guard():
    rho = uniform(2)
    pi = linear_density([0.3, 0.2])
    with pytest.raises(ValueError):
        build_approx_transport(rho, pi, WeightVector((2.0,)), 0.1)
