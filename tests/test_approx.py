"""Rational monotone components and the assembled approximate transport."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from krtransport.approx import (
    ApproxTransport,
    RationalComponent,
    build_approx_transport,
    fit_component,
    projection_grid,
    sqrt_shift_target,
)
from krtransport.density import linear_density, uniform
from krtransport.indexsets import IndexSet, WeightVector, enumerate_lambda
from krtransport.polybasis import SparsePolynomial, canon, zero_polynomial
from krtransport.quadrature import gauss_legendre
from krtransport.transport import ExactTransport


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _setup(c=(0.3, 0.2), eps=1e-3, alpha=0.5):
    from krtransport.indexsets import xi_from_anisotropy

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
    back = comp.invert(np.zeros((11, 0)), y)
    assert np.allclose(back, x[:, 0], atol=1e-10)


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
    # the solve stops at |Tt(t) - y| <= 1e-12, i.e. |t - x_k| <~ 1e-12 / Tt'
    assume(comp.deriv(x)[0] >= 0.02)
    back = comp.invert(prefix, comp.eval(x))
    assert abs(back[0] - xk) <= 1e-10


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
        comp = fit_component(exact, 1, lam)
        errs.append(float(np.max(np.abs(comp.eval(pts) - exact.component(1, pts)))))
    assert errs[0] > errs[1] > errs[2]


def test_empty_index_set_gives_identity():
    rho, pi, exact, _ = _setup()
    lam = IndexSet(k=1, epsilon=0.9, members=())
    comp = fit_component(exact, 1, lam)
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


def test_n_eps_counts_index_sets():
    _, _, _, approx = _setup(eps=1e-3)
    total = sum(len(c.lam) for c in approx.components)
    assert approx.n_eps == total > 0


def test_projection_grid_respects_budget():
    lam = IndexSet(k=6, epsilon=0.1,
                   members=((), (1,), (0, 0, 0, 0, 0, 1)))
    g = projection_grid(lam, margin=4, node_budget=500)
    assert g.size <= 500
    # diagonal dimension always resolved
    assert g.rules[-1].n >= 5


def test_weight_vector_length_guard():
    rho = uniform(2)
    pi = linear_density([0.3, 0.2])
    with pytest.raises(ValueError):
        build_approx_transport(rho, pi, WeightVector((2.0,)), 0.1)
