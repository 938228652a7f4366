"""Orthonormal Legendre basis, sparse polynomials, projection, antiderivative."""

import math

import numpy as np
import pytest

from krtransport.indexsets import IndexSet
from krtransport.polybasis import (
    SparsePolynomial,
    antiderivative_in_last,
    canon,
    grlex_key,
    legendre_1d,
    max_degree_per_dim,
    padded,
    project,
    sup_norm_bound,
    zero_polynomial,
)
from krtransport.quadrature import gauss_legendre, integrate, uniform_grid


def _index_set(k, members):
    return IndexSet(k=k, epsilon=0.5, members=tuple(canon(m) for m in members))


def test_canon_and_padded():
    assert canon((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert canon((0, 0)) == ()
    assert padded((1,), 3) == (1, 0, 0)
    with pytest.raises(ValueError):
        canon((1, -1))


def test_grlex_order():
    idx = [(0,), (2,), (1, 1), (0, 0, 1), (3,)]
    srt = sorted((canon(i) for i in idx), key=grlex_key)
    assert srt == [(), (0, 0, 1), (1, 1), (2,), (3,)]


def test_legendre_1d_normalization():
    # int L_n^2 dmu = 1
    rule = gauss_legendre(20)
    for n in range(8):
        vals = legendre_1d(n, rule.nodes)
        assert float((vals * vals) @ rule.weights) == pytest.approx(1.0, abs=1e-13)


def test_sup_norm_bound_attained_at_one():
    # |L_n| peaks at x = 1 with value sqrt(2n+1)
    for nu in [(0,), (3,), (2, 5), (1, 0, 4)]:
        val = math.prod(legendre_1d(n, 1.0) for n in nu)
        assert sup_norm_bound(nu) == pytest.approx(val, rel=1e-13)


def test_sup_norm_bound_dominates_samples():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.uniform(-1, 1, size=(500, 2))
    for nu in [(2, 3), (4, 1), (0, 6)]:
        vals = legendre_1d(nu[0], pts[:, 0]) * legendre_1d(nu[1], pts[:, 1])
        assert np.max(np.abs(vals)) <= sup_norm_bound(nu) + 1e-12


def test_eval_gram_identity():
    # coefficients of an expansion are recovered by quadrature projection
    terms = {(): 0.7, (1,): -0.2, (0, 2): 0.5, (2, 1): 0.1}
    p = SparsePolynomial(2, {canon(nu): c for nu, c in terms.items()})
    lam = _index_set(2, list(terms))
    q = project(p.eval, lam, uniform_grid(8, 2))
    for nu, c in terms.items():
        assert q.terms[canon(nu)] == pytest.approx(c, abs=1e-13)


def test_project_then_eval_reproduces_polynomial():
    rng = np.random.Generator(np.random.Philox(9))

    def f(x):
        return 0.3 + x[:, 0] * x[:, 1] ** 2 - 0.5 * x[:, 0] ** 3

    members = [(i, j) for i in range(4) for j in range(3)]
    lam = _index_set(2, members)
    q = project(f, lam, uniform_grid(10, 2))
    pts = rng.uniform(-1, 1, size=(200, 2))
    assert np.allclose(q.eval(pts), f(pts), atol=1e-12)


def test_project_grid_order_guard():
    lam = _index_set(1, [(5,)])
    with pytest.raises(ValueError):
        project(lambda x: x[:, 0], lam, uniform_grid(5, 1))


def test_max_degree_per_dim():
    lam = _index_set(2, [(3, 0), (0, 2)])
    assert max_degree_per_dim(lam.members, 2) == [3, 2]
    assert lam.max_degree_per_dim() == [3, 2]


def test_antiderivative_exactness():
    rng = np.random.Generator(np.random.Philox(2))
    p = SparsePolynomial(2, {(): 0.4, (1,): 0.3, (1, 2): -0.2, (0, 3): 0.6})
    q = antiderivative_in_last(p)
    # q(., -1) = 0
    pts = rng.uniform(-1, 1, size=(50, 2))
    at_lo = pts.copy()
    at_lo[:, 1] = -1.0
    assert np.allclose(q.eval(at_lo), 0.0, atol=1e-13)
    # d/dx2 q = p by finite differences
    h = 1e-6
    up, dn = pts.copy(), pts.copy()
    up[:, 1] += h
    dn[:, 1] -= h
    deriv = (q.eval(up) - q.eval(dn)) / (2 * h)
    assert np.allclose(deriv, p.eval(pts), atol=1e-8)


def test_antiderivative_quadrature_consistency():
    # integral over [-1,1] in the last variable equals 2 * mu-integral of p
    p = SparsePolynomial(1, {(): 1.0, (2,): 0.5})
    q = antiderivative_in_last(p)
    total = q.eval(np.array([[1.0]]))[0]
    mean = integrate(lambda x: p.eval(x), uniform_grid(6, 1))
    assert total == pytest.approx(2.0 * mean, abs=1e-13)


def test_json_round_trip():
    p = SparsePolynomial(3, {(1, 0, 2): 0.25, (): -1.5})
    q = SparsePolynomial.from_json(p.to_json())
    assert q.dim == p.dim and q.terms == p.terms


def test_zero_polynomial():
    z = zero_polynomial(2)
    assert z.eval(np.zeros((3, 2))).tolist() == [0.0, 0.0, 0.0]
    assert z.max_degree == 0


def test_dimension_guard():
    with pytest.raises(ValueError):
        SparsePolynomial(1, {(1, 1): 0.5})
    p = SparsePolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        p.eval(np.zeros((2, 3)))
