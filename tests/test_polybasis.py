"""Orthonormal Legendre basis, sparse polynomials, projection, Chebyshev
evaluation, and the Lobatto interpolation that takes Legendre series (and
their squares, with the antiderivative) to the Chebyshev basis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Chebyshev, Legendre
from numpy.polynomial.chebyshev import chebval

from krtransport.approx import _square_cdf_matrices
from krtransport.indexsets import IndexSet, WeightVector, enumerate_lambda
from krtransport.kernels import legendre_table
from krtransport.polybasis import (
    SparsePolynomial,
    canon,
    chebyshev_series,
    grlex_key,
    max_degree_per_dim,
    padded,
    project,
    sup_norm_bound,
    zero_polynomial,
)
from krtransport.quadrature import gauss_legendre, tensor_grid, uniform_grid
from krtransport.transport import _lobatto_rule


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
        vals = legendre_table(rule.nodes, n)[:, n]
        assert float((vals * vals) @ rule.weights) == pytest.approx(1.0, abs=1e-13)


def test_sup_norm_bound_attained_at_one():
    # |L_n| peaks at x = 1 with value sqrt(2n+1)
    for nu in [(0,), (3,), (2, 5), (1, 0, 4)]:
        val = math.prod(legendre_table(np.ones(1), n)[0, n] for n in nu)
        assert sup_norm_bound(nu) == pytest.approx(val, rel=1e-13)


def test_sup_norm_bound_dominates_samples():
    rng = np.random.Generator(np.random.Philox(5))
    pts = rng.uniform(-1, 1, size=(500, 2))
    for nu in [(2, 3), (4, 1), (0, 6)]:
        vals = (legendre_table(pts[:, 0], nu[0])[:, nu[0]]
                * legendre_table(pts[:, 1], nu[1])[:, nu[1]])
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


def _project_loop(f, index_set, grid):
    """The per-member reference: one Legendre table over every grid point,
    one product of full-length columns per member of the set."""
    k = index_set.k
    pts, w = grid.points_weights()
    fw = np.asarray(f(pts), dtype=np.float64) * w
    nmax = max(max_degree_per_dim(index_set.members, k))
    tables = [legendre_table(pts[:, j], nmax) for j in range(k)]
    terms = {}
    for nu in index_set.members:
        basis = np.ones(pts.shape[0])
        for j, v in enumerate(nu):
            if v > 0:
                basis = basis * tables[j][:, v]
        terms[nu] = float(fw @ basis)
    return terms


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    xi=st.lists(st.floats(1.2, 4.0), min_size=1, max_size=4),
    epsilon=st.floats(0.005, 0.9),
    margins=st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_project_matches_member_loop(seed, xi, epsilon, margins):
    # the axis-by-axis contraction gives the coefficients of the member loop
    # on any index set and any grid at or above the set's degrees, 1-node
    # axes (maximum degree 0, margin 0) included
    lam = enumerate_lambda(WeightVector(tuple(xi)), epsilon)
    maxdeg = lam.max_degree_per_dim()
    grid = tensor_grid([deg + 1 + r for deg, r in zip(maxdeg, margins)])
    vals = np.random.Generator(np.random.Philox(seed)).uniform(
        -1.0, 1.0, size=grid.size)
    got = project(lambda x: vals, lam, grid).terms
    ref = _project_loop(lambda x: vals, lam, grid)
    assert got.keys() == ref.keys()
    assert all(abs(got[nu] - c) <= 1e-15 for nu, c in ref.items())


def test_project_unequal_orders_recovers_polynomial():
    # 7, 4 and 1 nodes: a contraction that paired an axis with another
    # axis's rule or degrees would miss these coefficients
    terms = {(): 0.7, (1,): -0.2, (6,): 0.1, (0, 3): 0.5, (2, 1): 0.3,
             (4, 2): -0.25, (1, 3): 0.05}
    p = SparsePolynomial(3, terms)
    members = [(i, j) for i in range(7) for j in range(4)]
    q = project(p.eval, _index_set(3, members), tensor_grid([7, 4, 1]))
    for nu in map(canon, members):
        assert q.terms[nu] == pytest.approx(terms.get(nu, 0.0), abs=1e-14)


def test_max_degree_per_dim():
    lam = _index_set(2, [(3, 0), (0, 2)])
    assert max_degree_per_dim(lam.members, 2) == [3, 2]
    assert lam.max_degree_per_dim() == [3, 2]


def _legendre_series(A, t):
    """sum_n A[i, n] L_n(t_i) from the Legendre table; t (m,) or (m, s)."""
    n1 = A.shape[1]
    table = legendre_table(t.ravel(), n1 - 1).reshape(t.shape + (n1,))
    return np.einsum("m...n,mn->m...", table, A)


def _random_series(seed, m=6, n=9):
    rng = np.random.Generator(np.random.Philox(seed))
    return rng, rng.normal(size=(m, n))


def _square_cdf(A):
    """Chebyshev series of F = (1/2) int_{-1}^t q^2 for the Legendre
    series q in the rows of A, through the matrices of the rational
    components."""
    L, _, MC = _square_cdf_matrices(A.shape[1])
    q = A @ L
    return (q * q) @ MC


def test_antiderivative_exactness():
    # (1/2) int_{-1}^t q^2 of each row's series q: zero at -1, derivative
    # is half of q^2 (central differences on a degree-17 polynomial)
    rng, A = _random_series(2)
    C = _square_cdf(A)
    assert C.shape == (6, 18)
    assert np.allclose(chebyshev_series(C, np.full(6, -1.0)), 0.0, atol=1e-14)
    t = rng.uniform(-0.9, 0.9, size=6)
    h = 1e-5
    deriv = (chebyshev_series(C, t + h) - chebyshev_series(C, t - h)) / (2 * h)
    assert np.allclose(deriv, 0.5 * _legendre_series(A, t) ** 2, atol=1e-8)


def test_antiderivative_quadrature_consistency():
    # F(1) = sum_n A_n^2 (Parseval), and F(t) matches a Gauss rule mapped
    # onto [-1, t]
    rng, A = _random_series(3)
    C = _square_cdf(A)
    parseval = np.sum(A * A, axis=1)
    assert np.allclose(chebyshev_series(C, np.ones(6)), parseval, rtol=1e-14,
                       atol=0)
    t = rng.uniform(-1.0, 1.0, size=6)
    rule = gauss_legendre(12)
    s = -1.0 + np.outer(0.5 * (t + 1.0), rule.nodes + 1.0)
    ref = 0.5 * (t + 1.0) * (_legendre_series(A, s) ** 2 @ rule.weights)
    assert np.allclose(chebyshev_series(C, t), ref, rtol=1e-14, atol=1e-14)


def test_json_round_trip():
    p = SparsePolynomial(3, {(1, 0, 2): 0.25, (): -1.5})
    q = SparsePolynomial.from_json(p.to_json())
    assert q.dim == p.dim and q.terms == p.terms


def test_zero_polynomial():
    z = zero_polynomial(2)
    assert z.eval(np.zeros((3, 2))).tolist() == [0.0, 0.0, 0.0]
    assert z.terms == {}


def test_dimension_guard():
    with pytest.raises(ValueError):
        SparsePolynomial(1, {(1, 1): 0.5})
    p = SparsePolynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        p.eval(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 65, 257])
def test_legendre_to_chebyshev_matches_numpy_convert(n):
    # a Legendre series reaches the Chebyshev basis by interpolation on
    # Chebyshev-Lobatto points, as the squares of the rational components
    # do: the values of L_0..L_{n-1} on max(n, 2) points map to the
    # Chebyshev coefficients of each L_i (the one-point rule divides by 0)
    x, M = _lobatto_rule(max(n, 2))
    P = legendre_table(x, n - 1).T @ M
    # numpy's conversion of row i costs O(i^3): every row up to degree 64,
    # and the two top degrees, where the rounding is largest; L_i at the
    # points is accurate to about i ulps of its size sqrt(2i + 1)
    for i in sorted(set(range(min(n, 65))) | {n - 2, n - 1} - {-1}):
        row = np.zeros(P.shape[1])
        coef = Legendre.basis(i).convert(kind=Chebyshev).coef
        row[: coef.size] = coef * math.sqrt(2 * i + 1)
        assert np.max(np.abs(P[i] - row)) <= 1e-15 * n


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n=st.integers(1, 257),
)
def test_chebyshev_series_of_converted_coefficients(seed, m, n):
    # row i of B is a Chebyshev series evaluated at its own t_i, as numpy's
    # Clenshaw evaluation does it, the ends +-1 included
    rng = np.random.Generator(np.random.Philox(seed))
    B = rng.normal(size=(m, n)) * rng.uniform(0.0, 1.0, size=(m, 1)) ** 4
    t = rng.uniform(-1.0, 1.0, size=m)
    t[: m // 2] = rng.choice([-1.0, 1.0], size=m // 2)
    got = chebyshev_series(B, t)
    expect = np.array([chebval(ti, b) for ti, b in zip(t, B)])
    assert np.all(np.abs(got - expect) <= 1e-13 * np.sum(np.abs(B), axis=1))
