"""Orthonormal tensor-Legendre basis and sparse polynomials.

The 1d basis is L_n = sqrt(2n+1) P_n, orthonormal in L^2([-1,1]; mu) with
mu the uniform probability measure. Multiindices are tuples of nonnegative
ints with trailing zeros trimmed; tensor basis functions are products of
1d factors. Legendre is the projection basis only: every 1d series in t
is a Chebyshev series, evaluated pointwise by ``chebyshev_series`` (the
rational components interpolate their integrands on Chebyshev-Lobatto
points, see ``approx``).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import chebyshev_table, legendre_table, poly_eval_tables
from .quadrature import TensorGrid


def canon(nu) -> tuple:
    """Canonical multiindex: tuple with trailing zeros trimmed."""
    nu = tuple(int(v) for v in nu)
    if any(v < 0 for v in nu):
        raise ValueError(f"negative exponent in multiindex {nu}")
    while nu and nu[-1] == 0:
        nu = nu[:-1]
    return nu


def padded(nu, k: int) -> tuple:
    return tuple(nu) + (0,) * (k - len(nu))


def grlex_key(nu):
    return (sum(nu), tuple(nu))


def max_degree_per_dim(nus, k: int) -> list[int]:
    """Largest exponent of each of the k coordinates over the multiindices."""
    out = [0] * k
    for nu in nus:
        for j, v in enumerate(nu):
            out[j] = max(out[j], v)
    return out


def sup_norm_bound(nu) -> float:
    """prod_j (1+2 nu_j)^(1/2), the sup norm of the tensor basis function."""
    return math.prod(math.sqrt(1.0 + 2.0 * v) for v in nu)


@dataclass(frozen=True)
class SparsePolynomial:
    """Sparse polynomial in the orthonormal Legendre basis on [-1,1]^dim."""

    dim: int
    terms: dict  # canonical multiindex tuple -> float coefficient

    def __post_init__(self):
        for nu in self.terms:
            if len(nu) > self.dim:
                raise ValueError(f"index {nu} exceeds dimension {self.dim}")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    @cached_property
    def arrays(self):
        """(exps (nterms, dim), coeffs (nterms,)) in grlex order, built once."""
        items = self.sorted_terms()
        exps = np.array([padded(nu, self.dim) for nu, _ in items],
                        dtype=np.int64).reshape(-1, self.dim)
        coeffs = np.array([c for _, c in items], dtype=np.float64)
        exps.setflags(write=False)
        coeffs.setflags(write=False)
        return exps, coeffs

    @cached_property
    def t_series(self):
        """(H (nh, dim-1), W (nh, N+1)): p as a series in its last coordinate.

        p(x) = sum_{h,n} W[h, n] prod_j L_{H[h,j]}(x_j) L_n(x_dim), where H
        holds the distinct head multi-indices and N is the largest last
        exponent; built once, read-only.
        """
        exps, coeffs = self.arrays
        H, h = np.unique(exps[:, :-1], axis=0, return_inverse=True)
        last = exps[:, -1]
        W = np.zeros((H.shape[0], int(last.max(initial=0)) + 1))
        W[h.reshape(-1), last] = coeffs  # every (head, last) pair is one term
        H.setflags(write=False)
        W.setflags(write=False)
        return H, W

    def eval(self, x):
        """Evaluate at points x of shape (m, dim) or a single point (dim,)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        if pts.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {pts.shape[1]}")
        vals = self._eval_batch(pts)
        return float(vals[0]) if single else vals

    def _eval_batch(self, pts: np.ndarray) -> np.ndarray:
        if not self.terms:
            return np.zeros(pts.shape[0])
        exps, coeffs = self.arrays
        nmax = int(exps.max(initial=0))
        tables = np.empty((pts.shape[0], self.dim, nmax + 1))
        for j in range(self.dim):
            tables[:, j, :] = legendre_table(pts[:, j], nmax)
        return poly_eval_tables(tables, exps, coeffs)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "terms": [
                {"nu": list(nu), "coeff": c} for nu, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SparsePolynomial":
        """Raises ValueError on a NaN or infinite coefficient."""
        terms = {canon(t["nu"]): float(t["coeff"]) for t in obj["terms"]}
        bad = [nu for nu, c in terms.items() if not math.isfinite(c)]
        if bad:
            raise ValueError(f"non-finite coefficient of index {bad[0]}")
        return cls(dim=int(obj["dim"]), terms=terms)


def zero_polynomial(dim: int) -> SparsePolynomial:
    return SparsePolynomial(dim, {})


def project(f, index_set, grid: TensorGrid) -> SparsePolynomial:
    """Quadrature projection of f onto span{L_nu : nu in index_set}.

    f maps (m, k) points to (m,) values. Each grid dimension must have
    order > (max degree of that coordinate in the set), otherwise the
    coefficients of the top-degree terms alias.

    The weighted values are contracted one grid axis at a time (sum
    factorisation), which relies on the "ij" point order and the product
    weights of ``TensorGrid.points_weights``.
    """
    k = index_set.k
    if grid.d != k:
        raise ValueError(f"grid dimension {grid.d} != index set dimension {k}")
    members = list(index_set.members)
    if not members:
        return zero_polynomial(k)
    maxdeg = max_degree_per_dim(members, k)
    for j, rule in enumerate(grid.rules):
        if rule.n < maxdeg[j] + 1:
            raise ValueError(
                f"grid order {rule.n} in dim {j} below degree {maxdeg[j]} + 1"
            )
    pts, w = grid.points_weights()
    vals = np.asarray(f(pts), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("projection integrand non-finite on grid nodes")
    # contract the leading grid axis, append its degree axis last
    box = vals * w
    for rule, deg in zip(grid.rules, maxdeg):
        box = box.reshape(rule.n, -1).T @ legendre_table(rule.nodes, deg)
    box = box.reshape([deg + 1 for deg in maxdeg])
    return SparsePolynomial(k, {nu: float(box[padded(nu, k)]) for nu in members})


def chebyshev_series(B: np.ndarray, t: np.ndarray) -> np.ndarray:
    """q_i(t_i) = sum_n B[i, n] T_n(t_i), one 1d Chebyshev series per row of B.

    t is (m,) or (m, s); the result has the shape of t. B may also be one
    row, which then serves every point.
    """
    n1 = B.shape[1]
    table = chebyshev_table(t.ravel(), n1 - 1).reshape(t.shape + (n1,))
    return np.einsum("m...n,mn->m...", table, B)

