"""Sparse rational-polynomial approximation of the triangular transport.

Each component approximates the transformed derivative
sqrt(d/dx_k T_k) - 1 by its Legendre projection p_k on an anisotropic
index set, then integrates the nonnegative square (1 + p_k)^2 and
normalizes so the component maps [-1, 1] onto [-1, 1] exactly:

    Tt_k(x) = -1 + 2/c_k(x_[k-1]) * int_{-1}^{x_k} (1 + p_k)^2 dt,
    c_k(x_[k-1]) = int_{-1}^{1} (1 + p_k)^2 dt.

Monotonicity holds for any p_k since the integrand is a square; an empty
index set yields p_k = 0 and the identity component.

For a fixed prefix, 1 + p_k is a 1d Legendre series q(t) = sum_n b_n L_n(t).
Orthonormality gives c_k = 2 sum_n b_n^2, and Tt_k = 2F - 1 with F the CDF
of the density 2 q^2 / c_k: q^2 has degree 2N, so its values at 2N+1 Gauss
nodes give the exact Legendre series of F, and the exact transport's
series solver inverts it.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# kernels are called through the module, so that per-layer tracing
# (perfbench/tracing.py) that replaces them there sees these calls too
from . import kernels
from .density import Density
from .indexsets import IndexSet, WeightVector, enumerate_lambda
from .polybasis import (
    SparsePolynomial,
    legendre_antiderivative,
    legendre_series,
    project,
    zero_polynomial,
)
from .quadrature import TensorGrid, gauss_legendre, tensor_grid
from .transport import ExactTransport, _invert_cdf

DEGENERATE_C_FLOOR = 1e-14
DEFAULT_MARGIN = 10
DEFAULT_NODE_BUDGET = 200_000


def sqrt_shift_target(transport: ExactTransport, k: int):
    """x -> sqrt(d/dx_k T_k(x)) - 1 on [-1,1]^k, with an underflow guard.

    Negative derivative values cannot occur for an exact transport; tiny
    negative quadrature noise is clamped at 1e-14 and counted on the
    returned function's ``clamp_count`` attribute.
    """

    def target(x):
        r = np.asarray(transport.diag_deriv(k, x), dtype=np.float64)
        low = r < DEGENERATE_C_FLOOR
        if np.any(low):
            target.clamp_count += int(np.sum(low))
            r = np.maximum(r, DEGENERATE_C_FLOOR)
        return np.sqrt(r) - 1.0

    target.clamp_count = 0
    return target


def projection_grid(
    index_set: IndexSet,
    margin: int = DEFAULT_MARGIN,
    node_budget: int = DEFAULT_NODE_BUDGET,
    anisotropy=None,
) -> TensorGrid:
    """Anisotropic projection grid for one component.

    Dimensions carrying degree in the set (and the diagonal dimension)
    get order maxdeg + margin. Dimensions the set never touches get a
    single node at 0 -- exact for the linear part of the integrand's
    dependence -- and are upgraded to 3 nodes greedily by anisotropy
    weight while the total node count stays within budget.
    """
    k = index_set.k
    maxdeg = index_set.max_degree_per_dim()
    orders = []
    for j in range(k):
        if maxdeg[j] > 0 or j == k - 1:
            orders.append(maxdeg[j] + margin)
        else:
            orders.append(1)
    total = math.prod(orders)
    inactive = [j for j in range(k) if orders[j] == 1]
    if anisotropy is not None:
        inactive.sort(key=lambda j: -anisotropy[j])
    for j in inactive:
        if total * 3 > node_budget:
            break
        orders[j] = 3
        total *= 3
    return tensor_grid(orders)


@lru_cache(maxsize=None)
def _square_cdf_matrices(n1: int):
    """(L, M) for series q of length n1 = N + 1, as read-only arrays.

    q at the 2N+1 Gauss nodes is B @ L, and (q * q) @ M holds the Legendre
    coefficients of (1/2) int_{-1}^{t} q^2: the rule projects q^2 (degree
    2N) exactly, and the antiderivative of the projection is exact.
    """
    rule = gauss_legendre(2 * n1 - 1)
    L = kernels.legendre_table(rule.nodes, n1 - 1).T.copy()
    M = legendre_antiderivative(
        rule.weights[:, None] * kernels.legendre_table(rule.nodes, 2 * n1 - 2))
    L.setflags(write=False)
    M.setflags(write=False)
    return L, M


@dataclass(frozen=True)
class RationalComponent:
    """One monotone component Tt_k defined by the polynomial p_k."""

    k: int
    p: SparsePolynomial
    lam: IndexSet | None = None

    def __post_init__(self):
        if self.p.dim != self.k:
            raise ValueError(f"p has dimension {self.p.dim}, expected {self.k}")

    @property
    def is_identity(self) -> bool:
        return not self.p.terms

    def _t_coeffs(self, prefix: np.ndarray) -> np.ndarray:
        """B (m, N+1): Legendre coefficients in t of 1 + p(prefix, t).

        Row i is the 1d series q_i(t) = sum_n B[i, n] L_n(t): the terms of
        p with last exponent n add their prefix products to column n.
        """
        exps, coeffs = self.p.arrays
        head, last = exps[:, :-1], exps[:, -1]
        nmax = int(head.max(initial=0))
        tables = np.empty((prefix.shape[0], self.k - 1, nmax + 1))
        for j in range(self.k - 1):
            tables[:, j, :] = kernels.legendre_table(prefix[:, j], nmax)
        B = np.zeros((prefix.shape[0], int(last.max(initial=0)) + 1))
        for n in np.unique(last):
            sel = last == n
            B[:, n] = kernels.poly_eval_tables(tables, head[sel], coeffs[sel])
        B[:, 0] += 1.0
        return B

    def _c(self, B: np.ndarray) -> np.ndarray:
        """c_k = int_{-1}^{1} q^2 dt = 2 sum_n B[:, n]^2 (Parseval)."""
        c = 2.0 * np.einsum("mn,mn->m", B, B)
        if np.any(c <= DEGENERATE_C_FLOOR):
            raise ValueError(
                f"degenerate normalization in component {self.k}: "
                f"min c = {float(np.min(c)):.3e}"
            )
        return c

    def normalization(self, prefix) -> np.ndarray:
        """c_k(prefix) = int_{-1}^{1} (1 + p)^2 dt, in closed form."""
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        if self.is_identity:
            return np.full(prefix.shape[0], 2.0)
        return self._c(self._t_coeffs(prefix))

    def _cdf(self, B: np.ndarray, c: np.ndarray) -> np.ndarray:
        """(m, 2N+2): the Legendre series in t of the CDF of 2 q^2 / c."""
        L, M = _square_cdf_matrices(B.shape[1])
        q = B @ L
        return ((q * q) @ M) * (2.0 / c)[:, None]

    def eval(self, x) -> np.ndarray:
        """Tt_k = 2F - 1 at points x of shape (m, k), clipped into [-1, 1]."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.is_identity:
            return x[:, -1].copy()
        B = self._t_coeffs(x[:, :-1])
        F = legendre_series(self._cdf(B, self._c(B)), x[:, -1])
        return np.clip(2.0 * F - 1.0, -1.0, 1.0)

    def deriv(self, x) -> np.ndarray:
        """d/dx_k Tt_k = 2 q(x_k)^2 / c_k >= 0."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.is_identity:
            return np.ones(x.shape[0])
        B = self._t_coeffs(x[:, :-1])
        return 2.0 * legendre_series(B, x[:, -1]) ** 2 / self._c(B)

    def invert(self, prefix, y) -> np.ndarray:
        """t with Tt_k(prefix, t) = y: F(t) = (y + 1) / 2 on the CDF series."""
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if self.is_identity:
            return y.copy()
        B = self._t_coeffs(prefix)
        c = self._c(B)
        n1 = B.shape[1]
        return _invert_cdf(
            self._cdf(B, c), 0.5 * (y + 1.0),
            lambda L: np.einsum("mn,mn->m", L[:, :n1], B) ** 2 / c,
        )

    def to_json(self) -> dict:
        out = {"k": self.k, "p_coeffs": self.p.to_json()}
        if self.lam is not None:
            out["lambda"] = self.lam.to_json()
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RationalComponent":
        lam = IndexSet.from_json(obj["lambda"]) if "lambda" in obj else None
        return cls(k=int(obj["k"]), p=SparsePolynomial.from_json(obj["p_coeffs"]),
                   lam=lam)


def fit_component(transport: ExactTransport, k: int,
                  lam: IndexSet) -> RationalComponent:
    """Project sqrt(d/dx_k T_k) - 1 onto the index set to get p_k."""
    if not lam.members:
        return RationalComponent(k=k, p=zero_polynomial(k), lam=lam)
    b = transport.target.anisotropy or transport.reference.anisotropy
    grid = projection_grid(lam, anisotropy=b[:k] if b else None)
    target = sqrt_shift_target(transport, k)
    p = project(target, lam, grid)
    return RationalComponent(k=k, p=p, lam=lam)


@dataclass(frozen=True)
class ApproxTransport:
    """Monotone triangular bijection assembled from rational components."""

    components: tuple  # RationalComponent for k = 1..d
    epsilon: float | None = None
    xi: tuple | None = None

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def n_eps(self) -> int:
        """Total degrees of freedom: sum of index-set cardinalities."""
        return sum(
            len(c.lam) if c.lam is not None else len(c.p.terms)
            for c in self.components
        )

    def component(self, k: int, x) -> np.ndarray:
        return self.components[k - 1].eval(x)

    def diag_deriv(self, k: int, x) -> np.ndarray:
        return self.components[k - 1].deriv(x)

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        y = np.empty_like(pts)
        for k in range(1, pts.shape[1] + 1):
            y[:, k - 1] = self.components[k - 1].eval(pts[:, :k])
        return y[0] if single else y

    def inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        pts = y[None, :] if single else y
        x = np.empty_like(pts)
        for k in range(1, pts.shape[1] + 1):
            x[:, k - 1] = self.components[k - 1].invert(x[:, : k - 1], pts[:, k - 1])
        return x[0] if single else x

    def to_json(self) -> dict:
        out = {"components": [c.to_json() for c in self.components]}
        out["epsilon"] = self.epsilon
        out["xi"] = list(self.xi) if self.xi is not None else None
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ApproxTransport":
        return cls(
            components=tuple(
                RationalComponent.from_json(c) for c in obj["components"]
            ),
            epsilon=obj.get("epsilon"),
            xi=tuple(obj["xi"]) if obj.get("xi") else None,
        )


def build_approx_transport(
    rho: Density,
    pi: Density,
    xi: WeightVector,
    epsilon: float,
    exact: ExactTransport | None = None,
    d: int | None = None,
) -> ApproxTransport:
    """Fit all components on Lambda_{k,epsilon}, k = 1..d."""
    d = d or rho.d
    if len(xi) < d:
        raise ValueError(f"weight vector has {len(xi)} entries, need {d}")
    exact = exact or ExactTransport(reference=rho, target=pi)
    comps = []
    for k in range(1, d + 1):
        lam = enumerate_lambda(xi.prefix(k), epsilon)
        comps.append(fit_component(exact, k, lam))
    return ApproxTransport(
        components=tuple(comps), epsilon=epsilon, xi=tuple(xi.xi[:d])
    )
