"""Gauss-Legendre quadrature against the uniform probability measure.

All rules in this package integrate against mu = (Lebesgue)/2 per
coordinate, i.e. the weights of an n-point rule sum to 1. Nodes are
computed by Newton iteration on the Legendre three-term recurrence with
cosine initial guesses.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
# size * d of the largest grid points_weights builds (512 MiB of float64).
# Default grids up to the 24^5 marginal rule at d = 5 (4.0e7) and the 60^4
# oversampled TV grid of a d = 4 distance (5.2e7) fit; a d = 8 distance
# grid (15^8, 2.1e10) or a d = 5 oversampled one (60^5, 3.9e9) fails.
MAX_GRID_COORDINATES = 1 << 26


@dataclass(frozen=True)
class QuadratureRule1D:
    """Nodes in (-1, 1) ascending; positive weights summing to 1 (for mu)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)


def _legendre_and_deriv(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) via the three-term recurrence (unnormalized)."""
    p0 = np.ones_like(x)
    if n == 0:
        return p0, np.zeros_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    return p1, dp


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule1D:
    """n-point Gauss-Legendre rule normalized to the probability measure mu."""
    if n < 1:
        raise ValueError(f"rule order must be >= 1, got {n}")
    if n == 1:
        return QuadratureRule1D(np.zeros(1), np.ones(1))
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_MAXIT):
        p, dp = _legendre_and_deriv(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    _, dp = _legendre_and_deriv(n, x)
    # standard weights 2/((1-x^2) P_n'^2), then divided by 2 for mu
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    nodes = x[order]
    weights = w[order]
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule1D(nodes, weights)


@dataclass(frozen=True)
class TensorGrid:
    """Tensor product of per-dimension rules; product weights sum to 1."""

    rules: tuple[QuadratureRule1D, ...]

    @property
    def d(self) -> int:
        return len(self.rules)

    @property
    def size(self) -> int:
        out = 1
        for r in self.rules:
            out *= r.n
        return out

    def points_weights(self):
        """Full grid as (size, d) points and (size,) weights, built once.

        Raises ValueError, before allocating, when size * d exceeds
        MAX_GRID_COORDINATES.
        """
        return self._points_weights

    @cached_property
    def _points_weights(self):
        if self.size * self.d > MAX_GRID_COORDINATES:
            orders = " x ".join(str(r.n) for r in self.rules)
            raise ValueError(
                f"tensor grid of {orders} = {self.size} nodes exceeds "
                f"MAX_GRID_COORDINATES = {MAX_GRID_COORDINATES} coordinates")
        mesh = np.meshgrid(*(r.nodes for r in self.rules), indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        w = self.rules[0].weights
        for r in self.rules[1:]:
            w = np.multiply.outer(w, r.weights)
        return pts, np.asarray(w).ravel()


def tensor_grid(orders) -> TensorGrid:
    """Grid from a sequence of per-dimension rule orders."""
    return TensorGrid(tuple(gauss_legendre(int(n)) for n in orders))


def uniform_grid(n: int, d: int) -> TensorGrid:
    return tensor_grid([n] * d)


def integrate(f, grid: TensorGrid) -> float:
    """Tensor-product quadrature of f against mu^d.

    f takes an (m, d) array of points and returns (m,) values.
    """
    pts, w = grid.points_weights()
    vals = np.asarray(f(pts), dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned non-finite values on grid nodes")
    return float(vals @ w)
