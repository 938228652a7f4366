"""Distances between measures given by densities w.r.t. mu on [-1,1]^d.

All integrals run over a shared tensor quadrature grid. |f - g| and
(sqrt f - sqrt g)^2 are continuous but kinked where the densities cross,
so total variation also offers an oversampled evaluation (4x nodes per
dimension, where that grid fits under MAX_GRID_COORDINATES) to quantify
the quadrature bias.
"""

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import kernels
from .quadrature import (
    MAX_GRID_COORDINATES,
    TensorGrid,
    gauss_legendre,
    tensor_grid,
)
from .transport import _cdf_series, _lobatto_rule, pushforward_density

W1_CDF_ORDER = 64


def _as_fn(f):
    return f.evaluate if hasattr(f, "evaluate") else f


@dataclass(frozen=True)
class DistanceReport:
    hellinger: float
    tv: float
    kl: float
    w1: float
    w1_exact: bool
    tv_oversampled: float | None = None
    grid_orders: tuple | None = None

    def to_json(self) -> dict:
        out = asdict(self)
        out["grid_orders"] = list(self.grid_orders) if self.grid_orders else None
        return out


def _grid_values(f, g, grid: TensorGrid):
    pts, w = grid.points_weights()
    fv = np.asarray(_as_fn(f)(pts), dtype=np.float64)
    gv = np.asarray(_as_fn(g)(pts), dtype=np.float64)
    return fv, gv, w


def _hellinger(fv, gv, w) -> float:
    if np.any(fv < 0) or np.any(gv < 0):
        raise ValueError("negative density values in Hellinger integrand")
    diff = np.sqrt(fv) - np.sqrt(gv)
    return float(np.sqrt(0.5 * ((diff * diff) @ w)))


def _total_variation(fv, gv, w) -> float:
    return float(0.5 * (np.abs(fv - gv) @ w))


def _kl_divergence(fv, gv, w) -> float:
    support = fv > 0
    if np.any(gv[support] <= 0):
        return math.inf
    out = np.zeros_like(fv)
    out[support] = fv[support] * np.log(fv[support] / gv[support])
    return float(out @ w)


def _wasserstein1_1d(f, g) -> float:
    """int_{-1}^{1} |F - G| dt, F and G the CDFs of f and g.

    f - g is interpolated on the W1_CDF_ORDER + 1 Chebyshev-Lobatto points
    of ``transport._lobatto_rule``; the exact antiderivative of that series
    (``transport._cdf_series``) is F - G, and |F - G| is integrated on the
    W1_CDF_ORDER Gauss nodes.
    """
    x, M = _lobatto_rule(W1_CDF_ORDER + 1)
    fv, gv = (np.asarray(_as_fn(h)(x[:, None]), dtype=np.float64) for h in (f, g))
    C = _cdf_series(((fv - gv) @ M)[None, :])[0]
    rule = gauss_legendre(W1_CDF_ORDER)
    FG = kernels.chebyshev_table(rule.nodes, W1_CDF_ORDER + 1) @ C
    # the weights are mu-normalized; Lebesgue measure of [-1,1] is 2
    return float(2.0 * (np.abs(FG) @ rule.weights))


def distance_report(f, g, d: int, grid: TensorGrid,
                    oversample_tv: bool = False) -> DistanceReport:
    """Hellinger, TV, KL and W1 from one evaluation of f and g on the grid.

    hellinger = ((1/2) int (sqrt f - sqrt g)^2 dmu)^(1/2), tv = (1/2)
    int |f - g| dmu and kl = int f log(f/g) dmu (+inf when g vanishes on
    the support of f). The d = 1 Wasserstein distance is exact and
    evaluates both densities on its own nodes; for d > 1 it is the
    diam([-1,1]^d) * TV = 2 sqrt(d) * TV bound. oversample_tv adds TV on
    a grid with 4x nodes per dimension when its size * d is at most
    MAX_GRID_COORDINATES, and reports None otherwise (60^5 at d = 5).
    """
    fv, gv, w = _grid_values(f, g, grid)
    tv = _total_variation(fv, gv, w)
    tv_fine = None
    if oversample_tv:
        fine = tensor_grid([4 * r.n for r in grid.rules])
        if fine.size * fine.d <= MAX_GRID_COORDINATES:
            tv_fine = _total_variation(*_grid_values(f, g, fine))
    if d == 1:
        w1, exact = _wasserstein1_1d(f, g), True
    else:
        w1, exact = 2.0 * math.sqrt(d) * tv, False
    return DistanceReport(
        hellinger=_hellinger(fv, gv, w),
        tv=tv,
        kl=_kl_divergence(fv, gv, w),
        w1=w1,
        w1_exact=exact,
        tv_oversampled=tv_fine,
        grid_orders=tuple(r.n for r in grid.rules),
    )


def pushforward_distance(tmap, rho, pi, grid: TensorGrid) -> DistanceReport:
    """Distances between the density of tmap_sharp(rho) and f_pi on the grid."""
    return distance_report(lambda y: pushforward_density(tmap, rho, y), pi,
                           grid.d, grid)


def det_product_bound(a, b):
    """(lhs, rhs) of the product-difference inequality for positive sequences.

    lhs = |prod a - prod b|,
    rhs = exp(sum|a-b| / a_min) * prod(a) / min(a_min, b_min) * sum|a-b|.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("sequences must be 1d with equal length")
    if np.any(a <= 0) or np.any(b <= 0):
        raise ValueError("sequences must be strictly positive")
    lhs = abs(float(np.prod(a) - np.prod(b)))
    amin = float(np.min(a))
    bmin = float(np.min(b))
    s = float(np.sum(np.abs(a - b)))
    rhs = math.exp(s / amin) * float(np.prod(a)) / min(amin, bmin) * s
    return lhs, rhs
