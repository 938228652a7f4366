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
Its coefficients are one matrix product: p_k caches (H, W), the distinct
head multi-indices H of its terms (over x_1..x_{k-1}) and the dense
coefficient matrix W with W[h, n] the coefficient of the term (H[h], n), so
b = Phi @ W (+1 on b_0), where Phi[i, h] = prod_j L_{H[h,j]}(x_ij) needs one
Legendre table per prefix coordinate that H uses.
Orthonormality gives c_k = 2 sum_n b_n^2, and Tt_k = 2F - 1 with F the CDF
of the density Tt_k' = 2 q^2 / c_k. That density has degree 2N, so its
values at 2N+1 Chebyshev-Lobatto points give its exact Chebyshev series
and, through the Chebyshev antiderivative, that of F: the recipe the exact
transport uses for its conditional series (``transport._lobatto_rule``
and ``transport._cdf_series``), here as two cached matrices. When no
term of p_k has a nonzero exponent in x_<k (always for k = 1), q, c_k
and both series do not depend on the prefix: the component builds them
once, as one row that serves every point of every batch. The exact
transport's series solver inverts F and reads F' off the density series
at the root, so the inverse map yields the diagonal derivatives
Tt_k' = 2F' with no second series build, which is all
``pushforward_density`` needs. The inverse map needs one solve per
sequential step, not one per component: the step of component k is one
more than the largest step among the prefix coordinates p_k reads (an
identity component has step 0), and the components that share a step
and a series length are solved together, their series stacked into one
root solve, in batches of up to GROUP_MAX_POINTS points. A component
whose p ignores the prefix is one fixed 1d map, so at its first inversion
it tabulates its CDF at INVERSE_NODES points, and its roots start from
that table instead of the regula-falsi point: 2 evaluations of F per root
on the benchmark's maps, not 4-5. The table decides only where Newton
begins; the solve's bracket and tolerance are those of every other root.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# kernels are called through the module, so that per-layer tracing
# (perfbench/tracing.py) that replaces them there sees these calls too
from . import kernels
from .density import Density
from .indexsets import IndexSet, WeightVector, enumerate_lambda
from .polybasis import SparsePolynomial, chebyshev_series, project, zero_polynomial
from .quadrature import TensorGrid, tensor_grid
from .transport import (
    ExactTransport,
    _cdf_series,
    _check_points,
    _component_points,
    _invert_cdf,
    _lobatto_rule,
)

DEGENERATE_C_FLOOR = 1e-14
DEFAULT_MARGIN = 10
# batches of more points solve a group's components one at a time: there the
# per-solve overhead that stacking saves is small, and stacking copies each
# one-row series (p ignores the prefix) to a row per point. The crossover was
# between 1,000 and 1,500 points on the d = 3 posterior and d = 32 truncation
# maps (2 cores, numpy 2.4.6).
GROUP_MAX_POINTS = 1024
# equispaced nodes of the CDF table a prefix-free component starts its root
# solves from: with 1025, a root takes 2 F evaluations on the benchmark's
# maps; 257 cost one more, and 4097 saved none
INVERSE_NODES = 1025


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


def projection_grid(index_set: IndexSet, xi) -> TensorGrid:
    """The tensor grid that component index_set.k of the fit projects on.

    The grid follows the index set and its weights xi (at least the first
    k entries). Dimensions carrying degree in the set (and the diagonal
    dimension) get order maxdeg + DEFAULT_MARGIN. A dimension j the set
    never touches gets 3 nodes when a degree-2 term in x_j would carry
    weight xi_j^-2 >= epsilon, and else a single node at 0, which is exact
    for the linear part of the integrand's dependence on x_j.
    """
    k = index_set.k
    maxdeg = index_set.max_degree_per_dim()
    orders = []
    for j in range(k):
        if maxdeg[j] > 0 or j == k - 1:
            orders.append(maxdeg[j] + DEFAULT_MARGIN)
        elif xi[j] ** -2 >= index_set.epsilon:
            orders.append(3)
        else:
            orders.append(1)
    return tensor_grid(orders)


@lru_cache(maxsize=None)
def _square_cdf_matrices(n1: int):
    """(L, M, MC) for series q of length n1 = N + 1, as read-only arrays.

    On the n = max(2N + 1, 2) Chebyshev-Lobatto points of ``_lobatto_rule``,
    q is B @ L; for the values s there of a polynomial of degree 2N, such
    as q^2, s @ M is its Chebyshev series, exact since the interpolant of
    degree n - 1 >= 2N reproduces it, and s @ MC = _cdf_series(s @ M) that
    of its antiderivative (1/2) int_{-1}^{t}. A q constant in t (N = 0)
    still gets two points: the one-point rule divides by N = 0.
    """
    x, M = _lobatto_rule(max(2 * n1 - 1, 2))
    L = kernels.legendre_table(x, n1 - 1).T.copy()
    MC = _cdf_series(M)
    L.setflags(write=False)
    MC.setflags(write=False)
    return L, M, MC


@dataclass(frozen=True)
class RationalComponent:
    """One monotone component Tt_k defined by the polynomial p_k."""

    k: int
    p: SparsePolynomial
    lam: IndexSet | None = None

    def __post_init__(self):
        if self.p.dim != self.k:
            raise ValueError(f"p has dimension {self.p.dim}, expected {self.k}")
        if self.lam is not None and self.lam.k != self.k:
            raise ValueError(f"lambda is for k = {self.lam.k}, expected {self.k}")

    @property
    def is_identity(self) -> bool:
        return not self.p.terms

    def _t_coeffs(self, prefix: np.ndarray) -> np.ndarray:
        """B (m, N+1): Legendre coefficients in t of 1 + p(prefix, t).

        Row i is the 1d series q_i(t) = sum_n B[i, n] L_n(t). With the
        cached (H, W) of ``p.t_series``, B = Phi @ W (+1 on column 0), where
        Phi[i, h] = prod_j L_{H[h,j]}(prefix[i, j]) takes one Legendre table
        per prefix coordinate that H uses.
        """
        H, W = self.p.t_series
        Phi = np.ones((prefix.shape[0], H.shape[0]))
        for j in np.flatnonzero(H.any(axis=0)):
            table = kernels.legendre_table(prefix[:, j], int(H[:, j].max()))
            Phi *= table[:, H[:, j]]
        B = Phi @ W
        B[:, 0] += 1.0
        return B

    def _c(self, B: np.ndarray) -> np.ndarray:
        """c_k = int_{-1}^{1} q^2 dt = 2 sum_n B[:, n]^2 (Parseval).

        Raises ValueError unless every c_k is finite and above
        DEGENERATE_C_FLOOR; NaN fails both comparisons."""
        c = 2.0 * np.einsum("mn,mn->m", B, B)
        ok = (c > DEGENERATE_C_FLOOR) & (c < np.inf)
        if not np.all(ok):
            raise ValueError(
                f"degenerate normalization in component {self.k}: "
                f"c = {float(c[~ok][0]):.3e}"
            )
        return c

    def normalization(self, prefix) -> np.ndarray:
        """c_k(prefix) = int_{-1}^{1} (1 + p)^2 dt, in closed form."""
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        if self.is_identity:
            return np.full(prefix.shape[0], 2.0)
        return self._c(self._t_coeffs(prefix))

    def _density_values(self, prefix: np.ndarray):
        """(B, c, s) per row of prefix: B = ``_t_coeffs``, c_k, and the values
        s of the density Tt_k' = 2 q^2 / c_k on the points of
        ``_square_cdf_matrices``, squared in place (no q * q temporary)."""
        B = self._t_coeffs(prefix)
        c = self._c(B)
        s = B @ _square_cdf_matrices(B.shape[1])[0]
        np.multiply(s, s, out=s)
        s *= (2.0 / c)[:, None]
        return B, c, s

    def _square(self, prefix: np.ndarray):
        """(B, c, C, S) per row of prefix: B and c_k of ``_density_values``,
        and the Chebyshev series C of the CDF F (Tt_k = 2F - 1) and S of the
        density, from its values s: C = s @ MC, S = s @ M."""
        B, c, s = self._density_values(prefix)
        _, M, MC = _square_cdf_matrices(B.shape[1])
        return B, c, s @ MC, s @ M

    @cached_property
    def _one_row(self):
        """``_square`` of a single row when p ignores the prefix, else None.

        p ignores x_<k when no term has a nonzero head exponent (always for
        k = 1); then Tt_k is one 1d map and this one row serves every point
        of every batch, built at first use, read-only. ``_c`` raises on a
        degenerate or overflowing c_k, and cached_property caches no
        exception, so every call raises again.
        """
        if self.p.t_series[0].any():
            return None
        one = self._square(np.zeros((1, self.k - 1)))
        for a in one:
            a.setflags(write=False)
        return one

    @cached_property
    def _inverse_table(self):
        """(F, t): the CDF F of a component whose p ignores the prefix at
        INVERSE_NODES equispaced t in [-1, 1], made nondecreasing, from the
        series of ``_one_row``. ``_invert_group`` starts each root at
        np.interp(u, F, t); built at the first inversion, read-only.
        """
        C = self._one_row[2]
        t = np.linspace(-1.0, 1.0, INVERSE_NODES)
        F = np.maximum.accumulate(kernels.chebyshev_table(t, C.shape[1] - 1) @ C[0])
        F.setflags(write=False)
        t.setflags(write=False)
        return F, t

    def _series(self, prefix: np.ndarray):
        """(C, S) of ``_square``: one row for all points if p ignores the
        prefix, else one per row of prefix."""
        one = self._one_row
        return one[2:] if one is not None else self._square(prefix)[2:]

    def eval(self, x) -> np.ndarray:
        """Tt_k = 2F - 1 at points x of shape (m, k), clipped into [-1, 1],
        and exactly x_k where x_k = +-1.

        A component that reads the prefix builds only the CDF series C of
        ``_square``, not the density series the inverse also needs, and
        holds neither B nor the density values longer than C needs them."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        xk = x[:, -1]
        if self.is_identity:
            return xk.copy()
        one = self._one_row
        if one is not None:
            C = one[2]
        else:
            MC = _square_cdf_matrices(self.p.t_series[1].shape[1])[2]
            C = self._density_values(x[:, :-1])[2] @ MC
        y = 2.0 * chebyshev_series(C, xk) - 1.0
        # in place, with no np.clip or np.where: their temporaries and call
        # overhead cost about 10% of a 1000-point forward of a d = 3 map
        np.minimum(y, 1.0, out=y)
        np.maximum(y, -1.0, out=y)
        np.copyto(y, xk, where=np.abs(xk) == 1.0)
        return y

    def deriv(self, x) -> np.ndarray:
        """d/dx_k Tt_k = 2 q(x_k)^2 / c_k with q summed at the point, so
        >= 0 (a series of the square rounds below 0 near a root of q)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.is_identity:
            return np.ones(x.shape[0])
        one = self._one_row
        if one is None:
            B = self._t_coeffs(x[:, :-1])
            one = B, self._c(B)
        B, c = one[:2]
        q = np.einsum("mn,mn->m", B, kernels.legendre_table(x[:, -1], B.shape[1] - 1))
        return q * q * (2.0 / c)

    def invert(self, prefix, y):
        """(t, Tt_k'(t)) with Tt_k(prefix, t) = y: ``_invert_group`` of this
        component alone."""
        prefix = np.atleast_2d(np.asarray(prefix, dtype=np.float64))
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        if self.is_identity:
            return y.copy(), np.ones(y.shape[0])
        t, dt = _invert_group((self,), prefix, y[:, None])
        return t[:, 0], dt[:, 0]

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


def _invert_group(comps, x, Y):
    """(t, Tt_k'(t)), each (m, K): the roots of the K non-identity components
    comps at the targets Y (m, K), their prefixes read off the solved
    columns of x (m, >= k - 1).

    One ``_invert_cdf`` call solves F(t) = (y + 1) / 2 on the components'
    CDF series, stacked one component after another (a single component's
    series go in as they are, one row if its p ignores the prefix), and
    Tt_k' = 2F' comes from the slope the solve reads off the density series
    at its root. When every component's p ignores the prefix, each root
    starts from its component's ``_inverse_table``, else at the
    regula-falsi point of [-1, 1]. The solve resolves F to DEFAULT_ROOT_TOL
    only: y = +-1 gives t = +-1 exactly, with the slope of the density
    series there, pinned one component at a time so that it rounds as a
    lone solve's.
    A batch of more than GROUP_MAX_POINTS points solves each component alone.
    """
    m, K = Y.shape
    if K > 1 and m > GROUP_MAX_POINTS:
        parts = [_invert_group((c,), x, Y[:, i:i + 1]) for i, c in enumerate(comps)]
        return tuple(np.hstack(a) for a in zip(*parts))
    series = [c._series(x[:, : c.k - 1]) for c in comps]
    if K == 1:
        C, S = series[0]
    else:  # a one-row series fills all m rows of its component
        C, S = (np.concatenate([np.broadcast_to(a, (m, a.shape[1])) for a in arrs])
                for arrs in zip(*series))
    u = 0.5 * (Y.T.ravel() + 1.0)
    start = None
    if all(c._one_row is not None for c in comps):
        start = np.concatenate([np.interp(uk, *c._inverse_table)
                                for c, uk in zip(comps, u.reshape(K, m))])
    t, dF = _invert_cdf(C, S, u, start)
    t, dF = t.reshape(K, m), dF.reshape(K, m)
    end = np.abs(Y.T) == 1.0
    if np.any(end):
        for (_, S), e, y, tk, dk in zip(series, end, Y.T, t, dF):
            tk[e] = y[e]
            dk[e] = 0.5 * chebyshev_series(np.broadcast_to(S, (m, S.shape[1]))[e], y[e])
    return t.T, 2.0 * dF.T


def _columns(cols):
    """The column indices cols (increasing) as a slice when they are a run,
    so that a group reads and writes its columns as views, not copies."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return np.array(cols)


def fit_component(transport: ExactTransport, k: int, lam: IndexSet,
                  xi) -> RationalComponent:
    """Project sqrt(d/dx_k T_k) - 1 onto the index set lam to get p_k.

    xi holds the weights lam was enumerated with; the projection runs on
    ``projection_grid(lam, xi)``.
    """
    if not lam.members:
        return RationalComponent(k=k, p=zero_polynomial(k), lam=lam)
    target = sqrt_shift_target(transport, k)
    p = project(target, lam, projection_grid(lam, xi))
    return RationalComponent(k=k, p=p, lam=lam)


@dataclass(frozen=True)
class ApproxTransport:
    """Monotone triangular bijection assembled from rational components."""

    components: tuple  # RationalComponent for k = 1..d
    epsilon: float | None = None
    xi: tuple | None = None

    def __post_init__(self):
        ks = [c.k for c in self.components]
        if ks != list(range(1, len(ks) + 1)):
            raise ValueError(f"components must be for k = 1..d in order, got k = {ks}")

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

    def truncate(self, eps: float) -> "ApproxTransport":
        """This map cut to the index sets of a coarser eps, with no refit.

        The sets are nested in eps, so every kept term keeps this map's
        coefficient. Component k gets ``enumerate_lambda(xi_k, eps)``, the
        set a fit at eps projects on, so N_eps and every index set are a
        fresh fit's; only the coefficients differ, as they were projected
        on this map's larger grids. A component whose index set does not
        change is this map's own object, with its cached series; one whose
        members do not change (only the set's epsilon) shares its p; an
        empty set gives the identity. ValueError if eps is below the map's
        epsilon, or the map has no epsilon or xi (a map file without them).
        """
        if self.epsilon is None or self.xi is None:
            raise ValueError("truncate needs the epsilon and xi the map was fitted with")
        if eps < self.epsilon:
            raise ValueError(f"cannot truncate a map fitted at epsilon {self.epsilon} "
                             f"to the finer {eps}")
        comps = []
        for c in self.components:
            lam = enumerate_lambda(WeightVector(self.xi[:c.k]), eps)
            if lam.members != c.lam.members:
                p = SparsePolynomial(c.k, {nu: c.p.terms[nu] for nu in lam.members})
                c = RationalComponent(k=c.k, p=p, lam=lam)
            elif lam != c.lam:
                c = RationalComponent(k=c.k, p=c.p, lam=lam)
            comps.append(c)
        return ApproxTransport(components=tuple(comps), epsilon=eps, xi=self.xi)

    def component(self, k: int, x) -> np.ndarray:
        """Tt_k at points x of shape (m, k)."""
        x = _component_points(k, self.d, x)
        return self.components[k - 1].eval(x)

    def diag_deriv(self, k: int, x) -> np.ndarray:
        """d/dx_k Tt_k at points x of shape (m, k)."""
        x = _component_points(k, self.d, x)
        return self.components[k - 1].deriv(x)

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        _check_points(pts, self.d)
        y = np.empty_like(pts)
        for k in range(1, pts.shape[1] + 1):
            y[:, k - 1] = self.components[k - 1].eval(pts[:, :k])
        return y[0] if single else y

    def inverse(self, y):
        y = np.asarray(y, dtype=np.float64)
        single = y.ndim == 1
        x = self._pullback(y[None, :] if single else y)[0]
        return x[0] if single else x

    @cached_property
    def _groups(self):
        """((comps, cols), ...): the non-identity components in groups that
        share a solve step and a series length, in increasing step, with
        their column indices.

        The step of component k is 1 + the largest step among the prefix
        coordinates its p_k reads, the nonzero columns of H in
        ``p.t_series``; an identity component has step 0 (x_k = y_k). So
        every coordinate a group reads is solved by an earlier step. Built
        at first use from (H, W) alone, no series.
        """
        steps, groups = [], {}
        for c in self.components:
            if c.is_identity:
                steps.append(0)
                continue
            H, W = c.p.t_series
            steps.append(1 + max((steps[j] for j in np.flatnonzero(H.any(axis=0))),
                                 default=0))
            groups.setdefault((steps[-1], W.shape[1]), []).append(c)
        return tuple((tuple(g), _columns([c.k - 1 for c in g]))
                     for _, g in sorted(groups.items()))

    def _pullback(self, y):
        """(x, D): x = Tt^{-1}(y) at points y (m, d), and D (m, d) the
        diagonal of dTt at x, read off the root solves: one
        ``_invert_group`` call per group of ``_groups``, in order, with
        x_k = y_k and D_k = 1 at an identity component."""
        _check_points(y, self.d)
        x = y.copy()
        D = np.ones_like(y)
        for comps, cols in self._groups:
            x[:, cols], D[:, cols] = _invert_group(comps, x, y[:, cols])
        return x, D

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
) -> ApproxTransport:
    """Fit all components on Lambda_{k,epsilon}, k = 1..d."""
    d = rho.d
    if len(xi) < d:
        raise ValueError(f"weight vector has {len(xi)} entries, need {d}")
    exact = exact or ExactTransport(reference=rho, target=pi)
    comps = []
    for k in range(1, d + 1):
        xi_k = xi.prefix(k)
        comps.append(fit_component(exact, k, enumerate_lambda(xi_k, epsilon), xi_k))
    return ApproxTransport(
        components=tuple(comps), epsilon=epsilon, xi=tuple(xi.xi[:d])
    )
