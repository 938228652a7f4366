"""Experiment drivers: convergence sweeps, dimension truncation, posterior demo.

Randomness comes from numpy's counter-based Philox generator seeded from
the config, so reruns with identical config and seed are bitwise
reproducible. Wall-clock timing is injected (``clock``): by default the
wall_ms column is 0 so that output files are deterministic; pass
``time.perf_counter`` to record real timings.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .approx import ApproxTransport, build_approx_transport, projection_grid
from .density import Density, gaussian_posterior, linear_density, uniform
from .indexsets import WeightVector, enumerate_lambda, xi_from_anisotropy
from .metrics import DistanceReport, pushforward_distance
from .quadrature import integrate, uniform_grid
from .transport import ExactTransport, _check_points

ERROR_FLOOR = 1e-12
CSV_HEADER = "epsilon,N_eps,k_eff,sup_err_T,sup_err_dT,hellinger,tv,kl,w1,w1_exact,wall_ms"


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    n_eps: int
    per_k_cards: tuple
    k_eff: int
    sup_err_T: float
    sup_err_dT: float
    distances: DistanceReport | None
    wall_ms: float

    def csv_row(self) -> str:
        d = self.distances
        cols = [
            repr(self.epsilon),
            str(self.n_eps),
            str(self.k_eff),
            repr(self.sup_err_T),
            repr(self.sup_err_dT),
            repr(d.hellinger) if d else "nan",
            repr(d.tv) if d else "nan",
            repr(d.kl) if d else "nan",
            repr(d.w1) if d else "nan",
            (str(d.w1_exact).lower()) if d else "false",
            repr(self.wall_ms),
        ]
        return ",".join(cols)

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "N_eps": self.n_eps,
            "per_k_cards": list(self.per_k_cards),
            "k_eff": self.k_eff,
            "sup_err_T": self.sup_err_T,
            "sup_err_dT": self.sup_err_dT,
            "distances": self.distances.to_json() if self.distances else None,
            "wall_ms": self.wall_ms,
        }


@dataclass(frozen=True)
class RateFit:
    model: str  # "exponential": log err vs N^(1/d); "algebraic": log err vs log N
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    status: str = "ok"

    def to_json(self) -> dict:
        return asdict(self)


def fit_rate(n_eps, errors, model: str, d: int = 1) -> RateFit:
    """Least-squares rate fit over records with error above the floor."""
    n_eps = np.asarray(n_eps, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    keep = (errors > ERROR_FLOOR) & (n_eps > 0)
    n_eps, errors = n_eps[keep], errors[keep]
    if len(errors) < 3:
        return RateFit(model, math.nan, math.nan, math.nan, len(errors),
                       status="degenerate")
    if model == "exponential":
        x = n_eps ** (1.0 / d)
    elif model == "algebraic":
        x = np.log(n_eps)
    else:
        raise ValueError(f"unknown rate model {model!r}")
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    return RateFit(model, float(slope), float(intercept), r2, len(errors))


def _sample_points(rng: np.random.Generator, xi, n_cloud: int,
                   comp) -> np.ndarray:
    """Seeded uniform cloud, plus the nodes the fit (weights xi) projected comp on."""
    pts = rng.uniform(-1.0, 1.0, size=(n_cloud, comp.k))
    if comp.lam.members:
        grid_pts, _ = projection_grid(comp.lam, xi).points_weights()
        pts = np.concatenate([pts, grid_pts], axis=0)
    return pts


def component_sup_errors(exact: ExactTransport, approx: ApproxTransport,
                         k: int, pts: np.ndarray):
    """(sup |T_k - Tt_k|, sup |dT_k - dTt_k|) over the sample points."""
    # one solve gives T_k and its diagonal derivative
    y, D = exact._solve(exact.reference, exact.target, pts, k, nderiv=1)
    t_ex, d_ex = y[:, k - 1], D[:, 0]
    t_ap = approx.component(k, pts)
    d_ap = approx.diag_deriv(k, pts)
    return (
        float(np.max(np.abs(t_ex - t_ap))),
        float(np.max(np.abs(d_ex - d_ap))),
    )


def _distance_grid_order(d: int) -> int:
    return 30 if d <= 3 else 15


def _record(eps, approx: ApproxTransport, sup_t: float, sup_dt: float,
            dist: DistanceReport | None, t0: float, clock) -> SweepRecord:
    """The SweepRecord of one epsilon; wall time runs from t0 to now."""
    cards = tuple(len(c.lam) for c in approx.components)
    k_eff = max((k + 1 for k, n in enumerate(cards) if n > 0), default=0)
    wall = ((clock() - t0) * 1000.0) if clock else 0.0
    return SweepRecord(
        epsilon=float(eps),
        n_eps=approx.n_eps,
        per_k_cards=cards,
        k_eff=k_eff,
        sup_err_T=sup_t,
        sup_err_dT=sup_dt,
        distances=dist,
        wall_ms=wall,
    )


def _check_eps_list(eps_list):
    if len(eps_list) == 0:
        raise ValueError("eps_list is empty: a study needs at least one epsilon")


def _fit_once(rho, pi, xi, eps_list, exact, clock):
    """(map, seconds): the map fitted at min(eps_list), which every epsilon
    of a sweep truncates, and the fit's wall time (0 without a clock)."""
    t0 = clock() if clock else 0.0
    fine = build_approx_transport(rho, pi, xi, min(eps_list), exact=exact)
    return fine, (clock() - t0) if clock else 0.0


def convergence_study(
    rho: Density,
    pi: Density,
    xi: WeightVector,
    eps_list,
    seed: int = 0,
    n_cloud: int = 2048,
    distance_grid_order: int | None = None,
    clock=None,
):
    """Exponential-rate sweep at fixed dimension.

    Returns (records, rate_fit). The approximate transport is fitted once,
    at the smallest epsilon, and each epsilon's map is its ``truncate``.
    For each epsilon, sup errors against the exact transport are sampled
    (on the cloud and the projection grid of each component's own index
    set), and distances between the induced measure and the target are
    computed on a shared tensor grid. wall_ms is the time of one epsilon;
    the fit's time is booked to the finest record. ValueError on an empty
    eps_list.
    """
    _check_eps_list(eps_list)
    d = rho.d
    exact = ExactTransport(reference=rho, target=pi)
    order = distance_grid_order or _distance_grid_order(d)
    grid = uniform_grid(order, d)
    fine, fit_s = _fit_once(rho, pi, xi, eps_list, exact, clock)
    records = []
    for eps in eps_list:
        t0 = clock() if clock else 0.0
        if eps == fine.epsilon:
            t0, fit_s = t0 - fit_s, 0.0
        rng = rng_from_seed(seed)
        approx = fine.truncate(eps)
        sup_t = sup_dt = 0.0
        for k in range(1, d + 1):
            pts = _sample_points(rng, approx.xi, n_cloud, approx.components[k - 1])
            et, edt = component_sup_errors(exact, approx, k, pts)
            sup_t = max(sup_t, et)
            sup_dt = max(sup_dt, edt)
        dist = pushforward_distance(approx, rho, pi, grid)
        records.append(_record(eps, approx, sup_t, sup_dt, dist, t0, clock))
    fit = fit_rate([r.n_eps for r in records], [r.sup_err_T for r in records],
                   "exponential", d=d)
    return records, fit


def truncation_target(amplitude: float, s: float, d_max: int) -> Density:
    """The linear target of the truncation sweep, c_j = amplitude * j^-s.

    ValueError unless every c_j is nonzero (each coordinate needs a weight
    xi_j = 1 + alpha / |c_j|) and the density is positive (sum |c_j| < 1).
    """
    c = amplitude * np.arange(1, d_max + 1, dtype=np.float64) ** (-float(s))
    if np.any(c == 0.0):
        raise ValueError(f"c_j = amplitude * j^-s is 0 for some j <= {d_max}")
    return linear_density(c)


def truncation_study(
    amplitude: float,
    s: float,
    d_max: int,
    eps_list,
    alpha: float = 1.0,
    seed: int = 0,
    n_cloud: int = 512,
    clock=None,
):
    """Dimension-truncation sweep: linear target with c_j = amplitude * j^-s.

    Components with empty index sets are the identity; the effective
    dimension k_eff is the largest k with a nonempty set. Errors are the
    aggregate sums over k <= d_max of sampled sup norms on one seeded
    cloud of n_cloud points; the fit is algebraic (log error vs log N).
    The exact reference, T and its diagonal derivatives on the cloud, is
    one solve per study, before the epsilon loop. The approximate
    transport is fitted once, at the smallest epsilon, and each epsilon's
    map is its ``truncate``. wall_ms is the time of one epsilon, without
    the reference solve; the fit's time is booked to the finest record.
    ValueError on an empty eps_list.
    """
    _check_eps_list(eps_list)
    pi = truncation_target(amplitude, s, d_max)
    rho = uniform(d_max)
    exact = ExactTransport(reference=rho, target=pi)
    xi = xi_from_anisotropy(pi.anisotropy, alpha)
    pts = rng_from_seed(seed).uniform(-1.0, 1.0, size=(n_cloud, d_max))
    _check_points(pts, d_max)
    y_exact, d_exact = exact._solve(rho, pi, pts, d_max)
    # the errors of an identity component, Tt_k = x_k, for every k at once
    id_t = np.max(np.abs(y_exact - pts), axis=0)
    id_dt = np.max(np.abs(d_exact - 1.0), axis=0)
    fine, fit_s = _fit_once(rho, pi, xi, eps_list, exact, clock)
    records = []
    for eps in eps_list:
        t0 = clock() if clock else 0.0
        if eps == fine.epsilon:
            t0, fit_s = t0 - fit_s, 0.0
        approx = fine.truncate(eps)
        # added one k at a time, in Python floats: np.sum rounds differently
        agg_t = agg_dt = 0.0
        for k, comp in enumerate(approx.components, 1):
            if comp.is_identity:
                agg_t += float(id_t[k - 1])
                agg_dt += float(id_dt[k - 1])
            else:
                xk = pts[:, :k]
                agg_t += float(np.max(np.abs(y_exact[:, k - 1] - comp.eval(xk))))
                agg_dt += float(np.max(np.abs(d_exact[:, k - 1] - comp.deriv(xk))))
        records.append(_record(eps, approx, agg_t, agg_dt, None, t0, clock))
    fit = fit_rate([r.n_eps for r in records],
                   [r.sup_err_T for r in records], "algebraic")
    return records, fit


@dataclass(frozen=True)
class PosteriorReport:
    epsilon: float
    n_eps: int
    xi: tuple
    distances: DistanceReport
    sample_mean: tuple
    sample_std: tuple
    quadrature_mean: tuple
    n_samples: int
    seed: int
    samples: np.ndarray = field(repr=False)

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "N_eps": self.n_eps,
            "xi": list(self.xi),
            "distances": self.distances.to_json(),
            "sample_mean": list(self.sample_mean),
            "sample_std": list(self.sample_std),
            "quadrature_mean": list(self.quadrature_mean),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def posterior_demo(
    A,
    varsigma,
    sigma: float,
    epsilon: float,
    n_samples: int = 2000,
    seed: int = 0,
    alpha: float = 1.0,
    distance_grid_order: int | None = None,
) -> PosteriorReport:
    """Fit the transport from uniform to a linear-Gaussian posterior and sample.

    Weights follow the practical recipe xi_j = 1 + alpha / b_j with b_j the
    forward-map column norms. Emits pushforward samples y_i = Tt(x_i) and
    compares the sample mean to the tensor-quadrature posterior mean.
    """
    return _posterior_demo(gaussian_posterior(A, varsigma, sigma), epsilon,
                           n_samples, seed, alpha, distance_grid_order)


def _posterior_demo(pi: Density, epsilon: float, n_samples: int, seed: int,
                    alpha: float, distance_grid_order: int | None) -> PosteriorReport:
    """``posterior_demo`` on the posterior pi that ``gaussian_posterior``
    built, so that a caller holding it does not normalise it again."""
    d = pi.d
    if d > 4:
        raise ValueError("posterior demo limited to d <= 4")
    if pi.anisotropy is None:
        raise ValueError("forward map has a zero column; anisotropy undefined")
    rho = uniform(d)
    xi = xi_from_anisotropy(pi.anisotropy, alpha)
    approx = build_approx_transport(rho, pi, xi, epsilon)
    grid = uniform_grid(distance_grid_order or _distance_grid_order(d), d)
    dist = pushforward_distance(approx, rho, pi, grid)
    rng = rng_from_seed(seed)
    x = rng.uniform(-1.0, 1.0, size=(n_samples, d))
    y = approx.forward(x)
    quad_mean = tuple(
        integrate(lambda p, j=j: p[:, j] * pi.evaluate(p), grid) for j in range(d)
    )
    return PosteriorReport(
        epsilon=float(epsilon),
        n_eps=approx.n_eps,
        xi=tuple(xi.xi),
        distances=dist,
        sample_mean=tuple(float(v) for v in y.mean(axis=0)),
        sample_std=tuple(float(v) for v in y.std(axis=0, ddof=1)),
        quadrature_mean=quad_mean,
        n_samples=n_samples,
        seed=seed,
        samples=y,
    )


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"
