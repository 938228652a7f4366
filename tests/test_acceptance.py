"""End-to-end acceptance gate.

Ten numbered criteria covering the exact transport, the sparse rational
approximation, convergence rates, index sets, the basis, stability
bounds, and reproducibility. Each test prints a single PASS/FAIL line.
"""

import itertools
import math
import time

import numpy as np
import pytest

from krtransport.approx import RationalComponent, build_approx_transport
from krtransport.density import gaussian_posterior, linear_density, uniform
from krtransport.indexsets import (
    WeightVector,
    cardinality_bound_sharp,
    cardinality_bound_simple,
    enumerate_lambda,
    gamma,
    xi_from_anisotropy,
)
from krtransport.kernels import legendre_table
from krtransport.metrics import det_product_bound, distance_report
from krtransport.polybasis import sup_norm_bound, zero_polynomial
from krtransport.quadrature import integrate, tensor_grid, uniform_grid
from krtransport.studies import convergence_study, records_to_csv, truncation_study
from krtransport.transport import ExactTransport, pushforward_density

SEED = 2026


def _rng(offset=0):
    return np.random.Generator(np.random.Philox(SEED + offset))


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


# shared sweep for criteria 3-5 (fitted once per session)
_SWEEP = {}


def _linear2d_sweep():
    if not _SWEEP:
        pi = linear_density([0.3, 0.2])
        rho = uniform(2)
        xi = xi_from_anisotropy(pi.anisotropy, alpha=0.5)
        eps_list = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        t0 = time.perf_counter()
        records, fit = convergence_study(
            rho, pi, xi, eps_list, seed=7, n_cloud=2048
        )
        _SWEEP["records"] = records
        _SWEEP["fit"] = fit
        _SWEEP["elapsed"] = time.perf_counter() - t0
        _SWEEP["last_map"] = build_approx_transport(rho, pi, xi, eps_list[-1])
        _SWEEP["fit_args"] = (rho, pi, xi)
    return _SWEEP


def test_criterion_1_pushforward_identity():
    t0 = time.perf_counter()
    rho = uniform(2)
    worst = 0.0
    for pi in [
        linear_density([0.3, 0.2]),
        gaussian_posterior([[1.0, 0.4]], [0.2], 0.9),
    ]:
        t = ExactTransport(reference=rho, target=pi)
        x = _rng(1).uniform(-1.0, 1.0, size=(1000, 2))
        y = t.forward(x)
        det = t.diag_deriv(1, x[:, :1]) * t.diag_deriv(2, x)
        worst = max(worst, float(np.max(np.abs(det * pi.evaluate(y) - rho.evaluate(x)))))
    elapsed = time.perf_counter() - t0
    _report(1, "pushforward identity det dT * f_pi(T) = f_rho",
            worst <= 1e-8 and elapsed < 60,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_1d():
    worst_t = worst_d = 0.0
    x = _rng(2).uniform(-1.0, 1.0, size=(1000, 1))
    for c in [0.1, 0.3, 0.5]:
        t = ExactTransport(reference=uniform(1), target=linear_density([c]))
        root = np.sqrt(1 + c * c + 2 * c * x[:, 0])
        expect = (-1.0 + root) / c
        got = t.forward(x)[:, 0]
        worst_t = max(worst_t, float(np.max(np.abs(got - expect))))
        d_expect = 1.0 / root
        d_got = t.diag_deriv(1, x)
        worst_d = max(worst_d, float(np.max(np.abs(d_got - d_expect))))
    _report(2, "1d closed-form transport and derivative",
            worst_t <= 1e-10 and worst_d <= 1e-9,
            f"map {worst_t:.2e}, deriv {worst_d:.2e}")


def test_criterion_3_bijection_by_construction():
    sweep = _linear2d_sweep()
    tmap = sweep["last_map"]
    rng = _rng(3)
    ok = True
    worst_end = 0.0
    for comp in tmap.components:
        prefix = rng.uniform(-1, 1, size=(50, comp.k - 1))
        for end in (-1.0, 1.0):
            pts = np.concatenate([prefix, np.full((50, 1), end)], axis=1)
            worst_end = max(worst_end, float(np.max(np.abs(comp.eval(pts) - end))))
        interior = np.concatenate(
            [prefix, rng.uniform(-1, 1, size=(50, 1))], axis=1
        )
        ok = ok and bool(np.all(comp.deriv(interior) >= 0.0))
    # p = 0 gives the identity exactly
    ident = RationalComponent(k=1, p=zero_polynomial(1))
    xs = np.linspace(-1, 1, 33).reshape(-1, 1)
    ok = ok and bool(np.array_equal(ident.eval(xs), xs[:, 0]))
    _report(3, "components are bijections of [-1,1] by construction",
            ok and worst_end <= 1e-12, f"endpoint dev {worst_end:.2e}")


def test_criterion_4_exponential_convergence():
    sweep = _linear2d_sweep()
    records, fit = sweep["records"], sweep["fit"]
    errs = [r.sup_err_T for r in records]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = (decreasing and errs[-1] <= 1e-6 and fit.slope < 0
          and fit.r_squared >= 0.95 and sweep["elapsed"] < 300)
    _report(4, "exponential sup-norm convergence at fixed dimension", ok,
            f"final {errs[-1]:.2e}, slope {fit.slope:.3f}, "
            f"R2 {fit.r_squared:.4f}, {sweep['elapsed']:.1f}s")


def test_criterion_5_measure_convergence():
    sweep = _linear2d_sweep()
    records = sweep["records"]
    ok = True
    for name in ["hellinger", "tv", "kl"]:
        vals = [getattr(r.distances, name) for r in records]
        # monotone decrease with a 5% tolerance band
        ok = ok and all(b <= 1.05 * a for a, b in zip(vals, vals[1:]))
    last = records[-1]
    floor = 10.0 * (last.sup_err_T + last.sup_err_dT)
    ok = ok and last.distances.hellinger <= floor
    ok = ok and last.distances.tv <= floor
    ok = ok and last.distances.kl <= floor
    # the diam([-1,1]) * TV bound dominates the exact 1d W1
    grid1 = uniform_grid(40, 1)
    for c in [0.1, 0.4]:
        rep = distance_report(linear_density([c]), uniform(1), 1, grid1)
        ok = ok and rep.w1_exact and 2.0 * rep.tv >= rep.w1
    _report(5, "pushforward measure distances converge with the map", ok,
            f"final H {last.distances.hellinger:.2e}, "
            f"TV {last.distances.tv:.2e}, KL {last.distances.kl:.2e}")


def test_pushforward_mass_and_kl_on_the_criterion_5_sweep():
    # the KL of the y-space distance is the KL only while the pushforward
    # density's grid mass is 1: its root solves (the inverse) must resolve
    # F closely enough that the mass is 1 to 1e-14 on the order-30 grid at
    # every eps, and the KL of every record is then >= 0 (-7.1e-16 at
    # eps 1e-6 when the mass was 1 - 6.5e-14)
    sweep = _linear2d_sweep()
    rho, pi, xi = sweep["fit_args"]
    grid = uniform_grid(30, 2)
    for r in sweep["records"]:
        tmap = build_approx_transport(rho, pi, xi, r.epsilon)
        mass = integrate(lambda y: pushforward_density(tmap, rho, y), grid)
        assert abs(mass - 1.0) <= 1e-14, (r.epsilon, mass)
        assert r.distances.kl >= 0.0, (r.epsilon, r.distances.kl)


def test_criterion_6_dimension_robust_rate():
    t0 = time.perf_counter()
    amplitude = 0.5 * 6.0 / math.pi**2  # c_j = amplitude * j^-3, sum|c| < 1
    records, fit = truncation_study(
        amplitude, 3.0, 32,
        [3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4],
        seed=3,
    )
    elapsed = time.perf_counter() - t0
    k_effs = [r.k_eff for r in records]
    n_ok = all(a <= b for a, b in zip(k_effs, k_effs[1:]))
    ok = (fit.slope <= -1.0 and fit.r_squared >= 0.9 and n_ok
          and elapsed < 600)
    _report(6, "dimension-robust algebraic rate at d=32", ok,
            f"slope {fit.slope:.3f}, R2 {fit.r_squared:.4f}, "
            f"k_eff {k_effs[0]}->{k_effs[-1]}, {elapsed:.1f}s")


def test_criterion_7_index_set_correctness():
    rng = _rng(7)
    ok = True
    for _ in range(200):
        k = int(rng.integers(1, 4))
        xi = WeightVector(tuple(rng.uniform(1.2, 5.0, size=k).tolist()))
        eps = float(rng.uniform(0.05, 0.9))
        lam = enumerate_lambda(xi, eps)
        cap = int(math.log(1.0 / eps) / math.log(min(xi.xi))) + 2
        brute = {
            nu
            for nu in itertools.product(range(cap), repeat=k)
            if gamma(xi, nu) >= eps
        }
        from krtransport.polybasis import canon

        brute = {canon(nu) for nu in brute}
        ok = ok and set(lam.members) == brute
        card = len(lam)
        ok = ok and card <= cardinality_bound_simple(xi, eps) + 1e-9
        ok = ok and card <= cardinality_bound_sharp(xi, eps) + 1e-9
    _report(7, "index-set enumeration matches brute force; bounds dominate", ok)


def test_criterion_8_basis_correctness():
    worst = 0.0
    for d in [1, 2, 3]:
        # all multiindices with total degree <= 20 in d dims
        members = [
            nu
            for nu in itertools.product(range(21), repeat=d)
            if sum(nu) <= 20
        ]
        grid = tensor_grid([21] * d)
        pts, w = grid.points_weights()
        tabs = [legendre_table(pts[:, j], 20) for j in range(d)]
        basis = np.empty((len(members), pts.shape[0]))
        for i, nu in enumerate(members):
            row = np.ones(pts.shape[0])
            for j, v in enumerate(nu):
                if v > 0:
                    row = row * tabs[j][:, v]
            basis[i] = row
        gram = basis @ (basis * w).T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(members))))))
    # sampled sup norms never exceed the product bound
    rng = _rng(8)
    sup_ok = True
    pts = rng.uniform(-1, 1, size=(400, 3))
    tabs = [legendre_table(pts[:, j], 8) for j in range(3)]
    for _ in range(50):
        nu = tuple(int(v) for v in rng.integers(0, 9, size=3))
        vals = tabs[0][:, nu[0]] * tabs[1][:, nu[1]] * tabs[2][:, nu[2]]
        sup_ok = sup_ok and float(np.max(np.abs(vals))) <= sup_norm_bound(nu) + 1e-12
    _report(8, "orthonormal basis Gram identity and sup-norm bound",
            worst <= 1e-12 and sup_ok, f"gram dev {worst:.2e}")


def test_criterion_9_stability_bounds():
    rng = _rng(9)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        a = rng.uniform(0.1, 3.0, size=n)
        b = np.maximum(a + rng.uniform(-0.5, 0.5, size=n), 0.02)
        lhs, rhs = det_product_bound(a, b)
        ok = ok and lhs <= rhs + 1e-12
    # integral-difference bound: |int g f dmu - int g h dmu|
    #   <= sqrt(2) H(f,h) (||g||_{L2(f)} + ||g||_{L2(h)})
    grid = uniform_grid(30, 2)
    pts, w = grid.points_weights()
    for _ in range(20):
        cf = rng.uniform(-0.45, 0.45, size=2)
        ch = rng.uniform(-0.45, 0.45, size=2)
        f = linear_density(cf)
        h = linear_density(ch)
        coef = rng.normal(size=3)
        g = coef[0] + coef[1] * pts[:, 0] + coef[2] * pts[:, 0] * pts[:, 1]
        fv, hv = f.evaluate(pts), h.evaluate(pts)
        lhs = abs(float((g * fv) @ w) - float((g * hv) @ w))
        dh = distance_report(f, h, 2, grid).hellinger
        norms = math.sqrt(float((g * g * fv) @ w)) + math.sqrt(
            float((g * g * hv) @ w)
        )
        ok = ok and lhs <= math.sqrt(2.0) * dh * norms + 1e-12
    _report(9, "determinant product bound and Hellinger integral bound", ok)


def test_criterion_10_bitwise_reproducibility():
    pi = linear_density([0.3, 0.2])
    rho = uniform(2)
    xi = xi_from_anisotropy(pi.anisotropy, alpha=0.5)
    eps_list = [1e-1, 1e-2, 1e-3]

    def run():
        records, _ = convergence_study(
            rho, pi, xi, eps_list, seed=42, n_cloud=256,
            distance_grid_order=12,
        )
        return records_to_csv(records).encode()

    ok = run() == run()
    _report(10, "study reruns are bitwise identical", ok)
