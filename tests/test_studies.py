"""Study drivers: rate fitting, sweep records, determinism, posterior demo."""

import math

import numpy as np
import pytest

from krtransport import approx as approx_module
from krtransport import studies
from krtransport.approx import build_approx_transport
from krtransport.density import conditional, linear_density, uniform
from krtransport.indexsets import IndexSet, xi_from_anisotropy
from krtransport.polybasis import zero_polynomial
from krtransport.studies import (
    CSV_HEADER,
    RateFit,
    SweepRecord,
    component_sup_errors,
    convergence_study,
    fit_rate,
    posterior_demo,
    records_to_csv,
    rng_from_seed,
    truncation_study,
)
from krtransport.transport import ExactTransport


EPS_LIST = [0.1, 0.03, 0.01, 0.003]


def _small_study(eps_list=EPS_LIST, **kw):
    pi = linear_density([0.3, 0.2])
    rho = uniform(2)
    xi = xi_from_anisotropy(pi.anisotropy, 0.5)
    defaults = dict(seed=7, n_cloud=64, distance_grid_order=12)
    defaults.update(kw)
    return convergence_study(rho, pi, xi, eps_list, **defaults)


def test_rng_is_philox():
    g = rng_from_seed(0)
    assert isinstance(g.bit_generator, np.random.Philox)
    assert np.array_equal(g.uniform(size=4), rng_from_seed(0).uniform(size=4))


def test_fit_rate_recovers_exponential():
    n = np.array([4, 9, 16, 25, 36], dtype=float)
    err = np.exp(-2.0 * np.sqrt(n))
    fit = fit_rate(n, err, "exponential", d=2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_recovers_algebraic():
    n = np.array([10, 20, 40, 80], dtype=float)
    err = 5.0 * n**-3.0
    fit = fit_rate(n, err, "algebraic")
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)


def test_fit_rate_degenerate_cases():
    fit = fit_rate([1, 2], [0.1, 0.01], "algebraic")
    assert fit.status == "degenerate"
    fit = fit_rate([1, 2, 3], [0.0, 0.0, 0.0], "algebraic")
    assert fit.status == "degenerate"
    with pytest.raises(ValueError):
        fit_rate([1, 2, 3], [1, 1, 1], "bogus")


def test_component_sup_errors_solves_once_per_k(monkeypatch):
    pi = linear_density([0.3, 0.2])
    rho = uniform(2)
    exact = ExactTransport(reference=rho, target=pi)
    approx = build_approx_transport(rho, pi, xi_from_anisotropy(pi.anisotropy, 0.5),
                                    1e-2, exact=exact)
    pts = rng_from_seed(3).uniform(-1.0, 1.0, size=(32, 2))
    expect = {}
    for k in (1, 2):
        d_t = exact.component(k, pts[:, :k]) - approx.component(k, pts[:, :k])
        d_dt = exact.diag_deriv(k, pts[:, :k]) - approx.diag_deriv(k, pts[:, :k])
        expect[k] = (np.max(np.abs(d_t)), np.max(np.abs(d_dt)))
    solve = ExactTransport._solve
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[-1])
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ExactTransport, "_solve", counted)
    for k in (1, 2):
        assert component_sup_errors(exact, approx, k, pts[:, :k]) == expect[k]
    assert calls == [1, 2]


def test_convergence_study_errors_decrease():
    records, fit = _small_study()
    errs = [r.sup_err_T for r in records]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert fit.model == "exponential"
    assert fit.slope < 0
    assert records[0].k_eff == 2
    assert all(r.wall_ms == 0.0 for r in records)


def test_convergence_study_with_a_non_uniform_reference():
    # rho is linear too, so T is no conditional CDF of pi alone; the sweep
    # reads sup_err_T 2.6e-2 -> 6.1e-7, slope -1.41, R^2 0.9988
    rho, pi = linear_density([0.3, -0.2]), linear_density([0.2, 0.3])
    records, fit = convergence_study(rho, pi, xi_from_anisotropy(pi.anisotropy, 0.5),
                                     [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    assert fit.slope < 0 and fit.r_squared >= 0.99
    assert records[-1].sup_err_T <= 1e-6


def test_convergence_study_distance_consistency():
    records, _ = _small_study()
    for r in records:
        d = r.distances
        assert d is not None
        assert d.hellinger >= 0 and d.tv >= 0 and d.kl >= -1e-12
        # pushforward error controlled by map errors (generous constant)
        assert d.hellinger <= 10.0 * (r.sup_err_T + r.sup_err_dT) + 1e-12


def test_convergence_study_deterministic():
    r1, f1 = _small_study()
    r2, f2 = _small_study()
    assert records_to_csv(r1) == records_to_csv(r2)
    assert f1 == f2


def test_convergence_study_timing_optin():
    import time

    records, _ = _small_study(clock=time.perf_counter)
    assert all(r.wall_ms > 0 for r in records)


def _small_truncation():
    return truncation_study(0.4, 2.0, 6, EPS_LIST, seed=3, n_cloud=64)


def test_csv_format():
    records, _ = _small_truncation()
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(EPS_LIST)
    first = lines[1].split(",")
    assert len(first) == len(CSV_HEADER.split(","))
    assert first[5] == "nan"  # no distances
    # repr round trip
    assert float(first[3]) == records[0].sup_err_T


def test_truncation_study_small():
    records, fit = truncation_study(
        0.4, 2.0, 6, [0.3, 0.1, 0.03, 0.01], seed=3, n_cloud=64
    )
    errs = [r.sup_err_T for r in records]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert fit.model == "algebraic"
    assert records[-1].k_eff <= 6
    assert records[-1].n_eps > records[0].n_eps
    # distances intentionally absent in the truncation sweep
    assert all(r.distances is None for r in records)


def _truncation_records_per_eps(amplitude, s, d_max, eps_list, fit_once=True,
                                seed=0, n_cloud=512):
    """The truncation sweep with the cloud drawn and solved again for each
    epsilon, and each map read through the checked ``component`` and
    ``diag_deriv``: what truncation_study computes once per study. Each
    map is the truncation of one fit at the smallest epsilon or, with
    fit_once=False, a fit of its own."""
    c = amplitude * np.arange(1, d_max + 1, dtype=np.float64) ** (-float(s))
    pi, rho = linear_density(c), uniform(d_max)
    exact = ExactTransport(reference=rho, target=pi)
    xi = xi_from_anisotropy(pi.anisotropy, 1.0)
    fine = build_approx_transport(rho, pi, xi, min(eps_list), exact=exact)
    records = []
    for eps in eps_list:
        if fit_once:
            approx = fine.truncate(eps)
        else:
            approx = build_approx_transport(rho, pi, xi, eps, exact=exact)
        pts = rng_from_seed(seed).uniform(-1.0, 1.0, size=(n_cloud, d_max))
        y, D = exact._solve(rho, pi, pts, d_max)
        agg_t = agg_dt = 0.0
        for k in range(1, d_max + 1):
            d_ex = D[:, k - 1]
            agg_t += float(np.max(np.abs(y[:, k - 1] - approx.component(k, pts[:, :k]))))
            agg_dt += float(np.max(np.abs(d_ex - approx.diag_deriv(k, pts[:, :k]))))
        records.append(studies._record(eps, approx, agg_t, agg_dt, None, 0.0, None))
    return records


def test_truncation_study_solves_reference_once(monkeypatch):
    eps_list = [1e-1, 1e-2, 1e-3]
    expect = records_to_csv(_truncation_records_per_eps(0.3, 2.0, 8, eps_list))
    finest = _truncation_records_per_eps(0.3, 2.0, 8, eps_list, fit_once=False)[-1]
    solve, build = ExactTransport._solve, studies.build_approx_transport
    calls, builds = [], []
    fitting = [False]

    def counted(self, src, dst, x, kmax, **kwargs):
        if not fitting[0]:
            calls.append((x.shape, kmax))
        return solve(self, src, dst, x, kmax, **kwargs)

    def uncounted_build(*args, **kwargs):
        # the fit solves on its projection grids; only the study's own
        # reference solves are counted
        builds.append(args[3])
        fitting[0] = True
        try:
            return build(*args, **kwargs)
        finally:
            fitting[0] = False

    monkeypatch.setattr(ExactTransport, "_solve", counted)
    monkeypatch.setattr(studies, "build_approx_transport", uncounted_build)
    for n in (1, len(eps_list)):
        calls.clear()
        builds.clear()
        records, _ = truncation_study(0.3, 2.0, 8, eps_list[:n])
        assert calls == [((512, 8), 8)]
        assert builds == [eps_list[n - 1]]
    # the shared reference and the one-pass scoring leave every record
    # bitwise unchanged, and the finest record is that of its own fit
    assert records_to_csv(records) == expect
    assert records[-1] == finest


def test_convergence_study_fits_once(monkeypatch):
    build = studies.build_approx_transport
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[3])
        return build(*args, **kwargs)

    monkeypatch.setattr(studies, "build_approx_transport", counted)
    records, _ = _small_study()
    assert builds == [min(EPS_LIST)]
    # the finest record is that of a sweep over the finest epsilon alone
    assert records[-1] == _small_study([EPS_LIST[-1]])[0][0]


def test_study_samples_the_nodes_the_fit_projected_on(monkeypatch):
    # b is not monotone, so the inactive dimensions that get 3 nodes
    # (xi_j^-2 >= eps) are not a prefix: 11 * 3^5 nodes
    b = [0.1, 0.3, 0.05, 0.2, 0.02, 0.25, 0.01, 0.15, 0.04, 0.3, 0.2]
    xi = xi_from_anisotropy(b, 0.3)
    exact = ExactTransport(uniform(11), linear_density(0.5 * np.array(b)))
    lam = IndexSet(k=11, epsilon=0.1, members=((), (0,) * 10 + (1,)))
    grids = []

    def record(target, index_set, grid):
        grids.append(grid)
        return zero_polynomial(index_set.k)

    monkeypatch.setattr(approx_module, "project", record)
    comp = approx_module.fit_component(exact, 11, lam, xi)
    fit_nodes, _ = grids[0].points_weights()
    assert fit_nodes.shape == (2_673, 11)
    pts = studies._sample_points(rng_from_seed(0), xi, 5, comp)
    assert np.array_equal(pts[5:], fit_nodes)


def test_one_solve_gives_every_diagonal_derivative():
    # the studies read the exact derivatives off one solve; the closed form
    # f_ref;k / f_tar;k of density.conditional stays an independent check
    c = 0.3 * np.arange(1, 9, dtype=np.float64) ** -2.0
    pi, rho = linear_density(c), uniform(8)
    exact = ExactTransport(reference=rho, target=pi)
    pts = rng_from_seed(4).uniform(-1.0, 1.0, size=(64, 8))
    y, D = exact._solve(rho, pi, pts, 8)
    for k in range(1, 9):
        assert np.array_equal(D[:, k - 1], exact.diag_deriv(k, pts[:, :k]))
        closed = conditional(rho, k, pts[:, :k]) / conditional(pi, k, y[:, :k])
        assert np.max(np.abs(D[:, k - 1] - closed) / closed) <= 1e-13


def test_posterior_demo_runs_and_matches_mean():
    report = posterior_demo(
        [[1.0, 0.5]], [0.3], 0.8, epsilon=1e-3, n_samples=4000, seed=5,
        distance_grid_order=12,
    )
    assert report.n_eps > 0
    assert report.distances.hellinger < 1e-2
    for sm, qm in zip(report.sample_mean, report.quadrature_mean):
        # Monte Carlo tolerance ~ 3/sqrt(n)
        assert abs(sm - qm) < 0.05
    assert report.samples.shape == (4000, 2)
    assert np.all(np.abs(report.samples) <= 1.0)


def test_posterior_demo_dimension_guard():
    with pytest.raises(ValueError):
        posterior_demo(np.ones((1, 6)), [0.0], 1.0, epsilon=0.1)


def test_sweep_record_json():
    records, _ = _small_truncation()
    j = records[0].to_json()
    assert j["N_eps"] == records[0].n_eps
    assert j["distances"] is None
