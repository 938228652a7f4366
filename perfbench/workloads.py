"""The benchmark's workloads, run against the public API of krtransport.

Every workload is closed-loop and single-process: one caller waits for
each call before making the next. A run has three parts.

1. Set-up (untimed here; ``run.py`` times it in fresh interpreters):
   build the densities, the exact transport and, for ``map_eval_2d``,
   fit the map.
2. The measured part:
   - ``trunc_d32`` and ``posterior_d3`` call their study once;
     ``study_s`` is its wall time and the study's finest map is kept;
   - then, on every workload, sampling batches (``ApproxTransport.forward``)
     alternate with density batches (``pushforward_density`` of the map)
     on points drawn from ``--seed``. The first ``min_batches`` of each
     kind are a fixed job (for ``map_eval_2d`` its time is ``study_s``);
     an untraced run goes on until a deadline ``run.py`` sets.
3. Accuracy and output checks, on points drawn from a fixed seed so that
   accuracy figures do not move with ``--seed``.
"""

import contextlib
import hashlib
import math
import statistics
import time
import traceback

import numpy as np

import krtransport as krt
from krtransport import studies

ACCURACY_SEED = 20_200_612  # fixed on purpose: see the module docstring
ENDPOINT_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10

FULL = {
    "trunc_d32": {
        "amplitude": 0.5 * 6.0 / math.pi**2,
        "s": 3.0,
        "d_max": 32,
        "eps": [3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4],
        "n_eps": [0, 2, 5, 8, 12, 24, 44],
        "rate_slope_max": -0.9,
    },
    "posterior_d3": {
        "A": [[1.0, 0.5, 0.25]],
        "varsigma": [0.3],
        "sigma": 0.5,
        "epsilon": 0.1,
        "n_samples": 2000,
        "alpha": 2.0,
        "distance_grid_order": 15,
        "exact_points": 16,
    },
    "map_eval_2d": {
        "c": [0.3, 0.2],
        "alpha": 0.5,
        "epsilon": 1e-6,
        "n_eps": 104,
    },
    "eval": {"sample_batch": 1000, "density_batch": 100, "min_batches": 200,
             "accuracy_points": 2000},
}

# Small instances of the same workloads, for the harness self-test.
TINY = {
    "trunc_d32": dict(FULL["trunc_d32"], d_max=6, eps=[3e-1, 1e-1, 3e-2, 1e-2],
                      n_eps=[0, 2, 5, 8]),
    "posterior_d3": dict(FULL["posterior_d3"], A=[[1.0, 0.5]], n_samples=500,
                         distance_grid_order=8, exact_points=8),
    "map_eval_2d": dict(FULL["map_eval_2d"], epsilon=1e-2, n_eps=17),
    "eval": {"sample_batch": 50, "density_batch": 10, "min_batches": 6,
             "accuracy_points": 200},
}

SIZES = {"full": FULL, "tiny": TINY}
WORKLOADS = ("trunc_d32", "posterior_d3", "map_eval_2d")


def rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def setup(name, size="full"):
    """Densities, exact transport and (map_eval_2d) the fitted map."""
    spec = SIZES[size][name]
    if name == "trunc_d32":
        c = spec["amplitude"] * np.arange(1, spec["d_max"] + 1,
                                          dtype=np.float64) ** (-spec["s"])
        pi = krt.linear_density(c)
        state = {"pi": pi, "rho": krt.uniform(spec["d_max"]), "mean": c / 3.0}
    elif name == "posterior_d3":
        pi = krt.gaussian_posterior(spec["A"], spec["varsigma"], spec["sigma"])
        state = {"pi": pi, "rho": krt.uniform(pi.d)}
    elif name == "map_eval_2d":
        c = np.asarray(spec["c"], dtype=np.float64)
        pi = krt.linear_density(c)
        rho = krt.uniform(len(c))
        exact = krt.ExactTransport(reference=rho, target=pi)
        xi = krt.xi_from_anisotropy(pi.anisotropy, spec["alpha"])
        tmap = krt.build_approx_transport(rho, pi, xi, spec["epsilon"], exact=exact)
        # warm-up: first calls of the sampling and density paths
        x = rng(0).uniform(-1.0, 1.0, size=(8, len(c)))
        tmap.forward(x)
        krt.pushforward_density(tmap, rho, x)
        state = {"pi": pi, "rho": rho, "exact": exact, "tmap": tmap,
                 "mean": c / 3.0}
    else:
        raise ValueError(f"unknown workload {name!r}")
    if "exact" not in state:
        state["exact"] = krt.ExactTransport(reference=state["rho"],
                                            target=state["pi"])
    return state


@contextlib.contextmanager
def keep_fitted_maps(out):
    """Append every map the studies build to ``out`` (a pass-through)."""
    build = studies.build_approx_transport

    def keep(*args, **kwargs):
        tmap = build(*args, **kwargs)
        out.append(tmap)
        return tmap

    studies.build_approx_transport = keep
    try:
        yield
    finally:
        studies.build_approx_transport = build


def run_study(name, spec):
    """Call the workload's study; returns (finest fitted map, study result)."""
    maps = []
    with keep_fitted_maps(maps):
        if name == "trunc_d32":
            result = krt.truncation_study(
                spec["amplitude"], spec["s"], spec["d_max"], spec["eps"],
                clock=time.perf_counter)
        else:
            result = krt.posterior_demo(
                spec["A"], spec["varsigma"], spec["sigma"], spec["epsilon"],
                n_samples=spec["n_samples"], alpha=spec["alpha"],
                distance_grid_order=spec["distance_grid_order"])
    return maps[-1], result


class Batches:
    """Sampling and density batches on a fitted map, with their checks."""

    def __init__(self, tmap, rho, ev, seed, span):
        self.tmap, self.rho, self.ev = tmap, rho, ev
        self.rng = rng(seed)
        self.span = span
        self.inputs = hashlib.sha256()
        self.sample_s, self.density_s = [], []
        self.attempted = self.failed = 0
        self.errors = []

    def _one(self, kind, npts, fn, ok):
        x = self.rng.uniform(-1.0, 1.0, size=(npts, self.tmap.d))
        self.inputs.update(x.tobytes())
        self.attempted += 1
        try:
            with self.span(f"bench.{kind}_batch"):
                t0 = time.perf_counter()
                out = fn(x)
                dt = time.perf_counter() - t0
        except Exception:  # a failed call counts toward fail_frac
            self.failed += 1
            self.errors.append(traceback.format_exc(limit=3))
            return
        if not ok(out):
            self.failed += 1
            self.errors.append(f"{kind} batch {self.attempted}: output check failed")
            return
        (self.sample_s if kind == "sample" else self.density_s).append(dt)

    def pair(self):
        self._one("sample", self.ev["sample_batch"], self.tmap.forward,
                  lambda y: bool(np.all(np.isfinite(y)) and np.all(np.abs(y) <= 1.0)))
        self._one("density", self.ev["density_batch"],
                  lambda y: krt.pushforward_density(self.tmap, self.rho, y),
                  lambda q: bool(np.all(np.isfinite(q)) and np.all(q > 0.0)))

    def run(self, deadline=None):
        """The fixed job; then, given a deadline, more pairs until it passes.

        Returns the seconds the fixed job's batches took.
        """
        for _ in range(self.ev["min_batches"]):
            self.pair()
        job_s = sum(self.sample_s) + sum(self.density_s)
        self.inputs_sha256 = self.inputs.hexdigest()  # of the fixed job only
        while deadline is not None and time.perf_counter() < deadline:
            self.pair()
        return job_s

    def metrics(self):
        ev = self.ev
        out = {}
        for kind, times, npts in (("sample", self.sample_s, ev["sample_batch"]),
                                  ("density", self.density_s, ev["density_batch"])):
            if len(times) < 2:
                raise RuntimeError(f"too few successful {kind} batches")
            out[f"{kind}_pts_per_s"] = npts * len(times) / sum(times)
            out[f"{kind}_batch_p50_ms"] = 1e3 * statistics.median(times)
            out[f"{kind}_batch_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[8]
        return out


def _check(checks, name, ok, value=None):
    checks.append({"name": name, "ok": bool(ok), "value": value})


def accuracy(name, spec, ev, state, tmap, result):
    """Accuracy metrics and output checks, on fixed-seed points.

    Returns (accuracy, extras, checks): accuracy holds the end-to-end
    accuracy metrics, extras the printed-only figures.
    """
    d = tmap.d
    pts = rng(ACCURACY_SEED).uniform(-1.0, 1.0, size=(ev["accuracy_points"], d))
    pi, rho, exact = state["pi"], state["rho"], state["exact"]
    checks = []
    acc, extras = {}, {}

    # exactness of the construction: endpoints pinned, inverse consistent
    end_err = 0.0
    for k in range(1, d + 1):
        for s in (-1.0, 1.0):
            x = np.concatenate([pts[:64, : k - 1], np.full((64, 1), s)], axis=1)
            end_err = max(end_err, float(np.max(np.abs(tmap.component(k, x) - s))))
    _check(checks, "endpoints_map_to_pm1", end_err <= ENDPOINT_TOL, end_err)
    roundtrip = float(np.max(np.abs(tmap.forward(tmap.inverse(pts)) - pts)))
    extras["roundtrip_err"] = roundtrip
    _check(checks, "roundtrip_err<=1e-10", roundtrip <= ROUNDTRIP_TOL, roundtrip)

    if name == "posterior_d3":
        m = spec["exact_points"]
        acc["sup_err_T"] = float(np.max(np.abs(exact.forward(pts[:m])
                                               - tmap.forward(pts[:m]))))
        acc["hellinger"] = float(result.distances.hellinger)
        acc["mean_err"] = float(np.max(np.abs(np.subtract(result.sample_mean,
                                                          result.quadrature_mean))))
        bound = 3.0 / math.sqrt(spec["n_samples"])
        _check(checks, "mean_err<=3/sqrt(n)", acc["mean_err"] <= bound, acc["mean_err"])
        _check(checks, "samples_in_cube",
               bool(np.all(np.isfinite(result.samples))
                    and np.all(np.abs(result.samples) <= 1.0)))
    else:
        if name == "trunc_d32":
            records, fit = result
            acc["sup_err_T"] = float(records[-1].sup_err_T)
            extras["rate_slope"] = float(fit.slope)
            extras["eps_wall_s"] = [r.wall_ms / 1e3 for r in records]
            k_eff = [r.k_eff for r in records]
            n_eps = [r.n_eps for r in records]
            _check(checks, "k_eff_nondecreasing",
                   all(a <= b for a, b in zip(k_eff, k_eff[1:])), k_eff)
            _check(checks, "N_eps_sequence", n_eps == spec["n_eps"], n_eps)
            _check(checks, "rate_slope", fit.slope <= spec["rate_slope_max"], fit.slope)
        else:
            acc["sup_err_T"] = float(np.max(np.abs(exact.forward(pts)
                                                   - tmap.forward(pts))))
            _check(checks, "N_eps", tmap.n_eps == spec["n_eps"], tmap.n_eps)
        # Hellinger by Monte Carlo on the fixed points; the mean of the
        # samples Tt(x) against the closed form E[y_j] = c_j / 3
        q = krt.pushforward_density(tmap, rho, pts)
        diff = np.sqrt(q) - np.sqrt(pi.evaluate(pts))
        acc["hellinger"] = float(np.sqrt(0.5 * np.mean(diff * diff)))
        y = tmap.forward(pts)
        acc["mean_err"] = float(np.max(np.abs(y.mean(axis=0) - state["mean"])))
        _check(checks, "samples_in_cube",
               bool(np.all(np.isfinite(y)) and np.all(np.abs(y) <= 1.0)))
    for key, value in acc.items():
        _check(checks, f"{key}_finite_positive", math.isfinite(value) and value > 0, value)
    return acc, extras, checks
