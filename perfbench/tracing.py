"""In-process tracing of krtransport's layers, from outside the package.

A ``Tracer`` replaces public functions and methods of the package by
wrappers that record a span (name, start, end, parent) and a few counters
per call, and puts the originals back on ``close()``. Functions that
modules import by name (``approx`` imports ``invert_monotone``,
``polybasis`` imports the kernels, ...) are replaced at every importing
module's attribute, so the package's own calls go through the wrappers.
Nothing in the package is edited and the wrappers do no arithmetic on the
values passed through, so a traced run computes bitwise the same results.

Spans are kept in memory; ``summary()`` derives per-layer metrics from
them and ``dump()`` writes them out at the end of a run. Self time is a
span's duration minus the durations of its children; calls are
single-threaded and nested, so children never overlap.
"""

import contextlib
import dataclasses
import json
import time

import numpy as np

import krtransport
from krtransport import (
    approx,
    density,
    indexsets,
    kernels,
    metrics,
    polybasis,
    quadrature,
    studies,
    transport,
)

LAYERS = ("transport", "density", "approx", "polybasis", "kernels", "metrics",
          "indexsets", "studies", "bench")

# (name, unit) of every per-layer metric ``summary()`` returns.
PER_LAYER_METRICS = [
    ("transport.conditional_cdf.calls", "count"),
    ("transport.conditional_cdf.points", "count"),
    ("transport.conditional_cdf.self_s", "s"),
    ("transport.invert_monotone.calls", "count"),
    ("transport.invert_monotone.points", "count"),
    ("transport.invert_monotone.F_evals", "count"),
    ("transport.invert_monotone.unconverged", "count"),
    ("transport.invert_monotone.self_s", "s"),
    ("transport.exact.points", "count"),
    ("transport.exact.self_s", "s"),
    ("density.marginal_hat.calls", "count"),
    ("density.marginal_hat.points", "count"),
    ("density.marginal_hat.self_s", "s"),
    ("density.conditional.points", "count"),
    ("density.conditional.self_s", "s"),
    ("density.evaluate.points", "count"),
    ("approx.fit_component.calls", "count"),
    ("approx.fit_component.self_s", "s"),
    ("approx.fit_component.grid_nodes", "count"),
    ("approx.fit_component.deriv_clamps", "count"),
    ("approx.component_eval.points", "count"),
    ("approx.component_eval.self_s", "s"),
    ("approx.component_invert.points", "count"),
    ("approx.component_invert.self_s", "s"),
    ("approx.normalization.points", "count"),
    ("approx.normalization.self_s", "s"),
    ("approx.component_deriv.points", "count"),
    ("approx.component_deriv.self_s", "s"),
    ("polybasis.project.calls", "count"),
    ("polybasis.project.nodes", "count"),
    ("polybasis.project.terms", "count"),
    ("polybasis.project.self_s", "s"),
    ("polybasis.eval.calls", "count"),
    ("polybasis.eval.points", "count"),
    ("polybasis.eval.terms", "count"),
    ("polybasis.eval.self_s", "s"),
    ("kernels.legendre_table.calls", "count"),
    ("kernels.legendre_table.points", "count"),
    ("kernels.legendre_table.self_s", "s"),
    ("kernels.legendre_table.bytes", "B"),
    ("kernels.poly_eval_tables.calls", "count"),
    ("kernels.poly_eval_tables.points", "count"),
    ("kernels.poly_eval_tables.flops", "flop"),
    ("kernels.poly_eval_tables.bytes", "B"),
    ("kernels.poly_eval_tables.self_s", "s"),
    ("quadrature.gauss_legendre.hits", "count"),
    ("quadrature.gauss_legendre.misses", "count"),
    ("quadrature.tensor_grid.nodes", "count"),
    ("quadrature.prefix_share", "frac"),
    ("metrics.distance_report.calls", "count"),
    ("metrics.distance_report.grid_points", "count"),
    ("metrics.distance_report.self_s", "s"),
    ("indexsets.enumerate_lambda.calls", "count"),
    ("indexsets.enumerate_lambda.members", "count"),
    ("indexsets.enumerate_lambda.self_s", "s"),
    ("studies.eps_wall_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.spans", "count"),
    ("trace.overhead_frac", "frac"),
]


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _rows(a):
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _size(a):
    return int(np.size(a))


class Tracer:
    """Records spans and counters for the package's public calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}
        self.recording = False
        self.extra_overhead_s = 0.0  # measured cost of the costlier hooks
        self._saved = []
        self._wrapped = {}
        self._targets = []  # sqrt_shift_target closures, for clamp_count
        self._gl_start = None
        self._gl = {"hits": 0, "misses": 0}
        self._prefix = [0, 0]  # repeated prefixes, exact-transport points
        self._install()

    # -- bookkeeping -------------------------------------------------------
    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def record(self):
        """Record spans and counters for the calls made inside the block."""
        prev = self.recording
        if not prev:
            self._gl_start = quadrature.gauss_legendre.cache_info()
        self.recording = True
        try:
            yield
        finally:
            self.recording = prev
            if not prev:
                info = quadrature.gauss_legendre.cache_info()
                self._gl["hits"] += info.hits - self._gl_start.hits
                self._gl["misses"] += info.misses - self._gl_start.misses

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced (for checks the benchmark itself makes)."""
        prev = self.recording
        self.recording = False
        start = quadrature.gauss_legendre.cache_info()
        try:
            yield
        finally:
            self.recording = prev
            if prev:
                info = quadrature.gauss_legendre.cache_info()
                self._gl["hits"] -= info.hits - start.hits
                self._gl["misses"] -= info.misses - start.misses

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code (a root of the tree)."""
        if not self.recording:
            yield
            return
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, out) updates counters."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owners, attr, make):
        """Replace owner.attr for each owner that holds the same object."""
        original = getattr(owners[0], attr)
        if original not in self._wrapped:
            self._wrapped[original] = make(original)
        for owner in owners:
            if getattr(owner, attr, None) is original:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapped[original])

    def close(self):
        """Put every replaced attribute back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- the wrapped layers ------------------------------------------------
    def _install(self):
        pkg = krtransport
        add = self.add

        # transport
        def ccdf_after(args, kwargs, out):
            add("transport.conditional_cdf.points", _size(_arg(args, kwargs, 4, "t")))

        self._patch([transport.ExactTransport], "conditional_cdf",
                    lambda f: self.wrap("transport.conditional_cdf", f, ccdf_after))

        for meth, xi in (("forward", 1), ("component", 2), ("diag_deriv", 2)):
            self._patch([transport.ExactTransport], meth,
                        lambda f, xi=xi: self._exact_wrapper(f, xi))

        self._patch([transport, approx, pkg], "invert_monotone",
                    self._invert_wrapper)

        # density: marginals, conditionals and the evaluators of the
        # densities the factories build
        def rows_after(key, i, name):
            return lambda args, kwargs, out: add(key, _rows(_arg(args, kwargs, i, name)))

        self._patch([density, transport, pkg], "marginal_hat",
                    lambda f: self.wrap("density.marginal_hat", f,
                                        rows_after("density.marginal_hat.points", 2, "x")))
        self._patch([density, transport, studies, pkg], "conditional",
                    lambda f: self.wrap("density.conditional", f,
                                        rows_after("density.conditional.points", 2, "x")))
        for factory in ("uniform", "linear_density", "gaussian_posterior"):
            self._patch([density, studies, pkg], factory, self._density_factory)

        # approx
        self._patch([approx, studies, pkg], "fit_component",
                    lambda f: self.wrap("approx.fit_component", f))
        self._patch([approx], "sqrt_shift_target", self._target_factory)
        rc = approx.RationalComponent
        self._patch([rc], "eval", lambda f: self.wrap(
            "approx.component_eval", f, rows_after("approx.component_eval.points", 1, "x")))
        self._patch([rc], "deriv", lambda f: self.wrap(
            "approx.component_deriv", f, rows_after("approx.component_deriv.points", 1, "x")))
        self._patch([rc], "normalization", lambda f: self.wrap(
            "approx.normalization", f, rows_after("approx.normalization.points", 1, "prefix")))

        def invert_after(args, kwargs, out):
            add("approx.component_invert.points", _size(_arg(args, kwargs, 2, "y")))

        self._patch([rc], "invert",
                    lambda f: self.wrap("approx.component_invert", f, invert_after))

        # polybasis
        def project_after(args, kwargs, out):
            nodes = _arg(args, kwargs, 2, "grid").size
            add("polybasis.project.nodes", nodes)
            add("polybasis.project.terms", len(_arg(args, kwargs, 1, "index_set").members))
            if self._parent_name() == "approx.fit_component":
                add("approx.fit_component.grid_nodes", nodes)

        self._patch([polybasis, approx, pkg], "project",
                    lambda f: self.wrap("polybasis.project", f, project_after))

        def eval_after(args, kwargs, out):
            add("polybasis.eval.points", _rows(args[1]))
            add("polybasis.eval.terms", len(args[0].terms))

        self._patch([polybasis.SparsePolynomial], "_eval_batch",
                    lambda f: self.wrap("polybasis.eval", f, eval_after))

        # kernels: operations and bytes are computed from the array shapes
        # (bytes: each input read once, the output written once)
        def legendre_after(args, kwargs, out):
            x = np.asarray(_arg(args, kwargs, 0, "x"))
            add("kernels.legendre_table.points", x.shape[0])
            add("kernels.legendre_table.bytes", 8 * x.shape[0] + out.nbytes)

        def poly_after(args, kwargs, out):
            tables = _arg(args, kwargs, 0, "tables")
            exps = np.asarray(_arg(args, kwargs, 1, "exps"))
            coeffs = np.asarray(_arg(args, kwargs, 2, "coeffs"))
            npts = tables.shape[0]
            add("kernels.poly_eval_tables.points", npts)
            # one multiply per nonzero exponent and one add per term
            add("kernels.poly_eval_tables.flops",
                npts * (int(np.count_nonzero(exps)) + exps.shape[0]))
            add("kernels.poly_eval_tables.bytes",
                tables.nbytes + exps.nbytes + coeffs.nbytes + out.nbytes)

        self._patch([polybasis, kernels], "legendre_table",
                    lambda f: self.wrap("kernels.legendre_table", f, legendre_after))
        self._patch([polybasis, kernels], "poly_eval_tables",
                    lambda f: self.wrap("kernels.poly_eval_tables", f, poly_after))

        # quadrature: grid sizes only; gauss_legendre is read through
        # cache_info() since wrapping it would hide its cache
        def grid_counter(f):
            def tensor_grid(orders):
                out = f(orders)
                if self.recording:
                    add("quadrature.tensor_grid.nodes", out.size)
                return out
            return tensor_grid

        self._patch([quadrature, approx, polybasis, metrics, pkg], "tensor_grid",
                    grid_counter)

        # metrics and indexsets
        def dist_after(args, kwargs, out):
            add("metrics.distance_report.grid_points", _arg(args, kwargs, 3, "grid").size)

        self._patch([metrics, pkg], "distance_report",
                    lambda f: self.wrap("metrics.distance_report", f, dist_after))

        def lam_after(args, kwargs, out):
            add("indexsets.enumerate_lambda.members", len(out.members))

        self._patch([indexsets, approx, studies, pkg], "enumerate_lambda",
                    lambda f: self.wrap("indexsets.enumerate_lambda", f, lam_after))

    def _exact_wrapper(self, f, xi):
        """ExactTransport.forward/component/diag_deriv, with prefix sharing."""
        def after(args, kwargs, out):
            t0 = time.perf_counter()
            x = np.atleast_2d(np.asarray(args[xi], dtype=np.float64))
            if xi == 2:
                x = x[:, : args[1]]
            m = x.shape[0]
            prefix = np.ascontiguousarray(x[:, :-1])
            if prefix.shape[1] == 0:
                unique = 1
            else:
                rows = prefix.view(np.dtype((np.void, prefix.dtype.itemsize
                                             * prefix.shape[1]))).ravel()
                unique = len(np.unique(rows))
            self.add("transport.exact.points", m)
            self._prefix[0] += m - unique
            self._prefix[1] += m
            self.extra_overhead_s += time.perf_counter() - t0

        return self.wrap("transport.exact", f, after)

    def _invert_wrapper(self, f):
        """invert_monotone: counts F evaluations and unconverged roots.

        The residual |F(t) - y| of every returned root is evaluated again
        with tracing paused; roots above the solver's tolerance count as
        unconverged.
        """
        tracer = self
        wrapped = self.wrap("transport.invert_monotone", f)

        def invert_monotone(F, y, *args, **kwargs):
            if not tracer.recording:
                return f(F, y, *args, **kwargs)

            def F_counted(t):
                tracer.add("transport.invert_monotone.F_evals", _size(t))
                return F(t)

            t = wrapped(F_counted, y, *args, **kwargs)
            t0 = time.perf_counter()
            tol = kwargs.get("tol", args[3] if len(args) > 3
                             else transport.DEFAULT_ROOT_TOL)
            with tracer.paused():
                resid = np.abs(np.asarray(F(t), dtype=np.float64)
                               - np.atleast_1d(np.asarray(y, dtype=np.float64)))
            tracer.add("transport.invert_monotone.points", _size(y))
            tracer.add("transport.invert_monotone.unconverged",
                       int(np.count_nonzero(~(resid <= tol))))
            tracer.extra_overhead_s += time.perf_counter() - t0
            return t

        invert_monotone.__wrapped__ = f
        return invert_monotone

    def _density_factory(self, factory):
        tracer = self

        def build(*args, **kwargs):
            dens = factory(*args, **kwargs)
            evaluate = dens.evaluate

            def counted(x):
                if tracer.recording:
                    tracer.add("density.evaluate.points", x.shape[0])
                return evaluate(x)

            return dataclasses.replace(dens, evaluate=counted)

        build.__wrapped__ = factory
        return build

    def _target_factory(self, make):
        def sqrt_shift_target(*args, **kwargs):
            target = make(*args, **kwargs)
            if self.recording:
                self._targets.append(target)
            return target

        sqrt_shift_target.__wrapped__ = make
        return sqrt_shift_target

    # -- results -----------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the children's durations."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for s, d in zip(self.spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        return dur - child

    def per_span_cost(self, n=4000):
        """Measured cost of one wrapped call over a bare call, in seconds."""
        def noop():
            return None

        wrapped = self.wrap("trace.calibration", noop)
        keep = len(self.spans)
        with self.record():
            t0 = time.perf_counter()
            for _ in range(n):
                noop()
            bare = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            traced = time.perf_counter() - t0
        del self.spans[keep:]
        return max(traced - bare, 0.0) / n

    def self_by_name(self):
        """{span name: (calls, total self seconds)}."""
        out = {}
        for s, st in zip(self.spans, self.self_times()):
            calls, total = out.get(s[0], (0, 0.0))
            out[s[0]] = (calls + 1, total + float(st))
        return out

    def summary(self, traced_wall_s, eps_wall_s=0.0):
        """Every metric of PER_LAYER_METRICS, as {name: value}."""
        out = {name: 0 for name, _ in PER_LAYER_METRICS}
        out.update(self.counters)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for name, (calls, total) in self.self_by_name().items():
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = calls
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = total
            out[f"{name.split('.')[0]}.self_s"] += total
        out["approx.fit_component.deriv_clamps"] = sum(
            int(t.clamp_count) for t in self._targets)
        out["quadrature.gauss_legendre.hits"] = self._gl["hits"]
        out["quadrature.gauss_legendre.misses"] = self._gl["misses"]
        out["quadrature.prefix_share"] = (
            self._prefix[0] / self._prefix[1] if self._prefix[1] else 0.0)
        out["studies.eps_wall_s"] = float(eps_wall_s)
        out["trace.spans"] = len(self.spans)
        overhead = len(self.spans) * self.per_span_cost() + self.extra_overhead_s
        out["trace.overhead_frac"] = overhead / max(traced_wall_s - overhead, 1e-12)
        return out

    def layer_shares(self):
        """{layer: share of all self time}, largest first."""
        acc = {}
        for name, (_, total) in self.self_by_name().items():
            layer = name.split(".")[0]
            acc[layer] = acc.get(layer, 0.0) + total
        grand = sum(acc.values()) or 1.0
        return dict(sorted(((k, v / grand) for k, v in acc.items()),
                           key=lambda kv: -kv[1]))

    def dominant_span(self):
        """(span name, self seconds) of the name with the largest self time."""
        totals = [(name, total) for name, (_, total) in self.self_by_name().items()]
        return max(totals, key=lambda kv: kv[1]) if totals else (None, 0.0)

    def dump(self, path):
        """Write the spans as {names, spans: [[name id, start, end, parent]]}."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
