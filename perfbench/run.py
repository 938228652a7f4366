"""krtransport benchmark: one workload per run, metrics as a JSON last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trunc_d32 --seed 1 --seconds 20 --trace 0

Workloads: trunc_d32, posterior_d3, map_eval_2d (see workloads.py).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload with every layer wrapped (tracing.py) and reports the per-layer
metrics. Human-readable lines come first; the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. A detailed
record (provenance, checks, trace summary, spans) goes to ``--out``.
The exit code is 0 only if every output check passed.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_THREADS = "1"  # single-process, closed loop: one BLAS thread
SETUP_PROBES = {"full": 7, "tiny": 2}

E2E_UNITS = {
    "setup_s": "s",
    "study_s": "s",
    "sample_batch_p90_ms": "ms",
    "density_batch_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sup_err_T": "1",
    "hellinger": "1",
    "mean_err": "1",
}
# Printed and recorded, not in the result line (see README.md).
PRINTED_UNITS = {
    "sample_pts_per_s": "1/s",
    "sample_batch_p50_ms": "ms",
    "density_pts_per_s": "1/s",
    "density_batch_p50_ms": "ms",
    "roundtrip_err": "1",
    "rate_slope": "1",
    "eps_wall_s": "s",
}


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _import_package():
    """Import krtransport from this checkout's src/, or raise SystemExit(2)."""
    if not (SRC / "krtransport" / "__init__.py").is_file():
        print(f"error: no krtransport package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import krtransport

    if not Path(krtransport.__file__).resolve().is_relative_to(SRC):
        print(f"error: krtransport imported from {krtransport.__file__}",
              file=sys.stderr)
        raise SystemExit(2)
    return krtransport


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "krtransport").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args):
    import numpy as np
    from krtransport import kernels

    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "blas_threads": {v: os.environ.get(v) for v in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        },
        "software": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "numba_enabled": bool(kernels.NUMBA_ENABLED),
            "KRT_NO_NUMBA": os.environ.get("KRT_NO_NUMBA"),
        },
        "run": {
            "git_commit": _git_commit(),
            "src_sha256": _source_digest(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
        },
    }


def measure_setup(workload, size):
    """Median set-up time over fresh interpreters (import included)."""
    times = []
    for _ in range(SETUP_PROBES[size]):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--size", size],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def setup_probe(args):
    t0 = time.perf_counter()
    _import_package()
    import workloads

    workloads.setup(args.workload, args.size)
    print(repr(time.perf_counter() - t0))
    return 0


def run(args):
    import workloads

    spec_all = workloads.SIZES[args.size]
    spec, ev = spec_all[args.workload], spec_all["eval"]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()  # installed before set-up: densities count too
    record_ctx = tracer.record if tracer else contextlib.nullcontext
    paused_ctx = tracer.paused if tracer else contextlib.nullcontext
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    detail = {"provenance": provenance(args)}
    if not args.trace:
        setup_s, probes = measure_setup(args.workload, args.size)
        detail["setup_probes_s"] = probes
    state = workloads.setup(args.workload, args.size)

    attempted = failed = 0
    errors = []
    metrics = {}
    t_start = time.perf_counter()
    tmap, result = state.get("tmap"), None
    with record_ctx():
        if args.workload != "map_eval_2d":
            attempted += 1
            try:
                with span(f"studies.{args.workload}"):
                    t0 = time.perf_counter()
                    tmap, result = workloads.run_study(args.workload, spec)
                    metrics["study_s"] = time.perf_counter() - t0
            except Exception as exc:  # counted; nothing left to measure
                failed += 1
                errors.append(f"study failed: {exc!r}")
        if tmap is not None:
            # batches fill the run, and get at least half of it after a study
            deadline = None if args.trace else max(
                t_start + args.seconds, time.perf_counter() + args.seconds / 2)
            batches = workloads.Batches(tmap, state["rho"], ev, args.seed, span)
            job_s = batches.run(deadline)
            if args.workload == "map_eval_2d":
                metrics["study_s"] = job_s
    measured_wall = time.perf_counter() - t_start

    checks = []
    if tmap is not None:
        attempted += batches.attempted
        failed += batches.failed
        errors += batches.errors
        detail["batches"] = {"sample": len(batches.sample_s),
                             "density": len(batches.density_s),
                             "inputs_sha256": batches.inputs_sha256,
                             "sample_s": batches.sample_s,
                             "density_s": batches.density_s}
        with paused_ctx():
            try:
                acc, extras, checks = workloads.accuracy(
                    args.workload, spec, ev, state, tmap, result)
            except Exception as exc:
                acc, extras = {}, {}
                checks = [{"name": "accuracy", "ok": False, "value": repr(exc)}]
        metrics.update(acc)
        detail["extras"] = extras
        if not args.trace:
            for key, value in batches.metrics().items():
                (metrics if key in E2E_UNITS else extras)[key] = value
    attempted += len(checks)
    failed += sum(not c["ok"] for c in checks)
    detail["checks"] = checks
    detail["errors"] = errors
    detail["accuracy"] = {k: metrics[k] for k in ("sup_err_T", "hellinger", "mean_err")
                          if k in metrics}

    if args.trace:
        eps_walls = detail.get("extras", {}).get("eps_wall_s", [])
        out = tracer.summary(measured_wall, eps_walls[-1] if eps_walls else 0.0)
        units = dict(tracing.PER_LAYER_METRICS)
        detail["counters"] = {k: v for k, v in out.items() if not k.endswith("_s")
                              and not k.startswith("trace.")}
        detail["min_self_s"] = float(min(tracer.self_times(), default=0.0))
        detail["layer_shares"] = tracer.layer_shares()
        detail["dominant_span"] = tracer.dominant_span()
        detail["stress"] = stress_checks(args.workload, tracer, out)
        tracer.close()
        reported = {k: {"value": v, "unit": units[k]} for k, v in out.items()}
    else:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reported = {k: {"value": metrics[k], "unit": E2E_UNITS[k]}
                    for k in E2E_UNITS if k in metrics}
    correct = failed == 0 and len(reported) == (
        len(units) if args.trace else len(E2E_UNITS))
    detail["metrics"] = {k: v["value"] for k, v in reported.items()}
    detail["correct"] = correct

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(args.out / f"{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    if args.trace:
        tracer.dump(args.out / f"{stem}-spans.json")

    report(args, detail, reported, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


def stress_checks(workload, tracer, out):
    """Whether the traced run stresses the layers the workload is meant to."""
    shares = tracer.layer_shares()
    name, _ = tracer.dominant_span()
    res = {"dominant_layer": next(iter(shares), None), "dominant_span": name}
    if workload == "trunc_d32":
        res["transport_largest_layer"] = res["dominant_layer"] == "transport"
    elif workload == "posterior_d3":
        res["marginal_hat_largest_span"] = name == "density.marginal_hat"
    else:
        stack = sum(shares.get(k, 0.0) for k in ("approx", "polybasis", "kernels"))
        res["approx_polybasis_kernels_share"] = stack
        res["approx_polybasis_kernels_over_80pct"] = stack > 0.8
        res["no_exact_transport"] = (out["transport.conditional_cdf.points"] == 0
                                     and out["transport.exact.points"] == 0)
        res["invert_only_under_component_invert"] = all(
            s[3] >= 0 and tracer.spans[s[3]][0] == "approx.component_invert"
            for s in tracer.spans if s[0] == "transport.invert_monotone")
    return res


def report(args, detail, reported, attempted, failed):
    prov = detail["provenance"]
    m, s = prov["machine"], prov["software"]
    print(f"# krtransport benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print(f"# nproc={m['nproc']} cpu={m['cpu_model']!r} blas_threads={BLAS_THREADS} "
          f"python={s['python']} numpy={s['numpy']} numba={s['numba_importable']} "
          f"KRT_NO_NUMBA={s['KRT_NO_NUMBA']} commit={prov['run']['git_commit']}")
    if "batches" in detail:
        b = detail["batches"]
        print(f"# batches: {b['sample']} sampling, {b['density']} density")
    for name, v in reported.items():
        print(f"{name} = {v['value']!r} {v['unit']}")
    for name, value in detail.get("extras", {}).items():
        print(f"{name} = {value!r} {PRINTED_UNITS[name]}")
    print(f"fail_frac = {failed / max(attempted, 1)!r} 1 ({failed}/{attempted})")
    for c in detail["checks"]:
        if not c["ok"]:
            print(f"CHECK FAILED: {c['name']} (value {c['value']!r})")
    for e in detail["errors"]:
        print(f"ERROR: {e}")
    if args.trace:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in detail["layer_shares"].items())
        print(f"# self time by layer: {shares}")
        print(f"# stress: {json.dumps(detail['stress'])}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small instances, for the self-test")
    p.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                   help="directory for the detailed record and spans")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _pin_threads()
    if args.setup_probe:
        return setup_probe(args)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
