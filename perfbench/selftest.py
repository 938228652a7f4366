"""Self-test of the benchmark harness, on tiny instances of every workload.

Run from the root of a checkout (about a minute):

    python3 perfbench/selftest.py

It checks that
- every metric named in BENCHMARK.json is emitted, with its unit, and the
  last output line has exactly the keys correct, attempted, failed and
  metrics;
- spans nest inside their parents and every self time is >= 0;
- per-layer counters are identical across two traced runs;
- a traced run's accuracy figures equal an untraced run's bitwise, so the
  wrapping does not change what the program computes;
- a different seed changes the generated inputs, and the same seed does not;
- a failed output check makes the run exit nonzero;
- without the package sources the run exits nonzero and prints no result.
Exit code 0 when all hold.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out" / "selftest"
RUN = HERE / "run.py"
SECONDS = "0.5"

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, tag):
    """One tiny run; returns (process, its detailed record or None)."""
    out = OUT / tag
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    path = out / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return proc, (json.loads(path.read_text()) if path.is_file() else None)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def spans(workload, tag):
    path = OUT / tag / f"{workload}-tiny-seed1-trace1-spans.json"
    return json.loads(path.read_text())["spans"]


def check_result(name, proc, expected):
    res = last_json(proc)
    check(proc.returncode == 0, f"{name}: exit code 0 (got {proc.returncode})")
    if res is None:
        check(False, f"{name}: printed a result")
        return
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result has exactly the four result keys")
    check(res["correct"] is True and res["failed"] == 0
          and isinstance(res["attempted"], int) and res["attempted"] >= 1,
          f"{name}: correct, attempted >= 1, failed 0")
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    check(got == expected, f"{name}: every BENCHMARK.json metric with its unit")
    check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
          f"{name}: every value is a number")


def check_spans(name, rows, min_self):
    ok = True
    for start, end, parent in ((r[1], r[2], r[3]) for r in rows):
        if end < start:
            ok = False
        if parent >= 0:
            p = rows[parent]
            # start/end are written rounded to 1 ns
            if start < p[1] - 2e-9 or end > p[2] + 2e-9:
                ok = False
    check(ok and rows, f"{name}: spans nest inside their parents")
    check(min_self >= 0.0, f"{name}: every self time >= 0 (min {min_self:.3g} s)")


def check_failed_check_exits_nonzero():
    """A failing output check: nonzero exit and correct=false."""
    sys.path.insert(0, str(HERE))
    import run as bench

    bench._pin_threads()
    bench._import_package()
    import workloads

    accuracy = workloads.accuracy

    def failing(*args):
        acc, extras, checks = accuracy(*args)
        return acc, extras, checks + [{"name": "injected", "ok": False, "value": None}]

    workloads.accuracy = failing
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = bench.main(["--workload", "map_eval_2d", "--seed", "1", "--seconds",
                             SECONDS, "--trace", "0", "--size", "tiny",
                             "--out", str(OUT / "injected")])
    finally:
        workloads.accuracy = accuracy
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    check(rc != 0 and res["correct"] is False and res["failed"] >= 1,
          "failed output check: nonzero exit, correct false, counted as failed")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: nonzero exit, no result printed."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "trunc_d32",
         "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    printed = any(line.startswith("{") for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          f"bare directory: exit {proc.returncode}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        plain, d_plain = run(workload, 1, 0, "plain")
        check_result(f"{workload} trace=0", plain, e2e)
        traced, d_traced = run(workload, 1, 1, "traced")
        check_result(f"{workload} trace=1", traced, per_layer)
        _, d_again = run(workload, 1, 1, "traced-again")
        _, d_other = run(workload, 2, 0, "other-seed")
        if None in (d_plain, d_traced, d_again, d_other):
            check(False, f"{workload}: all four runs wrote their records")
            continue
        check_spans(workload, spans(workload, "traced"), d_traced["min_self_s"])
        check(d_traced["counters"] == d_again["counters"],
              f"{workload}: per-layer counters identical across two traced runs")

        def figures(d):
            extras = {k: v for k, v in d["extras"].items()
                      if k in ("roundtrip_err", "rate_slope")}
            return d["accuracy"], extras

        check(figures(d_traced) == figures(d_plain),
              f"{workload}: traced accuracy equals untraced, bitwise")
        check(d_traced["batches"]["inputs_sha256"] == d_again["batches"]["inputs_sha256"]
              == d_plain["batches"]["inputs_sha256"],
              f"{workload}: the same seed gives the same inputs")
        check(d_other["batches"]["inputs_sha256"] != d_plain["batches"]["inputs_sha256"],
              f"{workload}: another seed changes the inputs")
    check_failed_check_exits_nonzero()
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
