"""Micro-measure of the two hot kernels at fixed sizes.

Run from the root of a checkout:

    python3 perfbench/kernels_micro.py [--json PATH]

Times ``kernels.legendre_table`` and ``kernels.poly_eval_tables`` (whichever
implementation the package dispatches to; the numpy one when numba is
absent or ``KRT_NO_NUMBA=1``) and reports, for each size, the median time
over repeats, the operation count and the bytes moved. Both counts are
computed from the array shapes, not measured:

- legendre_table(x, nmax): 5 flops per point per recurrence step
  (n = 1..nmax-1) plus one scaling multiply per output entry; bytes = x
  read once + the (m, nmax+1) table written once.
- poly_eval_tables(tables, exps, coeffs): per point, one multiply per
  nonzero exponent and one add per term; bytes = tables, exps and coeffs
  read once + the output written once.

Each working set is stated against the last-level cache size the kernel
reports in /sys, so that a speed change can be read as compute- or
memory-bound. The shapes follow map_eval_2d: a 2d polynomial with 104
terms and degree up to 16 per coordinate.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPEATS = 7
NMAX = 16
POINTS = (1_000, 10_000, 100_000, 1_000_000)
K = 2
NTERMS = 104


def llc_bytes():
    """Size of the largest cache level of cpu0, or None if unreadable."""
    best = None
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        size = int(text.rstrip("KM")) * scale
        best = size if best is None else max(best, size)
    return best


def median_time(fn, *args):
    fn(*args)  # warm-up (and JIT compilation on the numba path)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--json", type=Path, help="also write the rows as JSON here")
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import run

    run._pin_threads()
    run._import_package()
    import numpy as np
    from krtransport import kernels

    rng = np.random.Generator(np.random.Philox(0))
    llc = llc_bytes()
    # a downward-closed set of 104 exponents (a, b) with degree <= NMAX
    exps = np.array([(a, b) for a in range(NMAX + 1) for b in range(NMAX + 1)
                     if (a + 1) * (b + 1) <= 40][:NTERMS], dtype=np.int64)
    coeffs = rng.standard_normal(exps.shape[0])
    nnz = int(np.count_nonzero(exps))
    rows = []
    for m in POINTS:
        x = rng.uniform(-1.0, 1.0, size=m)
        t = median_time(kernels.legendre_table, x, NMAX)
        flops = m * (5 * (NMAX - 1) + NMAX + 1)
        nbytes = 8 * m + 8 * m * (NMAX + 1)
        rows.append(("legendre_table", m, t, flops, nbytes))
        tables = np.stack([kernels.legendre_table(rng.uniform(-1.0, 1.0, size=m), NMAX)
                           for _ in range(K)], axis=1)
        t = median_time(kernels.poly_eval_tables, tables, exps, coeffs)
        flops = m * (nnz + exps.shape[0])
        nbytes = tables.nbytes + exps.nbytes + coeffs.nbytes + 8 * m
        rows.append(("poly_eval_tables", m, t, flops, nbytes))

    print(f"# kernels: numba_enabled={kernels.NUMBA_ENABLED} nproc={os.cpu_count()} "
          f"llc={llc} B; flops and bytes computed from shapes")
    print(f"{'kernel':18s} {'points':>9s} {'median_s':>11s} {'GFLOP/s':>8s} "
          f"{'GB/s':>7s} {'bytes':>12s} {'vs LLC':>7s}")
    out = []
    for name, m, t, flops, nbytes in rows:
        ratio = nbytes / llc if llc else float("nan")
        print(f"{name:18s} {m:9d} {t:11.6f} {flops / t / 1e9:8.3f} "
              f"{nbytes / t / 1e9:7.3f} {nbytes:12d} {ratio:7.3f}")
        out.append({"kernel": name, "points": m, "nmax": NMAX, "k": K,
                    "nterms": int(exps.shape[0]), "median_s": t,
                    "flops_computed": flops, "bytes_computed": nbytes,
                    "working_set_over_llc": ratio})
    if args.json:
        args.json.write_text(json.dumps({"llc_bytes": llc,
                                         "numba_enabled": bool(kernels.NUMBA_ENABLED),
                                         "rows": out}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
