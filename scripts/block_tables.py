#!/usr/bin/env python3
"""Print the block-rung tables of the two program-backed tasks as CSV.

b = random_box(2, default_rng(7)) and c = random_box(2, default_rng(8)),
with their powers from ``tensor_box`` (Schur-Weyl quotients):

- conversion rows: min_conversion_error(b^(x)n -> c^(x)m) for n, m <= N;
- cost rows: cost_approx(b^(x)n, 0.05) for n <= N;

each in both regimes.  A row gives the value (or the error raised), the
number of SDP solves, their statuses, their total solver iterations and
the wall time.  The solver runs on one BLAS thread, as the benchmark's
does, so values repeat to the bit.

Usage: python scripts/block_tables.py [N] > tables.csv
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import csv  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from symdist import sdp, tasks  # noqa: E402
from symdist.boxes import random_box, tensor_box  # noqa: E402
from symdist.exceptions import SymdistError  # noqa: E402

EPS = 0.05   # the cost rows' eps
SOLVES: list[tuple[str, int]] = []   # (status, iterations) of each solve of the current row


def _recording(solve):
    def wrapped(*args, **kwargs):
        res = solve(*args, **kwargs)
        SOLVES.append((res.status.value, res.iterations))
        return res
    return wrapped


def _row(writer, task: str, regime: str, n: int, m, call) -> None:
    SOLVES.clear()
    t0 = time.perf_counter()
    try:
        value = repr(call().value)
    except SymdistError as exc:
        value = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    statuses = ";".join(f"{k}:{v}" for k, v in sorted(Counter(s for s, _ in SOLVES).items()))
    iterations = sum(i for _, i in SOLVES)
    writer.writerow([task, regime, n, m, value, len(SOLVES), statuses, iterations,
                     f"{seconds:.2f}"])
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("N", nargs="?", type=int, default=3)
    args = ap.parse_args()

    sdp.solve = _recording(sdp.solve)
    b = random_box(2, np.random.default_rng(7))
    c = random_box(2, np.random.default_rng(8))
    bs = {n: tensor_box(b, n) for n in range(1, args.N + 1)}
    cs = {m: tensor_box(c, m) for m in range(1, args.N + 1)}

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["task", "regime", "n", "m", "value", "solves", "statuses", "iterations",
                     "seconds"])
    for regime in (tasks.CPTPA, tasks.CDS):
        for n, source in bs.items():
            for m, target in cs.items():
                _row(writer, "min_conversion_error", regime, n, m,
                     lambda: tasks.min_conversion_error(source, target, regime))
    for regime in (tasks.CPTPA, tasks.CDS):
        for n, source in bs.items():
            _row(writer, "cost_approx", regime, n, "",
                 lambda: tasks.cost_approx(source, EPS, regime))
    return 0


if __name__ == "__main__":
    sys.exit(main())
