#!/usr/bin/env python3
"""Print the block-rung tables of the two program-backed tasks as CSV.

b = random_box(2, default_rng(7)) and c = random_box(2, default_rng(8)),
with their powers from ``tensor_box`` (Schur-Weyl quotients):

- conversion rows: min_conversion_error(b^(x)n -> c^(x)m) for n, m <= N;
- cost rows: cost_approx(b^(x)n, 0.05) for n <= N;

each in both regimes.  A row gives the value (or the error raised), the
number of SDP solves, their statuses, their total solver iterations, for
cost rows the non-optimal solves accepted on their residuals and the warm
solves retried cold, and the wall time.  The solver runs on one BLAS
thread, as the benchmark's does, so values repeat to the bit.

With --perturb K the rows are rounding-stability rows instead: per regime,
cost_approx(b^(x)n, 0.05) for n <= N, then min_conversion_error(b^(x)n ->
c^(x)n) for n <= N, each over the perturbation set of b^(x)n
(``perturbations`` in tests/conftest.py, k = 0..K).  A row gives how many
calls returned, the names of those that raised, the spread (max - min) of
the returned values (log2 M for cost rows), and the solves, iterations,
accepted and retried solves and wall time summed over the set.

Usage: python scripts/block_tables.py [N] [--perturb K] > tables.csv
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

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from symdist import sdp, tasks  # noqa: E402
from symdist.boxes import random_box, tensor_box  # noqa: E402
from symdist.exceptions import SymdistError  # noqa: E402

from conftest import perturbations  # noqa: E402

EPS = 0.05   # the cost rows' eps
SOLVES: list[tuple[str, int]] = []   # (status, iterations) of each solve of the current row


def _recording(solve):
    def wrapped(*args, **kwargs):
        res = solve(*args, **kwargs)
        SOLVES.append((res.status.value, res.iterations))
        return res
    return wrapped


def _run(call) -> tuple:
    """One call: its result or None, the error it raised or None, and the
    iterations and wall time of its solves."""
    SOLVES.clear()
    t0 = time.perf_counter()
    try:
        res, err = call(), None
    except SymdistError as exc:
        res, err = None, f"{type(exc).__name__}: {exc}"
    return res, err, sum(i for _, i in SOLVES), time.perf_counter() - t0


def _row(writer, task: str, regime: str, n: int, m, call) -> None:
    res, err, iterations, seconds = _run(call)
    diag = res.diagnostics if res else {}
    statuses = ";".join(f"{k}:{v}" for k, v in sorted(Counter(s for s, _ in SOLVES).items()))
    writer.writerow([task, regime, n, m, err or repr(res.value), len(SOLVES), statuses,
                     iterations, diag.get("ill_conditioned", ""), diag.get("retried", ""),
                     f"{seconds:.2f}"])
    sys.stdout.flush()


def _perturbed_row(writer, task: str, regime: str, n: int, boxes: dict, call) -> None:
    values, raised, totals = [], [], Counter()
    for name, box in boxes.items():
        res, err, iterations, seconds = _run(lambda: call(box))
        diag = res.diagnostics if res else {}
        if err:
            raised.append(name)
        else:
            values.append(res.value)
        totals.update(solves=len(SOLVES), iterations=iterations, seconds=seconds,
                      accepted=diag.get("ill_conditioned", 0), retried=diag.get("retried", 0))
    spread = f"{max(values) - min(values):.1e}" if values else ""
    writer.writerow([task, regime, n, f"{len(values)}/{len(boxes)}", ";".join(raised), spread,
                     totals["solves"], totals["iterations"], totals["accepted"],
                     totals["retried"], f"{totals['seconds']:.2f}"])
    sys.stdout.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("N", nargs="?", type=int, default=3)
    ap.add_argument("--perturb", type=int, metavar="K",
                    help="rounding-stability rows over perturbations k = 0..K")
    args = ap.parse_args()

    sdp.solve = _recording(sdp.solve)
    b = random_box(2, np.random.default_rng(7))
    c = random_box(2, np.random.default_rng(8))
    bs = {n: tensor_box(b, n) for n in range(1, args.N + 1)}
    cs = {m: tensor_box(c, m) for m in range(1, args.N + 1)}

    writer = csv.writer(sys.stdout, lineterminator="\n")
    if args.perturb is not None:
        writer.writerow(["task", "regime", "n", "returned", "raised", "spread", "solves",
                         "iterations", "accepted", "retried", "seconds"])
        sets = {n: perturbations(b, n, args.perturb) for n in bs}
        for regime in (tasks.CPTPA, tasks.CDS):
            for n, boxes in sets.items():
                _perturbed_row(writer, "cost_approx", regime, n, boxes,
                               lambda box: tasks.cost_approx(box, EPS, regime))
        for regime in (tasks.CPTPA, tasks.CDS):
            for n, boxes in sets.items():
                _perturbed_row(writer, "min_conversion_error", regime, n, boxes,
                               lambda box: tasks.min_conversion_error(box, cs[n], regime))
        return 0
    writer.writerow(["task", "regime", "n", "m", "value", "solves", "statuses", "iterations",
                     "accepted", "retried", "seconds"])
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
