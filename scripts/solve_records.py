#!/usr/bin/env python3
"""Write every op output and every solve record of one in-process pass of
each benchmark workload as JSON.

For each workload of ``perfbench/workloads.py`` the script runs, in this
order, the warm-up, every op once in input-set order and every probe, and
records each call of ``sdp.solve`` in that order: status, iterations,
value (``repr``), a SHA-256 of ``y``'s bytes, ``m``, the blocks and
whether the solve was started warm (given a ``start``).  An op
output is the tuple of ``repr``s of its floats, or the error it raised; a
probe's is the string it returns.  The solver runs on one BLAS thread, as
the benchmark's does, so two runs of the same code repeat to the bit and
two trees that should agree are compared with one ``diff``.

Usage: python scripts/solve_records.py [WORKLOAD ...] > records.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from symdist import sdp  # noqa: E402
from symdist.exceptions import SymdistError  # noqa: E402

import workloads  # noqa: E402

SOLVES: list[dict] = []   # the records of the current phase's solves


def _recording(solve):
    def wrapped(prob, *args, **kwargs):
        res = solve(prob, *args, **kwargs)
        start = args[1] if len(args) > 1 else kwargs.get("start")
        SOLVES.append({"status": res.status.value, "iterations": res.iterations,
                       "value": repr(res.value),
                       "y": hashlib.sha256(res.y.tobytes()).hexdigest(),
                       "m": len(prob.constraints), "blocks": list(prob.blocks),
                       "warm": start is not None})
        return res
    return wrapped


def _phase(call) -> dict:
    """The output of call() and the records of the solves it made."""
    SOLVES.clear()
    try:
        out = call()
        out = out if isinstance(out, str) else [repr(v) for v in out]
    except SymdistError as exc:
        out = f"{type(exc).__name__}: {exc}"
    return {"output": out, "solves": list(SOLVES)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()

    sdp.solve = _recording(sdp.solve)
    refs = workloads.load_references()
    out = {}
    for name in args.workload:
        w = workloads.WORKLOADS[name](refs)
        out[name] = {"warmup": _phase(lambda: (w.warmup(), ())[1]),
                     **{f"op {op.id}": _phase(op.run) for op in w.ops},
                     **{f"probe {p.id}": _phase(p.run) for p in w.probes}}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
