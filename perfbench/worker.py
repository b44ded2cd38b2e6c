"""One benchmark worker: a fresh interpreter that sets up a workload and runs it.

Protocol on standard output: the line ``READY`` once set-up is done (the
parent times set-up up to that line), then one JSON line with the results.
Progress goes to standard error.

    python3 perfbench/worker.py --workload figures --seed 1 --seconds 20 --checks
    python3 perfbench/worker.py --workload figures --seed 1 --setup-only
    python3 perfbench/worker.py --workload figures --seed 1 --passes 1 --traced
    python3 perfbench/worker.py --freeze     # rewrite references.json
"""

import os

# One BLAS thread, fixed before numpy is imported: on a 2-core machine with
# default threads the same q_min at d = 16 ran 4x slower and its value moved
# in the 13th digit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import symdist  # noqa: E402
import workloads  # noqa: E402

# Ops on inputs of this dimension or more form the large rungs of `scale`.
BIG_DIM = 256


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "symdist": str(Path(symdist.__file__).resolve().parent),
    }


def run_ops(work, order: list[int], tracer=None) -> list[dict]:
    records = []
    for idx in order:
        op = work.ops[idx]
        rec = {"id": op.id}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                tracer.op = op.id
                with tracer.span("op", {"id": op.id, "dim": op.dim}):
                    out = op.run()
        except Exception as exc:    # any raise is a failed op, recorded
            rec["latency_s"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            rec["latency_s"] = time.perf_counter() - t0
            rec["output"] = [float(v) for v in out]
        records.append(rec)
    return records


def check(work, records: list[dict]) -> None:
    by_id = {op.id: op for op in work.ops}
    for rec in records:
        if "output" in rec:
            why = by_id[rec["id"]].check(tuple(rec["output"]))
            if why:
                rec["error"] = f"reference miss: {why}"


def probe(p) -> str:
    try:
        return p.run()
    except Exception as exc:    # an unexpected outcome, reported
        return f"raised {type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--passes", type=int, default=None,
                    help="run exactly this many passes instead of --seconds")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--checks", action="store_true",
                    help="also run the known-defect probes and emit CLI cases")
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args()

    if args.freeze:
        workloads.REFERENCES.write_text(json.dumps(workloads.freeze(), indent=1) + "\n")
        return 0

    refs = workloads.load_references()
    work = workloads.WORKLOADS[args.workload](refs)
    work.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    tracer = None
    if args.traced:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    records: list[dict] = []
    passes = 0
    t0 = time.perf_counter()
    while True:
        order = list(range(len(work.ops)))
        rng.shuffle(order)
        records += run_ops(work, order, tracer)
        passes += 1
        elapsed = time.perf_counter() - t0
        print(f"[{work.name}] pass {passes}: {len(records)} ops, "
              f"{elapsed:.2f}s", file=sys.stderr, flush=True)
        if (passes >= args.passes) if args.passes else (elapsed >= args.seconds):
            break
    loop_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"workload": work.name, "seed": args.seed, "passes": passes,
              "loop_s": loop_s, "peak_rss_mb": peak_rss_mb,
              "env": environment()}
    if tracer is not None:
        tracer.uninstall()
        result["binding_sites"] = tracer.binding_sites()
        result["layers"] = tracer.metrics(BIG_DIM)
        spans_path = ROOT / "perfbench" / "out" / f"spans-{work.name}-{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(
            {"fields": ["id", "parent", "op", "name", "start", "end", "attrs"],
             "spans": tracer.spans}))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        check(work, records)
        outputs = {r["id"]: r["output"] for r in records if "output" in r}
        result["probes"], result["cli_cases"] = [], []
        if args.checks:
            result["probes"] = [{"id": p.id, "what": p.what, "outcome": probe(p)}
                                for p in work.probes]
            try:
                result["cli_cases"] = [vars(c) for c in work.cli_cases(outputs)]
            except KeyError:    # an op the cases compare with raised: run failed
                pass
    result["records"] = records
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
