#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with BLAS
pinned to one thread.  The worker repeats whole passes over the workload's
fixed input set, in an order shuffled by ``--seed``, until ``--seconds``
have elapsed; one op starts when the previous one returns (closed loop, one
client).  Every output is checked against its reference.

``--trace 0`` prints the end-to-end metrics; set-up is timed in three fresh
workers and the median is reported.  ``--trace 1`` measures one pass,
probes the known defects and checks the CLI contract in fresh processes,
then runs the same pass again under the outside-in tracer, checks that the
traced outputs are bit-identical, and prints the per-layer metrics and the
tracing overhead.
The last line of standard output is one JSON object; a fuller record goes
to ``perfbench/out/``.  Exits 2 without a result when the package source
is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_WORKERS = 3
# Every child is killed by this many seconds after start, so a run ends
# within the 180 s a run may take.
DEADLINE = time.monotonic() + 170.0
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")
ENV.pop("PYTHONPATH", None)


class BenchError(Exception):
    pass


def remaining() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def start_worker(args: argparse.Namespace, *extra: str) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to READY, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=remaining())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(extra)} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (the
    checkout may not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); the maximum when there are fewer than 20 samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n} samples (fewer than 20)"
    q = math.floor(100 * (n - 10) / n)
    k = math.ceil(q / 100 * n)
    return xs[k - 1], f"p{q} of {n} samples, {n - k} beyond"


def run_cli_cases(cases: list[dict]) -> list[dict]:
    """Run each case once through ``python -m symdist.cli`` in a fresh
    process, one at a time; not timed."""
    results = []
    env = dict(ENV, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    for case in cases:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            for name, text in case["files"].items():
                Path(tmp, name).write_text(text)
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "symdist.cli", *case["argv"]], cwd=tmp,
                env=env, capture_output=True, text=True, timeout=remaining())
            secs = time.perf_counter() - t0
        out = proc.stdout.strip()
        if case["defect"] and proc.returncode == case["defect_exit"] \
                and case["defect_text"] in proc.stderr:
            outcome = "known defect"
        elif proc.returncode != 0:
            outcome = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        elif case["near"] is not None:
            try:
                ok = abs(float(out) - case["near"]) <= 1e-5 * max(1.0, abs(case["near"]))
            except ValueError:
                ok = False
            outcome = "ok" if ok else f"stdout {out!r}, library {case['near']!r}"
        else:
            outcome = "ok" if out == case["stdout"] else \
                f"stdout {out!r}, library {case['stdout']!r}"
        results.append({"id": case["id"], "argv": case["argv"], "s": secs,
                        "outcome": outcome})
    return results


def outputs_of(records: list[dict]) -> list:
    return [(r["id"], r.get("output")) for r in records]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("figures", "dilution", "scale"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "symdist" / "__init__.py").is_file():
        print(f"error: package source {ROOT / 'src' / 'symdist'} not found",
              file=sys.stderr)
        return 2

    try:
        # A traced run measures one pass, untraced and traced, and makes the
        # probes and CLI checks (2-8 s); untraced runs skip them.
        extra = ["--checks", "--passes", "1"] if args.trace else []
        setup_main, main_res = start_worker(args, *extra)
        records = main_res["records"]
        problems: list[str] = []
        lat = [r["latency_s"] for r in records]
        failed = [r for r in records if "error" in r]
        for r in failed:
            problems.append(f"op {r['id']} failed: {r['error']}")
        for p in main_res["probes"]:
            if p["outcome"] not in ("present", "fixed"):
                problems.append(f"probe {p['id']}: {p['outcome']}")
        cli = run_cli_cases(main_res["cli_cases"])
        for c in cli:
            if c["outcome"] not in ("ok", "known defect"):
                problems.append(f"cli {c['id']}: {c['outcome']}")

        if args.trace:
            _, traced = start_worker(args, "--traced", "--passes", "1")
            if outputs_of(traced["records"]) != outputs_of(records):
                problems.append("traced outputs differ from untraced outputs")
            metrics = dict(traced["layers"])
            metrics["trace.overhead"] = traced["loop_s"] / main_res["loop_s"]
            metrics["cli.checks"] = len(cli)
            metrics["cli.failed"] = sum(c["outcome"] not in ("ok", "known defect")
                                        for c in cli)
            metrics["cli.s"] = sum(c["s"] for c in cli)
            metrics["checks.known_defects"] = (
                sum(p["outcome"] == "present" for p in main_res["probes"])
                + sum(c["outcome"] == "known defect" for c in cli))
        else:
            setups = [setup_main] + [start_worker(args, "--setup-only")[0]
                                     for _ in range(SETUP_WORKERS - 1)]
            tail_s, tail_note = tail(lat)
            metrics = {
                "ops_per_s": len(records) / main_res["loop_s"],
                "op_p50_s": statistics.median(lat),
                "op_tail_s": tail_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": main_res["peak_rss_mb"],
            }
        declared = declared_units(args.trace)
        if set(metrics) != set(declared):
            raise BenchError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(declared))}")
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    env = dict(main_res["env"], git_sha=git_sha(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)))
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}: seed {args.seed}, {main_res['passes']} "
          f"pass(es), {len(records)} ops in {main_res['loop_s']:.3f} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    if not args.trace:
        print(f"op_tail_s is the {tail_note}")
        print(f"setup_s is the median of {SETUP_WORKERS} fresh workers: "
              + ", ".join(f"{s:.3f}" for s in setups))
    print(f"failed_ratio = {len(failed) / len(records):.6g} "
          f"({len(failed)} of {len(records)} ops)")
    for p in main_res["probes"]:
        print(f"known defect {p['id']}: {p['outcome']} ({p['what']})")
    for c in cli:
        print(f"cli {c['id']}: {c['outcome']} "
              f"(symdist {' '.join(c['argv'])}, {c['s']:.2f} s)")
    for msg in problems:
        print(f"INCORRECT: {msg}")

    result = {"correct": not problems, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": declared[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  trace=args.trace, problems=problems, probes=main_res["probes"],
                  cli=cli, records=records)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
