"""The benchmark's workloads: fixed input sets, the ops run on them, and the
reference each op's output is checked against.

Every op returns a tuple of floats.  An op fails when it raises or when its
output misses its reference.  Known defects are not ops: they run as probes
in traced runs (see ``Probe``), so that the timed set has no failing op
while each defect is still exercised and reported.

The library is reached through module attributes at call time
(``tasks.cost_approx``, not a name imported once), so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from symdist import boxes, divergences, sweep, tasks
from symdist.exceptions import SolverError

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Frozen-value tolerance: SDP values are solved to gap/feasibility 1e-8, so
# a correct change of solver or algorithm moves them by far less than this.
FROZEN_TOL = 1e-6
# Criterion 05 of the acceptance suite: cost_approx(eps=0) == cost_exact.
EPS_ZERO_TOL = 1e-5
# Additivity of the closed forms; golden-section search stops at s_tol 1e-9.
ADDITIVE_TOL = 1e-6

# The four figure specs of scripts/reproduce_figures.py, copied so the
# workload stays fixed when the script changes.
FIGURES = {
    "figure1": dict(family="gad-gamma", start=0.0, stop=1.0, N=0.1, q=1 / 3,
                    quantities=("xi_min", "xi_max", "sd", "xi_max_star")),
    "figure2": dict(family="gad-phi", start=0.0, stop=math.pi / 2,
                    gamma=0.25, N=0.1, q=1 / 3,
                    quantities=("xi_min", "xi_max", "sd", "xi_max_star")),
    "figure3": dict(family="gad-gamma", start=0.0, stop=1.0, N=0.1, q=1 / 3,
                    eps=0.1,
                    quantities=("xi_min", "sd", "distill_approx_cptpA",
                                "distill_approx_cds")),
    "figure4": dict(family="conversion-phi", start=0.0, stop=math.pi / 2,
                    q=1 / 3, gamma1=0.5, N1=0.3, gamma2=0.25, N2=0.1,
                    q_target=0.25, quantities=("min_conversion_error",)),
}
FIGURE_STEPS = 41

SCALE_RUNGS = range(1, 10)      # d = 2 .. 512
# distill_exact cptpA solves the q_min program twice; it runs on d <= 16.
# The d = 32 rung solves it once, through xi_min (m = 1025, about 340 MB).
SCALE_DISTILL_MAX_DIM = 16
SCALE_XI_MIN_DIM = 32
# The d = 4 rung also runs min_conversion_error 4 -> 4 under cds.
SCALE_CONVERSION_DIM = 4


@dataclass
class Op:
    id: str
    run: Callable[[], tuple]
    check: Callable[[tuple], str | None]   # None when correct, else why not
    dim: int = 2


@dataclass
class Probe:
    """A known defect, run once per traced run and reported.

    ``run`` returns ``"present"`` while the defect shows as documented,
    ``"fixed"`` when the output now meets its reference, and any other
    string describes an unexpected outcome, which makes the run incorrect.
    """
    id: str
    what: str
    run: Callable[[], str]


@dataclass
class CliCase:
    """One ``python -m symdist.cli`` invocation and the result it must give.

    A correct run exits 0 and prints ``stdout``, the library value in the
    CLI's format (12 significant digits), or, when ``near`` is set, a value
    within ``EPS_ZERO_TOL`` of it.  A case with ``defect`` set may instead
    exit ``defect_exit`` with ``defect_text`` on stderr; that outcome is a
    known defect.
    """
    id: str
    argv: list[str]
    files: dict[str, str]
    stdout: str | None = None
    near: float | None = None
    defect: str | None = None
    defect_exit: int | None = None
    defect_text: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Callable[[], object]
    probes: list[Probe] = field(default_factory=list)
    cli_cases: Callable[[dict], list[CliCase]] = lambda outputs: []


def fmt12(v: float) -> str:
    """The CLI's value format."""
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".12g")


def close(v: float, ref: float, tol: float) -> bool:
    if math.isinf(ref) or math.isinf(v):
        return v == ref
    return abs(v - ref) <= tol * max(1.0, abs(ref))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _frozen(refs: dict, op_id: str, tol: float = FROZEN_TOL):
    def check(out: tuple) -> str | None:
        want = refs["ops"][op_id]
        if len(out) != len(want):
            return f"{len(out)} values, expected {len(want)}"
        for i, (v, r) in enumerate(zip(out, want)):
            if not close(v, r, tol):
                return f"value {i} = {v!r}, frozen {r!r}"
        return None

    return check


def _both(*checks):
    def check(out: tuple) -> str | None:
        for c in checks:
            why = c(out)
            if why:
                return why
        return None
    return check


# --- figures -------------------------------------------------------------------

def _figure_specs():
    return {name: sweep.SweepSpec(steps=FIGURE_STEPS, **kw)
            for name, kw in sorted(FIGURES.items())}


def _figure_row(specs: dict, i: int):
    """Grid point i of every figure, as one op: the four figures' grids mix
    ops of 1 ms to 0.2 s, and a row of all four keeps the op latencies in
    one cluster, so their median and tail are stable."""
    def run() -> tuple:
        row: list[float] = []
        for spec in specs.values():
            values, errors = sweep._evaluate(spec, float(spec.grid()[i]))
            if errors:
                raise SolverError(f"failed cells {sorted(errors)}: {errors}")
            row += values
        return tuple(row)
    return run


def _distill_at_least_exact(specs: dict):
    """distill_approx at eps = 0.1 is at least the exact value at the same
    gamma: xi_min under cptpA, sd under cds (figure 3)."""
    fig3 = list(specs).index("figure3")

    def check(out: tuple) -> str | None:
        # figure 3 columns: gamma, xi_min, sd, distill_approx_{cptpA,cds}
        _, xi, sdv, dist_a, dist_c = _split(specs, out)[fig3]
        if dist_a < xi - FROZEN_TOL:
            return f"distill_approx cptpA {dist_a!r} < xi_min {xi!r}"
        if dist_c < sdv - FROZEN_TOL:
            return f"distill_approx cds {dist_c!r} < sd {sdv!r}"
        return None
    return check


def figures(refs: dict) -> Workload:
    specs = _figure_specs()
    at_least_exact = _distill_at_least_exact(specs)
    ops = [Op(f"point/{i:02d}", _figure_row(specs, i),
              _both(_frozen(refs, f"point/{i:02d}"), at_least_exact))
           for i in range(FIGURE_STEPS)]

    def warmup():
        for spec in specs.values():
            sweep._evaluate(spec, float(spec.grid()[1]))

    def cli_cases(outputs: dict) -> list[CliCase]:
        mid = FIGURE_STEPS // 2
        row = dict(zip(specs, _split(specs, outputs[f"point/{mid:02d}"])))
        (box1, _), (box3, _), (src, tgt) = (
            sweep._boxes_at(specs[name], float(specs[name].grid()[mid]))
            for name in ("figure1", "figure3", "figure4"))
        return [
            CliCase("sd", ["sd", "box.json"],
                    {"box.json": boxes.box_to_json(box1)},
                    fmt12(row["figure1"][3])),
            CliCase("distill-eps", ["distill", "box.json", "--regime", "cptpA",
                                    "--eps", "0.1"],
                    {"box.json": boxes.box_to_json(box3)},
                    fmt12(row["figure3"][3])),
            CliCase("convert", ["convert", "src.json", "tgt.json",
                                "--regime", "cds"],
                    {"src.json": boxes.box_to_json(src),
                     "tgt.json": boxes.box_to_json(tgt)},
                    fmt12(row["figure4"][1])),
        ]

    return Workload("figures", ops, warmup, [], cli_cases)


def _split(specs: dict, out: list) -> list[list]:
    """A figures op output, split into the rows of each figure."""
    rows, start = [], 0
    for spec in specs.values():
        width = 1 + len(spec.quantities)
        rows.append(out[start:start + width])
        start += width
    return rows


# --- dilution ------------------------------------------------------------------

def reproducer_box() -> boxes.QuantumBox:
    """ROADMAP item 3: the second draw of random_box(2, default_rng(1))
    after one real draw (p ~ 0.0748, complex states)."""
    rng = np.random.default_rng(1)
    boxes.random_box(2, rng, real=True)
    return boxes.random_box(2, rng)


def dilution(refs: dict) -> Workload:
    repro = reproducer_box()
    box3 = boxes.random_box(2, np.random.default_rng(3))
    # box3 at cds/eps = 0 (8-11 s) is left out to keep a run within its
    # time budget; the eps = 0 check runs on cptpA
    cases = [("repro", repro, tasks.CPTPA, 0.05),
             ("box3", box3, tasks.CPTPA, 0.0),
             ("box3", box3, tasks.CPTPA, 0.05),
             ("box3", box3, tasks.CDS, 0.05)]

    def op_for(b, regime, eps):
        def run() -> tuple:
            return (tasks.cost_approx(b, eps, regime).value,)
        return run

    def check_for(op_id, b, regime, eps):
        def check(out: tuple) -> str | None:
            exact = tasks.cost_exact(b, regime).value
            if eps == 0.0:
                if not close(out[0], exact, EPS_ZERO_TOL):
                    return f"eps=0 value {out[0]!r} vs cost_exact {exact!r}"
                return None
            if out[0] > exact + EPS_ZERO_TOL:
                return f"value {out[0]!r} above cost_exact {exact!r}"
            return _frozen(refs, op_id, EPS_ZERO_TOL)(out)
        return check

    ops = []
    for name, b, regime, eps in cases:
        op_id = f"{name}/{regime}/{eps:g}"
        ops.append(Op(op_id, op_for(b, regime, eps),
                      check_for(op_id, b, regime, eps)))

    def probe_repro_eps0() -> str:
        exact = tasks.cost_exact(repro, tasks.CPTPA).value
        try:
            v = tasks.cost_approx(repro, 0.0, tasks.CPTPA).value
        except SolverError as exc:
            if "bracket infeasible" in str(exc):
                return "present"
            return f"raised {exc!r}"
        if close(v, exact, EPS_ZERO_TOL):
            return "fixed"
        return f"returned {v!r}, cost_exact {exact!r}"

    probes = [Probe("repro/cptpA/0",
                    "cost_approx(reproducer, eps=0, cptpA) raises "
                    "'bracket infeasible' instead of returning cost_exact",
                    probe_repro_eps0)]

    def warmup():
        # eps = 1 is feasible at M = 1: two phase-I solves of the op's shape
        tasks.cost_approx(repro, 1.0, tasks.CDS)

    def cli_cases(outputs: dict) -> list[CliCase]:
        repro_json = {"box.json": boxes.box_to_json(repro)}
        exact = tasks.cost_exact(repro, tasks.CPTPA).value
        return [
            CliCase("dilute-eps", ["dilute", "box.json", "--regime", "cptpA",
                                   "--eps", "0.05"],
                    {"box.json": boxes.box_to_json(box3)},
                    fmt12(outputs["box3/cptpA/0.05"][0])),
            CliCase("dilute-exact", ["dilute", "box.json", "--regime", "cptpA"],
                    repro_json, fmt12(exact)),
            CliCase("dilute-reproducer", ["dilute", "box.json", "--regime",
                                          "cptpA", "--eps", "1e-9"],
                    repro_json, near=exact,
                    defect="cost_approx bracket check fails just above "
                           "the exact cost",
                    defect_exit=3, defect_text="bracket infeasible"),
        ]

    return Workload("dilution", ops, warmup, probes, cli_cases)


# --- scale ---------------------------------------------------------------------

def scale_box() -> boxes.QuantumBox:
    return boxes.random_box(2, np.random.default_rng(7))


def _additive_costs(one: dict, p: float, n: int) -> tuple[float, float]:
    """cost_exact (cptpA, cds) of the n-th tensor power from one-copy
    max-relative entropies: D_max is additive on tensor powers."""
    d01, d10 = n * one["d_max_01"], n * one["d_max_10"]
    cptpa = math.log2(0.5 * (2.0 ** max(d01, d10) + 1.0))
    tilt = math.log2(p / (1 - p))
    dt_star = max(d01 + tilt, d10 - tilt)
    cds = math.log2(max(0.5 * (2.0 ** dt_star + 1.0),
                        0.5 * max(1 / p, 1 / (1 - p))))
    return cptpa, cds


def _rung_calls(b: boxes.QuantumBox, with_cost: bool,
                target: boxes.QuantumBox) -> list:
    """(name, call) pairs one rung runs, in output order."""
    calls = []
    if with_cost:
        calls += [("cost_exact/cptpA", lambda: tasks.cost_exact(b, tasks.CPTPA).value),
                  ("cost_exact/cds", lambda: tasks.cost_exact(b, tasks.CDS).value)]
    calls += [("sd", lambda: divergences.sd(b)),
              ("chernoff", lambda: divergences.chernoff(b.rho0, b.rho1))]
    if b.dim <= SCALE_DISTILL_MAX_DIM:
        calls.append(("distill_exact/cptpA",
                      lambda: tasks.distill_exact(b, tasks.CPTPA).value))
    if b.dim == SCALE_XI_MIN_DIM:
        calls.append(("xi_min", lambda: divergences.xi_min(b.rho0, b.rho1)))
    if b.dim == SCALE_CONVERSION_DIM:
        calls.append(("min_conversion_error/cds",
                      lambda: tasks.min_conversion_error(b, target, tasks.CDS).value))
    return calls


def scale(refs: dict) -> Workload:
    one = refs["scale_one_copy"]
    b1 = scale_box()
    ladder = {n: boxes.tensor_box(b1, n) for n in SCALE_RUNGS}
    target = boxes.random_box(4, np.random.default_rng(8))

    def rung_check(op_id: str, names: list[str], additive: dict):
        frozen = _frozen(refs, op_id)

        def check(out: tuple) -> str | None:
            for i, name in enumerate(names):
                if name in additive:
                    if not close(out[i], additive[name], ADDITIVE_TOL):
                        return (f"{name} = {out[i]!r}, additivity gives "
                                f"{additive[name]!r}")
                elif not close(out[i], refs["ops"][op_id][i], FROZEN_TOL):
                    return frozen(out)
            return None
        return check

    ops = []
    names_of = {}
    for n, b in ladder.items():
        # n = 9 cost_exact is a known defect, run as a probe
        calls = _rung_calls(b, n < 9, target)
        names_of[n] = [name for name, _ in calls]
        cost_a, cost_c = _additive_costs(one, b1.p, n)
        additive = {"cost_exact/cptpA": cost_a, "cost_exact/cds": cost_c,
                    "chernoff": n * one["chernoff"]}
        ops.append(Op(f"n{n}", lambda calls=calls: tuple(f() for _, f in calls),
                      rung_check(f"n{n}", names_of[n], additive), b.dim))

    def probe_cost(regime: str, index: int) -> Callable[[], str]:
        def run() -> str:
            want = _additive_costs(one, b1.p, 9)[index]
            got = tasks.cost_exact(ladder[9], regime).value
            if math.isinf(got):
                return "present"
            if close(got, want, ADDITIVE_TOL):
                return "fixed"
            return f"returned {got!r}, additivity gives {want!r}"
        return run

    why = ("returns inf: lambda_min(rho0^(x)9) ~ 4e-11 falls under "
           "TOLS.psd_clamp; additivity gives a finite cost")
    probes = [Probe("n9/cost_exact/cptpA", why, probe_cost(tasks.CPTPA, 0)),
              Probe("n9/cost_exact/cds", why, probe_cost(tasks.CDS, 1))]

    def warmup():
        ops[0].run()

    def cli_cases(outputs: dict) -> list[CliCase]:
        files = {"box.json": boxes.box_to_json(ladder[4])}

        def value(name: str) -> str:
            return fmt12(outputs["n4"][names_of[4].index(name)])

        return [
            CliCase("chernoff", ["chernoff", "box.json"], files,
                    value("chernoff")),
            CliCase("dilute-cds", ["dilute", "box.json", "--regime", "cds"],
                    files, value("cost_exact/cds")),
            CliCase("distill", ["distill", "box.json", "--regime", "cptpA"],
                    files, value("distill_exact/cptpA")),
        ]

    return Workload("scale", ops, warmup, probes, cli_cases)


WORKLOADS = {"figures": figures, "dilution": dilution, "scale": scale}


def freeze() -> dict:
    """Reference values: every op's output, computed at the current commit.

    Used once, at a commit whose values the test suite accepts; the
    structural checks (eps = 0 consistency, additivity, distill >= exact)
    do not depend on these values.
    """
    empty = {"ops": {}, "scale_one_copy": {"d_max_01": 0.0, "d_max_10": 0.0,
                                            "chernoff": 0.0}}
    out: dict = {"ops": {}}
    b1 = scale_box()
    out["scale_one_copy"] = {
        "d_max_01": divergences.d_max(b1.rho0, b1.rho1),
        "d_max_10": divergences.d_max(b1.rho1, b1.rho0),
        "chernoff": divergences.chernoff(b1.rho0, b1.rho1),
    }
    for make in WORKLOADS.values():
        for op in make(empty).ops:
            out["ops"][op.id] = list(op.run())
    return out
