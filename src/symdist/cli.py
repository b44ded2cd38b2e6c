"""Command line front end.

Boxes come from JSON files ({"p": ..., "rho0": [[[re,im],...],...], ...})
or from the golden-unit shorthand ``--golden M,q`` (M may be ``inf``).
Values print with 12 significant digits.  Exit codes: 0 success, 2 domain
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import sweep as sweep_mod
from . import tasks
from .boxes import QuantumBox, box_from_json, golden_box
from .config import TOLS
from .divergences import chernoff, p_err, sd
from .exceptions import ParameterRangeError, SolverError, SymdistError


def _parse_golden(text: str) -> QuantumBox:
    try:
        m_str, q_str = text.split(",")
        m = math.inf if m_str.strip().lower() in ("inf", "infinity") \
            else float(m_str)
        return golden_box(m, float(q_str))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--golden expects 'M,q', got {text!r}") from exc


def _load_box(args) -> QuantumBox:
    if args.golden is not None:
        return _parse_golden(args.golden)
    if args.box is None:
        raise ValueError("provide a box JSON file or --golden M,q")
    return box_from_json(Path(args.box).read_text())


def _add_box_arg(p: argparse.ArgumentParser):
    p.add_argument("box", nargs="?", help="box JSON file")
    p.add_argument("--golden", metavar="M,q",
                   help="golden-unit shorthand instead of a JSON file")


# every SweepSpec field after the family is a sweep option; an omitted one
# takes the spec's own default, and an empty --quantities selects none
_SPEC_OPTIONS = [f.name for f in dataclasses.fields(sweep_mod.SweepSpec)][1:]
_SPEC_TYPES = {"steps": int,
               "quantities": lambda text: tuple(text.split(",")) if text else ()}
_SPEC_HELP = {"stop": "default 1 for gad-gamma, pi/2 for the phi families",
              "quantities": "comma-separated subset of " + ",".join(sweep_mod.QUANTITIES)}

# each one-shot command: its help, its exact task and its task at eps > 0
_ONE_SHOT = {"distill": ("one-shot distillable bits", tasks.distill_exact, tasks.distill_approx),
             "dilute": ("one-shot cost in bits", tasks.cost_exact, tasks.cost_approx)}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symdist",
        description="Distinguishability-resource calculations on quantum boxes.")
    ap.add_argument("--tol", type=float, default=None,
                    help="override the shared infinity-detection tolerance "
                         "(finite and positive)")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, help_ in [("perr", "minimum discrimination error"),
                        ("sd", "symmetric distinguishability in bits"),
                        ("chernoff", "Chernoff divergence of the branch states"),
                        ("rates", "asymptotic distill/cost rates")]:
        p = sub.add_parser(name, help=help_)
        _add_box_arg(p)

    for name, (help_, _, _) in _ONE_SHOT.items():
        p = sub.add_parser(name, help=help_)
        _add_box_arg(p)
        p.add_argument("--regime", choices=(tasks.CPTPA, tasks.CDS),
                       default=tasks.CPTPA)
        p.add_argument("--eps", type=float, default=0.0,
                       help="allowed scaled-trace-distance error (0 = exact)")

    p = sub.add_parser("convert", help="minimum conversion error source -> target")
    p.add_argument("source", help="source box JSON file")
    p.add_argument("target", help="target box JSON file")
    p.add_argument("--regime", choices=(tasks.CPTPA, tasks.CDS),
                   default=tasks.CDS)

    p = sub.add_parser("sweep", help="grid sweep reproducing the figure data")
    p.add_argument("--family", choices=sweep_mod.FAMILIES, required=True)
    for name in _SPEC_OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), type=_SPEC_TYPES.get(name, float),
                       help=_SPEC_HELP.get(name))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--svg", default=None, help="optional SVG output path")
    return ap


def _run(args) -> int:
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ParameterRangeError(
                f"--tol must be finite and positive, got {args.tol}")
        TOLS.support = args.tol
        TOLS.infinite_perr = min(args.tol, TOLS.infinite_perr)

    cmd = args.command
    if cmd == "perr":
        print(sweep_mod._serialize(p_err(_load_box(args)), 12))
    elif cmd == "sd":
        print(sweep_mod._serialize(sd(_load_box(args)), 12))
    elif cmd == "chernoff":
        b = _load_box(args)
        print(sweep_mod._serialize(chernoff(b.rho0, b.rho1), 12))
    elif cmd == "rates":
        r = tasks.asymptotic_rates(_load_box(args))
        print("distill", sweep_mod._serialize(r.distill, 12))
        print("exact_cost", sweep_mod._serialize(r.exact_cost, 12))
        print("approx_cost", sweep_mod._serialize(r.approx_cost, 12))
    elif cmd in _ONE_SHOT:
        _, exact, approx = _ONE_SHOT[cmd]
        b = _load_box(args)
        res = exact(b, args.regime) if args.eps == 0 \
            else approx(b, args.eps, args.regime)
        print(sweep_mod._serialize(res.value, 12))
    elif cmd == "convert":
        source = box_from_json(Path(args.source).read_text())
        target = box_from_json(Path(args.target).read_text())
        res = tasks.min_conversion_error(source, target, args.regime)
        print(sweep_mod._serialize(res.value, 12))
    elif cmd == "sweep":
        spec = sweep_mod.SweepSpec(args.family, **{
            name: getattr(args, name) for name in _SPEC_OPTIONS
            if getattr(args, name) is not None})
        result = sweep_mod.run_sweep(spec, jobs=args.jobs)
        Path(args.out).write_text(result.to_csv())
        if result.failures:
            sidecar = Path(args.out).with_suffix(".failures.json")
            sidecar.write_text(json.dumps(result.failures, indent=2))
            print(f"wrote {args.out} ({len(result.failures)} failed cells, "
                  f"see {sidecar})")
        else:
            print(f"wrote {args.out}")
        if args.svg:
            Path(args.svg).write_text(sweep_mod.to_svg(result))
            print(f"wrote {args.svg}")
    return 0


def main(argv=None) -> int:
    """Run one command; ``--tol`` holds for that command only."""
    args = build_parser().parse_args(argv)
    saved = dict(vars(TOLS))
    try:
        return _run(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (SymdistError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        vars(TOLS).update(saved)


if __name__ == "__main__":
    sys.exit(main())
