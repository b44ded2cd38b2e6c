#!/usr/bin/env python3
"""Print the library statements that a run never reaches.

Runs tier-1 (in-process ``pytest``) or what a checked benchmark run does
in-process for each perfbench workload (warm-up, one pass of the ops, the
probes, the CLI cases' inputs) under ``sys.settrace``, limited to
``src/symdist``; prints each statement (found with ``ast``) that never ran as
``file:line``, then a count per file.  Subprocess CLI runs (the CLI cases
themselves) and pool workers are not traced: what only they reach is listed.

Usage: python scripts/unreached.py {tests | workloads}
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import ast  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "symdist"
HIT: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        HIT.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(str(SRC)) else None


def statements(path: Path) -> dict[int, range]:
    """Statement line -> the lines that mark it run: its header, with decorators."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Expr) and \
                isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue        # docstrings are not executed
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        stop = node.body[0].lineno if getattr(node, "body", None) else node.end_lineno + 1
        out[node.lineno] = range(first, max(stop, first + 1))
    return out


def run(mode: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.settrace(_call)
    if mode == "tests":
        import pytest
        return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    import workloads
    for make in workloads.WORKLOADS.values():
        work = make(workloads.load_references())
        work.warmup()
        for p in work.probes:
            p.run()
        work.cli_cases({op.id: op.run() for op in work.ops})
    return 0


def main() -> int:
    if sys.argv[1:] not in (["tests"], ["workloads"]):
        sys.exit(__doc__.split("Usage: ")[1])
    code = run(sys.argv[1])
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        missed = [f"{path.relative_to(ROOT)}:{n}\n" for n, at in sorted(statements(path).items())
                  if not any((str(path), i) in HIT for i in at)]
        print("".join(missed) + f"# {path.name}: {len(missed)} unreached")
    return code


if __name__ == "__main__":
    sys.exit(main())
