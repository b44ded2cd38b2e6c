"""Outside-in tracing of the symdist layers.

The tracer wraps the public functions of each layer module, from outside
the package, and records one span per call: id, parent id, op id, name,
start, end and a few attributes.  Many names are bound with ``from ...
import``, so a wrapper is installed at every binding site: each ``symdist``
module attribute that is the original function is replaced.  Spans stay in
memory until the run ends.

Layers, outermost first: ``sweep`` (and the CLI, measured by its own check),
``tasks``, ``divergences`` and ``channels``, ``linalg``, ``model``, ``sdp``.
``boxes`` only builds inputs and is not traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

from symdist import channels, divergences, linalg, model, sdp, sweep, tasks

LAYERS = (sweep, tasks, divergences, channels, linalg, model, sdp)
# Non-public callables that are a layer's unit of work.
EXTRA = {
    sweep: ["_evaluate"],
    model: ["Model.compile", "Model.solve"],
    channels: ["CpMap.__post_init__", "CpMap.__call__", "CdsMap.__post_init__"],
}
STATUSES = ("optimal", "ill_conditioned", "max_iterations",
            "primal_infeasible", "dual_infeasible")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _annotate_solve(args, kwargs, result) -> dict:
    prob = args[0] if args else kwargs["prob"]
    return {"m": len(prob.constraints), "blocks": list(prob.blocks),
            "iterations": result.iterations, "status": result.status.value}


def _annotate_compile(args, kwargs, result) -> dict:
    return {"rows": len(result[0].constraints)}


def _annotate_evaluate(args, kwargs, result) -> dict:
    return {"failed_cells": len(result[1])}


ANNOTATE = {"sdp.solve": _annotate_solve,
            "model.Model.compile": _annotate_compile,
            "sweep._evaluate": _annotate_evaluate}


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self):
        # span: [id, parent, op, name, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op: str | None = None

    # --- recording ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, None) as span:
                result = fn(*args, **kwargs)
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, attrs: dict | None):
        stack = self._stack
        span = [len(self.spans), stack[-1][0] if stack else -1, self.op, name,
                perf_counter(), 0.0, attrs]
        self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span[5] = perf_counter()
            stack.pop()

    # --- patching -----------------------------------------------------------
    def install(self):
        originals: dict[int, object] = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
            for dotted in EXTRA.get(mod, []):
                owner, _, attr = dotted.rpartition(".")
                target = getattr(mod, owner) if owner else mod
                original = vars(target)[attr]
                wrapper = self._wrap(f"{layer}.{dotted}", original)
                if owner:   # a method: its class is its only binding site
                    self._patch(target, attr, wrapper)
                else:
                    originals[id(original)] = wrapper
        # every binding site: module attributes that hold an original
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "symdist" or name.startswith("symdist.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def binding_sites(self) -> int:
        return len(self._patches)

    # --- metrics ------------------------------------------------------------
    def metrics(self, big_dim: int) -> dict:
        """Per-layer metrics from the recorded spans.

        Self time is a span's duration minus its children's durations.  A
        layer's calls and inclusive time count only its outermost spans
        (those whose parent is in another layer), so nested calls inside a
        layer are not counted twice.  ``big_dim``: ops on inputs of at least
        this dimension form the large-rung share of linalg time.
        """
        spans = self.spans
        n = len(spans)
        dur = [s[5] - s[4] for s in spans]
        child = [0.0] * n
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[5] - s[4]
        self_t = [dur[i] - child[i] for i in range(n)]
        layer = [_layer(s[3]) for s in spans]
        outermost = [s[1] < 0 or layer[s[1]] != layer[s[0]] for s in spans]
        # solves below each span (children follow parents in id order)
        solves_below = [0] * n
        for s in reversed(spans):
            if s[3] == "sdp.solve":
                solves_below[s[0]] += 1
            if s[1] >= 0:
                solves_below[s[1]] += solves_below[s[0]]
        # the op span each span belongs to
        op_span = [-1] * n
        for s in spans:
            i = s[0]
            op_span[i] = i if s[3] == "op" else (op_span[s[1]] if s[1] >= 0 else -1)

        def total(pred, values):
            return sum(values[i] for i in range(n) if pred(i))

        def named(name):
            return [i for i in range(n) if spans[i][3] == name]

        solves = named("sdp.solve")
        realified = set(spans[i][1] for i in named("sdp.realify"))
        iterations = 0
        gflop = 0.0
        max_m = max_block = 0
        status = dict.fromkeys(STATUSES, 0)
        for i in solves:
            a = spans[i][6]
            if a is None:   # the solve raised
                continue
            m, it = a["m"], a["iterations"]
            blocks = [2 * d if i in realified else d for d in a["blocks"]]
            iterations += it
            status[a["status"]] += 1
            gflop += it * sum(4 * m * d ** 3 + 2 * m * m * d * d
                              for d in blocks) / 1e9
            max_m = max(max_m, m)
            max_block = max(max_block, max(blocks, default=0))
        solve_s = sum(dur[i] for i in solves)
        n_solves = len(solves)

        task_calls = [i for i in range(n) if layer[i] == "tasks" and outermost[i]]
        div_top = [i for i in range(n) if layer[i] == "divergences" and outermost[i]]
        compiles = named("model.Model.compile")
        points = named("sweep._evaluate")
        ops = named("op")
        wall = sum(dur[i] for i in ops)
        big_ops = {i for i in ops if spans[i][6]["dim"] >= big_dim}
        big_wall = sum(dur[i] for i in big_ops)
        linalg_top = [i for i in range(n) if layer[i] == "linalg" and outermost[i]]
        linalg_big = sum(dur[i] for i in linalg_top if op_span[i] in big_ops)

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "sdp.solves": n_solves,
            "sdp.iterations": iterations,
            "sdp.iters_per_solve": ratio(iterations, n_solves),
            "sdp.solve_s": solve_s,
            "sdp.self_s": sum(self_t[i] for i in solves),
            "sdp.per_solve_ms": 1e3 * ratio(solve_s, n_solves),
            "sdp.per_iter_ms": 1e3 * ratio(solve_s, iterations),
            "sdp.realify_s": sum(dur[i] for i in named("sdp.realify")),
        }
        out.update({f"sdp.status.{k}": v for k, v in status.items()})
        out.update({
            "sdp.optimal_ratio": ratio(status["optimal"], n_solves),
            "sdp.max_m": max_m,
            "sdp.max_block": max_block,
            "sdp.schur_gflop_computed": gflop,
            "sdp.gflops_achieved": ratio(gflop, solve_s),
            "model.compiles": len(compiles),
            "model.compile_s": sum(dur[i] for i in compiles),
            "model.rows": sum(spans[i][6]["rows"] for i in compiles
                              if spans[i][6] is not None),
            "model.self_s": total(lambda i: layer[i] == "model", self_t),
            "tasks.calls": len(task_calls),
            "tasks.solves_per_call": ratio(sum(solves_below[i] for i in task_calls),
                                           len(task_calls)),
            "tasks.self_s": total(lambda i: layer[i] == "tasks", self_t),
            "divergences.calls": len(div_top),
            "divergences.sdp_s": sum(dur[i] for i in div_top if solves_below[i]),
            "divergences.closed_s": sum(dur[i] for i in div_top
                                        if not solves_below[i]),
            "channels.calls": total(lambda i: layer[i] == "channels" and outermost[i],
                                    [1] * n),
            "channels.s": total(lambda i: layer[i] == "channels" and outermost[i], dur),
            "linalg.calls": len(linalg_top),
            "linalg.s": sum(dur[i] for i in linalg_top),
            "linalg.share_big_rungs": ratio(linalg_big, big_wall),
            "sweep.points": len(points),
            "sweep.self_s": sum(self_t[i] for i in points),
            "sweep.failed_cells": sum(spans[i][6]["failed_cells"] for i in points
                                      if spans[i][6] is not None),
            "share.solve_compile_self": ratio(
                sum(self_t[i] for i in solves)
                + sum(self_t[i] for i in compiles), wall),
            "trace.spans": n,
        })
        return out
