"""The benchmark tracer (``perfbench/tracer.py``) reads the solver's problem
shape from outside the package; these tests pin the interface it reads."""

from pathlib import Path

import numpy as np

from symdist import tasks
from symdist.boxes import random_box
from symdist.model import Model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_match_compiled_programs(monkeypatch):
    """One traced cost_approx: its phase-I program is compiled twice, at
    t = 0 and t = 1, and solved at every step, 7 times (each solve after
    the first starts warm; all cold, the call also took 7), and the largest m
    and block the tracer reports are those of the compiled problems.  The
    complex qubit box is solved in its real frame, so the program compiles
    real: no block is doubled."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    compiled = []
    original = Model.compile

    def recording_compile(self):
        out = original(self)
        compiled.append(out[0])
        return out

    monkeypatch.setattr(Model, "compile", recording_compile)
    t = tracer.Tracer()
    t.install()
    try:
        tasks.cost_approx(random_box(2, np.random.default_rng(3)), 0.05, tasks.CDS)
    finally:
        t.uninstall()
    metrics = t.metrics(big_dim=256)

    assert metrics["sdp.solves"] == 7
    assert metrics["model.compiles"] == len(compiled) == 2
    assert metrics["sdp.max_m"] == max(len(p.constraints) for p in compiled) == 17
    assert metrics["sdp.max_block"] == max(max(p.blocks) for p in compiled) == 2
