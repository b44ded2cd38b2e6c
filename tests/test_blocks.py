"""Schur-Weyl block form of qubit tensor powers against the dense form."""

import json
import math

import numpy as np
import pytest

from symdist import cli
from symdist import divergences as dv
from symdist import linalg, tasks
from symdist.boxes import (QuantumBox, box_from_json, box_to_json, golden_box,
                           random_box, tensor_box)
from symdist.channels import CdsMap, apply_cds, apply_cptp
from symdist.tasks import CDS, CPTPA

from conftest import dense_box
from oracles import p_err_sdp

TOL = 1e-10


def _boxes():
    """A complex box, a real one and one with a skewed prior.  Their states
    keep lambda_min >= 0.05, so the dense side stays an accurate reference
    up to n = 4 (``test_block_form_is_additive_where_dense_drifts``)."""
    return [random_box(2, np.random.default_rng(7)),
            random_box(2, np.random.default_rng(14), real=True),
            random_box(2, np.random.default_rng(12), p=0.1)]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _apply(witness, box):
    if isinstance(witness, CdsMap):
        return apply_cds(witness, box)
    return apply_cptp(witness, box)


def test_block_layout_of_nine_qubits():
    t = tensor_box(random_box(2, np.random.default_rng(7)), 9)
    assert [len(b) for b in t.rho0.blocks] == [10, 8, 6, 4, 2]
    assert t.rho0.mults == (1, 8, 27, 48, 42)
    assert t.dim == 512


@pytest.mark.parametrize("n", range(1, 10))
def test_dense_form_is_the_kronecker_power(n):
    b = random_box(2, np.random.default_rng(7))
    t = tensor_box(b, n)
    for block_form, state in ((t.rho0, b.rho0), (t.rho1, b.rho1)):
        dense = np.asarray(block_form)
        assert np.abs(dense - linalg.tensor_power(state, n)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 5))
def test_closed_forms_match_dense(n):
    for b1 in _boxes():
        t = tensor_box(b1, n)
        d = dense_box(t)
        other = tensor_box(random_box(2, np.random.default_rng(13)), n)
        pairs = [
            (dv.p_err, lambda b: (b,)),
            (dv.sd, lambda b: (b,)),
            (dv.d_max, lambda b: (b.rho0, b.rho1)),
            (dv.d_max, lambda b: (b.rho1, b.rho0)),
            (dv.thompson, lambda b: (b.rho0, b.rho1)),
            (dv.q_max, lambda b: (b.rho0, b.rho1)),
            (dv.q_max_star, lambda b: (b,)),
            (dv.xi_max, lambda b: (b.rho0, b.rho1)),
            (dv.xi_max_star, lambda b: (b,)),
            (dv.chernoff, lambda b: (b.rho0, b.rho1)),
            (lambda r0, r1: dv.q_min(r0, r1).value, lambda b: (b.rho0, b.rho1)),
            (dv.xi_min, lambda b: (b.rho0, b.rho1)),
            (lambda b: dv.q_min_eps(b, 0.05), lambda b: (b,)),
        ]
        for f, args in pairs:
            got, want = f(*args(t)), f(*args(d))
            assert _close(got, want), (n, f, got, want)
        for f in (dv.cq_trace_distance, dv.scaled_trace_distance):
            assert _close(f(t, other), f(d, dense_box(other)))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_exact_tasks_match_dense(n, regime):
    for b1 in _boxes():
        t = tensor_box(b1, n)
        d = dense_box(t)
        for task in (tasks.cost_exact, tasks.distill_exact):
            got, want = task(t, regime).value, task(d, regime).value
            assert _close(got, want), (n, task, got, want)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_block_witnesses_reach_their_targets(n, regime):
    """The dilution witness maps the golden unit onto b^(x)n, and the
    distillation witness maps b^(x)n onto its golden unit, in block form."""
    q = 0.5 if regime == CDS else None
    for b1 in _boxes():
        t = tensor_box(b1, n)
        res = tasks.cost_exact(t, regime)
        src = golden_box(2.0 ** res.value, t.p if q is None else q)
        assert dv.cq_trace_distance(_apply(res.witness, src), t) <= 1e-9
        res = tasks.distill_exact(t, regime)
        target = golden_box(2.0 ** res.value, t.p if q is None else q)
        assert dv.cq_trace_distance(_apply(res.witness, t), target) <= 1e-9


def test_block_form_is_additive_where_dense_drifts():
    """On a real box with lambda_min(rho0) = 0.0035, d_max(rho1 || rho0^(x)4)
    from the dense form is 6.5e-11 off 4 d_max(rho1 || rho0) and its q_max
    1.4e-9 off; the block form keeps additivity to 1e-10."""
    b = random_box(2, np.random.default_rng(11), real=True)
    t = tensor_box(b, 4)
    for r0, r1 in ((0, 1), (1, 0)):
        one = dv.d_max((b.rho0, b.rho1)[r0], (b.rho0, b.rho1)[r1])
        got = dv.d_max((t.rho0, t.rho1)[r0], (t.rho0, t.rho1)[r1])
        assert _close(got, 4 * one)
    assert _close(dv.chernoff(t.rho0, t.rho1), 4 * dv.chernoff(b.rho0, b.rho1))


def test_exact_cost_rate_approaches_thompson_from_below():
    """(1/n) cost_exact(b^(x)n, cptpA) = f(n D_T)/n with f(x) =
    log2((2^x + 1)/2), convex with f(0) = 0, so it is nondecreasing in n and
    at most the Thompson rate D_T; convergence is not asserted."""
    b = random_box(2, np.random.default_rng(7))
    rate = dv.thompson(b.rho0, b.rho1)
    per_copy = [tasks.cost_exact(tensor_box(b, n), CPTPA).value / n
                for n in range(1, 10)]
    assert all(x <= rate for x in per_copy)
    assert all(x <= y for x, y in zip(per_copy, per_copy[1:]))


def test_nine_copies_stay_in_block_form(no_dense, decompositions):
    """The closed forms and exact tasks on b^(x)9 (d = 512), and both
    witnesses applied, never build a dense matrix and decompose nothing
    larger than the largest block, n + 1 = 10."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 9)
    dv.sd(t)
    dv.chernoff(t.rho0, t.rho1)
    dv.thompson(t.rho0, t.rho1)
    dv.q_min(t.rho0, t.rho1)
    for regime in (CPTPA, CDS):
        q = 0.5 if regime == CDS else t.p
        res = tasks.cost_exact(t, regime)
        assert math.isfinite(res.value)
        assert isinstance(_apply(res.witness, golden_box(2.0 ** res.value, q)).rho0,
                          linalg.BlockOp)
        res = tasks.distill_exact(t, regime)
        assert _apply(res.witness, t).dim == 2
    assert 0 < decompositions.largest <= 10


def test_programs_materialise_block_boxes_once():
    """The programs take dense data; a block-form box gives the same program
    value as its dense form."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 2)
    target = random_box(4, np.random.default_rng(8))
    got = tasks.min_conversion_error(t, target, CDS).value
    want = tasks.min_conversion_error(dense_box(t), target, CDS).value
    assert got == pytest.approx(want, abs=1e-6)
    assert p_err_sdp(t) == pytest.approx(dv.p_err(t), abs=1e-6)


@pytest.mark.parametrize("delta, equal", [(5e-11, True), (6.2e-11, False)])
def test_box_equality_is_the_same_in_block_and_dense_form(delta, equal):
    """scaled_trace_distance against a box with p_err = 0 is 0 for equal
    boxes and inf otherwise.  Here the weighted states differ by 1.5 delta
    in their largest entry and by about 1.73 delta in Frobenius norm, so at
    delta = 6.2e-11 an entrywise test at 1e-10 would call them equal; the
    Frobenius test reads the same in both forms."""
    n = 3
    sigma = tensor_box(golden_box(math.inf, 0.5), n)
    rho = tensor_box(QuantumBox(0.5, np.diag([1 - delta, delta]),
                                np.diag([delta, 1 - delta])), n)
    want = 0.0 if equal else math.inf
    for r, s in ((rho, sigma), (dense_box(rho), dense_box(sigma)),
                 (dense_box(rho), sigma)):
        assert dv.scaled_trace_distance(r, s) == want


def test_json_round_trip_keeps_the_block_form(tmp_path, capsys):
    """box_to_json of a qubit tensor power records its one-copy states, so
    box_from_json rebuilds the same blocks and the CLI prints the library's
    value.  On this rung (condition number ~4e4) a dense evaluation of the
    same box differs from the block one in the 12th digit."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 4)
    back = box_from_json(box_to_json(t))
    for got, want in ((back.rho0, t.rho0), (back.rho1, t.rho1)):
        assert got.mults == want.mults
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))
    path = tmp_path / "box.json"
    path.write_text(box_to_json(t))
    for regime in (CPTPA, CDS):
        assert cli.main(["dilute", str(path), "--regime", regime]) == 0
        want = format(tasks.cost_exact(t, regime).value, ".12g")
        assert capsys.readouterr().out.strip() == want


def test_json_tensor_power_field_is_checked():
    t = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    data = json.loads(box_to_json(t))
    data["tensor_power"]["n"] = 2
    with pytest.raises(ValueError, match="tensor_power"):
        box_from_json(json.dumps(data))
    data = json.loads(box_to_json(t))
    data["tensor_power"]["rho1"] = data["tensor_power"]["rho0"]
    with pytest.raises(ValueError, match="tensor_power"):
        box_from_json(json.dumps(data))
    data = json.loads(box_to_json(t))
    del data["tensor_power"]
    dense = box_from_json(json.dumps(data))
    assert isinstance(dense.rho0, np.ndarray)
    assert np.abs(dense.rho0 - np.asarray(t.rho0)).max() <= 1e-15
