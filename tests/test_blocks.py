"""Schur-Weyl quotients of qubit tensor powers against the full register."""

import json
import math

import numpy as np
import pytest

from symdist import cli, sdp
from symdist import divergences as dv
from symdist import linalg, model, tasks
from symdist.boxes import (QuantumBox, box_from_json, box_to_json, golden_box,
                           random_box, real_frame, tensor_box)
from symdist.channels import CdsMap, apply_cds, apply_cptp
from symdist.exceptions import DimensionMismatchError
from symdist.tasks import CDS, CPTPA

from conftest import dense_box
from oracles import (apply_kraus, dense_witness_chois, lift, one_block, p_err_sdp,
                     schur_channels)

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
    """Block k of a state is its multiplicity times pi_k(rho)."""
    b = random_box(2, np.random.default_rng(7))
    t = tensor_box(b, 9)
    assert [len(x) for x in t.rho0.blocks] == [10, 8, 6, 4, 2]
    pi = linalg.schur_weyl_power(b.rho0, 9)
    for x, y, m in zip(t.rho0.blocks, pi.blocks, (1, 8, 27, 48, 42)):
        assert np.abs(x - m * y).max() <= 1e-12
    assert t.dim == 512 and t.rho0.shape == (30, 30)


@pytest.mark.parametrize("n", range(1, 10))
def test_dense_form_is_the_kronecker_power(n):
    """The recovery map R takes the quotient's block-diagonal matrix to the
    Kronecker power."""
    b = random_box(2, np.random.default_rng(7))
    t = tensor_box(b, n)
    r_kraus = schur_channels(n)[1]
    for quotient, state in ((t.rho0, b.rho0), (t.rho1, b.rho1)):
        dense = apply_kraus(r_kraus, quotient)
        assert np.abs(dense - linalg.tensor_power(state, n)).max() <= 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_pinch_and_recovery_maps_are_channels_that_invert(n):
    """E and R are CPTP (Kraus form, sum_K K^dag K = I), E takes rho^(x)n to
    the quotient state and R takes it back."""
    e_kraus, r_kraus = schur_channels(n)
    for kraus in (e_kraus, r_kraus):
        d = kraus[0].shape[1]
        assert np.abs(sum(k.T @ k for k in kraus) - np.eye(d)).max() <= 1e-12
    b = random_box(2, np.random.default_rng(7))
    t = tensor_box(b, n)
    for quotient, state in ((t.rho0, b.rho0), (t.rho1, b.rho1)):
        power = linalg.tensor_power(state, n)
        pinched = apply_kraus(e_kraus, power)
        assert np.abs(pinched - np.asarray(quotient)).max() <= 1e-12
        assert np.abs(apply_kraus(r_kraus, pinched) - power).max() <= 1e-12


def test_tensor_box_of_a_tensor_power_is_the_longer_power():
    b = random_box(2, np.random.default_rng(7))
    got, want = tensor_box(tensor_box(b, 2), 3), tensor_box(b, 6)
    assert got.dim == 64 and got.qubit_power[2] == 6
    for x, y in ((got.rho0, want.rho0), (got.rho1, want.rho1)):
        assert isinstance(x, linalg.BlockOp) and x.qubits == 6
        assert all(np.array_equal(u, v) for u, v in zip(x.blocks, y.blocks))


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
    """A block-form box gives the same program value as its dense form, in
    the library's block program and in the oracle, which reads its
    block-diagonal matrix."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 2)
    target = random_box(4, np.random.default_rng(8))
    got = tasks.min_conversion_error(t, target, CDS).value
    want = tasks.min_conversion_error(dense_box(t), target, CDS).value
    assert got == pytest.approx(want, abs=1e-6)
    assert p_err_sdp(t) == pytest.approx(dv.p_err(t), abs=1e-6)


@pytest.mark.parametrize("delta, equal", [(3.2e-11, True), (3.5e-11, False)])
def test_box_equality_is_the_same_in_block_and_dense_form(delta, equal):
    """scaled_trace_distance against a box with p_err = 0 is 0 for equal
    boxes and inf otherwise, by their c-q trace distance, here 3 delta to
    first order.  The pinch-and-trace map preserves the trace norm of
    block-form operators, so the test reads the same on the quotient and
    on the full register; a full-register box against a quotient is a
    dimension mismatch."""
    n = 3
    sigma = tensor_box(golden_box(math.inf, 0.5), n)
    rho = tensor_box(QuantumBox(0.5, np.diag([1 - delta, delta]),
                                np.diag([delta, 1 - delta])), n)
    want = 0.0 if equal else math.inf
    for r, s in ((rho, sigma), (dense_box(rho), dense_box(sigma))):
        assert dv.scaled_trace_distance(r, s) == want
    with pytest.raises(DimensionMismatchError):
        dv.scaled_trace_distance(dense_box(rho), sigma)


def test_a_quotient_and_a_dense_box_of_one_shape_are_a_dimension_mismatch():
    """The quotient of b^(x)2 and a dense box on C^4 hold 4 x 4 states in
    different layouts; comparing them raises in either order."""
    q = tensor_box(random_box(2, np.random.default_rng(7)), 2)
    d = random_box(4, np.random.default_rng(8))
    assert q.rho0.shape == d.rho0.shape
    for a, b in ((q, d), (d, q)):
        with pytest.raises(DimensionMismatchError):
            dv.scaled_trace_distance(a, b)


def test_json_round_trip_keeps_the_block_form(tmp_path, capsys):
    """box_to_json of a qubit tensor power records its one-copy states, so
    box_from_json rebuilds the same blocks and the CLI prints the library's
    value.  On this rung (condition number ~4e4) a dense evaluation of the
    same box differs from the block one in the 12th digit."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 4)
    back = box_from_json(box_to_json(t))
    for got, want in ((back.rho0, t.rho0), (back.rho1, t.rho1)):
        assert [len(x) for x in got.blocks] == [len(x) for x in want.blocks]
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
    assert np.abs(dense.rho0 - dense_box(t).rho0).max() <= 1e-15


# --- programs on the quotient against the full register ---------------------------

@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_conversion_from_a_quotient_matches_the_full_register(n, regime):
    """min_conversion_error from b^(x)n agrees on the quotient and on the
    Kronecker power (the argument is in
    ``test_conversion_into_a_quotient_matches_the_full_register``), and the
    quotient's witness, lifted to Lambda o E, reaches the value from the
    Kronecker power."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), n)
    target = random_box(2, np.random.default_rng(8))
    res = tasks.min_conversion_error(t, target, regime)
    full = dense_box(t)
    assert res.value == pytest.approx(
        tasks.min_conversion_error(full, target, regime).value, abs=1e-6)
    out = _apply(lift(res.witness, n), full)
    assert dv.scaled_trace_distance(out, target) <= res.value + 1e-5


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_cost_approx_on_a_quotient_matches_the_full_register(n, regime):
    """Dilution into the eps-ball of b^(x)n or of its quotient: R and E map
    either ball into the other (see
    ``test_conversion_into_a_quotient_matches_the_full_register``)."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), n)
    assert tasks.cost_approx(t, 0.05, regime).value == pytest.approx(
        tasks.cost_approx(dense_box(t), 0.05, regime).value, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_conversion_into_a_quotient_matches_the_full_register(n, regime):
    """Converting into c^(x)n or into its quotient Q has the same least error.

    E and R are channels on the quantum register, so free in both regimes,
    and E(R(Y)) = Y on the quotient.  The error of a free map Lambda into a
    target sigma is D'(Lambda(b) || sigma) = ||Lambda(b) - sigma||_1 /
    (2 p_err(sigma)) (c-q trace norm).  The trace norm does not grow under
    a channel, and p_err(R(Q)) = p_err(Q): it cannot fall under R, nor rise
    under E, which undoes R.  So R o Lambda into R(Q) = c^(x)n errs at most
    as much as Lambda into Q, and E o Lambda' into Q at most as much as
    Lambda' into c^(x)n.  The same argument on the source side, with
    Lambda o R and Lambda o E, covers conversion and dilution from b^(x)n.
    """
    source = random_box(2, np.random.default_rng(8))
    t = tensor_box(random_box(2, np.random.default_rng(7), p=0.6), n)
    assert tasks.min_conversion_error(source, t, regime).value == pytest.approx(
        tasks.min_conversion_error(source, dense_box(t), regime).value, abs=1e-6)


def test_conversion_from_five_copies_solves_on_the_quotient(monkeypatch):
    """b^(x)5 enters the program as the blocks of its 12 x 12 quotient, so
    the largest PSD block is the real Choi variable of its largest block
    with the qubit output, 6 x 2, and no Kronecker power is built."""
    def refuse(*args):
        raise AssertionError("Kronecker power built")

    blocks = []
    solve = sdp.solve

    def recording_solve(problem, options=None, start=None):
        blocks.extend(problem.blocks)
        return solve(problem, options, start)

    monkeypatch.setattr(linalg, "tensor_power", refuse)
    monkeypatch.setattr(sdp, "solve", recording_solve)
    t = tensor_box(random_box(2, np.random.default_rng(7)), 5)
    tasks.min_conversion_error(t, random_box(2, np.random.default_rng(8)), CDS)
    assert 0 < max(blocks) <= 12


def _named(name: str) -> QuantumBox:
    """"b" and "c" are the dense qubit boxes random_box(2, default_rng(7))
    and random_box(2, default_rng(8)); "bN" and "cN" the quotient boxes of
    their N-th tensor powers."""
    box = random_box(2, np.random.default_rng({"b": 7, "c": 8}[name[0]]))
    return tensor_box(box, int(name[1:])) if name[1:] else box


@pytest.mark.parametrize("source, target", [
    ("b1", "c1"), ("b2", "c2"), ("b3", "c3"), ("b4", "c4"), ("b5", "c"), ("c", "b3")])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_block_conversion_matches_one_block(source, target, regime):
    """min_conversion_error on block variables has the value of the
    single-block program on the merged quotient matrices (``one_block``;
    the argument is in its docstring).  Into a tensor power, the witness
    taken to the full register (Lambda o E from a tensor power, then R on
    the output) reaches that value against the Kronecker power."""
    src, tgt = _named(source), _named(target)
    res = tasks.min_conversion_error(src, tgt, regime)
    want = tasks.min_conversion_error(one_block(src), one_block(tgt), regime).value
    assert res.value == pytest.approx(want, abs=1e-6)
    if tgt.qubit_power is None:
        return
    witness = lift(res.witness, src.qubit_power[2]) if src.qubit_power else res.witness
    out = _apply(witness, dense_box(src))
    r_kraus = schur_channels(tgt.qubit_power[2])[1]
    full = QuantumBox(out.p, apply_kraus(r_kraus, out.rho0),
                      apply_kraus(r_kraus, out.rho1))
    assert dv.scaled_trace_distance(full, dense_box(tgt)) <= res.value + 1e-5


@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_conversion_into_nine_copies_solves(regime):
    """b -> c^(x)9 solves, and its witness, with R on the output, reaches
    the value against the Kronecker power within 1e-5 either way.  Its
    target's first block spans 13 decades.  Before the solver's Mehrotra
    corrector, the program in the computational basis of the blocks ended
    max_iterations under cds; it now solves in that basis."""
    src, tgt = _named("b"), _named("c9")
    res = tasks.min_conversion_error(src, tgt, regime)
    out = _apply(res.witness, src)
    r_kraus = schur_channels(9)[1]
    full = QuantumBox(out.p, apply_kraus(r_kraus, out.rho0),
                      apply_kraus(r_kraus, out.rho1))
    assert dv.scaled_trace_distance(full, dense_box(tgt)) == pytest.approx(
        res.value, abs=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_cost_approx_on_blocks_matches_one_block(n, regime):
    t = tensor_box(random_box(2, np.random.default_rng(7)), n)
    assert tasks.cost_approx(t, 0.05, regime).value == pytest.approx(
        tasks.cost_approx(one_block(t), 0.05, regime).value, abs=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_cost_approx_phase1_solves_end_optimal(n, regime):
    """Every phase-I solve of cost_approx on b^(x)n, n <= 3, ends optimal,
    so none is taken on its residuals alone and no warm solve is retried.
    With the tau pivot formed from C rather than around the dual point, 1
    to 8 solves per call ended ill_conditioned or max_iterations."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), n)
    diag = tasks.cost_approx(t, 0.05, regime).diagnostics
    assert {k: v for k, v in diag.items() if k not in ("M", "solves", "iterations")} == \
        {"ill_conditioned": 0, "retried": 0}


def test_nine_to_nine_conversion_compiles_to_blocks(monkeypatch):
    """b^(x)9 -> c^(x)9 under cds compiles to one real Choi block per branch
    and pair of blocks (sizes 10, 8, 6, 4, 2 on each side), the largest
    10 x 10 = 100 and none the quotient-sized 30 x 30 = 900, and four
    trace-distance blocks per output block: 70 blocks and 2 x 125 image
    rows plus 125 trace-preservation rows.  The solve is not run."""
    class Compiled(Exception):
        pass

    problems = []

    def abort(problem, options=None):
        problems.append(problem)
        raise Compiled

    monkeypatch.setattr(sdp, "solve", abort)
    with pytest.raises(Compiled):
        tasks.min_conversion_error(_named("b9"), _named("c9"), CDS)
    (problem,) = problems
    assert max(problem.blocks) <= 100 and 900 not in problem.blocks
    assert (len(problem.blocks), len(problem.constraints)) == (70, 375)


def test_real_data_stay_real_from_the_source():
    """Data whose imaginary parts are all exactly zero are stored real where
    they enter, so the programs read real blocks; complex data stay
    complex."""
    assert linalg.BlockOp.of(np.diag([0.25, 0.75]).astype(complex)).blocks[0].dtype == float
    b = random_box(2, np.random.default_rng(7))
    framed = tensor_box(real_frame(b)[0], 3)
    assert all(x.dtype == float for r in (framed.rho0, framed.rho1) for x in r.blocks)
    back = box_from_json(box_to_json(random_box(2, np.random.default_rng(14), real=True)))
    assert back.rho0.dtype == float and back.rho1.dtype == float
    for box in (b, *(tensor_box(b, n) for n in (1, 4, 9))):
        blocks, _ = tasks._program_blocks(box)
        assert all(x.dtype == float for pair in blocks for x in pair)
    blocks, pis = tasks._program_blocks(random_box(3, np.random.default_rng(5)))
    assert [x.dtype for x in blocks[0]] == [complex, complex]
    assert len(pis) == 1 and np.array_equal(pis[0], np.eye(3))


@pytest.mark.parametrize("source, target", [
    *((f"b{n}", f"c{m}") for n in (1, 2, 3) for m in (1, 2, 3)), ("d3", "c")])
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_block_witness_matches_the_dense_witness(monkeypatch, source, target, regime):
    """The witness built one block pair at a time has the Choi matrices of
    the witness built at the quotient size (``dense_witness_chois``) from
    the same solve's blocks Omega_kl, with each side's frame pi_k(U); "d3"
    is a complex qutrit box, which keeps the program complex and is left
    unframed."""
    solves = []
    require = model.require_optimal
    monkeypatch.setattr(model, "require_optimal",
                        lambda res, what: solves.append(res) or require(res, what))
    src = random_box(3, np.random.default_rng(5)) if source == "d3" else _named(source)
    tgt = _named(target)
    witness = tasks.min_conversion_error(src, tgt, regime).witness
    (blocks, us), (sigmas, vs) = tasks._program_blocks(src), tasks._program_blocks(tgt)
    d_in, d_out = [len(w0) for w0, _ in blocks], [len(s0) for s0, _ in sigmas]
    (res,) = solves
    parts = [{(k, l): res.primal[f"om{j}_{k}_{l}"]
              for k in range(len(d_in)) for l in range(len(d_out))}
             for j in ((0, 1) if regime == CDS else (0,))]
    maps = (witness.e0, witness.e1) if regime == CDS else (witness,)
    for got, want in zip(maps, dense_witness_chois(parts, d_in, d_out, us, vs),
                         strict=True):
        assert np.abs(got.choi - want).max() <= 1e-10


def test_conversion_witness_decomposes_block_pairs_only(decompositions):
    """b^(x)5 -> c^(x)5 (quotient size 12, blocks 6, 4, 2 on each side)
    makes no eigh larger than the largest block pair, 6 x 6 = 36: the
    witness is made PSD and normalised one block pair at a time.  Only the
    validating eigvalsh of each branch's CpMap sees its 144 x 144 Choi
    matrix."""
    tasks.min_conversion_error(_named("b5"), _named("c5"), CDS)
    assert max(size for name, size in decompositions if name == "eigh") <= 36
    assert {key: n for key, n in decompositions.items() if key[1] > 36} == \
        {("eigvalsh", 144): 2}
