import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linprog

from symdist import divergences as dv
from symdist import sdp, tasks
from symdist.boxes import (QuantumBox, golden_box, random_box, random_density,
                           real_frame, tensor_box)
from symdist.channels import CdsMap, apply_cds, apply_cptp
from symdist.exceptions import ParameterRangeError, SolverError
from symdist.tasks import CDS, CPTPA

from conftest import box_distance, dense_box, dilution_reproducer, figure4_boxes
from oracles import (conversion_error_program, conversion_error_to_infinite,
                     distill_approx_program)


def _apply_witness(witness, box):
    if isinstance(witness, CdsMap):
        return apply_cds(witness, box)
    return apply_cptp(witness, box)


# --- exact distillation -----------------------------------------------------------

def test_distill_exact_values(rng):
    b = random_box(2, rng)
    assert tasks.distill_exact(b, CPTPA).value == pytest.approx(
        dv.xi_min(b.rho0, b.rho1), abs=1e-9)
    assert tasks.distill_exact(b, CDS).value == pytest.approx(dv.sd(b), abs=1e-12)
    g = golden_box(4, 0.3)
    assert tasks.distill_exact(g, CPTPA).value == pytest.approx(2.0, abs=1e-7)
    # orthogonal supports distill without limit under CPTP_A too
    o = QuantumBox(0.3, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert math.isinf(tasks.distill_exact(o, CPTPA).value)


def test_an_unknown_regime_raises():
    b, c = golden_box(2, 0.5), golden_box(3, 0.5)
    for call in (lambda r: tasks.distill_exact(b, r), lambda r: tasks.cost_exact(b, r),
                 lambda r: tasks.distill_approx(b, 0.1, r),
                 lambda r: tasks.cost_approx(b, 0.1, r),
                 lambda r: tasks.min_conversion_error(b, c, r),
                 lambda r: tasks.transform_rate(b, c, r)):
        with pytest.raises(ParameterRangeError, match="regime"):
            call("cptp")


def test_distill_exact_singular_prior(rng):
    rho = random_density(2, rng)
    b = QuantumBox(0.0, rho, random_density(2, rng))
    assert math.isinf(tasks.distill_exact(b, CPTPA).value)
    assert math.isinf(tasks.distill_exact(b, CDS).value)


def test_distill_witnesses_reach_claimed_golden(rng):
    for _ in range(5):
        b = random_box(2, rng)
        res = tasks.distill_exact(b, CPTPA)
        target = golden_box(2.0 ** res.value, b.p)
        assert box_distance(_apply_witness(res.witness, b), target) <= 1e-7
        res = tasks.distill_exact(b, CDS)
        target = golden_box(2.0 ** res.value, 0.5)
        assert box_distance(_apply_witness(res.witness, b), target) <= 1e-7


def test_cost_exact_values(rng):
    b = random_box(2, rng)
    assert tasks.cost_exact(b, CPTPA).value == pytest.approx(
        dv.xi_max(b.rho0, b.rho1), abs=1e-12)
    assert tasks.cost_exact(b, CDS).value == pytest.approx(
        dv.xi_max_star(b), abs=1e-12)
    rho = random_density(2, rng)
    assert tasks.cost_exact(QuantumBox(0.4, rho, rho), CPTPA).value == \
        pytest.approx(0.0, abs=1e-9)
    assert tasks.cost_exact(QuantumBox(1 / 3, rho, rho), CDS).value == \
        pytest.approx(math.log2(1.5), abs=1e-9)
    assert tasks.cost_exact(golden_box(4, 0.5), CDS).value == \
        pytest.approx(2.0, abs=1e-9)


def test_cost_exact_singular_prior(rng):
    rho = random_density(2, rng)
    b = QuantumBox(1.0, rho, rho)
    assert tasks.cost_exact(b, CPTPA).value == 0.0
    assert math.isinf(tasks.cost_exact(b, CDS).value)


def test_cost_witnesses_reach_target(rng):
    for _ in range(5):
        b = random_box(2, rng)
        res = tasks.cost_exact(b, CPTPA)
        src = golden_box(2.0 ** res.value, b.p)
        assert box_distance(_apply_witness(res.witness, src), b) <= 1e-7
        res = tasks.cost_exact(b, CDS)
        src = golden_box(2.0 ** res.value, 0.5)
        assert box_distance(_apply_witness(res.witness, src), b) <= 1e-7


def test_state_below_zero_is_stored_psd():
    """rho1 has eigenvalues (-5e-10, 0.3 + 5e-10, 0.7): validation accepts
    it (slack 1e-9) and stores it with the negative eigenvalue set to zero,
    so the exact costs, whose d_max admits only -1e-10, are the clamped
    box's."""
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rho0 = u[:, 1:] @ random_density(2, rng, real=True) @ u[:, 1:].T
    rho1 = (u * [-5e-10, 0.3 + 5e-10, 0.7]) @ u.T
    clamped = (u * [0.0, 0.3 + 5e-10, 0.7]) @ u.T / (1.0 + 5e-10)
    b, ref = QuantumBox(0.4, rho0, rho1), QuantumBox(0.4, rho0, clamped)
    for regime in (CPTPA, CDS):
        got = tasks.cost_exact(b, regime).value
        assert math.isfinite(got)
        assert got == pytest.approx(tasks.cost_exact(ref, regime).value, rel=1e-9)


@pytest.mark.parametrize("regime, eigh_max, eigvalsh_max",
                         [(CPTPA, 4, 4), (CDS, 4, 6)])
def test_cost_exact_decomposes_each_operator_once(decompositions, regime,
                                                   eigh_max, eigvalsh_max):
    """One Thompson metric, one eigh per prepared state, which validates
    it, and a PSD test on each qubit effect of the witness; nothing of the
    Choi size 2d.  The bounds are upper bounds (the block test below pins
    exact counts)."""
    b = dense_box(tensor_box(random_box(2, np.random.default_rng(7)), 3))
    decompositions.clear()  # state validation
    tasks.cost_exact(b, regime)
    assert decompositions.largest == 8
    assert decompositions["eigh", 8] <= eigh_max
    assert decompositions["eigvalsh", 8] <= eigvalsh_max


@pytest.mark.parametrize("regime, eigvalsh_4, eigvalsh_2",
                         [(CPTPA, 2, 4), (CDS, 2, 6)])
def test_cost_exact_decomposes_each_block_once(decompositions, regime,
                                               eigvalsh_4, eigvalsh_2):
    """Block form of b^(x)3 (blocks of size 4 and 2): per block, the Thompson
    metric's two eigh and two eigvalsh and one eigh per prepared state,
    which validates it for both branches; then one eigvalsh per qubit
    effect of each witness branch (one branch under cptpA, two under cds)."""
    b = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    decompositions.clear()  # state validation
    tasks.cost_exact(b, regime)
    assert decompositions == {("eigh", 4): 4, ("eigh", 2): 4,
                              ("eigvalsh", 4): eigvalsh_4,
                              ("eigvalsh", 2): eigvalsh_2}


def test_one_shot_irreversibility(rng):
    """Distillable bits never exceed the cost, per regime."""
    for _ in range(5):
        b = random_box(2, rng)
        assert tasks.distill_exact(b, CPTPA).value <= \
            tasks.cost_exact(b, CPTPA).value + 1e-7
        assert tasks.distill_exact(b, CDS).value <= \
            tasks.cost_exact(b, CDS).value + 1e-7


# --- conversion ---------------------------------------------------------------------

def test_conversion_to_self_is_zero(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        res = tasks.min_conversion_error(b, b, regime)
        assert res.value <= 1e-6
        out = _apply_witness(res.witness, b)
        assert dv.scaled_trace_distance(out, b) <= 1e-5


def test_conversion_from_infinite_source(rng):
    src = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    tgt = random_box(2, rng)
    res = tasks.min_conversion_error(src, tgt, CDS)
    assert res.value == 0.0
    assert box_distance(_apply_witness(res.witness, src), tgt) <= 1e-9


def test_conversion_equal_state_boxes_formula(rng):
    """(p,rho,rho) -> (q,sigma,sigma) costs |p-q|/min(q,1-q)."""
    rho, sig = random_density(2, rng), random_density(2, rng)
    src = QuantumBox(1 / 3, rho, rho)
    tgt = QuantumBox(1 / 4, sig, sig)
    expected = abs(1 / 3 - 1 / 4) / (1 / 4)
    for regime in (CPTPA, CDS):
        res = tasks.min_conversion_error(src, tgt, regime)
        assert res.value == pytest.approx(expected, abs=1e-6)


def _diagonal_conversion_lp(source, target, regime):
    """Conversion error between diagonal boxes as a linear program.

    Dephasing the output keeps a free map free and cannot increase the
    distance to a diagonal target, so the free maps reduce to nonnegative
    matrices E0, E1 with E0 + E1 column-stochastic (E1 = 0 under CPTP_A),
    each pair realised by a measure-and-prepare map in the diagonal basis.
    """
    states = (source.rho0, source.rho1, target.rho0, target.rho1)
    assert all(np.abs(r - np.diag(np.diag(r))).max() <= 1e-12 for r in states)
    w0, w1 = (np.diag(r).real[None, :] for r in source.weighted())
    s0, s1 = (np.diag(r).real for r in target.weighted())
    d = len(s0)
    eye = np.eye(d)
    # variables: E0[y, x], E1[y, x] row-major, then t0[y], t1[y]
    out0 = np.hstack([np.kron(eye, w0), np.kron(eye, w1)])
    out1 = np.hstack([np.kron(eye, w1), np.kron(eye, w0)])
    zero = np.zeros((d, d))
    a_ub = np.vstack([np.hstack([out0, -eye, zero]),
                      np.hstack([-out0, -eye, zero]),
                      np.hstack([out1, zero, -eye]),
                      np.hstack([-out1, zero, -eye])])
    b_ub = np.concatenate([s0, -s0, s1, -s1])
    col_sum = np.kron(np.ones((1, d)), eye)
    a_eq = np.hstack([col_sum, col_sum, np.zeros((d, 2 * d))])
    p_err_target = np.minimum(s0, s1).sum()
    cost = np.concatenate([np.zeros(2 * d * d), np.full(2 * d, 0.5)])
    e1_bound = (0, None) if regime == CDS else (0, 0)
    bounds = [(0, None)] * (d * d) + [e1_bound] * (d * d) + [(0, None)] * (2 * d)
    res = linprog(cost / p_err_target, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq,
                  b_eq=np.ones(d), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.fun


def test_conversion_figure4_diagonal_lp():
    """At phi = pi/2 the Figure-4 boxes are diagonal: an independent LP
    gives the plateau in both regimes (2/15 under CDS, 1/3 under CPTP_A)."""
    source, target = figure4_boxes(math.pi / 2)
    for regime in (CDS, CPTPA):
        res = tasks.min_conversion_error(source, target, regime)
        assert res.value == pytest.approx(
            _diagonal_conversion_lp(source, target, regime), abs=1e-6)


CONVERSION_DIMS = [(2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("dims", CONVERSION_DIMS + [(4, 2)],
                         ids="{0[0]}-{0[1]}".format)
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_conversion_witness_achieves_value(rng, regime, dims):
    """The witness, mapped back from the real frame where the program was
    solved, reaches the value; a 4-dim source is the two-copy power of a
    complex qubit box, in block form."""
    src = tensor_box(random_box(2, rng), 2) if dims[0] == 4 else random_box(dims[0], rng)
    tgt = random_box(dims[1], rng)
    res = tasks.min_conversion_error(src, tgt, regime)
    out = _apply_witness(res.witness, src)
    assert dv.scaled_trace_distance(out, tgt) <= res.value + 1e-5


@pytest.mark.parametrize("p", [0.05, 0.5, 0.93])
@pytest.mark.parametrize("dims", CONVERSION_DIMS, ids="{0[0]}-{0[1]}".format)
@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_conversion_at_closed_form_scale_matches_variable_scale(regime, dims, p):
    """The program at s* = 1/(2 p_err(target)) has the value of the program
    with s a variable, and where that value is positive the solved s is s*.
    The variable s is pinned only through the objective's slope value/s, so
    it is compared relative to its size: at value 9.3e-3 (dims (2, 3),
    p = 0.93, cds) it is off by 1.3e-6, or 3.5e-7 relative."""
    rng = np.random.default_rng(round(1000 * p) + 10 * dims[0] + dims[1])
    src, tgt = random_box(dims[0], rng, p=p), random_box(dims[1], rng)
    res = tasks.min_conversion_error(src, tgt, regime)
    oracle = conversion_error_program(src, tgt, regime)
    assert res.value == pytest.approx(oracle.value, abs=1e-6)
    assert res.diagnostics["s"] == 1.0 / (2.0 * dv.p_err(tgt))
    if oracle.value > 1e-6:
        assert oracle.s == pytest.approx(res.diagnostics["s"], rel=1e-6)


def test_conversion_program_shape(monkeypatch):
    """The 4 -> 4 cds conversion of a two-copy qubit box reaches the solver
    as one Choi block per branch and input block (the quotient's blocks of
    sizes 3 and 1 against the dense 4 x 4 output: 12 x 12 and 4 x 4 complex,
    embedded as 24 and 8) and four trace-distance blocks (4 x 4, embedded
    as 8): 2 x 16 image rows and 9 + 1 trace-preservation rows, and no
    scalar block for the scale."""
    shapes = []
    solve = sdp.solve

    def recording_solve(problem, options=None, start=None):
        shapes.append((Counter(problem.blocks), len(problem.constraints)))
        return solve(problem, options, start)

    monkeypatch.setattr(sdp, "solve", recording_solve)
    src = tensor_box(random_box(2, np.random.default_rng(7)), 2)
    tasks.min_conversion_error(src, random_box(4, np.random.default_rng(8)), CDS)
    assert shapes == [(Counter({8: 6, 24: 2}), 42)]


def test_conversion_infinite_target_cases(rng):
    orth = QuantumBox(0.4, np.diag([1.0, 0]), np.diag([0, 1.0]))
    finite = random_box(2, rng, p=0.4)
    assert math.isinf(tasks.min_conversion_error(finite, orth, CDS).value)
    res = tasks.min_conversion_error(orth, orth, CPTPA)
    assert res.value == 0.0
    # prior mismatch blocks exact prior-preserving conversion
    orth2 = QuantumBox(0.6, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert math.isinf(tasks.min_conversion_error(orth, orth2, CPTPA).value)


def _case_table_boxes():
    rng = np.random.default_rng(4)
    r0, r1 = random_density(2, rng), random_density(2, rng)
    plus = np.full((2, 2), 0.5)
    return {"orth": QuantumBox(0.4, np.diag([1.0, 0]), np.diag([0, 1.0])),
            "orth'": QuantumBox(0.7, np.diag([0, 1.0]), np.diag([1.0, 0])),
            "finite": random_box(2, rng, p=0.4),
            "p=0": QuantumBox(0.0, r0, r1), "p=0'": QuantumBox(0.0, r1, r0),
            "p=1": QuantumBox(1.0, r0, r1), "p=1'": QuantumBox(1.0, r1, r0),
            "not nested": QuantumBox(0.4, np.diag([1.0, 0]), plus)}


@pytest.mark.parametrize("source, target, regime, value", [
    ("orth", "orth'", CDS, 0.0),            # infinite source and target
    ("orth", "finite", CPTPA, 0.0),         # infinite source, same prior
    ("p=0", "p=0'", CPTPA, 0.0),            # singular target prior
    ("p=1", "p=1'", CPTPA, 0.0),
    ("finite", "orth", CPTPA, math.inf),    # same prior, supports overlap
])
def test_conversion_exact_cases(no_solver, source, target, regime, value):
    """The cases of min_conversion_error decided without a program; where
    the value is 0, the witness maps the source onto the target."""
    boxes = _case_table_boxes()
    source, target = boxes[source], boxes[target]
    res = tasks.min_conversion_error(source, target, regime)
    assert res.value == value
    if value == 0.0:
        assert box_distance(_apply_witness(res.witness, source), target) <= 1e-10
    else:
        assert res.witness is None


@pytest.mark.parametrize("task, box, value, reason", [
    (lambda b: tasks.distill_approx(b, 0.1, CPTPA), "p=0", math.inf, "singular prior"),
    (lambda b: tasks.distill_approx(b, 0.1, CPTPA), "orth", math.inf, "orthogonal supports"),
    (lambda b: tasks.cost_approx(b, 0.1, CPTPA), "p=1", 0.0, "singular prior"),
    (lambda b: tasks.cost_exact(b, CPTPA), "not nested", math.inf, None),
], ids=["distill_approx-singular", "distill_approx-orthogonal",
        "cost_approx-singular", "cost_exact-not-nested"])
def test_cptpA_exact_cases(no_solver, task, box, value, reason):
    """The cases of the CPTP_A tasks decided in closed form, with no solve."""
    res = task(_case_table_boxes()[box])
    assert res.value == value and res.witness is None
    assert res.diagnostics.get("reason") == reason


def test_conversion_to_best_golden_is_free(rng):
    b = random_box(2, rng)
    star = tasks.distill_exact(b, CDS).value
    res = tasks.min_conversion_error(b, golden_box(2.0 ** star, 0.5), CDS)
    assert res.value <= 1e-6


def test_conversion_to_infinite_equals_p_err(rng):
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert conversion_error_to_infinite(orth, CDS) <= 1e-7
    rho = random_density(2, rng)
    free = QuantumBox(0.5, rho, rho)
    assert conversion_error_to_infinite(free, CDS) == pytest.approx(
        0.5, abs=1e-6)
    for _ in range(3):
        b = random_box(2, rng)
        primal, dual = conversion_error_to_infinite(b, CDS, return_pair=True)
        assert primal == pytest.approx(dv.p_err(b), abs=1e-6)
        assert dual == pytest.approx(dv.p_err(b), abs=1e-6)
        assert conversion_error_to_infinite(b, CPTPA) == pytest.approx(
            dv.p_err(b), abs=1e-6)


# --- approximate tasks -----------------------------------------------------------------

def test_distill_approx_eps_zero(rng):
    for _ in range(3):
        b = random_box(2, rng)
        assert tasks.distill_approx(b, 0.0, CPTPA).value == pytest.approx(
            dv.xi_min(b.rho0, b.rho1), abs=1e-5)
        assert tasks.distill_approx(b, 0.0, CDS).value == pytest.approx(
            dv.sd(b), abs=1e-5)


def test_distill_approx_monotone_in_eps(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        v0 = tasks.distill_approx(b, 0.0, regime).value
        v1 = tasks.distill_approx(b, 0.1, regime).value
        v2 = tasks.distill_approx(b, 0.3, regime).value
        assert v0 <= v1 + 1e-7
        assert v1 <= v2 + 1e-7


def test_distill_approx_rejects_bad_eps(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterRangeError):
                tasks.distill_approx(b, eps, regime)


@pytest.mark.parametrize("regime", [CPTPA, CDS])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_distill_approx_matches_program(seed, real, eps, regime):
    """The closed forms against the distillation program, on r = 2^(-value)."""
    b = random_box((2, 3, 4)[seed % 3], np.random.default_rng(seed), real=real)
    program = distill_approx_program(b, eps, regime).value
    got = tasks.distill_approx(b, eps, regime).value
    assert 2.0 ** -got == pytest.approx(2.0 ** -program, abs=1e-6)


def test_distill_approx_cptpA_reproducer():
    """The complex draw on which the cptpA program ends ill_conditioned."""
    b = random_box(2, np.random.default_rng(4))
    lo, mid, hi = (tasks.distill_approx(b, eps, CPTPA).value
                   for eps in (0.05, 0.1, 0.3))
    assert math.isfinite(mid)
    assert lo < mid < hi


def test_spectral_paths_run_without_solver(no_solver, rng):
    for real in (True, False):
        b = random_box(3, rng, real=real)
        dv.q_min(b.rho0, b.rho1)
        dv.xi_min(b.rho0, b.rho1)
        tasks.distill_exact(b, CPTPA)
        for regime in (CPTPA, CDS):
            for eps in (0.0, 0.1):
                assert math.isfinite(tasks.distill_approx(b, eps, regime).value)


def test_cost_approx_rejects_bad_eps(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        for eps in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterRangeError):
                tasks.cost_approx(b, eps, regime)


def test_cost_approx_eps_zero(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        exact = tasks.cost_exact(b, regime).value
        approx = tasks.cost_approx(b, 0.0, regime).value
        assert approx == pytest.approx(exact, abs=1e-5)


@pytest.mark.parametrize("p", [0.05, 0.93])
def test_cost_approx_eps_zero_skewed_priors(p):
    rng = np.random.default_rng(round(1000 * p))
    for _ in range(2):
        b = random_box(2, rng, p=p)
        for regime in (CPTPA, CDS):
            exact = tasks.cost_exact(b, regime).value
            approx = tasks.cost_approx(b, 0.0, regime).value
            assert approx == pytest.approx(exact, abs=1e-5)


def test_cost_approx_reproducer_eps_zero():
    """At the exact cost the phase-I solve sits on the feasibility boundary;
    that end of the bracket is feasible by construction."""
    b = dilution_reproducer()
    assert tasks.cost_approx(b, 0.0, CPTPA).value == pytest.approx(
        tasks.cost_exact(b, CPTPA).value, abs=1e-5)


def test_cost_approx_counts_solves():
    """The solver is deterministic, so the counts of a fixed call repeat
    exactly; an accepted ill_conditioned solve is counted, not silent, and
    so are the iterations of every solve and the warm solves retried cold.
    Started cold, the same solves took 71 and 40 iterations."""
    b = random_box(2, np.random.default_rng(3))
    diag = tasks.cost_approx(b, 0.05, CPTPA).diagnostics
    assert set(diag) == {"M", "solves", "ill_conditioned", "retried", "iterations"}
    assert (diag["solves"], diag["ill_conditioned"]) == (6, 0)
    assert (diag["iterations"], diag["retried"]) == (49, 0)
    assert diag["solves"] <= 6
    assert type(diag["M"]) is float
    diag = tasks.cost_approx(b, 0.0, CPTPA).diagnostics
    assert (diag["solves"], diag["ill_conditioned"]) == (3, 1)
    assert (diag["iterations"], diag["retried"]) == (35, 0)


def test_cost_approx_accepts_a_solve_ended_on_a_tiny_step(monkeypatch):
    """At eps = 1 the reproducer is feasible at M = 1, and its one phase-I
    solve ends ill_conditioned on a step below 1e-14 at iteration 14, where
    rel_primal is 1.4e-9; without that exit it runs on to iteration 21 and
    ends on the same best iterate.  Its residuals are below 1e-6, so the
    solve is accepted and counted: cost 0 bits."""
    results = []
    solve = sdp.solve

    def recording_solve(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(sdp, "solve", recording_solve)
    res = tasks.cost_approx(dilution_reproducer(), 1.0, CDS)
    assert res.value == 0.0
    assert res.diagnostics == {"M": 1.0, "solves": 1, "ill_conditioned": 1, "retried": 0,
                               "iterations": results[0].iterations}
    assert [r.status for r in results] == [sdp.SdpStatus.ILL_CONDITIONED]
    assert results[0].iterations <= 14


@pytest.mark.parametrize("regime", [CPTPA, CDS])
@pytest.mark.parametrize("kind", ["real qubit", "quotient", "complex"])
def test_phase1_slope_is_the_derivative_of_the_shift(kind, regime):
    """The slope each phase-I solve returns, read off its dual, matches a
    central difference of lambda(t) at the middle of cost_approx's first
    bracket: on a qubit box in its real frame, on the quotient of b^(x)2
    (blocks of size 3 and 1) and on a complex d = 3 box, whose program is
    embedded, so its slope is taken in the embedded space.  Started warm,
    as in cost_approx, from the solve at t = 1 and then from each newest
    one, the solves give the same slope."""
    b = {"real qubit": real_frame(random_box(2, np.random.default_rng(3)))[0],
         "quotient": real_frame(tensor_box(random_box(2, np.random.default_rng(7)),
                                           2))[0],
         "complex": random_box(3, np.random.default_rng(5))}[kind]
    family = tasks._phase1_family(b, 0.05, regime)
    assert max(family[0].blocks) == {"real qubit": 2, "quotient": 3,
                                        "complex": 6}[kind]
    exact = dv.xi_max(b.rho0, b.rho1) if regime == CPTPA else dv.xi_max_star(b)
    t = 0.5 * (1.0 + 1.0 / (2.0 ** (exact + 1.0) - 1.0))
    for solved in (None, []):       # cold, then warm as in cost_approx
        if solved is not None:
            tasks._phase1_shift(family, 1.0, {"solves": 0}, solved)
        stats = {"solves": 0, "ill_conditioned": 0}
        shift = functools.partial(tasks._phase1_shift, family, stats=stats, solved=solved)
        _, slope = shift(t)
        h = 1e-4 * t
        central = (shift(t + h)[0] - shift(t - h)[0]) / (2.0 * h)
        assert slope == pytest.approx(central, rel=1e-4)
        assert stats == {"solves": 3, "ill_conditioned": 0}


@pytest.mark.parametrize("slope", [0.0, math.nan])
def test_cost_approx_without_a_slope_takes_illinois_steps(monkeypatch, slope):
    """A slope that is not finite and positive proposes no Newton step:
    every step is then the Illinois point, which closes the bracket in two
    more solves to the same value."""
    b = random_box(2, np.random.default_rng(3))
    newton = tasks.cost_approx(b, 0.05, CPTPA)
    shift = tasks._phase1_shift
    monkeypatch.setattr(tasks, "_phase1_shift",
                        lambda *args: (shift(*args)[0], slope))
    illinois = tasks.cost_approx(b, 0.05, CPTPA)
    assert (illinois.diagnostics["solves"], newton.diagnostics["solves"]) == (8, 6)
    assert illinois.value == pytest.approx(newton.value, abs=1e-6)


@pytest.mark.parametrize("residuals", [{"rel_primal": 1e-3}, {"rel_dual": 1e-3},
                                       {"rel_primal": 1e-7, "rel_gap": 1e-7}],
                         ids=["raises", "raises-dual", "accepted"])
def test_phase1_shift_accepts_a_non_optimal_solve_on_its_residuals(monkeypatch,
                                                                   residuals):
    """A phase-I solve that ends ill_conditioned raises SolverError naming
    its status when a residual is above 1e-6, the dual one included, since
    the slope is read from y; otherwise it is accepted, counted by status,
    and gives the shift and slope of its point."""
    family = tasks._phase1_family(random_box(2, np.random.default_rng(3)), 0.05, CPTPA)
    want = tasks._phase1_shift(family, 0.5, {"solves": 0})
    solve = sdp.solve

    def ill_conditioned(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.status = sdp.SdpStatus.ILL_CONDITIONED
        res.residuals.update(residuals)
        return res

    monkeypatch.setattr(sdp, "solve", ill_conditioned)
    stats = {"solves": 0, "ill_conditioned": 0}
    if max(residuals.values()) > 1e-6:
        with pytest.raises(SolverError, match="ill_conditioned"):
            tasks._phase1_shift(family, 0.5, stats)
    else:
        assert tasks._phase1_shift(family, 0.5, stats) == want
        assert stats == {"solves": 1, "ill_conditioned": 1}


def test_cost_approx_starts_only_from_optimal_solves(monkeypatch):
    """Each phase-I solve of a call after the first starts from the newest
    earlier solve that ended optimal.  A solve accepted on its residuals,
    here the one at the bracket's feasible end, marked ill_conditioned, is
    never a start."""
    calls = []
    solve = sdp.solve

    def recording(prob, options=None, start=None):
        res = solve(prob, options, start)
        if len(calls) == 1:
            res.status = sdp.SdpStatus.ILL_CONDITIONED
        calls.append((start, res))
        return res

    monkeypatch.setattr(sdp, "solve", recording)
    diag = tasks.cost_approx(random_box(2, np.random.default_rng(3)), 0.05, CPTPA).diagnostics
    assert (diag["ill_conditioned"], diag["retried"]) == (1, 0)
    assert len(calls) == diag["solves"] > 3
    assert calls[2][0] is calls[0][1]
    newest = None
    for start, res in calls:
        assert start is newest
        if res.status is sdp.SdpStatus.OPTIMAL:
            newest = res


def test_cost_approx_retries_a_failed_warm_solve_cold(monkeypatch):
    """A warm solve that fails the acceptance test, here on its dual
    residual, is solved again cold and counted as retried.  When every warm
    solve fails, the call makes the solves of an all-cold call, one retry
    after each, and returns its value, bit for bit."""
    b = random_box(2, np.random.default_rng(3))
    solve = sdp.solve

    def run(stand_in):
        results = []

        def recording(prob, options=None, start=None):
            results.append(stand_in(prob, options, start))
            return results[-1]

        with monkeypatch.context() as patch:
            patch.setattr(sdp, "solve", recording)
            return tasks.cost_approx(b, 0.05, CPTPA), results

    def failing_warm(prob, options, start):
        res = solve(prob, options, start)
        if start is not None:
            res.status = sdp.SdpStatus.ILL_CONDITIONED
            res.residuals["rel_dual"] = 1e-3
        return res

    cold, cold_solves = run(lambda prob, options, start: solve(prob, options))
    got, solves = run(failing_warm)
    n = len(cold_solves)
    assert n == cold.diagnostics["solves"] > 3
    assert got.value == cold.value
    assert got.diagnostics == {**cold.diagnostics, "solves": 2 * n - 1, "retried": n - 1,
                               "iterations": sum(r.iterations for r in solves)}
    kept = [solves[0], *solves[2::2]]
    assert [(r.status, r.iterations, r.y.tobytes()) for r in kept] == \
        [(r.status, r.iterations, r.y.tobytes()) for r in cold_solves]


def test_cost_approx_does_not_depend_on_earlier_calls():
    """No solve outlives its call: a call returns the same value and
    diagnostics, bit for bit, whether it runs first or after calls on other
    boxes, so the order the benchmark shuffles does not matter."""
    b = random_box(2, np.random.default_rng(3))
    first = tasks.cost_approx(b, 0.05, CDS)
    tasks.cost_approx(dilution_reproducer(), 0.05, CPTPA)
    tasks.cost_approx(random_box(2, np.random.default_rng(8)), 0.05, CDS)
    again = tasks.cost_approx(b, 0.05, CDS)
    assert again.value == first.value
    assert again.diagnostics == first.diagnostics


@pytest.mark.parametrize("regime,eps", [(CPTPA, 0.05), (CDS, 0.05), (CPTPA, 0.0)])
def test_cost_approx_without_the_lo_solve(monkeypatch, regime, eps):
    """The solve at the bracket's feasible end only supplies an
    interpolation value: when it raises, the call takes lambda = 0 there,
    with no slope, and reaches the same value."""
    b = random_box(2, np.random.default_rng(3))
    want = tasks.cost_approx(b, eps, regime).value
    shift, ts = tasks._phase1_shift, []

    def failing_lo(family, t, stats, solved=None):
        out = shift(family, t, stats, solved)
        ts.append(t)
        if len(ts) == 2:
            raise SolverError("lo solve failed")
        return out

    monkeypatch.setattr(tasks, "_phase1_shift", failing_lo)
    got = tasks.cost_approx(b, eps, regime)
    assert len(ts) > 2 and got.diagnostics["solves"] == len(ts)
    assert got.value == pytest.approx(want, abs=1e-6)


def _same_blocks(got: dict, want: dict) -> bool:
    """Two compiled rows (or objectives) name the same blocks with the same
    matrices, bit for bit."""
    return got.keys() == want.keys() and all(np.array_equal(got[j], w)
                                             for j, w in want.items())


@pytest.mark.parametrize("regime", [CPTPA, CDS])
@pytest.mark.parametrize("real", [True, False])
def test_phase1_program_rescaled_equals_fresh_compile(monkeypatch, real, regime):
    """cost_approx compiles its phase-I program at t = 0 and t = 1; the
    program P0 + t D each step solves holds exactly the data of a program
    compiled at t, for a qubit box and for the quotient of its third power,
    whose two blocks each have their own M rows."""
    class Solved(Exception):
        pass

    def capture(problem, options=None, start=None):
        solved.append(problem)
        raise Solved

    b = random_box(2, np.random.default_rng(11), real=real)
    for box in (b, tensor_box(b, 3)):
        family = tasks._phase1_family(box, 0.05, regime)
        for t in (0.3, 0.7071067811865476, 1.0 / 3.0):
            solved = []
            with monkeypatch.context() as patch:
                patch.setattr(sdp, "solve", capture)
                with pytest.raises(Solved):
                    tasks._phase1_shift(family, t, {"solves": 0})
            (got,) = solved
            want, want_const = tasks._phase1_model(box, 0.05, regime, t).compile()
            assert want_const == 0.0
            assert got.blocks == want.blocks
            assert _same_blocks(got.objective, want.objective)
            assert len(got.constraints) == len(want.constraints)
            for (mats, rhs), (mats_w, rhs_w) in zip(got.constraints, want.constraints):
                assert rhs == rhs_w
                assert _same_blocks(mats, mats_w)
        # the compiled program at t = 0 is left as it was
        again, _ = tasks._phase1_model(box, 0.05, regime, 0.0).compile()
        assert len(family[0].constraints) == len(again.constraints)
        assert all(_same_blocks(mats, mats_w) for (mats, _), (mats_w, _) in
                   zip(family[0].constraints, again.constraints))


@pytest.mark.parametrize("d,seed,p,regime", [
    (2, 0, None, CDS), (2, 8, 0.05, CPTPA), (3, 0, None, CPTPA), (3, 7, 0.05, CDS),
    (2, 16, None, CDS), (2, 31, None, CPTPA)])
def test_cost_approx_near_boundary_solves_do_not_warn(d, seed, p, regime):
    """Real boxes whose near-boundary phase-I solves have overflowed (the
    last one still does): the solver reports that through its status, and
    no numpy warning reaches the caller."""
    kw = {} if p is None else {"p": p}
    b = random_box(d, np.random.default_rng(seed), real=True, **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        approx = tasks.cost_approx(b, 0.0, regime).value
    assert approx == pytest.approx(tasks.cost_exact(b, regime).value, abs=1e-5)


def test_cost_approx_monotone_in_eps(rng):
    b = random_box(2, rng)
    for regime in (CPTPA, CDS):
        vals = [tasks.cost_approx(b, e, regime).value for e in (0.0, 0.25, 1.0)]
        assert vals[0] >= vals[1] - 1e-6
        assert vals[1] >= vals[2] - 1e-6
        assert vals[2] >= -1e-12


def test_cost_approx_golden_small_eps():
    g = golden_box(4, 0.5)
    v = tasks.cost_approx(g, 0.05, CDS).value
    assert v <= 2.0 + 1e-9


def test_cost_approx_infinite_box():
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert math.isinf(tasks.cost_approx(orth, 0.3, CDS).value)


# --- real frame ---------------------------------------------------------------------

@pytest.mark.parametrize("regime", [CPTPA, CDS])
def test_qubit_programs_compile_real(no_embedding, regime):
    """Complex qubit boxes and their tensor powers are solved in their real
    frame, so no program embeds complex data."""
    b = random_box(2, np.random.default_rng(7))
    target = random_box(2, np.random.default_rng(8))
    for src in (b, tensor_box(b, 2)):
        assert tasks.cost_approx(src, 0.05, regime).value > 0.0
        assert tasks.min_conversion_error(src, target, regime).value > 0.0


@pytest.mark.parametrize("regime", [CPTPA, CDS])
@pytest.mark.parametrize("seed, n", [(0, 1), (1, 1), (2, 1), (7, 2)])
def test_cost_approx_real_frame_agrees_with_complex_program(monkeypatch, seed, n,
                                                            regime):
    b = random_box(2, np.random.default_rng(seed))
    b = tensor_box(b, n) if n > 1 else b
    framed = tasks.cost_approx(b, 0.05, regime).value
    monkeypatch.setattr(tasks, "real_frame", lambda box: (box, None))
    assert tasks.cost_approx(b, 0.05, regime).value == pytest.approx(framed, abs=1e-6)


# --- asymptotic rates ---------------------------------------------------------------------

def test_asymptotic_rates(rng):
    rho = random_density(2, rng)
    r = tasks.asymptotic_rates(QuantumBox(0.3, rho, rho))
    assert r.distill == pytest.approx(0.0, abs=1e-12)
    assert r.exact_cost == pytest.approx(0.0, abs=1e-12)
    assert r.approx_cost == pytest.approx(0.0, abs=1e-12)
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    r = tasks.asymptotic_rates(orth)
    assert all(math.isinf(v) for v in r)
    b = QuantumBox(0.5, np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
    assert tasks.asymptotic_rates(b).distill == pytest.approx(1.0)
    with pytest.raises(ParameterRangeError):
        tasks.asymptotic_rates(QuantumBox(0.0, rho, rho))


def test_transform_rate_generic_ratio(rng):
    src = random_box(2, rng, p=0.3)
    tgt = random_box(2, rng, p=0.3)
    xi_s = dv.chernoff(src.rho0, src.rho1)
    xi_t = dv.chernoff(tgt.rho0, tgt.rho1)
    r = tasks.transform_rate(src, tgt, CPTPA)
    assert r.achievable == pytest.approx(xi_s / xi_t)
    assert r.strong_converse == pytest.approx(xi_s / xi_t)
    r = tasks.transform_rate(src, tgt, CDS)
    assert r.achievable == pytest.approx(xi_s / xi_t)
