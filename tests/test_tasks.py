import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from symdist import divergences as dv
from symdist import tasks
from symdist.boxes import QuantumBox, golden_box, random_box, random_density
from symdist.channels import CdsMap, apply_cds, apply_cptp
from symdist.exceptions import ParameterRangeError, SolverError
from symdist.tasks import CDS, CPTPA

from conftest import box_distance, dilution_reproducer, figure4_boxes
from oracles import distill_approx_program


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


def test_conversion_witness_achieves_value(rng):
    src, tgt = random_box(2, rng), random_box(2, rng)
    res = tasks.min_conversion_error(src, tgt, CDS)
    out = _apply_witness(res.witness, src)
    assert dv.scaled_trace_distance(out, tgt) <= res.value + 1e-5


def test_conversion_infinite_target_cases(rng):
    orth = QuantumBox(0.4, np.diag([1.0, 0]), np.diag([0, 1.0]))
    finite = random_box(2, rng, p=0.4)
    assert math.isinf(tasks.min_conversion_error(finite, orth, CDS).value)
    res = tasks.min_conversion_error(orth, orth, CPTPA)
    assert res.value == 0.0
    # prior mismatch blocks exact prior-preserving conversion
    orth2 = QuantumBox(0.6, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert math.isinf(tasks.min_conversion_error(orth, orth2, CPTPA).value)


def test_conversion_to_best_golden_is_free(rng):
    b = random_box(2, rng)
    star = tasks.distill_exact(b, CDS).value
    res = tasks.min_conversion_error(b, golden_box(2.0 ** star, 0.5), CDS)
    assert res.value <= 1e-6


def test_conversion_to_infinite_equals_p_err(rng):
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert tasks.conversion_error_to_infinite(orth, CDS) <= 1e-7
    rho = random_density(2, rng)
    free = QuantumBox(0.5, rho, rho)
    assert tasks.conversion_error_to_infinite(free, CDS) == pytest.approx(
        0.5, abs=1e-6)
    for _ in range(3):
        b = random_box(2, rng)
        primal, dual = tasks.conversion_error_to_infinite(b, CDS, return_pair=True)
        assert primal == pytest.approx(dv.p_err(b), abs=1e-6)
        assert dual == pytest.approx(dv.p_err(b), abs=1e-6)
        assert tasks.conversion_error_to_infinite(b, CPTPA) == pytest.approx(
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
    """The closed forms against the distillation program, on r = 2^(-value).
    A case whose program solve fails is not compared."""
    b = random_box((2, 3, 4)[seed % 3], np.random.default_rng(seed), real=real)
    try:
        program = distill_approx_program(b, eps, regime).value
    except SolverError as exc:
        pytest.skip(f"oracle program failed: {exc}")
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
    exactly; an accepted ill_conditioned solve is counted, not silent."""
    b = random_box(2, np.random.default_rng(3))
    diag = tasks.cost_approx(b, 0.05, CPTPA).diagnostics
    assert set(diag) == {"M", "solves", "ill_conditioned"}
    assert (diag["solves"], diag["ill_conditioned"]) == (8, 0)
    assert diag["solves"] <= 10
    diag = tasks.cost_approx(b, 0.0, CPTPA).diagnostics
    assert (diag["solves"], diag["ill_conditioned"]) == (3, 1)


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
