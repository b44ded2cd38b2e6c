"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Desk scale throughout: qubit boxes, tensor powers n <= 5.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math

import numpy as np
import pytest

from symdist import divergences as dv
from symdist import linalg, tasks
from symdist.boxes import (QuantumBox, golden_box, random_box, random_density,
                           tensor_box)
from symdist.channels import apply_cds, apply_cptp, gad_channel
from symdist.sweep import SweepSpec, run_sweep
from symdist.tasks import CDS, CPTPA

from conftest import box_distance, figure4_boxes
from oracles import (conversion_error_to_infinite, p_err_sdp, random_cds,
                     random_cptp, scaled_trace_distance_sdp,
                     smooth_thompson_witness)


def _report(num: int, name: str, ok: bool, notes=()):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed: " + "; ".join(notes)


class _Check:
    """Collects sub-assertions so one criterion prints a single line."""

    def __init__(self):
        self.ok = True
        self.notes = []

    def expect(self, cond: bool, note: str = ""):
        if not cond:
            self.ok = False
            self.notes.append(note)
        return cond

    def report(self, num: int, name: str):
        _report(num, name, self.ok, self.notes)


def test_criterion_01_golden_unit_calibration():
    chk = _Check()
    for m in (1.0, 2.0, 4.0, 8.0, math.inf):
        for q in (0.2, 0.5):
            b = golden_box(m, q)
            e = dv.p_err(b)
            if math.isinf(m):
                chk.expect(e <= 1e-12, f"M=inf q={q}: p_err={e}")
                chk.expect(math.isinf(dv.sd(b)), f"M=inf q={q}: sd finite")
            elif 2 * m >= max(1 / q, 1 / (1 - q)):
                chk.expect(abs(e - 1 / (2 * m)) <= 1e-9,
                           f"M={m} q={q}: p_err={e}")
                chk.expect(abs(dv.sd(b) - math.log2(m)) <= 1e-9,
                           f"M={m} q={q}: sd={dv.sd(b)}")
            else:
                expected = 0.5 * (1 - abs(q - 1 / (2 * m))
                                  - abs(1 - q - 1 / (2 * m)))
                chk.expect(abs(e - expected) <= 1e-9,
                           f"M={m} q={q} outside scaling regime: p_err={e}")
    chk.report(1, "golden-unit calibration")


def test_criterion_02_helstrom_triple_agreement():
    rng = np.random.default_rng(1002)
    chk = _Check()
    for i in range(50):
        b = random_box(2, rng)
        closed = dv.p_err(b)
        glb = p_err_sdp(b)
        conv = conversion_error_to_infinite(b, CDS if i % 2 else CPTPA)
        chk.expect(abs(closed - glb) <= 1e-6, f"box {i}: glb diff")
        chk.expect(abs(closed - conv) <= 1e-6, f"box {i}: conversion diff")
    chk.report(2, "Helstrom triple agreement")


def test_criterion_03_distill_round_trips():
    rng = np.random.default_rng(1003)
    chk = _Check()
    for i in range(50):
        b = random_box(2, rng)
        res = tasks.distill_exact(b, CPTPA)
        target = golden_box(2.0 ** res.value, b.p)
        out = apply_cptp(res.witness, b)
        chk.expect(box_distance(out, target) <= 1e-7, f"cptpA box {i}")
        res = tasks.distill_exact(b, CDS)
        target = golden_box(2.0 ** res.value, 0.5)
        out = apply_cds(res.witness, b)
        chk.expect(box_distance(out, target) <= 1e-7, f"cds box {i}")
    chk.report(3, "distillation round trips")


def test_criterion_04_dilute_round_trips():
    rng = np.random.default_rng(1004)
    chk = _Check()
    for i in range(50):
        if i < 44:
            b = random_box(2, rng)
        elif i < 47:
            rho = random_density(2, rng)     # equal-state targets
            b = QuantumBox(float(rng.uniform(0.1, 0.9)), rho, rho)
        else:
            rho = random_density(2, rng)     # boundary priors
            b = QuantumBox((0.25, 0.75, 0.5)[i - 47], rho, rho)
        for regime in (CPTPA, CDS):
            res = tasks.cost_exact(b, regime)
            src = golden_box(2.0 ** res.value, b.p if regime == CPTPA else 0.5)
            out = apply_cptp(res.witness, src) if regime == CPTPA \
                else apply_cds(res.witness, src)
            chk.expect(box_distance(out, b) <= 1e-7, f"{regime} box {i}")
    chk.report(4, "dilution round trips")


def test_criterion_05_eps_zero_consistency():
    rng = np.random.default_rng(1005)
    chk = _Check()
    for i in range(3):
        b = random_box(2, rng)
        chk.expect(abs(tasks.distill_approx(b, 0.0, CPTPA).value
                       - dv.xi_min(b.rho0, b.rho1)) <= 1e-5, f"distill cptpA {i}")
        chk.expect(abs(tasks.distill_approx(b, 0.0, CDS).value
                       - dv.sd(b)) <= 1e-5, f"distill cds {i}")
        for regime in (CPTPA, CDS):
            exact = tasks.cost_exact(b, regime).value
            approx = tasks.cost_approx(b, 0.0, regime).value
            chk.expect(abs(exact - approx) <= 1e-5,
                       f"cost {regime} {i}: {exact} vs {approx}")
    chk.report(5, "eps = 0 consistency")


def test_criterion_06_d_prime_strong_duality():
    rng = np.random.default_rng(1006)
    chk = _Check()
    for i in range(50):
        a, b = random_box(2, rng), random_box(2, rng)
        analytic = dv.scaled_trace_distance(a, b)
        pair = scaled_trace_distance_sdp(a, b, return_pair=True)
        chk.expect(abs(pair.primal - analytic) <= 1e-6, f"pair {i} primal")
        chk.expect(abs(pair.dual - analytic) <= 1e-6, f"pair {i} dual")
        chk.expect(abs(pair.primal - pair.dual) <= 1e-6, f"pair {i} gap")
    chk.report(6, "scaled-trace-distance strong duality")


def test_criterion_07_chernoff_sandwich():
    """Sandwich bounds at every n; the decreasing approach from above is the
    generic regime and is asserted on well-conditioned boxes (near-pure
    branch states approach the limit from below within the sandwich).
    Small-n discrimination exponents alternate between even and odd copy
    counts, so the trend is asserted within each parity class."""
    rng = np.random.default_rng(1007)

    def sandwich(r0, r1, chk, tag, want_trend):
        xi = dv.chernoff(r0, r1)
        gaps = []
        for n in range(1, 6):
            rn0 = linalg.tensor_power(r0, n)
            rn1 = linalg.tensor_power(r1, n)
            per_copy = dv.xi_min(rn0, rn1) / n
            chk.expect(xi - 1 / n <= per_copy + 1e-6,
                       f"{tag} n={n}: lower bound")
            upper = -math.log2(2 * dv.p_err(QuantumBox(0.5, rn0, rn1))) / n + 1 / n
            chk.expect(per_copy <= upper + 1e-6, f"{tag} n={n}: upper bound")
            gaps.append(per_copy - xi)
        if want_trend:
            odd = gaps[0::2]   # n = 1, 3, 5
            even = gaps[1::2]  # n = 2, 4
            chk.expect(all(odd[k + 1] <= odd[k] + 1e-6 for k in range(2))
                       and even[1] <= even[0] + 1e-6,
                       f"{tag}: gap not decreasing along parities: {gaps}")

    chk = _Check()
    for trial in range(2):
        r0 = 0.8 * random_density(2, rng, real=True) + 0.2 * np.eye(2) / 2
        r1 = 0.8 * random_density(2, rng, real=True) + 0.2 * np.eye(2) / 2
        sandwich(r0, r1, chk, f"trial {trial}", want_trend=True)
    # near-pure branch state: sandwich only
    g = rng.normal(size=2)
    pure = np.outer(g, g) / (g @ g)
    sandwich(random_density(2, rng, real=True),
             0.999 * pure + 0.001 * np.eye(2) / 2, chk, "near-pure",
             want_trend=False)
    # commuting diagonal closed form
    chk.expect(abs(dv.chernoff(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
                   - 1.0) <= 1e-8, "closed-form diagonal pair")
    p0, p1 = np.array([0.7, 0.3]), np.array([0.2, 0.8])
    ss = np.linspace(0, 1, 200001)
    exact = -math.log2(min((p0[0] ** s * p1[0] ** (1 - s)
                            + p0[1] ** s * p1[1] ** (1 - s)) for s in ss))
    chk.expect(abs(dv.chernoff(np.diag(p0), np.diag(p1)) - exact) <= 1e-8,
               "commuting pair vs dense grid")
    chk.report(7, "Chernoff sandwich at n = 1..5")


def test_criterion_08_additivity():
    rng = np.random.default_rng(1008)
    chk = _Check()
    for i in range(10):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        dt2 = dv.thompson(linalg.tensor(r0, r0), linalg.tensor(r1, r1))
        chk.expect(abs(dt2 - 2 * dv.thompson(r0, r1)) <= 1e-8,
                   f"thompson pair {i}")
        xi2 = dv.chernoff(linalg.tensor(r0, r0), linalg.tensor(r1, r1))
        chk.expect(abs(xi2 - 2 * dv.chernoff(r0, r1)) <= 1e-8,
                   f"chernoff pair {i}")
    chk.report(8, "Thompson/Chernoff additivity")


def test_criterion_09_smoothed_thompson():
    rng = np.random.default_rng(1009)
    chk = _Check()
    for eps in (0.05, 0.2, 0.5):
        for i in range(20):
            w0 = float(rng.uniform(0.2, 1.0)) * random_density(2, rng)
            w1 = float(rng.uniform(0.2, 1.0)) * random_density(2, rng)
            st = smooth_thompson_witness(w0, w1, eps)
            chk.expect(linalg.trace_distance(st.omega0, w0) <= eps + 1e-12,
                       f"eps={eps} {i}: ball 0")
            chk.expect(linalg.trace_distance(st.omega1, w1) <= eps + 1e-12,
                       f"eps={eps} {i}: ball 1")
            chk.expect(st.value <= math.log2(4 / eps) + 1e-9,
                       f"eps={eps} {i}: bound")
            # normalized variant
            s0, s1 = random_density(2, rng), random_density(2, rng)
            stn = smooth_thompson_witness(s0, s1, eps)
            chk.expect(abs(np.trace(stn.omega0).real - 1) <= 1e-10
                       and abs(np.trace(stn.omega1).real - 1) <= 1e-10,
                       f"eps={eps} {i}: unit traces")
            chk.expect(stn.value <= math.log2(2 / eps) + 1e-9,
                       f"eps={eps} {i}: normalized bound")
    chk.report(9, "smoothed Thompson construction")


def test_criterion_10_dpi_suite():
    rng = np.random.default_rng(1010)
    chk = _Check()
    for i in range(200):
        b = random_box(2, rng)
        c = random_box(2, rng, p=b.p)
        m = random_cds(2, 2, rng)
        e = random_cptp(2, 2, rng)
        chk.expect(dv.p_err(apply_cds(m, b)) >= dv.p_err(b) - 1e-8,
                   f"{i}: p_err monotone")
        rhs = dv.scaled_trace_distance(b, c)
        if math.isfinite(rhs):
            lhs = dv.scaled_trace_distance(apply_cds(m, b), apply_cds(m, c))
            chk.expect(lhs <= rhs + 1e-8, f"{i}: D' DPI")
        chk.expect(dv.xi_min(e(b.rho0), e(b.rho1))
                   <= dv.xi_min(b.rho0, b.rho1) + 1e-8, f"{i}: xi_min DPI")
        chk.expect(dv.xi_max(e(b.rho0), e(b.rho1))
                   <= dv.xi_max(b.rho0, b.rho1) + 1e-8, f"{i}: xi_max DPI")
        chk.expect(dv.xi_max_star(apply_cds(m, b))
                   <= dv.xi_max_star(b) + 1e-8, f"{i}: xi_max_star DPI")
    chk.report(10, "DPI suite (5 monotonicity laws x 200 draws)")


def test_criterion_11_figure1_endpoints_and_monotonicity():
    chk = _Check()
    spec = SweepSpec(family="gad-gamma", start=0.0, stop=1.0, steps=11,
                     N=0.1, q=1 / 3)
    res = run_sweep(spec)
    last = res.rows[-1]
    idx = {name: k for k, name in enumerate(res.header)}
    chk.expect(abs(last[idx["xi_min"]]) <= 1e-6, "xi_min at gamma=1")
    chk.expect(abs(last[idx["xi_max"]]) <= 1e-6, "xi_max at gamma=1")
    chk.expect(abs(last[idx["sd"]] - math.log2(1.5)) <= 1e-6, "sd at gamma=1")
    chk.expect(abs(last[idx["xi_max_star"]] - math.log2(1.5)) <= 1e-6,
               "xi_max_star at gamma=1")
    for name in res.header[1:]:
        col = res.column(name)
        prev = math.inf
        for v in col:
            chk.expect(v <= prev + 1e-6, f"{name} not monotone")
            prev = v if math.isfinite(v) else math.inf
    chk.report(11, "Figure-1 endpoints and monotonicity")


def test_criterion_11_figure4_plateau():
    """Figure 4 (the CDS conversion-error curve) plateaus near phi = pi/2.

    Each plateau value is asserted in the regime where it is proven.  Under
    CDS the curve is bounded below by p_err(source)/p_err(target) - 1, since
    p_err cannot decrease under a free map and the scaled trace distance
    bounds the change in p_err; the returned witness attains that bound.
    The stated value |p-q|/min{q,1-q} is the CPTP_A plateau: with the prior
    fixed the c-q trace distance is at least |p-q|, and p_err(target) =
    min{q,1-q} at phi = pi/2.  Both values are cross-checked against an
    independent linear program in
    ``test_tasks.py::test_conversion_figure4_diagonal_lp``.
    """
    values = [tasks.min_conversion_error(*figure4_boxes(phi), CDS).value
              for phi in (0.9, 1.2, 1.4)]
    source, target = figure4_boxes(math.pi / 2)
    cds = tasks.min_conversion_error(source, target, CDS)
    values.append(cds.value)
    chk = _Check()
    chk.expect(all(values[k + 1] <= values[k] + 1e-6 for k in range(3)),
               "curve not non-increasing")
    chk.expect(abs(values[-1] - values[-2]) <= 1e-4,
               "no plateau near pi/2")
    plateau = values[-1]
    bound = dv.p_err(source) / dv.p_err(target) - 1
    chk.expect(abs(plateau - bound) <= 1e-4,
               f"CDS plateau {plateau:.8f}, p_err(source)/p_err(target) - 1 "
               f"= {bound:.8f}")
    reached = dv.scaled_trace_distance(apply_cds(cds.witness, source), target)
    chk.expect(abs(reached - bound) <= 1e-4,
               f"CDS witness reaches {reached:.8f}, bound {bound:.8f}")
    p, q = source.p, target.p
    stated = abs(p - q) / min(q, 1 - q)
    chk.expect(abs(dv.p_err(target) - min(q, 1 - q)) <= 1e-12,
               "p_err(target) != min{q, 1-q} at pi/2")
    cptpa = tasks.min_conversion_error(source, target, CPTPA)
    chk.expect(abs(cptpa.value - stated) <= 1e-4,
               f"CPTP_A plateau {cptpa.value:.8f}, |p-q|/min{{q,1-q}} "
               f"= {stated:.8f}")
    reached = dv.scaled_trace_distance(apply_cptp(cptpa.witness, source),
                                       target)
    chk.expect(abs(reached - stated) <= 1e-4,
               f"CPTP_A witness reaches {reached:.8f}, stated {stated:.8f}")
    chk.report(11, "Figure-4 plateau: CDS bound and CPTP_A stated value")


def test_criterion_12_transformation_rate_case_table():
    rng = np.random.default_rng(1012)
    INF = math.inf
    rho = random_density(2, rng)
    sig = random_density(2, rng)
    orth0, orth1 = np.diag([1.0, 0]), np.diag([0, 1.0])
    mix0, mix1 = np.diag([0.8, 0.2]), np.diag([0.4, 0.6])
    xi_mix = dv.chernoff(mix0, mix1)
    gad = gad_channel(0.3, 0.2)
    g0, g1 = gad(orth0), gad(orth1)
    xi_g = dv.chernoff(g0, g1)

    def box(p, r0, r1):
        return QuantumBox(p, r0, r1)

    cases = [
        # CDS regime
        (CDS, box(0.0, rho, sig), box(0.3, mix0, mix1), (INF, INF)),
        (CDS, box(1.0, rho, sig), box(0.3, mix0, mix1), (INF, INF)),
        (CDS, box(0.3, orth0, orth1), box(0.0, rho, sig), (INF, INF)),
        (CDS, box(0.3, mix0, mix1), box(1.0, rho, sig), (0.0, 0.0)),
        (CDS, box(0.3, mix0, mix1), box(0.6, g0, g1), (xi_mix / xi_g,) * 2),
        (CDS, box(0.3, orth0, orth1), box(0.6, orth0, orth1), (INF, INF)),
        (CDS, box(0.3, mix0, mix1), box(0.6, orth0, orth1), (0.0, 0.0)),
        (CDS, box(0.3, mix0, mix1), box(0.6, rho, rho), (INF, INF)),
        (CDS, box(0.2, rho, rho), box(0.3, sig, sig), (INF, INF)),   # p > q
        (CDS, box(0.4, rho, rho), box(0.2, sig, sig), (0.0, INF)),   # p not > q
        # prior-preserving regime
        (CPTPA, box(0.3, mix0, mix1), box(0.3, g0, g1), (xi_mix / xi_g,) * 2),
        (CPTPA, box(0.3, rho, rho), box(0.3, sig, sig), (INF, INF)),  # 0/0
        (CPTPA, box(0.3, orth0, orth1), box(0.3, mix0, mix1), (INF, INF)),
        (CPTPA, box(0.3, mix0, mix1), box(0.3, orth0, orth1), (0.0, 0.0)),
        (CPTPA, box(0.3, mix0, mix1), box(0.5, g0, g1), (0.0, 0.0)),
        (CPTPA, box(0.3, mix0, mix1), box(0.5, rho, rho), (0.0, INF)),
        (CPTPA, box(0.0, rho, sig), box(0.0, mix0, mix1), (INF, INF)),
        (CPTPA, box(0.3, rho, sig), box(1.0, mix0, mix1), (0.0, 0.0)),
        (CPTPA, box(0.0, rho, sig), box(0.3, mix0, mix1), (0.0, 0.0)),
        (CPTPA, box(1.0, rho, sig), box(0.3, rho, rho), (0.0, INF)),
    ]
    chk = _Check()
    for k, (regime, src, tgt, expected) in enumerate(cases):
        got = tasks.transform_rate(src, tgt, regime)
        for g, e, kind in zip(got, expected, ("achievable", "strong conv")):
            if math.isinf(e):
                chk.expect(math.isinf(g), f"case {k} {kind}: got {g}")
            else:
                chk.expect(abs(g - e) <= 1e-12, f"case {k} {kind}: got {g}")
    chk.report(12, "transformation-rate case table")
