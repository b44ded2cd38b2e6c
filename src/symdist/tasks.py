"""Operational tasks: distillation, dilution, conversion, asymptotic rates.

Every one-shot task returns a :class:`TaskResult` carrying the value in
SD-bits (base-2), a channel witness where the protocol is constructive,
and solver diagnostics.  Regimes: ``"cptpA"`` restricts to channels on the
quantum register (prior fixed), ``"cds"`` allows classical label flips.
Approximate distillation is solver-free in both regimes.  Its program, the
conversion-error and dilution phase-I programs with their scale as a
variable (fixed here in closed form) and the conversion program into an
orthogonal-pair golden unit with its dual are cross-check oracles in
``tests/oracles.py``.

Exact tasks run block by block on the quotient box of a qubit tensor
power (``tensor_box``), witnesses included, and so do the programs: each
matrix variable is one block per block of the quotient
(``_program_blocks``; a dense box is one block), and a conversion's Choi
variable, and its witness, one block per pair of input and output blocks,
at most 10 x 10 from b^(x)9 into c^(x)9 where the quotient-sized variable
is 900 x 900.  Witnesses act on the
quotient: Lambda on it acts on (C^2)^(x)n as Lambda o E, E the
pinch-and-trace map of ``linalg`` (built in ``tests/oracles.py``).  A qubit
box or qubit tensor power enters the programs in its real frame
(``boxes.real_frame``): a unitary on the quantum register is free and
reversible in both regimes, so the value is unchanged, and the program
compiles real, with no complex embedding doubling its blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import channels, linalg, model, sdp
from .boxes import QuantumBox, golden_box, real_frame
from .channels import CdsMap, CpMap, MeasurePrepare, measure_prepare
from .config import TOLS
from .divergences import (_support_if_orthogonal, chernoff, p_err, q_max,
                          q_max_star, q_min, q_min_eps, sd, thompson, xi_max,
                          xi_max_star, xi_of)
from .exceptions import ParameterRangeError, SolverError
from .model import Model, channel_output, ptrace_out, times, trace

Array = np.ndarray
INF = math.inf

CPTPA = "cptpA"
CDS = "cds"


def _check_regime(regime: str) -> str:
    if regime not in (CPTPA, CDS):
        raise ParameterRangeError(f"regime must be {CPTPA!r} or {CDS!r}")
    return regime


@dataclass(eq=False)
class TaskResult:
    value: float
    witness: CdsMap | CpMap | MeasurePrepare | None = None
    diagnostics: dict = field(default_factory=dict)


# --- exact distillation -------------------------------------------------------

def distill_exact(b: QuantumBox, regime: str) -> TaskResult:
    _check_regime(regime)
    if regime == CPTPA:
        if b.p <= 0.0 or b.p >= 1.0:
            return TaskResult(INF, None, {"reason": "singular prior"})
        qm = q_min(b.rho0, b.rho1)
        if qm.value <= 0.0 or _support_if_orthogonal(b.rho0, b.rho1) is not None:
            value = INF
        else:
            value = max(-math.log2(qm.value), 0.0)
        witness = channels.distill_channel_cptpA(b, qm.minimizer)
        return TaskResult(value, witness, {"q_min": qm.value})
    value = sd(b)
    if math.isinf(value):
        witness = channels.inf_to_any(b, golden_box(INF, 0.5))
    else:
        witness = channels.distill_channel_cds(b)
    return TaskResult(value, witness, {"p_err": p_err(b)})


def cost_exact(b: QuantumBox, regime: str) -> TaskResult:
    """Exact dilution cost xi_max (cptpA) or xi_max_star (cds) with its
    dilution channel.  The Thompson metric is evaluated once (per block,
    two ``eigh`` and two ``eigvalsh``); the witness adds one ``eigh`` per
    block of each prepared state, which also validates it for every branch,
    and the PSD test (one ``eigvalsh`` per block) of each of its effects."""
    _check_regime(regime)
    if regime == CPTPA:
        if b.p <= 0.0 or b.p >= 1.0:
            return TaskResult(0.0, None, {"reason": "singular prior"})
        big_m = q_max(b.rho0, b.rho1)
        if math.isinf(big_m):
            return TaskResult(INF, None, {})
        return TaskResult(xi_of(big_m), channels.dilute_channel_cptpA(b, big_m),
                          {"q_max": big_m})
    big_m = q_max_star(b)
    if math.isinf(big_m):
        return TaskResult(INF, None, {})
    return TaskResult(xi_of(big_m), channels.dilute_channel_cds(b, big_m),
                      {"q_max_star": big_m})


# --- minimum conversion error ---------------------------------------------------

def _exact_cptpA_conversion(source: QuantumBox,
                            target: QuantumBox) -> MeasurePrepare | None:
    """Exact prior-preserving channel source -> target, or None."""
    if abs(source.p - target.p) > 1e-12:
        return None
    eye = linalg.identity_like(source.rho0)
    if target.p <= TOLS.infinite_perr:
        return measure_prepare([eye], [target.rho1])
    if target.p >= 1.0 - TOLS.infinite_perr:
        return measure_prepare([eye], [target.rho0])
    proj = _support_if_orthogonal(source.rho0, source.rho1)
    if proj is None:
        return None
    return measure_prepare([proj, eye - proj], [target.rho0, target.rho1])


def _program_blocks(b: QuantumBox) -> tuple[list[tuple[Array, Array]], list[Array]]:
    """b in its real frame (``real_frame``: b = U b' U^dag) as a program's
    data: the weighted pair block by block, (w0_k, w1_k), real where the
    framed box is, and pi_k(U) for each block (``linalg.schur_weyl_power``
    on a quotient, U on a qubit box and the identity for a box that
    ``real_frame`` leaves as it is).  A dense box is a single block."""
    framed, u = real_frame(b)
    w0, w1 = linalg.BlockOp.of(*framed.weighted())
    if u is None:
        pis = [np.eye(len(x)) for x in w0.blocks]
    else:
        pis = list(linalg.schur_weyl_power(u, b.qubit_power[2] if b.qubit_power else 1).blocks)
    return list(zip(w0.blocks, w1.blocks)), pis


def _free_map_outputs(m: Model, blocks: list[tuple[Array, Array]], d_out: list[int],
                      regime: str) -> tuple[list, list, list, list]:
    """Free-map Choi variables om_j (om0, and om1 under CDS, which flips the
    label), one per input block k and output block l, on in_k (x) out_l.
    Returns the images of the weighted branches block by block, tau0[l]
    and tau1[l], the trace Tr_out of the map on each input block k, and
    per branch the variables keyed by (k, l)."""
    branches = (0, 1) if regime == CDS else (0,)
    d_in = [len(w0) for w0, _ in blocks]
    pairs = [(k, l) for k in range(len(d_in)) for l in range(len(d_out))]
    om = [{(k, l): m.psd_var(f"om{j}_{k}_{l}", d_in[k] * d_out[l]) for k, l in pairs}
          for j in branches]
    # image i collects branch j applied to weighted branch i ^ j
    tau = [[sum(channel_output(blocks[k][i ^ j], om[j][k, l], (d_in[k], d_out[l]))
                for j in branches for k in range(len(d_in)))
            for l in range(len(d_out))] for i in (0, 1)]
    tp = [sum(ptrace_out(om[j][k, l], (d_in[k], d_out[l]))
              for j in branches for l in range(len(d_out)))
          for k in range(len(d_in))]
    return tau[0], tau[1], tp, om


def _block_choi(parts: dict, d_in: list[int], d_out: list[int]) -> CpMap:
    """The map whose Choi matrix on in (x) out is parts[k, l] on input block
    k (x) output block l and zero off those blocks."""
    at_in, at_out = np.cumsum([0, *d_in]), np.cumsum([0, *d_out])
    out = np.zeros((at_in[-1], at_out[-1]) * 2,
                   dtype=np.result_type(*parts.values()))
    for (k, l), om in parts.items():
        i, o = slice(at_in[k], at_in[k + 1]), slice(at_out[l], at_out[l + 1])
        out[i, o, i, o] = om.reshape(d_in[k], d_out[l], d_in[k], d_out[l])
    return CpMap(out.reshape(at_in[-1] * at_out[-1], -1), sum(d_in), sum(d_out))


def min_conversion_error(source: QuantumBox, target: QuantumBox,
                         regime: str) -> TaskResult:
    """Smallest scaled-trace-distance error reachable under free operations.

    A free map with branch images tau_i has error s* sum_i ||tau_i - sigma_i||_1,
    with sigma_i the weighted target branches and the closed-form scale
    s* = 1/(2 p_err(target)).  The program minimizes sum_i Tr(B_i + C_i) over
    B_i - C_i = tau_i - sigma_i, B_i, C_i >= 0 and trace-preserving Choi
    variables; the value is s* times its optimum, and ``diagnostics["s"]``
    is s*.

    A qubit tensor power enters as its quotient Q, on either side, and
    loses nothing.  The pinch-and-trace map E onto Q and its recovery map
    R (E(R(Y)) = Y) are channels on the quantum register, so free in both
    regimes.  The trace norm does not grow under a channel, and
    p_err(R(Q)) = p_err(Q): it cannot fall under R, nor rise under E,
    which undoes R.  So R o Lambda into R(Q) = c^(x)n errs at most as much
    as Lambda into Q, and E o Lambda' into Q at most as much as Lambda'
    into c^(x)n; Lambda o R and Lambda o E do the same on the source side.

    The variables are block diagonal, and that loses nothing either.  The
    states of each side commute with its block phases
    P_theta = (+)_k e^{i theta_k} I.  Lambda o Ad(P_theta) keeps the images
    of the source, and Ad(P_phi) o Lambda keeps each ||tau_i - sigma_i||_1,
    as sigma is invariant; both keep Lambda free in either regime, and the
    objective is convex, so averaging over theta and phi loses nothing
    (Gatermann & Parrilo, J. Pure Appl. Algebra 192 (2004)).  The averaged
    Choi matrix is (+)_{k,l} Omega_kl on in_k (x) out_l, trace preservation
    is one row per input block, sum_l Tr_out Omega_kl = I, and B_i, C_i
    split per output block.  A dense box is one block.

    Both sides enter in their real frame (``_program_blocks``: source
    b = U b' U^dag, target c = V c' V^dag, block k of a side framed by
    pi_k(U), the identity for a box left as it was); ``Model.compile``
    solves the program real when both framed sides are real.  The witness
    is built one block pair at a time.  Each branch's Omega_kl is made PSD,
    P_kl; input block k is normalised by g_k = (sum_{j,l} Tr_out P_kl)^(-1/2)
    over the branches j, so the branches sum to a trace-preserving map; and
    F_kl P_kl F_kl^dag, F_kl = conj(pi_k(U)) g_k (x) pi_l(V), is block
    (k, l) of the branch's Choi matrix, which maps b, not b'."""
    _check_regime(regime)
    pe_target = p_err(target)
    inf_source = p_err(source) <= TOLS.infinite_perr
    inf_target = pe_target <= TOLS.infinite_perr
    if inf_source or inf_target:
        # an infinite-resource side: an exact conversion, or none at all to
        # an infinite target
        if regime == CDS:
            if inf_source:
                return TaskResult(0.0, channels.inf_to_any(source, target), {})
            return TaskResult(INF, None, {"reason": "finite to infinite"})
        witness = _exact_cptpA_conversion(source, target)
        if witness is not None:
            return TaskResult(0.0, witness, {})
        if inf_target:
            return TaskResult(INF, None, {"reason": "no exact prior-preserving map"})

    (blocks, us), (sigmas, vs) = _program_blocks(source), _program_blocks(target)
    d_in, d_out = [len(w0) for w0, _ in blocks], [len(s0) for s0, _ in sigmas]
    m = Model()
    tau0, tau1, tp, om = _free_map_outputs(m, blocks, d_out, regime)
    cost = []
    for l, (sigma0, sigma1) in enumerate(sigmas):
        b0, b1, c0, c1 = (m.psd_var(f"{n}_{l}", len(sigma0))
                          for n in ("b0", "b1", "c0", "c1"))
        m.eq(b0 - c0 - tau0[l], -sigma0)
        m.eq(b1 - c1 - tau1[l], -sigma1)
        cost.append(trace(b0) + trace(b1) + trace(c0) + trace(c1))
    for tp_k, d_k in zip(tp, d_in):
        m.eq(tp_k, np.eye(d_k))
    m.minimize(sum(cost))
    res = model.require_optimal(m.solve(), "conversion-error program")

    parts = [{kl: linalg.positive_part(res.primal[x.name]) for kl, x in branch.items()}
             for branch in om]
    gs = [linalg.pseudo_inverse_sqrt(sum(linalg.ptrace(part[k, l], (d_k, d_l))
                                         for part in parts for l, d_l in enumerate(d_out)))
          for k, d_k in enumerate(d_in)]
    frames = {(k, l): np.kron(u_k.conj() @ g_k, v_l)
              for k, (u_k, g_k) in enumerate(zip(us, gs)) for l, v_l in enumerate(vs)}
    maps = [_block_choi({kl: f @ part[kl] @ f.conj().T for kl, f in frames.items()},
                        d_in, d_out) for part in parts]
    witness = CdsMap(*maps) if regime == CDS else maps[0]
    s_star = 1.0 / (2.0 * pe_target)
    return TaskResult(max(s_star * res.value, 0.0), witness,
                      {"s": s_star, "gap": res.gap})


# --- approximate distillation ---------------------------------------------------

def distill_approx(b: QuantumBox, eps: float, regime: str) -> TaskResult:
    """Largest golden unit reachable within scaled-trace-distance eps, as
    -log2 r*.  The CDS program is label-swap invariant, so r* = 2 p_err/(1+eps);
    the CPTP_A r* is the spectral search ``q_min_eps``."""
    _check_regime(regime)
    if not 0.0 <= eps < INF:
        raise ParameterRangeError(f"eps must be finite and nonnegative, got {eps}")
    if regime == CDS:
        return TaskResult(sd(b) + math.log2(1.0 + eps))
    if not 0.0 < b.p < 1.0:
        return TaskResult(INF, None, {"reason": "singular prior"})
    if _support_if_orthogonal(b.rho0, b.rho1) is not None:
        return TaskResult(INF, None, {"reason": "orthogonal supports"})
    r_star = q_min_eps(b, eps)
    if r_star <= TOLS.infinite_perr:
        return TaskResult(INF, None, {"r": r_star})
    return TaskResult(-math.log2(r_star), None, {"r": r_star})


# --- approximate dilution (bracketed root-finder over M) -------------------------

_PHASE1_OPTIONS = sdp.SolverOptions(gap_tol=1e-10, feas_tol=1e-9)
_M_TOL = 1e-6       # width in M of the bracket cost_approx closes


def _phase1_model(b: QuantumBox, eps: float, regime: str, t: float) -> Model:
    """The phase-I program of approximate dilution at golden unit
    M = (1 + 1/t)/2, minimizing its signed infeasibility lambda.

    The approximant's branches are r_i = s tau_i at the closed-form scale
    s = 1/(2 p_err(b)) (``min_conversion_error``'s s*, for b), weighted by
    (a0, a1) = (1, 1) under CDS, where Tr r0 + Tr r1 = s, and (p, 1 - p)
    under CPTP_A, where each has trace s.  With B_i - C_i = s w_i - a_i r_i
    and D - E = a0 r0 - a1 r1, the one eps row divided by s reads
    sum_i ||w_i - a_i tau_i||_1 + eps ||a0 tau0 - a1 tau1||_1 <= eps, that
    is scaled_trace_distance(b, tau) <= eps over tau's p_err.  Any s > 0
    gives that set at lambda = 0; s = 1 makes lambda's slope near the root
    about 2 p_err(b) times flatter, too flat for the sign test at large M.
    The M rows
    r1 >= t r0 and r0 >= t r1 of each block are divided by 2M - 1 = 1/t,
    so t enters only as a coefficient of r0 and r1: the data are affine in
    t (``_phase1_family``).  The shift lambda = lam0 - 1 relaxes every
    inequality, keeping an interior on both sides of the boundary, even at
    eps = 0.  Matrix variables are one per block of ``_program_blocks(b)``
    (``min_conversion_error``'s block-phase argument, on the states only);
    only the trace rows couple blocks."""
    blocks, _ = _program_blocks(b)
    a0, a1 = (1.0, 1.0) if regime == CDS else (b.p, 1 - b.p)
    s = 1.0 / (2.0 * p_err(b))
    m = Model()
    lam0 = m.scalar("lam0")        # lambda = lam0 - 1 >= -1
    names = ("b0", "b1", "c0", "c1", "dv", "ev", "r0", "r1")
    xs = [{n: m.psd_var(f"{n}_{k}", len(w0)) for n in names}
          for k, (w0, _) in enumerate(blocks)]
    for x in xs:
        eye = np.eye(x["r0"].dim)
        m.ge(x["r1"] - t * x["r0"] + times(lam0, eye), eye)
        m.ge(x["r0"] - t * x["r1"] + times(lam0, eye), eye)
    for x, (w0, w1) in zip(xs, blocks):
        m.eq(x["b0"] - x["c0"] + a0 * x["r0"], s * w0)
        m.eq(x["b1"] - x["c1"] + a1 * x["r1"], s * w1)
        m.eq(x["dv"] - x["ev"] - a0 * x["r0"] + a1 * x["r1"], 0.0 * np.eye(len(w0)))
    tr = {n: sum(trace(x[n]) for x in xs) for n in names}
    for row in ([tr["r0"] + tr["r1"]] if regime == CDS else [tr["r0"], tr["r1"]]):
        m.eq(row, s)
    m.le(tr["b0"] + tr["b1"] + tr["c0"] + tr["c1"] + eps * (tr["dv"] + tr["ev"]) - lam0,
         s * eps - 1.0)
    m.minimize(lam0)
    return m


def _phase1_family(b: QuantumBox, eps: float, regime: str) -> tuple:
    """``_phase1_model`` as the affine family P0 + t D: its compile P0 at
    t = 0, and (j, rows, D_j) in ascending j for each PSD block j that moves
    in the compile P1 at t = 1, D_j = P1 - P0 on the rows where it does.
    Both compiles have a row per basis direction of every constraint, and
    each row names the same blocks in both.  P0 + t D is the compile at t
    bit for bit (t only scales exactly Hermitian coefficient stacks, which
    compiling at most halves).  The objective, lam0, has no constant, so
    P0's optimal value is the model's."""
    (p0, _), (p1, _) = (_phase1_model(b, eps, regime, t).compile() for t in (0.0, 1.0))
    moved: dict[int, dict[int, Array]] = {}
    for i, ((a0, _), (a1, _)) in enumerate(zip(p0.constraints, p1.constraints)):
        for j, a in a1.items():
            if (d := a - a0[j]).any():
                moved.setdefault(j, {})[i] = d
    return p0, [(j, np.array(list(moved[j])), np.array(list(moved[j].values())))
                for j in sorted(moved)]


def _accepted(res: sdp.SdpSolution) -> bool:
    """Whether a phase-I solve is taken: optimal, or ended otherwise with its
    relative primal, dual and gap residuals at most 1e-6, which catch a
    failed solve.  The dual one counts too, as the slope is read from y."""
    return res.status is sdp.SdpStatus.OPTIMAL or all(
        res.residuals[k] <= 1e-6 for k in ("rel_primal", "rel_dual", "rel_gap"))


def _phase1_shift(family: tuple, t: float, stats: dict, solved: list) -> tuple[float, float]:
    """Signed infeasibility lambda of the phase-I program P0 + t D of a
    ``_phase1_family``, and its slope from the same solve, nan without a
    finite point; the solve is counted in ``stats``.  The program is
    handed to ``sdp.solve`` directly, with ``_PHASE1_OPTIONS``: no model
    is involved, and lambda is the solver's value less 1.  The slope is the
    optimal value's sensitivity to its data (Boyd & Vandenberghe, Convex
    Optimization, 5.6), d lambda / dt = -sum_j y[rows_j] . <D_j, X_j> at the
    solver's y and X, in compiled space, where a complex program is embedded.

    ``solved`` lists the earlier solves of the same family, oldest first,
    and each solve made here is appended to it.  The solve starts warm from
    the newest ``optimal`` one, never from one taken on its residuals
    (``sdp.solve``'s ``start``), and cold when there is none.  A warm solve
    that ``_accepted`` refuses is solved again cold; both solves are
    counted, and the retry in ``stats["retried"]``."""
    p0, deltas = family
    constraints = list(p0.constraints)
    for j, rows, stack in deltas:
        for i, d in zip(rows, stack):
            mats, rhs = constraints[i]
            constraints[i] = ({**mats, j: mats[j] + t * d}, rhs)
    prob = sdp.SdpProblem(p0.blocks, p0.objective, constraints)
    start = next((r for r in reversed(solved) if r.status is sdp.SdpStatus.OPTIMAL), None)
    res = sdp.solve(prob, _PHASE1_OPTIONS, start=start)
    stats["solves"] += 1
    if start is not None and not _accepted(res):
        solved.append(res)
        stats["retried"] = stats.get("retried", 0) + 1
        res = sdp.solve(prob, _PHASE1_OPTIONS)
        stats["solves"] += 1
    solved.append(res)
    if res.status is not sdp.SdpStatus.OPTIMAL:
        # the sign test near the root needs lambda to about slope * xtol
        # (about 3e-10 on the dilution reproducer), which is why
        # _PHASE1_OPTIONS is tighter than the default
        if not _accepted(res):
            raise SolverError(f"phase-I feasibility solve returned {res.status.value}")
        stats[res.status.value] = stats.get(res.status.value, 0) + 1
    with np.errstate(over="ignore", invalid="ignore"):   # block by block, in order
        slope = math.nan if not np.all(np.isfinite(res.y)) else -sum(
            float(res.y[rows] @ np.tensordot(stack, res.x_blocks[j], axes=2))
            for j, rows, stack in deltas)
    return res.value - 1.0, slope


def cost_approx(b: QuantumBox, eps: float, regime: str) -> TaskResult:
    """Smallest golden unit diluting to the eps-ball of the box.

    The ball holds the images tau with scaled_trace_distance(b, tau) <= eps,
    over tau's p_err (``_phase1_model``), where ``min_conversion_error``
    divides by its target's: a golden unit M0 costs log2(M0 (1 - eps)),
    saving -log2(1 - eps) bits where the conversion order saves log2(1 + eps).

    For fixed M the program is linear and its phase-I shift lambda rises
    with t = 1/(2M - 1).  A safeguarded Newton iteration closes a bracket
    on the root, from t = 1 (M = 1) to the exact cost ``xi_max`` (cptpA)
    or ``xi_max_star`` (cds), feasible because ``cost_exact``'s dilution
    channel maps that golden unit onto the box, to ``_M_TOL`` in M, and
    returns its feasible end.  Each solve also gives the slope
    d lambda / dt from its dual (``_phase1_shift``); the next t is the Newton
    point of the newest solve when that slope is finite and positive and
    the point lies inside the bracket, and the Illinois regula falsi point
    otherwise.  Either is kept _M_TOL/2 in M inside the ends, so a Newton
    step that lands on the root closes the bracket with one more solve.
    Feasibility is decided by the sign of each solve's lambda alone, never
    by a slope.  The phase-I program, built from the box in its real frame
    (``_program_blocks``), which has the same cost, is affine in t: it is
    compiled at t = 0 and t = 1 (``_phase1_family``), and each step solves
    P0 + t D.  No witness is returned, so no frame is mapped back; the
    bracket end comes from b itself.

    Each solve after the first starts warm (``_phase1_shift``) from the
    newest ``optimal`` solve of the call, blended with share 0.99
    (``sdp._WARM_SHARE``) into the cold start eta I; a warm solve that
    fails the acceptance test is solved again cold.  Nothing is kept past
    the call, so its value does not depend on earlier calls.  Diagnostics
    count the solves, their summed ``iterations``, by status the non-optimal
    ones accepted for their residuals, and the warm solves ``retried``."""
    _check_regime(regime)
    if not 0.0 <= eps < INF:
        raise ParameterRangeError(f"eps must be finite and nonnegative, got {eps}")
    if regime == CPTPA and not 0.0 < b.p < 1.0:
        return TaskResult(0.0, None, {"reason": "singular prior"})
    exact = xi_max(b.rho0, b.rho1) if regime == CPTPA else xi_max_star(b)
    if math.isinf(exact):
        # the eps-ball around an infinite-resource box is the box itself
        return TaskResult(INF, None, {"reason": "infinite resource"})
    stats = {"solves": 0, "ill_conditioned": 0, "retried": 0}
    solved = []     # this call's solves, oldest first
    family = _phase1_family(b, eps, regime)

    def result(big_m: float) -> TaskResult:
        iterations = sum(r.iterations for r in solved)
        return TaskResult(math.log2(big_m), None,
                          {"M": big_m, **stats, "iterations": iterations})

    hi, (f_hi, _) = 1.0, _phase1_shift(family, 1.0, stats, solved)
    if f_hi <= 1e-8:        # free within the phase-I solve's accuracy
        return result(1.0)
    lo = 1.0 / (2.0 ** (exact + 1.0) - 1.0)
    try:        # lo is feasible; its solve only supplies an interpolation value
        f_lo, slope = _phase1_shift(family, lo, stats, solved)
        f_lo = min(f_lo, 0.0)
    except SolverError:
        f_lo, slope = 0.0, math.nan
    t, f = lo, f_lo     # the newest solve; slope is its d lambda / dt
    side = 0        # the end that moved last; a repeat halves the other's value
    while 0.5 / lo - 0.5 / hi > _M_TOL:
        xtol = 2.0 * lo * lo * _M_TOL     # _M_TOL in M at the feasible end
        newton = t - f / slope if math.isfinite(slope) and slope > 0.0 else lo
        t = newton if lo < newton < hi else hi - f_hi * (hi - lo) / (f_hi - f_lo)
        t = min(max(t, lo + 0.5 * xtol), hi - 0.5 * xtol)
        f, slope = _phase1_shift(family, t, stats, solved)
        if f <= 0.0:
            f_hi *= 0.5 if side < 0 else 1.0
            lo, f_lo, side = t, f, -1
        else:
            f_lo *= 0.5 if side > 0 else 1.0
            hi, f_hi, side = t, f, 1
    return result(0.5 * (1.0 + 1.0 / lo))


# --- asymptotic rates ----------------------------------------------------------

class AsymptoticRates(NamedTuple):
    distill: float
    exact_cost: float
    approx_cost: float


def asymptotic_rates(b: QuantumBox) -> AsymptoticRates:
    """Per-copy rates: distillation and approximate dilution run at the
    Chernoff divergence, exact dilution at the Thompson metric."""
    if not 0.0 < b.p < 1.0:
        raise ParameterRangeError("asymptotic rates need a nonsingular prior")
    xi = chernoff(b.rho0, b.rho1)
    dt = thompson(b.rho0, b.rho1)
    return AsymptoticRates(xi, dt, xi)


class TransformRate(NamedTuple):
    achievable: float
    strong_converse: float


def _ratio(a: float, b_val: float) -> float:
    """xi(source)/xi(target) with the conventions inf/inf = inf, x/0 = inf."""
    if b_val == 0.0 or math.isinf(a):
        return INF
    if math.isinf(b_val):
        return 0.0
    return a / b_val


def _majorizes(p: float, q: float) -> bool:
    return max(p, 1 - p) >= max(q, 1 - q) - 1e-12


def transform_rate(source: QuantumBox, target: QuantumBox,
                   regime: str) -> TransformRate:
    """Optimal achievable and strong-converse conversion rates (copies of
    target per copy of source), by the exact case table."""
    _check_regime(regime)
    p, q = source.p, target.p
    p_singular = p <= 0.0 or p >= 1.0
    q_singular = q <= 0.0 or q >= 1.0
    # equal-state branches need exact zeros; rounding noise sits near 1e-15
    xi_s = chernoff(source.rho0, source.rho1)
    xi_t = chernoff(target.rho0, target.rho1)
    xi_s = 0.0 if xi_s <= 1e-12 else xi_s
    xi_t = 0.0 if xi_t <= 1e-12 else xi_t

    if regime == CDS:
        if p_singular:
            return TransformRate(INF, INF)
        if q_singular:
            if math.isinf(xi_s):
                return TransformRate(INF, INF)
            return TransformRate(0.0, 0.0)
        if xi_t > 0.0:
            r = _ratio(xi_s, xi_t)
            return TransformRate(r, r)
        if xi_s > 0.0:
            return TransformRate(INF, INF)
        if _majorizes(p, q):
            return TransformRate(INF, INF)
        return TransformRate(0.0, INF)

    # prior-preserving regime
    if q_singular:
        if abs(p - q) <= 1e-12:
            return TransformRate(INF, INF)
        return TransformRate(0.0, 0.0)
    if p_singular:
        if xi_t > 0.0:
            return TransformRate(0.0, 0.0)
        return TransformRate(0.0, INF)
    if abs(p - q) <= 1e-12:
        r = _ratio(xi_s, xi_t)
        return TransformRate(r, r)
    if xi_t > 0.0:
        return TransformRate(0.0, 0.0)
    return TransformRate(0.0, INF)
