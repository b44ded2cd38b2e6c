"""Program-side cross-check oracles for the library's closed forms.

The library evaluates these quantities in closed form or by a spectral
search; the tests solve the programs here with ``symdist.sdp`` and compare.

- ``p_err_sdp``: the greatest-lower-bound program for ``divergences.p_err``.
- ``scaled_trace_distance_sdp``: primal and dual programs for
  ``divergences.scaled_trace_distance``.
- ``conversion_error_program``: the conversion-error program with its
  scale s a variable, which ``tasks.min_conversion_error`` fixes at the
  closed form s* = 1/(2 p_err(target)).
- ``conversion_error_to_infinite``: the conversion program into an
  orthogonal-pair golden unit, and its dual; both equal ``p_err``.
- ``distill_approx_program``: one-shot approximate distillation in both
  regimes (``tasks.distill_approx``; ``divergences.q_min`` at eps = 0 under
  CPTP_A).
- ``q_min_bisection``: ``divergences.q_min`` by plain bisection on the
  slope of its dual, one eigendecomposition per block and step, about 50
  steps; the reference for the breakpoint-and-Newton search.

``kron_left`` and ``kron_right`` (X -> K (x) X, X -> X (x) K) are the
model expressions of the D' dual in ``conversion_error_to_infinite``.

``one_block`` merges a quotient's blocks into one dense block, on which
``tasks`` runs its single-block programs: the oracle for the block
programs of ``tasks.min_conversion_error`` and ``tasks.cost_approx``.

``schur_channels`` builds, from the real orthogonal qubit Schur transform
(``schur_transform``), the two channels between (C^2)^(x)n and the
Schur-Weyl quotient that ``boxes.tensor_box`` holds: the pinch-and-trace
map E and its recovery map R.  ``lift`` turns a map on the quotient into
the map Lambda o E on (C^2)^(x)n.

The solver takes PSD blocks only, so each free Hermitian variable of the
textbook programs is written as a bound minus a PSD block; the docstrings
say why the bound loses nothing.  Each reads a quotient's block-diagonal
matrix (``dense_weighted``), sized by the states' shapes.

``dense_witness_chois`` builds the conversion witness at the quotient
size from a solve's blocks Omega_kl, the reference for the block pair by
block pair witness of ``tasks.min_conversion_error``.

``nt_second_order`` is the oracle for the solver's Mehrotra term: it
takes the symmetric square root of the NT scaling point in place of the
solver's Cholesky-based factor and solves the Lyapunov equation densely.

Test-only constructions close the module: the negative part
``negative_part``, the pretty good measurement ``pgm`` (dense states), the
seeded random channels ``random_cptp`` and ``random_cds``, and the
constructive smoothing ``smooth_thompson_witness``.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from symdist import linalg, model
from symdist.boxes import KET0, KET1, QuantumBox, real_frame
from symdist.channels import (CdsMap, CpMap, cp_from_kraus, kraus_to_choi,
                              zero_map)
from symdist.config import TOLS
from symdist.divergences import (QMinResult, _nonneg, _support_if_orthogonal, p_err,
                                 thompson)
from symdist.exceptions import ParameterRangeError
from symdist.model import Expr, Model, Var, inner, times, trace
from symdist.tasks import CDS, CPTPA, TaskResult, _check_regime, _free_map_outputs

INF = math.inf


def kron_left(k, var: Var) -> Expr:
    """X -> K (x) X."""
    k = linalg.matrix(k)
    dk, dx = k.shape[0], var.dim

    def adjoint(e):
        return np.einsum("ij,riajb->rab", k.conj(), e.reshape(-1, dk, dx, dk, dx))

    return Expr(dk * dx, [(var.name, 1.0, adjoint, k)])


def kron_right(var: Var, k) -> Expr:
    """X -> X (x) K."""
    k = linalg.matrix(k)
    dk, dx = k.shape[0], var.dim

    def adjoint(e):
        return np.einsum("ij,raibj->rab", k.conj(), e.reshape(-1, dx, dk, dx, dk))

    return Expr(dk * dx, [(var.name, 1.0, adjoint, k)])


def dense_weighted(b: QuantumBox) -> tuple[np.ndarray, np.ndarray]:
    """The weighted pair as dense matrices: a quotient's block-diagonal
    matrices."""
    return tuple(np.asarray(w) for w in b.weighted())


def one_block(b: QuantumBox) -> QuantumBox:
    """b in its real frame with dense states: a quotient's blocks merged
    into its block-diagonal matrices.  ``tasks`` reads a dense box as one
    block, so its programs on ``one_block(b)`` are the single-block
    programs on the merged matrices, with dense Choi and branch
    variables.  (A qubit box is framed again; its frame is real already.)"""
    f = real_frame(b)[0]
    return QuantumBox(f.p, np.asarray(f.rho0), np.asarray(f.rho1))


@functools.lru_cache(maxsize=None)
def schur_transform(n: int) -> tuple[np.ndarray, ...]:
    """Columns of the real orthogonal qubit Schur transform, one (2^n, s_k,
    m_k) array per block: copy j of block k spans S_-^i v_kj, normalised,
    where the v_kj are an orthonormal basis of the kernel of the total
    raising operator S_+ = S_-^T on the weight space with k ones."""
    dim = 2 ** n
    x = np.arange(dim)
    ones = np.array([bin(y).count("1") for y in x])
    lower = np.zeros((dim, dim))               # S_- : x -> x with a 0 set
    for q in range(n):
        zero = x[(x >> q & 1) == 0]
        lower[zero | 1 << q, zero] = 1.0
    out = []
    for k in range(n // 2 + 1):
        weight, below = np.flatnonzero(ones == k), np.flatnonzero(ones == k - 1)
        raise_k = lower[np.ix_(weight, below)].T
        kernel = np.linalg.svd(raise_k)[2][len(below):].T if len(below) else np.eye(1)
        top = np.zeros((dim, kernel.shape[1]))
        top[weight] = kernel
        cols = [top]
        for _ in range(n - 2 * k):
            nxt = lower @ cols[-1]
            cols.append(nxt / np.linalg.norm(nxt, axis=0))
        out.append(np.stack(cols, axis=1))
        out[-1].flags.writeable = False     # cached: shared by every caller
    return tuple(out)


def schur_channels(n: int) -> tuple[list, list]:
    """Kraus operators (real) of the pinch-and-trace map E, X ->
    (+)_k Tr_mult(P_k X P_k), from (C^2)^(x)n to the quotient, and of its
    recovery map R, Y -> (+)_k Y_k (x) I_{m_k}/m_k.  Copy j of block k
    gives K_kj = C_kj^T, placed in the rows of block k, for E and
    K_kj^T/sqrt(m_k) for R, with C_kj its (2^n, s_k) columns of the Schur
    transform."""
    cols = schur_transform(n)
    size = sum(c.shape[1] for c in cols)
    e_kraus, r_kraus, at = [], [], 0
    for c in cols:
        s, m = c.shape[1:]
        for j in range(m):
            k = np.zeros((size, 2 ** n))
            k[at:at + s] = c[:, :, j].T
            e_kraus.append(k)
            r_kraus.append(k.T / math.sqrt(m))
        at += s
    return e_kraus, r_kraus


def apply_kraus(kraus: list, x) -> np.ndarray:
    """sum_K K x K^dag."""
    x = np.asarray(x)
    return sum(k @ x @ k.conj().T for k in kraus)


def lift(m: CpMap | CdsMap, n: int) -> CpMap | CdsMap:
    """The map m o E on (C^2)^(x)n, for a map m on the quotient of n qubits
    (each branch of a CDS map): its Choi matrix is
    sum_K (K^T (x) I) J (conj(K) (x) I) over the Kraus operators K of E."""
    if isinstance(m, CdsMap):
        return CdsMap(lift(m.e0, n), lift(m.e1, n))
    eye = np.eye(m.d_out)
    choi = sum(np.kron(k.T, eye) @ m.choi @ np.kron(k, eye)
               for k in schur_channels(n)[0])
    return CpMap(choi, 2 ** n, m.d_out)


def p_err_sdp(b: QuantumBox) -> float:
    """Greatest-lower-bound program max{Tr Y : Y <= p rho0, Y <= (1-p) rho1},
    with Y = p rho0 - Z: max{Tr(p rho0) - Tr Z : Z >= 0, Z >= p rho0 - (1-p) rho1}.
    Z >= 0 is the first bound itself, so the substitution loses nothing."""
    w0, w1 = dense_weighted(b)
    m = Model()
    z = m.psd_var("z", len(w0))
    m.ge(z, w0 - w1)
    m.maximize(float(np.trace(w0).real) - trace(z))
    return model.require_optimal(m.solve(), "greatest-lower-bound program").value


def _scaled_trace_distance_rows(m: Model, tau0: Expr, tau1: Expr,
                                s_extra: Var, sigma: QuantumBox) -> Expr:
    """Add the scaled-trace-distance rows of the branch images (tau0, tau1)
    against sigma at scale s = 1 + s_extra, and return the objective
    Tr(B0 + B1 + C0 + C1) to minimize:  B_i - C_i = tau_i - s sigma_i,
    D - E = s (sigma_0 - sigma_1),  Tr(D + E) <= s - 1,  B, C, D, E >= 0,
    with sigma_i the weighted branches.  The least Tr(D + E) is
    s ||sigma_0 - sigma_1||_1 = s (1 - 2 p_err(sigma)), so the D, E rows
    encode s >= 1/(2 p_err(sigma))."""
    s0, s1 = dense_weighted(sigma)
    b0, b1, c0, c1, dv, ev = (m.psd_var(n, len(s0))
                              for n in ("b0", "b1", "c0", "c1", "dv", "ev"))
    weight = s0 - s1
    m.eq(b0 - c0 - tau0 + times(s_extra, s0), -s0)
    m.eq(b1 - c1 - tau1 + times(s_extra, s1), -s1)
    m.eq(dv - ev - times(s_extra, weight), weight)
    m.le(trace(dv) + trace(ev) - s_extra, 0.0)
    return trace(b0) + trace(b1) + trace(c0) + trace(c1)


class ConversionProgram(NamedTuple):
    value: float
    s: float


def conversion_error_program(source: QuantumBox, target: QuantumBox,
                             regime: str) -> ConversionProgram:
    """The conversion-error program with its scale s a variable: Choi
    variables with Tr_out = s I and ``_scaled_trace_distance_rows``.  Its
    objective grows with s, so wherever the value is positive the solved s
    is the closed form s* = 1/(2 p_err(target)) that
    ``tasks.min_conversion_error`` uses.  Requires p_err(target) > 0."""
    _check_regime(regime)
    if p_err(target) <= TOLS.infinite_perr:
        raise ValueError("conversion_error_program needs p_err(target) > 0")
    w0, w1 = dense_weighted(source)
    d_in, d_out = len(w0), target.rho0.shape[0]
    m = Model()
    s_extra = m.scalar("s0")  # s = 1 + s_extra
    (tau0,), (tau1,), (tp,), _ = _free_map_outputs(m, [(w0, w1)], [d_out], regime)
    m.minimize(_scaled_trace_distance_rows(m, tau0, tau1, s_extra, target))
    m.eq(tp - times(s_extra, np.eye(d_in)), np.eye(d_in))
    res = model.require_optimal(m.solve(), "conversion-error program")
    return ConversionProgram(max(res.value, 0.0),
                             1.0 + float(np.real(res.primal["s0"][0, 0])))


class DPrimePair(NamedTuple):
    primal: float
    dual: float


def scaled_trace_distance_sdp(rho: QuantumBox, sigma: QuantumBox,
                              return_pair: bool = False):
    """Primal and dual programs for the scaled trace distance.

    Requires p_err(sigma) > 0 (strong duality regime); both values agree
    with the closed form.  Returns the primal value, or the (primal, dual)
    pair with ``return_pair``.
    """
    if p_err(sigma) <= TOLS.infinite_perr:
        raise ValueError("scaled_trace_distance_sdp needs p_err(sigma) > 0")
    r0, r1 = dense_weighted(rho)
    d = len(r0)
    s0, s1 = dense_weighted(sigma)
    diff0, diff1 = r0 - s0, r1 - s1
    weight = s0 - s1

    # primal: max t with shifted interval variables
    m = Model()
    t = m.scalar("t")
    l0 = m.psd_var("l0", d)
    l1 = m.psd_var("l1", d)
    p1 = m.psd_var("p1", d)
    m.le(l0, 2.0 * np.eye(d))
    m.le(l1, 2.0 * np.eye(d))
    p2 = m.psd_var("p2", d)
    m.eq(p1 + p2, times(t, 2.0 * np.eye(d)))
    # t - Tr[(P1 - tI) weight] = Tr[(L0 - I) diff0] + Tr[(L1 - I) diff1]
    lhs = (t - inner(weight, p1) + times(t, [[float(np.trace(weight).real)]])
           - inner(diff0, l0) - inner(diff1, l1))
    m.eq(lhs, -float(np.trace(diff0 + diff1).real))
    m.maximize(t)
    primal = model.require_optimal(m.solve(), "D' primal").value

    if not return_pair:
        return primal

    # dual: min Tr[B + C] with the fixed images s r_i in place of tau_i
    md = Model()
    s_extra = md.scalar("s0")  # s = 1 + s_extra
    md.minimize(_scaled_trace_distance_rows(
        md, times(s_extra, r0) + r0, times(s_extra, r1) + r1, s_extra, sigma))
    dual = model.require_optimal(md.solve(), "D' dual").value
    return DPrimePair(_nonneg(primal), _nonneg(dual))


def conversion_error_to_infinite(b: QuantumBox, regime: str,
                                 return_pair: bool = False):
    """Minimum trace distance to an orthogonal-pair golden unit.

    Equals p_err(b); computed by the primal conversion program (and, in the
    two-branch regime, cross-checked by its dual when ``return_pair``).

    The dual maximizes Tr Y - <q K0, W> - <(1-q) K1, Z> over W, Z in [0, I]
    and Hermitian Y with Y (x) I <= w0 (x) W + w1 (x) Z and the same with
    w0, w1 swapped.  Every feasible Y satisfies Y <= w0 + w1: compress
    Y (x) I <= w0 (x) W + w1 (x) Z by any unit output vector e, and use
    0 <= <e|W|e>, <e|Z|e> <= 1.  So Y = w0 + w1 - Z' with Z' >= 0 loses
    nothing."""
    _check_regime(regime)
    q = 0.5 if regime == CDS else b.p
    w0, w1 = dense_weighted(b)
    d_in, d_out = len(w0), 2
    t0 = q * KET0
    t1 = (1 - q) * KET1

    m = Model()
    y0 = m.psd_var("y0", d_out)
    y1 = m.psd_var("y1", d_out)
    (tau0,), (tau1,), (tp,), _ = _free_map_outputs(m, [(w0, w1)], [d_out], regime)
    m.eq(tp, np.eye(d_in))
    m.ge(y0, tau0 - t0)
    m.ge(y1, tau1 - t1)
    m.minimize(trace(y0) + trace(y1))
    primal = model.require_optimal(m.solve(), "trace-distance conversion").value
    primal = max(primal, 0.0)
    if not return_pair:
        return primal

    if regime != CDS:
        raise ValueError("the dual program is stated for the two-branch regime")
    md = Model()
    zp = md.psd_var("zp", d_in)
    wv = md.psd_var("w", d_out)
    zv = md.psd_var("z", d_out)
    md.le(wv, np.eye(d_out))
    md.le(zv, np.eye(d_out))
    y_kron = -kron_right(zp, np.eye(d_out)) + np.kron(w0 + w1, np.eye(d_out))
    md.le(y_kron, kron_left(w0, wv) + kron_left(w1, zv))
    md.le(y_kron, kron_left(w1, wv) + kron_left(w0, zv))
    md.maximize(float(np.trace(w0 + w1).real) - trace(zp)
                - inner(q * KET0, wv) - inner((1 - q) * KET1, zv))
    dual = model.require_optimal(md.solve(), "trace-distance conversion dual").value
    return primal, max(dual, 0.0)


def distill_approx_program(b: QuantumBox, eps: float, regime: str) -> TaskResult:
    """Largest golden unit reachable within scaled-trace-distance eps, by
    the distillation program (minimize r) that ``tasks.distill_approx``
    evaluates in closed form."""
    _check_regime(regime)
    if eps < 0:
        raise ParameterRangeError("eps must be nonnegative")
    if regime == CPTPA and not 0.0 < b.p < 1.0:
        return TaskResult(INF, None, {"reason": "singular prior"})
    if regime == CPTPA and _support_if_orthogonal(b.rho0, b.rho1) is not None:
        return TaskResult(INF, None, {"reason": "orthogonal supports"})
    if regime == CDS and p_err(b) <= TOLS.infinite_perr:
        return TaskResult(INF, None, {"reason": "infinite resource"})

    p = b.p
    rho0, rho1 = np.asarray(b.rho0), np.asarray(b.rho1)
    d = len(rho0)
    m = Model()
    r = m.scalar("r")
    m.le(r, 1.0)
    if regime == CPTPA:
        lam = m.psd_var("lam", d)
        m.le(lam, np.eye(d))
        if eps == 0.0:  # the Q_min program (states swapped)
            m.eq(inner(rho0, lam) + 0.5 * r, 1.0)
            m.eq(inner(rho1, lam) - 0.5 * r, 0.0)
        else:
            cs = [m.scalar(f"c{i}") for i in range(4)]
            e0 = m.scalar("e0")
            e1 = m.scalar("e1")
            m.ge(cs[0] + inner(p * rho0, lam) + times(r, [[0.5 * p]]), p)
            m.ge(cs[1] - inner(p * rho0, lam) - times(r, [[0.5 * p]]), -p)
            m.ge(cs[2] + inner((1 - p) * rho1, lam)
                 - times(r, [[0.5 * (1 - p)]]), 0.0)
            m.ge(cs[3] - inner((1 - p) * rho1, lam)
                 + times(r, [[0.5 * (1 - p)]]), 0.0)
            m.ge(e0 - times(r, [[0.5]]), -p)
            m.ge(e1 + times(r, [[0.5]]), 1 - p)
            total_c = cs[0] + cs[1] + cs[2] + cs[3]
            m.le(total_c + eps * e0 + eps * e1, eps * (1 - p))
    else:
        lams = [[m.psd_var(f"lam{i}{j}", d) for j in (0, 1)] for i in (0, 1)]
        m.eq(lams[0][0] + lams[0][1] + lams[1][0] + lams[1][1], np.eye(d))
        rows = [
            (lams[0][0], lams[1][0], "big"),
            (lams[0][1], lams[1][1], "small"),
            (lams[1][0], lams[0][0], "small"),
            (lams[1][1], lams[0][1], "big"),
        ]
        cs = []
        for idx, (l_a, l_b, kind) in enumerate(rows):
            expr = inner(p * rho0, l_a) + inner((1 - p) * rho1, l_b)
            if kind == "big":
                expr = expr + times(r, [[0.25]])
                rhs = 0.5
            else:
                expr = expr - times(r, [[0.25]])
                rhs = 0.0
            if eps > 0.0:
                c = m.scalar(f"c{idx}")
                cs.append(c)
                expr = expr + c
            m.ge(expr, rhs)
        if eps > 0.0:
            m.le(2.0 * (cs[0] + cs[1] + cs[2] + cs[3]) - eps * r, 0.0)
    m.minimize(r)
    res = model.require_optimal(m.solve(), "approximate distillation program")
    r_star = max(res.value, 0.0)
    if r_star <= TOLS.infinite_perr:
        return TaskResult(INF, None, {"r": r_star})
    return TaskResult(-math.log2(r_star), None, {"r": r_star, "gap": res.gap})


def q_min_bisection(rho0, rho1):
    """``divergences.q_min`` by bisection on mu in [0, 1] down to a 1e-15
    bracket: the slope s(mu) = Tr(P_mu sigma), P_mu the projector onto the
    negative eigenspace of rho0 - mu sigma, is below 1 at lo and at least 1
    at hi, and the minimizer is (1 - t) P_lo + t P_hi with Tr(L sigma) = 1."""
    rho0 = linalg.hermitian(rho0)
    sigma = rho0 + linalg.hermitian(rho1)
    r0, sg = linalg.BlockOp.of(rho0, sigma)
    lo, p_lo, s_lo = 0.0, [np.zeros_like(x) for x in sg.blocks], 0.0
    hi, p_hi, s_hi = 1.0, [np.eye(len(x)) for x in sg.blocks], linalg.trace(sigma)
    pairs = list(zip(r0.blocks, sg.blocks))
    while hi - lo > 1e-15:
        mu = 0.5 * (lo + hi)
        proj, s = [], 0.0
        for r, x in pairs:
            w, v = np.linalg.eigh(r - mu * x)
            neg = v[:, w < 0.0]
            proj.append(neg @ neg.conj().T)
            s += float(np.vdot(proj[-1], x).real)
        if s < 1.0:
            lo, p_lo, s_lo = mu, proj, s
        else:
            hi, p_hi, s_hi = mu, proj, s
    t = (1.0 - s_lo) / (s_hi - s_lo)
    effect = sg.like([(1.0 - t) * a + t * b for a, b in zip(p_lo, p_hi)])
    return QMinResult(_nonneg(2.0 * linalg.inner(effect, r0)), effect)


def _inclusions(dims: list[int]) -> list[np.ndarray]:
    """The isometries J_k (columns of the identity) of blocks of these
    sizes into their direct sum."""
    eye, at = np.eye(sum(dims)), np.cumsum([0, *dims])
    return [eye[:, at[k]:at[k + 1]] for k in range(len(dims))]


def dense_witness_chois(parts: list[dict], d_in: list[int], d_out: list[int],
                        us: list, vs: list) -> list[np.ndarray]:
    """The conversion witness's Choi matrices, one per branch, built at the
    quotient size from the branches' blocks parts[j][k, l] = Omega_kl: each
    branch's Choi matrix J_j = sum_kl (J_k (x) J_l) Omega_kl (J_k (x) J_l)^T
    is replaced by its positive part, rescaled by (g (x) I) ... (g (x) I),
    g = (Tr_out sum_j J_j)^(-1/2), so the branches sum to a trace-preserving
    map, and mapped back as (conj(U) (x) V) J (U^T (x) V^dag), with
    U = (+)_k us[k] and V = (+)_l vs[l]."""
    ins, outs = _inclusions(d_in), _inclusions(d_out)
    chois = [linalg.positive_part(sum(
        np.kron(ins[k], outs[l]) @ om @ np.kron(ins[k], outs[l]).T
        for (k, l), om in part.items())) for part in parts]
    dims = (sum(d_in), sum(d_out))
    corr = np.kron(linalg.pseudo_inverse_sqrt(linalg.ptrace(sum(chois), dims)),
                   np.eye(dims[1]))
    u = sum(j @ x @ j.T for j, x in zip(ins, us))
    v = sum(j @ x @ j.T for j, x in zip(outs, vs))
    frame = np.kron(u.conj(), v) @ corr
    return [frame @ c @ frame.conj().T for c in chois]


def nt_second_order(x, s, dx, ds) -> np.ndarray:
    """Mehrotra's second-order term G Z G^T of the NT direction for one
    real block, from the closed-form scaling point
    W = X^1/2 (X^1/2 S X^1/2)^-1/2 X^1/2 and its symmetric root G = W^1/2.
    Then V = G^-1 X G^-1 = G S G is not diagonal, and Z solves the
    Lyapunov equation V Z + Z V = A B + B A, with A = G^-1 dx G^-1 and
    B = G ds G, as the Kronecker sum (I (x) V + V (x) I) vec Z.  The term
    does not depend on which factor G with G G^T = W is taken."""
    def power(a, t):
        w, u = np.linalg.eigh(a)
        return (u * w ** t) @ u.T

    xh = power(x, 0.5)
    w = xh @ power(xh @ s @ xh, -0.5) @ xh
    g, gi = power(w, 0.5), power(w, -0.5)
    v = g @ s @ g
    a, b = gi @ dx @ gi, g @ ds @ g
    d = len(x)
    kron_sum = np.kron(np.eye(d), v) + np.kron(v, np.eye(d))
    z = np.linalg.solve(kron_sum, (a @ b + b @ a).reshape(-1)).reshape(d, d)
    return g @ z @ g


# --- test-only constructions -----------------------------------------------

def negative_part(h):
    """Negative part, so that h = positive_part(h) - negative_part(h)."""
    return linalg.spectrum(h).apply(lambda w: np.maximum(-w, 0.0))


def pgm(rho0, rho1) -> np.ndarray:
    """Pretty good measurement effect for rho1: (r0+r1)^(-1/2) r1 (r0+r1)^(-1/2);
    quotient states enter as their dense block-diagonal matrices."""
    r0, r1 = np.asarray(rho0), np.asarray(rho1)
    s = linalg.pseudo_inverse_sqrt(r0 + r1)
    return linalg.hermitian(s @ r1 @ s)


def random_cptp(d_in: int, d_out: int, rng: np.random.Generator,
                env: int | None = None) -> CpMap:
    """Random channel from a Haar-ish isometry followed by an environment trace."""
    env = env or d_in
    g = rng.normal(size=(env * d_out, d_in)) + 1j * rng.normal(size=(env * d_out, d_in))
    qmat, _ = np.linalg.qr(g)
    kraus = list(qmat.reshape(env, d_out, d_in))
    return cp_from_kraus(kraus)


def random_cds(d_in: int, d_out: int, rng: np.random.Generator) -> CdsMap:
    """Random CDS map: a random channel whose environment is measured with a
    random two-outcome projective split deciding the classical flip."""
    env = max(2, d_in)
    total = random_cptp(d_in, d_out, rng, env=env)
    kraus = _choi_to_kraus(total.choi, d_in, d_out)
    cut = int(rng.integers(1, len(kraus)))
    order = rng.permutation(len(kraus))
    g0 = [kraus[i] for i in order[:cut]]
    g1 = [kraus[i] for i in order[cut:]]
    e0 = CpMap(kraus_to_choi(g0), d_in, d_out)
    e1 = CpMap(kraus_to_choi(g1), d_in, d_out) if g1 else zero_map(d_in, d_out)
    return CdsMap(e0, e1)


def _choi_to_kraus(choi, d_in: int, d_out: int) -> list:
    w, v = np.linalg.eigh(linalg.hermitian(choi))
    kraus = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            vec = v[:, i].reshape(d_in, d_out)
            kraus.append(math.sqrt(w[i]) * vec.T)
    return kraus


class SmoothedThompson(NamedTuple):
    omega0: np.ndarray
    omega1: np.ndarray
    value: float  # Thompson metric of the smoothed pair


def smooth_thompson_witness(omega0, omega1, eps: float) -> SmoothedThompson:
    """Constructive smoothing of a subnormalized pair.

    Each smoothed operator stays within trace distance ``eps`` of its
    input.  The generic construction guarantees a Thompson metric of at
    most log2(4/eps) and preserves Tr w0 + Tr w1 = 1 when that holds; when
    both inputs have unit trace an equal-trace variant achieving
    log2(2/eps) is used instead.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    omega0 = linalg.hermitian(omega0)
    omega1 = linalg.hermitian(omega1)
    tr0 = linalg.trace(omega0)
    tr1 = linalg.trace(omega1)

    pos10 = linalg.positive_part(omega1 - omega0)
    pos01 = linalg.positive_part(omega0 - omega1)

    if abs(tr0 - 1.0) <= 1e-12 and abs(tr1 - 1.0) <= 1e-12:
        lam = max(linalg.trace(pos01) / eps, 1.0)
        shift = linalg.trace(pos01) / lam
        w0 = (omega0 + pos10 / lam) / (1.0 + shift)
        w1 = (omega1 + pos01 / lam) / (1.0 + shift)
        return SmoothedThompson(w0, w1, thompson(w0, w1))

    lam0 = max(2.0 * linalg.trace(pos10) / eps, 1.0)
    lam1 = max(2.0 * linalg.trace(pos01) / eps, 1.0)
    eps0 = linalg.trace(pos10) / lam0
    eps1 = linalg.trace(pos01) / lam1
    denom = 1.0 + eps0 + eps1
    w0 = (omega0 + pos10 / lam0) / denom
    w1 = (omega1 + pos01 / lam1) / denom
    return SmoothedThompson(w0, w1, thompson(w0, w1))
