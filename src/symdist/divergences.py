"""Distinguishability measures on boxes and state pairs.

Every quantity uses base-2 logarithms.  Infinite values follow one shared
convention: a divergence is infinite when its defining feasibility test
fails at the tolerances in :mod:`symdist.config` (support containment at
``TOLS.support``, discrimination error at ``TOLS.infinite_perr``).

Every quantity here is a closed form or a one-dimensional spectral search;
none calls the solver.  States may be dense or Schur-Weyl quotients
(``linalg.BlockOp``): each quantity decomposes block by block and sums over
blocks, so a tensor power b^(x)n never forms a matrix larger than its
largest block.  The semi-definite programs behind the
discrimination error and the scaled trace distance are cross-check oracles
in ``tests/oracles.py``, which the tests compare with these closed forms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from . import linalg
from .config import TOLS
from .linalg import BlockOp
from .exceptions import DimensionMismatchError

if TYPE_CHECKING:
    from .boxes import QuantumBox

Array = np.ndarray
INF = math.inf


def _nonneg(v: float) -> float:
    if v < -1e-9:
        raise AssertionError(f"nonnegative divergence evaluated to {v}")
    return max(v, 0.0)


# --- discrimination error ---------------------------------------------------

def p_err(b: "QuantumBox") -> float:
    """Minimum Bayesian discrimination error (Helstrom value)."""
    w0, w1 = b.weighted()
    return _nonneg(0.5 * (1.0 - linalg.trace_norm(w0 - w1)))


def sd(b: "QuantumBox") -> float:
    """Symmetric distinguishability -log2(2 p_err); inf on infinite resources."""
    e = p_err(b)
    if e <= TOLS.infinite_perr:
        return INF
    return -math.log2(2.0 * e)


# --- Q_min ------------------------------------------------------------------

_NEAR = 4e-16   # test offset from a breakpoint: b -/+ _NEAR bracket a jump in 1e-15
_MERGE = 1e-12  # breakpoints closer than this form one cluster


class QMinResult(NamedTuple):
    value: float
    minimizer: Array  # POVM effect achieving the minimum


def q_min(rho0: Array, rho1: Array) -> QMinResult:
    """2 min{Tr(L rho0) : Tr(L sigma) = 1, 0 <= L <= 1}, sigma = rho0 + rho1,
    and a minimizer, from the root of the slope s(mu) = Tr(P_mu sigma) of the
    dual 2 max_{mu in [0, 1]} [mu - Tr(rho0 - mu sigma)_-], P_mu the projector
    onto the negative eigenspace of rho0 - mu sigma.

    s never decreases: it is 0 at mu = 0 (P_0 = 0) and Tr sigma >= 1 at
    mu = 1 (P_1 = I, as rho0 - sigma = -rho1).  It jumps only at the
    breakpoints, the generalized eigenvalues of (rho0, sigma) on supp sigma,
    read off one ``eigh`` of sigma and one ``eigvalsh`` of the whitened rho0
    per block, and is smooth between them.  The search keeps a bracket with
    s(lo) < 1 <= s(hi).  A binary search over the points b -/+ 4e-16 around
    the breakpoints b (a cluster closer than 1e-12 is tested at its ends)
    either closes it on a jump or leaves a piece between jumps.  There,
    steps from the end with the shorter ``_newton_step``, kept 4e-16 inside
    the bracket, close it; a step not below half the one before last is
    replaced by bisection.  Each step is one ``eigh`` per block: with the
    breakpoints, about four rounds per call on the figure grids and 4-12 on
    b^(x)1..9, against 50 for plain bisection (``q_min_bisection`` in
    ``tests/oracles.py``).  L = (1 - t) P_lo + t P_hi on the final 1e-15
    bracket, with Tr(L sigma) = 1, lies in the POVM interval exactly.  The
    program is ``distill_approx_program(b, 0, "cptpA")`` in
    ``tests/oracles.py`` with states swapped."""
    rho0 = linalg.hermitian(rho0)
    sigma = rho0 + linalg.hermitian(rho1)
    r0, sg = BlockOp.of(rho0, sigma)
    spec = linalg.Spectrum(sg, [np.linalg.eigh(x) for x in sg.blocks])
    cut, bps = spec.cut(), []
    for r, (w, v) in zip(r0.blocks, spec.eigs):
        white = v[:, w > cut] * w[w > cut] ** -0.5
        bps.extend(np.linalg.eigvalsh(white.conj().T @ r @ white).tolist())
    clusters = []
    for b in sorted(bps):
        if clusters and b - clusters[-1][1] <= _MERGE:
            clusters[-1][1] = b
        else:
            clusters.append([b, b])
    tests = [t for a, b in clusters for t in (a - _NEAR, b + _NEAR) if 0.0 < t < 1.0]
    i, j = -1, len(tests)  # lo = tests[i] or 0, hi = tests[j] or 1
    # each end: mu, s, per block (w, v, n, g) as below, its step (None until needed)
    lo, s_lo, e_lo, d_lo = 0.0, 0.0, [(None, x[:, :0], 0, None) for x in sg.blocks], INF
    hi, s_hi, e_hi, d_hi = 1.0, linalg.trace(sigma), \
        [(None, np.eye(len(x)), len(x), None) for x in sg.blocks], INF
    pairs = list(zip(r0.blocks, sg.blocks))
    last = before = INF  # the last two step lengths
    while hi - lo > 1e-15:
        k = (i + j) // 2 if j - i > 1 else None
        if k is not None:
            mu = tests[k]
        else:
            d_lo = _newton_step(s_lo, e_lo, cut) if d_lo is None else d_lo
            d_hi = _newton_step(s_hi, e_hi, cut) if d_hi is None else d_hi
            step = max(min(d_lo, d_hi), 2.0 * _NEAR)
            mu = min(max(lo + step if d_lo <= d_hi else hi - step, lo + _NEAR), hi - _NEAR)
            if step >= 0.5 * before:
                step, mu = 0.5 * (hi - lo), 0.5 * (lo + hi)
            before, last = last, step
        eigs, s = [], 0.0
        for r, x in pairs:
            w, v = np.linalg.eigh(r - mu * x)
            n = int(np.searchsorted(w, 0.0))  # w ascends: n negative eigenvalues
            g = v.conj().T @ x @ v  # sigma in the eigenbasis
            eigs.append((w, v, n, g))
            s += float(g.diagonal()[:n].real.sum())
        if s < 1.0:
            lo, s_lo, e_lo, d_lo = mu, s, eigs, None
            i = i if k is None else k
        else:
            hi, s_hi, e_hi, d_hi = mu, s, eigs, None
            j = j if k is None else k
    t = (1.0 - s_lo) / (s_hi - s_lo)  # s_lo < 1 <= s_hi
    effect = sg.like([(1.0 - t) * (a[:, :m] @ a[:, :m].conj().T)
                      + t * (b[:, :n] @ b[:, :n].conj().T)
                      for (_, a, m, _), (_, b, n, _) in zip(e_lo, e_hi)])
    return QMinResult(_nonneg(2.0 * linalg.inner(effect, r0)), effect)


def _newton_step(s: float, eigs: list, cut: float) -> float:
    """Distance from an end mu of the ``q_min`` bracket towards the root of
    s - 1: the Newton step, or just past the nearest jump that takes s
    across 1 when that comes first.

    ``eigs`` holds per block the ascending eigenvalues w of rho0 - mu sigma,
    their eigenvectors v, the number n of negative ones and g = v^dag sigma v.
    Eigenvalue k moves at -c_k = -g_kk and crosses 0 near mu + w_k / c_k,
    where s jumps by c_k; between jumps
    s' = 2 sum_{w_i < 0 <= w_j} |g_ij|^2 / (w_j - w_i).  Directions with
    c_k, and pairs with w_j - w_i, at or below the cut are left out: there
    the first-order picture is rounding noise."""
    ds, at, size = 0.0, [], []
    for w, _, n, g in eigs:
        c = g.diagonal().real
        gap = w[n:] - w[:n, None]
        ds += 2.0 * float(np.divide(np.abs(g[:n, n:]) ** 2, gap, where=gap > cut,
                                    out=np.zeros(gap.shape)).sum())
        at.append(w[c > cut] / c[c > cut])
        size.append(c[c > cut])
    at, size = np.concatenate(at), np.concatenate(size)
    if s < 1.0:
        jump = at[(at >= 0.0) & (size >= 1.0 - s)].min(initial=INF)
    else:
        jump = -at[(at < 0.0) & (size > s - 1.0)].max(initial=-INF)
    return min(abs(1.0 - s) / ds if ds > 0.0 else INF, float(jump) + _NEAR)


def q_min_eps(b: "QuantumBox", eps: float) -> float:
    """Least r of the eps-approximate CPTP_A distillation program (0 < p < 1),
    so distill_approx = -log2 r; at eps = 0, Q_min with the states swapped.

    The program sees its test 0 <= L <= 1 only through (Tr rho0 L, Tr rho1 L),
    a region with support function Tr(u rho0 + v rho1)_+.  Eliminating its
    scalars, r is feasible iff g(r) <= eps min(r/2, p, 1-p), where g(r) is
    the max over |u| <= p, |v| <= 1-p of u(1-r/2) + v r/2 - Tr(u rho0 + v rho1)_+.
    Only u >= 0 >= v binds: elsewhere Tr X_+ >= max(0, Tr X) and r <= 1 make
    the objective nonpositive.  With v -> -v it is G = a - (u+v) r/2, where
    a = u - Tr(u rho0 - v rho1)_+; G is positively homogeneous, so where it
    is positive it peaks on the box edge (u, v) = t(cos th, sin th),
    t = min(p/cos th, (1-p)/sin th).  At fixed th, G falls and the bound rises
    with r, so the least r passing there is r_th = 2s below: every r_th is a
    lower bound and r = max_th r_th.  G is concave, so each {G > c}, c >= 0,
    is convex and closed under scaling up; the ray at any th between two of
    its edge points meets their chord inside the box, so {th : r_th > c'} is
    an interval.  r_th is thus quasi-concave, and a golden-section search on
    th in [0, pi/2] finds its maximum, one ``eigvalsh`` per step.  The
    program is ``distill_approx_program`` in ``tests/oracles.py``."""
    p = b.p
    m = min(p, 1.0 - p)
    r0, r1 = BlockOp.of(b.rho0, b.rho1)

    def neg_r(th: float) -> float:
        t = 1.0 / max(math.cos(th) / p, math.sin(th) / (1.0 - p))
        u, v = t * math.cos(th), t * math.sin(th)
        pos = 0.0
        for x, y in zip(r0.blocks, r1.blocks):
            w = np.linalg.eigvalsh(u * x - v * y)
            pos += w[w > 0.0].sum()
        a = u - float(pos)
        if a <= 0.0:
            return 0.0
        s = a / (u + v + eps)
        if s > m:
            s = (a - eps * m) / (u + v)
        return -2.0 * s

    return -_golden_min(neg_r, 0.5 * math.pi)


def _golden_min(f, hi: float) -> float:
    """min of a unimodal f on [0, hi]: golden-section search down to a 1e-9
    bracket, then the least of the last pair and both endpoints."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return min(f(0.0), f(hi), fc, fd)


def _support_if_orthogonal(rho0, rho1):
    """The projector P0 onto supp rho0 when Tr(P0 rho1) <= ``TOLS.support``
    (orthogonal supports), else None; one eigendecomposition of rho0."""
    proj = linalg.support_projector(rho0)
    if linalg.inner(proj, rho1) <= TOLS.support:
        return proj
    return None


def xi_min(rho0: Array, rho1: Array) -> float:
    """-log2 Q_min; infinite exactly on orthogonal-support pairs."""
    if _support_if_orthogonal(rho0, rho1) is not None:
        return INF
    v = q_min(rho0, rho1).value
    if v <= 0.0:
        return INF
    return _nonneg(-math.log2(v))


# --- max-relative entropy and Thompson metric --------------------------------

def _d_max(rho: BlockOp, sigma: linalg.Spectrum) -> float:
    """d_max(rho || sigma) from the spectrum of each block of sigma.

    With V+ the eigenvectors of a block of sigma above ``linalg.Spectrum.cut``
    and w+ their eigenvalues, the support test reads Tr((I - P) rho) off the
    remaining eigenvectors, and lambda_max(sigma^(-1/2) rho sigma^(-1/2)) is
    the largest lambda_max over blocks of the k x k matrix B^dag rho B,
    B = V+ diag(w+^(-1/2)).
    """
    cut = sigma.cut()
    outside, lam_max = 0.0, 0.0
    for r, (w, v) in zip(rho.blocks, sigma.eigs):
        kernel = v[:, np.abs(w) <= cut]
        outside += float(np.vdot(kernel, r @ kernel).real)
    if outside > TOLS.support:
        return INF
    sigma.least(linalg.PSD_SLACK)
    for r, (w, v) in zip(rho.blocks, sigma.eigs):
        pos = w > cut
        if pos.any():
            b = v[:, pos] * w[pos] ** -0.5
            lam_max = max(lam_max, float(np.linalg.eigvalsh(b.conj().T @ r @ b)
                                         .max(initial=0.0)))
    if lam_max <= 0.0:
        return -INF  # rho vanishes on the support of sigma
    return math.log2(lam_max)


def d_max(rho, sigma) -> float:
    """inf{lam : rho <= 2^lam sigma}; inf if supp(rho) escapes supp(sigma).

    Subnormalized PSD arguments are allowed.  Decomposes each block of sigma
    once (``eigh``) and takes ``eigvalsh`` of each block of rho for its PSD
    test and of one rank-sized matrix per block for the largest eigenvalue.
    """
    rho, sigma = BlockOp.of(rho, sigma)
    r, s = linalg.spectrum(rho, vectors=False), linalg.spectrum(sigma)
    for x in (r, s):
        x.least(TOLS.density, what="d_max argument")
    return _d_max(r.op, s)


def thompson(rho0, rho1) -> float:
    """Thompson metric: max of the two one-sided max-relative entropies.

    Per block, two ``eigh`` (one per argument, shared by both directions)
    and two ``eigvalsh`` of rank-sized matrices.
    """
    s0, s1 = (linalg.spectrum(x) for x in BlockOp.of(rho0, rho1))
    for x in (s0, s1):
        x.least(TOLS.density, what="d_max argument")
    return max(_d_max(s0.op, s1), _d_max(s1.op, s0))


def xi_of(q: float) -> float:
    """log2 of a Q_max-type golden-unit size, inf staying inf."""
    return INF if math.isinf(q) else _nonneg(math.log2(q))


def q_max(rho0: Array, rho1: Array) -> float:
    dt = thompson(rho0, rho1)
    if math.isinf(dt):
        return INF
    return max(0.5 * (2.0 ** dt + 1.0), 1.0)  # >= 1 for unit-trace pairs


def xi_max(rho0: Array, rho1: Array) -> float:
    return xi_of(q_max(rho0, rho1))


def q_max_star(b: "QuantumBox") -> float:
    """Weighted-pair variant governing dilution when labels may be flipped."""
    if b.p <= 0.0 or b.p >= 1.0:
        return INF
    w0, w1 = b.weighted()
    dt = thompson(w0, w1)
    if math.isinf(dt):
        return INF
    v = 0.5 * (2.0 ** dt + 1.0)
    lower = 0.5 * max(1.0 / b.p, 1.0 / (1.0 - b.p))
    # floor at the prior-only bound; guards rounding on equal-state boxes
    return max(v, lower)


def xi_max_star(b: "QuantumBox") -> float:
    return xi_of(q_max_star(b))


# --- Chernoff divergence ------------------------------------------------------

def chernoff(rho0, rho1) -> float:
    """-log2 min_{s in [0,1]} Tr[rho0^s rho1^(1-s)] by golden-section search.

    The objective is convex in s; the search includes both endpoints.
    Returns inf iff the supports are orthogonal.  One ``eigh`` per block of
    each state: with O_ij = |<v0_i|v1_j>|^2 in a block, the block adds
    w0^s O w1^(1-s) over the eigenvalues above ``linalg.Spectrum.cut`` to
    the objective, and the support test
    Tr(P0 rho1) = sum_{i in supp rho0} sum_j O_ij w1_j reads the same O.
    """
    s0, s1 = (linalg.spectrum(x) for x in BlockOp.of(rho0, rho1))
    cut0, cut1 = s0.cut(), s1.cut()
    support, terms = 0.0, []
    for (w0, v0), (w1, v1) in zip(s0.eigs, s1.eigs):
        overlap = np.abs(v0.conj().T @ v1) ** 2
        support += float((overlap[np.abs(w0) > cut0] @ w1).sum())
        keep0, keep1 = w0 > cut0, w1 > cut1
        if keep0.any() and keep1.any():
            terms.append((w0[keep0], overlap[np.ix_(keep0, keep1)], w1[keep1]))
    if support <= TOLS.support or not terms:
        return INF

    def f(s: float) -> float:
        return float(sum((a ** s) @ o @ (b ** (1.0 - s)) for a, o, b in terms))

    q = _golden_min(f, 1.0)
    if q <= TOLS.infinite_perr:
        return INF
    return _nonneg(-math.log2(q))


# --- scaled trace distance ----------------------------------------------------

def cq_trace_distance(rho: "QuantumBox", sigma: "QuantumBox") -> float:
    """(1/2)||rho_XA - sigma_XA||_1 via the block structure."""
    r0, r1 = rho.weighted()
    s0, s1 = sigma.weighted()
    return 0.5 * (linalg.trace_norm(r0 - s0) + linalg.trace_norm(r1 - s1))


def scaled_trace_distance(rho: "QuantumBox", sigma: "QuantumBox") -> float:
    """Trace distance scaled by the second box's discrimination error.

    Three cases: the ratio when p_err(sigma) > 0; when p_err(sigma) = 0 the
    value is 0 for equal boxes and inf otherwise.  Boxes are equal when
    their c-q trace distance is at most ``TOLS.box_equality``, which the
    pinch-and-trace map E (``linalg``) preserves on block-form operators,
    so the test decides the same on b^(x)n and on its quotient.  States of
    different shapes or layouts raise ``DimensionMismatchError``.
    """
    if rho.rho0.shape != sigma.rho0.shape:
        raise DimensionMismatchError(
            f"boxes hold states of shapes {rho.rho0.shape} and {sigma.rho0.shape}")
    e = p_err(sigma)
    dist = cq_trace_distance(rho, sigma)
    if e <= TOLS.infinite_perr:
        return 0.0 if dist <= TOLS.box_equality else INF
    return _nonneg(dist / e)
