"""Self-contained dense interior-point solver for block-diagonal SDPs.

Standard equality form:

    minimize    sum_k <C_k, X_k> + f.u
    subject to  sum_k <A_ik, X_k> + F_i.u = b_i      (i = 1..m)
                X_k >= 0,   u free

with Hermitian data.  Complex problems are solved through the real
symmetric embedding H -> [[Re H, -Im H], [Im H, Re H]] / 2 (see
:func:`realify`); the embedding halves the data so optimal values match.

The algorithm is a primal-dual path-following method with Nesterov-Todd
scaling on the homogeneous self-dual embedding: an unbounded or infeasible
instance surfaces as a certificate, never as a diverging iterate.  A
Mehrotra-style adaptive centering parameter is used; only the tau/kappa
second-order correction is applied (matrix corrections buy little at these
block sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import SolverError

Array = np.ndarray


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    MAX_ITERATIONS = "max_iterations"
    ILL_CONDITIONED = "ill_conditioned"


@dataclass
class SolverOptions:
    max_iterations: int = 200
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    step_fraction: float = 0.98     # fraction-to-boundary


@dataclass(eq=False)
class SdpProblem:
    """Block SDP in equality standard form (sense: minimize).

    ``constraints`` holds pairs ``(mats, b)`` where ``mats`` lists one
    Hermitian matrix per block (``None`` for an all-zero coefficient).
    Free variables enter through ``free_objective`` (length ``free_size``)
    and per-constraint rows ``free_coeffs`` (shape ``(m, free_size)``).
    """

    blocks: list[int]
    objective: list[Array]
    constraints: list[tuple[list[Array | None], float]]
    free_size: int = 0
    free_objective: Array | None = None
    free_coeffs: Array | None = None

    def is_complex(self) -> bool:
        mats = list(self.objective)
        for row, _ in self.constraints:
            mats.extend(m for m in row if m is not None)
        return any(np.abs(np.imag(m)).max(initial=0.0) > 1e-14 for m in mats)


@dataclass(eq=False)
class SdpSolution:
    status: SdpStatus
    value: float
    x_blocks: list[Array]
    y: Array
    free: Array
    gap: float
    iterations: int
    residuals: dict = field(default_factory=dict)


def _embed(h: Array) -> Array:
    re, im = np.real(h), np.imag(h)
    return 0.5 * np.block([[re, -im], [im, re]])


def _unembed(x: Array, d: int) -> Array:
    a = x[:d, :d]
    b = x[d:, d:]
    c = x[d:, :d]
    ct = x[:d, d:]
    out = (a + b) / 2 + 1j * (c - ct) / 2
    return (out + out.conj().T) / 2


def realify(p: SdpProblem) -> SdpProblem:
    """Real symmetric embedding of a complex-Hermitian problem.

    Objective and constraint matrices are halved so that optimal values
    (and the right-hand sides b) are preserved exactly.
    """
    blocks = [2 * d for d in p.blocks]
    objective = [_embed(c) for c in p.objective]
    constraints = []
    for mats, b in p.constraints:
        constraints.append(([None if m is None else _embed(m) for m in mats], b))
    return SdpProblem(blocks, objective, constraints, p.free_size,
                      p.free_objective, p.free_coeffs)


def _nt_scaling(x: Array, s: Array) -> Array:
    """W with W S W = X (both arguments symmetric positive definite)."""
    wx, vx = np.linalg.eigh(x)
    wx = np.maximum(wx, 1e-300)
    xh = (vx * np.sqrt(wx)) @ vx.T
    t = xh @ s @ xh
    wt, vt = np.linalg.eigh((t + t.T) / 2)
    wt = np.maximum(wt, 1e-300)
    tih = (vt / np.sqrt(wt)) @ vt.T
    w = xh @ tih @ xh
    return (w + w.T) / 2


def _max_step(x: Array, dx: Array) -> float:
    """Largest alpha with x + alpha*dx >= 0, for x > 0."""
    d = x.shape[0]
    if d == 1:
        if dx[0, 0] >= 0:
            return np.inf
        return -x[0, 0] / dx[0, 0]
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        chol = np.linalg.cholesky(x + np.trace(x) / d * 1e-12 * np.eye(d))
    t1 = np.linalg.solve(chol, dx)
    b = np.linalg.solve(chol, t1.T).T
    lam = np.linalg.eigvalsh((b + b.T) / 2).min()
    if lam >= 0:
        return np.inf
    return -1.0 / lam


class _Workspace:
    """Mutable per-solve state; one instance per concurrent solve."""

    def __init__(self, prob: SdpProblem):
        self.dims = list(prob.blocks)
        self.m = len(prob.constraints)
        if self.m == 0:
            raise SolverError("problem must have at least one constraint")
        self.k = prob.free_size
        self.C = [np.ascontiguousarray(np.real(c), dtype=float) for c in prob.objective]
        self.b = np.array([b for _, b in prob.constraints], dtype=float)
        self.A = []
        for blk, d in enumerate(self.dims):
            stack = np.zeros((self.m, d, d))
            for i, (mats, _) in enumerate(prob.constraints):
                if mats[blk] is not None:
                    stack[i] = np.real(mats[blk])
            self.A.append(np.ascontiguousarray(stack))
        if self.k:
            self.F = np.ascontiguousarray(prob.free_coeffs, dtype=float)
            self.f = np.ascontiguousarray(prob.free_objective, dtype=float)
        else:
            self.F = np.zeros((self.m, 0))
            self.f = np.zeros(0)
        if not all(np.all(np.isfinite(x)) for x in [*self.C, self.b, *self.A,
                                                    self.F, self.f]):
            raise SolverError("problem data has a non-finite entry")
        self.n_tot = sum(self.dims)
        self.norm_b = max(1.0, float(np.linalg.norm(self.b)))
        self.norm_c = max(1.0, max(float(np.linalg.norm(c)) for c in self.C),
                          float(np.linalg.norm(self.f)) if self.k else 0.0)

    # linear maps ---------------------------------------------------------
    def apply_a(self, xs: list[Array]) -> Array:
        return sum(a.reshape(self.m, -1) @ x.reshape(-1) for a, x in zip(self.A, xs))

    def apply_at(self, y: Array) -> list[Array]:
        return [(y @ a.reshape(self.m, -1)).reshape(d, d)
                for a, d in zip(self.A, self.dims)]

    def inner_c(self, xs: list[Array]) -> float:
        return float(sum(np.vdot(c, x).real for c, x in zip(self.C, xs)))


def solve(prob: SdpProblem, options: SolverOptions | None = None) -> SdpSolution:
    """Solve a block SDP; deterministic for fixed inputs."""
    opts = options or SolverOptions()
    if prob.is_complex():
        real_prob = realify(prob)
        sol = _solve_real(real_prob, opts)
        x_blocks = [_unembed(x, d) for x, d in zip(sol.x_blocks, prob.blocks)]
        return SdpSolution(sol.status, sol.value, x_blocks, sol.y, sol.free,
                           sol.gap, sol.iterations, sol.residuals)
    return _solve_real(prob, opts)


def _solve_real(prob: SdpProblem, opts: SolverOptions) -> SdpSolution:
    ws = _Workspace(prob)
    m, k = ws.m, ws.k
    dims = ws.dims

    eta = max(1.0, np.sqrt(ws.norm_b), np.sqrt(ws.norm_c))
    X = [eta * np.eye(d) for d in dims]
    S = [eta * np.eye(d) for d in dims]
    y = np.zeros(m)
    u = np.zeros(k)
    tau, kappa = 1.0, 1.0

    best = None
    best_metric = np.inf

    def residuals():
        p_res = ws.apply_a(X) + (ws.F @ u if k else 0.0) - ws.b * tau
        at_y = ws.apply_at(y)
        d_res = [at_y[i] + S[i] - ws.C[i] * tau for i in range(len(dims))]
        f_res = (ws.F.T @ y - ws.f * tau) if k else np.zeros(0)
        cx = ws.inner_c(X) + (float(ws.f @ u) if k else 0.0)
        by = float(ws.b @ y)
        g_res = by - cx - kappa
        return p_res, d_res, f_res, g_res, cx, by

    def scaled_metrics(cx, by, p_res, d_res, f_res):
        pobj = cx / tau
        dobj = by / tau
        rel_p = np.linalg.norm(p_res / tau) / ws.norm_b
        rel_d = max(max(np.abs(dr).max() for dr in d_res),
                    np.abs(f_res).max() if k else 0.0) / (tau * ws.norm_c)
        rel_g = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        return pobj, dobj, rel_p, rel_d, rel_g

    status = SdpStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, opts.max_iterations + 1):
        p_res, d_res, f_res, g_res, cx, by = residuals()
        mu = (sum(np.vdot(a, b).real for a, b in zip(X, S)) + tau * kappa) / (ws.n_tot + 1)
        if not (np.isfinite(mu) and np.isfinite(cx) and np.isfinite(by)
                and mu > 0):
            status = SdpStatus.ILL_CONDITIONED
            break

        pobj, dobj, rel_p, rel_d, rel_g = scaled_metrics(cx, by, p_res, d_res, f_res)
        metric = max(rel_p, rel_d, rel_g)
        if metric < best_metric:
            best_metric = metric
            best = ([x.copy() for x in X], [s.copy() for s in S], y.copy(),
                    u.copy(), tau, kappa, pobj, dobj, rel_p, rel_d, rel_g)

        if rel_p <= opts.feas_tol and rel_d <= opts.feas_tol and rel_g <= opts.gap_tol:
            status = SdpStatus.OPTIMAL
            break

        # infeasibility certificates from the homogeneous embedding
        if by > 0:
            at_y = ws.apply_at(y)
            dual_slack = max(np.abs(at_y[i] + S[i]).max() for i in range(len(dims)))
            free_slack = np.abs(ws.F.T @ y).max() if k else 0.0
            if max(dual_slack, free_slack) <= opts.feas_tol * by * ws.norm_c:
                status = SdpStatus.PRIMAL_INFEASIBLE
                break
        if cx < 0:
            prim_act = np.linalg.norm(ws.apply_a(X) + (ws.F @ u if k else 0.0))
            if prim_act <= opts.feas_tol * (-cx) * ws.norm_b:
                status = SdpStatus.DUAL_INFEASIBLE
                break

        # NT scaling and Schur complement
        try:
            W = [_nt_scaling(X[i], S[i]) for i in range(len(dims))]
            Sinv = [np.linalg.inv(S[i]) for i in range(len(dims))]
            M = np.zeros((m, m))
            WCW = []
            h = np.zeros(m)
            for i, d in enumerate(dims):
                T = W[i] @ ws.A[i] @ W[i]
                M += ws.A[i].reshape(m, d * d) @ T.reshape(m, d * d).T
                wcw = W[i] @ ws.C[i] @ W[i]
                WCW.append(wcw)
                h += ws.A[i].reshape(m, d * d) @ wcw.reshape(d * d)
            M = (M + M.T) / 2
            c0 = sum(np.vdot(ws.C[i], WCW[i]).real for i in range(len(dims)))

            K = np.zeros((m + k, m + k))
            K[:m, :m] = M
            if k:
                K[:m, m:] = ws.F
                K[m:, :m] = ws.F.T

            def newton(eta_f, sigma, corr):
                # rhs of the eliminated system
                rc_mat = [sigma * mu * Sinv[i] - X[i] for i in range(len(dims))]
                rc_sc = sigma * mu - tau * kappa - corr
                a_rc = ws.apply_a(rc_mat)
                wdw = [W[i] @ d_res[i] @ W[i] for i in range(len(dims))]
                a_wdw = ws.apply_a(wdw)
                r1 = -eta_f * p_res - a_rc - eta_f * a_wdw
                r2 = -eta_f * f_res
                r3 = (-eta_f * g_res + sum(np.vdot(ws.C[i], rc_mat[i]).real
                                           for i in range(len(dims)))
                      + eta_f * sum(np.vdot(ws.C[i], wdw[i]).real
                                    for i in range(len(dims)))
                      + rc_sc / tau)
                rhs = np.column_stack([np.concatenate([r1, r2]),
                                       np.concatenate([h + ws.b, ws.f])])
                if not np.all(np.isfinite(rhs)) or not np.all(np.isfinite(K)):
                    raise np.linalg.LinAlgError("non-finite Newton system")
                try:
                    sols = np.linalg.solve(K, rhs)
                except np.linalg.LinAlgError:
                    sols = np.full_like(rhs, np.nan)
                if not np.all(np.isfinite(sols)):
                    ridge = 1e-12 * (1 + abs(np.trace(K[:m, :m])) / m)
                    Kr = K + ridge * np.eye(m + k)
                    sols = np.linalg.solve(Kr, rhs)
                    if not np.all(np.isfinite(sols)):
                        raise np.linalg.LinAlgError("singular Newton system")
                g_vec, q_vec = sols[:, 0], sols[:, 1]
                g1, g2 = g_vec[:m], g_vec[m:]
                q1, q2 = q_vec[:m], q_vec[m:]
                denom = float((ws.b - h) @ q1) - float(ws.f @ q2) + c0 + kappa / tau
                numer = r3 - float((ws.b - h) @ g1) + float(ws.f @ g2)
                dtau = numer / denom if abs(denom) > 1e-300 else 0.0
                dy = g1 + q1 * dtau
                du = g2 + q2 * dtau
                at_dy = ws.apply_at(dy)
                dS = [-eta_f * d_res[i] - at_dy[i] + ws.C[i] * dtau
                      for i in range(len(dims))]
                dX = [rc_mat[i] - W[i] @ dS[i] @ W[i] for i in range(len(dims))]
                dX = [(d + d.T) / 2 for d in dX]
                dS = [(d + d.T) / 2 for d in dS]
                dkappa = (rc_sc - kappa * dtau) / tau
                return dX, dS, dy, du, dtau, dkappa

            def boundary(dX, dS, dtau, dkappa):
                alpha = np.inf
                for i in range(len(dims)):
                    alpha = min(alpha, _max_step(X[i], dX[i]), _max_step(S[i], dS[i]))
                if dtau < 0:
                    alpha = min(alpha, -tau / dtau)
                if dkappa < 0:
                    alpha = min(alpha, -kappa / dkappa)
                return alpha

            dXa, dSa, dya, dua, dtaua, dkappaa = newton(1.0, 0.0, 0.0)
            if not (np.isfinite(dtaua) and np.isfinite(dkappaa)) \
                    or max(abs(dtaua), abs(dkappaa)) > 1e100:
                status = SdpStatus.ILL_CONDITIONED
                break
            alpha_aff = min(1.0, opts.step_fraction * boundary(dXa, dSa, dtaua, dkappaa))
            gap_aff = (sum(np.vdot(X[i] + alpha_aff * dXa[i],
                                   S[i] + alpha_aff * dSa[i]).real
                           for i in range(len(dims)))
                       + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa))
            sigma = min(0.99, max(1e-9, (gap_aff / (mu * (ws.n_tot + 1))) ** 3))
            corr = dtaua * dkappaa
            dX, dS, dy, du, dtau, dkappa = newton(1.0 - sigma, sigma, corr)
            alpha = min(1.0, opts.step_fraction * boundary(dX, dS, dtau, dkappa))
            if alpha < 0.05:
                # jammed near the boundary: take a recentering step instead
                dX, dS, dy, du, dtau, dkappa = newton(1.0 - 0.8, 0.8, 0.0)
                alpha = min(1.0, opts.step_fraction * boundary(dX, dS, dtau, dkappa))
        except np.linalg.LinAlgError:
            status = SdpStatus.ILL_CONDITIONED
            break

        if not np.isfinite(alpha) or alpha <= 1e-14 \
                or not np.isfinite(dtau) or not np.isfinite(dkappa):
            status = SdpStatus.ILL_CONDITIONED
            break

        for i in range(len(dims)):
            X[i] = (X[i] + alpha * dX[i] + (X[i] + alpha * dX[i]).T) / 2
            S[i] = (S[i] + alpha * dS[i] + (S[i] + alpha * dS[i]).T) / 2
        y = y + alpha * dy
        u = u + alpha * du
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status in (SdpStatus.MAX_ITERATIONS, SdpStatus.ILL_CONDITIONED) and best is not None:
        X, S, y, u, tau, kappa, pobj, dobj, rel_p, rel_d, rel_g = best

    if status is SdpStatus.PRIMAL_INFEASIBLE:
        scale = float(ws.b @ y)
        return SdpSolution(status, np.inf, [x / max(tau, 1e-300) for x in X],
                           y / scale, u, np.inf, it,
                           {"certificate": "b.y = 1, A*(y) <= 0"})
    if status is SdpStatus.DUAL_INFEASIBLE:
        cx = ws.inner_c(X) + (float(ws.f @ u) if k else 0.0)
        return SdpSolution(status, -np.inf, [x / (-cx) for x in X], y, u,
                           -np.inf, it, {"certificate": "C.X = -1, A(X) = 0, X >= 0"})

    xs = [x / tau for x in X]
    ys = y / tau
    us = u / tau
    pobj_f = ws.inner_c(xs) + (float(ws.f @ us) if k else 0.0)
    dobj_f = float(ws.b @ ys)
    res = {"rel_primal": rel_p, "rel_dual": rel_d, "rel_gap": rel_g,
           "primal_objective": pobj_f, "dual_objective": dobj_f}
    return SdpSolution(status, pobj_f, xs, ys, us, pobj_f - dobj_f, it, res)
