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
block sizes).  Blocks of one size are stacked into one (n, d, d) array, so
each step makes one batched LAPACK or BLAS call per block size.
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


def _sym(a: Array) -> Array:
    return (a + np.swapaxes(a, -1, -2)) / 2


def _nt_scaling(x: Array, s: Array) -> Array:
    """W with W S W = X, for stacks of symmetric positive definite pairs."""
    wx, vx = np.linalg.eigh(x)
    wx = np.maximum(wx, 1e-300)
    xh = (vx * np.sqrt(wx)[..., None, :]) @ np.swapaxes(vx, -1, -2)
    t = xh @ s @ xh
    wt, vt = np.linalg.eigh(_sym(t))
    wt = np.maximum(wt, 1e-300)
    tih = (vt / np.sqrt(wt)[..., None, :]) @ np.swapaxes(vt, -1, -2)
    return _sym(xh @ tih @ xh)


def _max_step(x: Array, dx: Array) -> float:
    """Largest alpha with x_j + alpha*dx_j >= 0 for every block j of a
    stack (n, d, d), for x > 0."""
    n, d, _ = x.shape
    if d == 1:
        neg = dx[:, 0, 0] < 0
        return float(np.min(-x[neg, 0, 0] / dx[neg, 0, 0], initial=np.inf))
    try:
        chol = np.linalg.cholesky(x)
    except np.linalg.LinAlgError:   # ridge each block by its own trace
        ridge = np.trace(x, axis1=1, axis2=2) / d * 1e-12
        chol = np.linalg.cholesky(x + ridge[:, None, None] * np.eye(d))
    li = np.linalg.inv(chol)
    lam = np.linalg.eigvalsh(_sym(li @ dx @ np.swapaxes(li, 1, 2))).min()
    if lam >= 0:
        return np.inf
    return -1.0 / lam


class _Workspace:
    """Mutable per-solve state; one instance per concurrent solve.

    Blocks of one size form a group, held as one stack: C as (n_g, d, d),
    A as (m, n_g, d, d) with the flat view Af (m, n_g*d*d).  Iterates are
    lists of stacks in group order; :meth:`unstack` restores block order.
    """

    def __init__(self, prob: SdpProblem):
        self.dims = list(prob.blocks)
        self.m = len(prob.constraints)
        if self.m == 0:
            raise SolverError("problem must have at least one constraint")
        self.k = prob.free_size
        self.groups = [[j for j, dj in enumerate(self.dims) if dj == d]
                       for d in sorted(set(self.dims))]
        self.C = [np.stack([np.real(prob.objective[j]) for j in g]).astype(float)
                  for g in self.groups]
        self.b = np.array([b for _, b in prob.constraints], dtype=float)
        self.A = []
        for g, c in zip(self.groups, self.C):
            stack = np.zeros((self.m,) + c.shape)
            for i, (mats, _) in enumerate(prob.constraints):
                for jj, j in enumerate(g):
                    if mats[j] is not None:
                        stack[i, jj] = np.real(mats[j])
            self.A.append(stack)
        self.Af = [a.reshape(self.m, -1) for a in self.A]
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
        self.norm_c = max(1.0, max(float(np.linalg.norm(c, axis=(1, 2)).max())
                                   for c in self.C),
                          float(np.linalg.norm(self.f)) if self.k else 0.0)

    # linear maps ---------------------------------------------------------
    def apply_a(self, xs: list[Array]) -> Array:
        return sum(af @ x.reshape(-1) for af, x in zip(self.Af, xs))

    def apply_at(self, y: Array) -> list[Array]:
        return [(y @ af).reshape(c.shape) for af, c in zip(self.Af, self.C)]

    @staticmethod
    def inner(xs: list[Array], ys: list[Array]) -> float:
        return float(sum(np.vdot(x, y).real for x, y in zip(xs, ys)))

    def unstack(self, xs: list[Array]) -> list[Array]:
        out: list[Array] = [None] * len(self.dims)
        for g, x in zip(self.groups, xs):
            for jj, j in enumerate(g):
                out[j] = x[jj]
        return out


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


# A diverging iterate overflows; the non-finite Newton system or step that
# follows ends the solve ill_conditioned, so numpy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def _solve_real(prob: SdpProblem, opts: SolverOptions) -> SdpSolution:
    ws = _Workspace(prob)
    m, k = ws.m, ws.k

    eta = max(1.0, np.sqrt(ws.norm_b), np.sqrt(ws.norm_c))
    X = [eta * np.broadcast_to(np.eye(c.shape[-1]), c.shape) for c in ws.C]
    S = list(X)
    y = np.zeros(m)
    u = np.zeros(k)
    tau, kappa = 1.0, 1.0

    best = None
    best_metric = np.inf

    def residuals():
        p_res = ws.apply_a(X) + (ws.F @ u if k else 0.0) - ws.b * tau
        d_res = [a + s - c * tau for a, s, c in zip(ws.apply_at(y), S, ws.C)]
        f_res = (ws.F.T @ y - ws.f * tau) if k else np.zeros(0)
        cx = ws.inner(ws.C, X) + (float(ws.f @ u) if k else 0.0)
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
        mu = (ws.inner(X, S) + tau * kappa) / (ws.n_tot + 1)
        if not (np.isfinite(mu) and np.isfinite(cx) and np.isfinite(by)
                and mu > 0):
            status = SdpStatus.ILL_CONDITIONED
            break

        pobj, dobj, rel_p, rel_d, rel_g = scaled_metrics(cx, by, p_res, d_res, f_res)
        metric = max(rel_p, rel_d, rel_g)
        if metric < best_metric:
            # every update rebinds the iterates, so references suffice
            best_metric = metric
            best = (X, S, y, u, tau, kappa, pobj, dobj, rel_p, rel_d, rel_g)

        if rel_p <= opts.feas_tol and rel_d <= opts.feas_tol and rel_g <= opts.gap_tol:
            status = SdpStatus.OPTIMAL
            break

        # infeasibility certificates from the homogeneous embedding
        if by > 0:
            dual_slack = max(np.abs(a + s).max() for a, s in zip(ws.apply_at(y), S))
            free_slack = np.abs(ws.F.T @ y).max() if k else 0.0
            if max(dual_slack, free_slack) <= opts.feas_tol * by * ws.norm_c:
                status = SdpStatus.PRIMAL_INFEASIBLE
                break
        if cx < 0:
            prim_act = np.linalg.norm(ws.apply_a(X) + (ws.F @ u if k else 0.0))
            if prim_act <= opts.feas_tol * (-cx) * ws.norm_b:
                status = SdpStatus.DUAL_INFEASIBLE
                break

        # NT scaling and Schur complement, one batched call per block size
        try:
            W = [_nt_scaling(x, s) for x, s in zip(X, S)]
            Sinv = [np.linalg.inv(s) for s in S]
            WCW = [w @ c @ w for w, c in zip(W, ws.C)]
            M = sum(af @ (w @ a @ w).reshape(m, -1).T
                    for af, a, w in zip(ws.Af, ws.A, W))
            h = ws.apply_a(WCW)
            M = (M + M.T) / 2
            c0 = ws.inner(ws.C, WCW)

            K = np.zeros((m + k, m + k))
            K[:m, :m] = M
            if k:
                K[:m, m:] = ws.F
                K[m:, :m] = ws.F.T

            def newton(eta_f, sigma, corr):
                # rhs of the eliminated system
                rc_mat = [sigma * mu * si - x for si, x in zip(Sinv, X)]
                rc_sc = sigma * mu - tau * kappa - corr
                wdw = [w @ dr @ w for w, dr in zip(W, d_res)]
                r1 = -eta_f * p_res - ws.apply_a(rc_mat) - eta_f * ws.apply_a(wdw)
                r2 = -eta_f * f_res
                r3 = (-eta_f * g_res + ws.inner(ws.C, rc_mat)
                      + eta_f * ws.inner(ws.C, wdw) + rc_sc / tau)
                rhs = np.column_stack([np.concatenate([r1, r2]),
                                       np.concatenate([h + ws.b, ws.f])])
                if not np.all(np.isfinite(rhs)) or not np.all(np.isfinite(K)):
                    raise np.linalg.LinAlgError("non-finite Newton system")
                try:
                    sols = np.linalg.solve(K, rhs)
                    # one refinement step: near a degenerate optimum K is
                    # singular to working precision
                    sols = sols + np.linalg.solve(K, rhs - K @ sols)
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
                dS = [-eta_f * dr - a + c * dtau
                      for dr, a, c in zip(d_res, ws.apply_at(dy), ws.C)]
                dX = [_sym(rc - w @ ds @ w) for rc, w, ds in zip(rc_mat, W, dS)]
                dkappa = (rc_sc - kappa * dtau) / tau
                return dX, [_sym(ds) for ds in dS], dy, du, dtau, dkappa

            def boundary(dX, dS, dtau, dkappa):
                alpha = min([np.inf] + [_max_step(x, dx) for x, dx in zip(X, dX)]
                            + [_max_step(s, ds) for s, ds in zip(S, dS)])
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
            gap_aff = (ws.inner([x + alpha_aff * dx for x, dx in zip(X, dXa)],
                                [s + alpha_aff * ds for s, ds in zip(S, dSa)])
                       + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa))
            # the ratio is clipped before cubing: sigma is capped at 0.99 anyway
            ratio = min(gap_aff / (mu * (ws.n_tot + 1)), 1.0)
            sigma = min(0.99, max(1e-9, ratio ** 3))
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

        X = [_sym(x + alpha * dx) for x, dx in zip(X, dX)]
        S = [_sym(s + alpha * ds) for s, ds in zip(S, dS)]
        y = y + alpha * dy
        u = u + alpha * du
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status in (SdpStatus.MAX_ITERATIONS, SdpStatus.ILL_CONDITIONED) and best is not None:
        X, S, y, u, tau, kappa, pobj, dobj, rel_p, rel_d, rel_g = best

    if status is SdpStatus.PRIMAL_INFEASIBLE:
        scale = float(ws.b @ y)
        return SdpSolution(status, np.inf, ws.unstack([x / max(tau, 1e-300) for x in X]),
                           y / scale, u, np.inf, it,
                           {"certificate": "b.y = 1, A*(y) <= 0"})
    if status is SdpStatus.DUAL_INFEASIBLE:
        cx = ws.inner(ws.C, X) + (float(ws.f @ u) if k else 0.0)
        return SdpSolution(status, -np.inf, ws.unstack([x / (-cx) for x in X]), y, u,
                           -np.inf, it, {"certificate": "C.X = -1, A(X) = 0, X >= 0"})

    xs = [x / tau for x in X]
    ys = y / tau
    us = u / tau
    pobj_f = ws.inner(ws.C, xs) + (float(ws.f @ us) if k else 0.0)
    dobj_f = float(ws.b @ ys)
    res = {"rel_primal": rel_p, "rel_dual": rel_d, "rel_gap": rel_g,
           "primal_objective": pobj_f, "dual_objective": dobj_f}
    return SdpSolution(status, pobj_f, ws.unstack(xs), ys, us, pobj_f - dobj_f, it, res)
