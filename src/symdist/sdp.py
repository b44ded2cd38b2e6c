"""Self-contained dense interior-point solver for block-diagonal SDPs.

Standard equality form:

    minimize    sum_k <C_k, X_k>
    subject to  sum_k <A_ik, X_k> = b_i      (i = 1..m)
                X_k >= 0

with real symmetric data and PSD blocks only; there are no free variables.
Complex Hermitian programs reach the solver already embedded in real form
by :meth:`symdist.model.Model.compile`; complex data here is refused, never
cast.

The algorithm is a primal-dual path-following method with Nesterov-Todd
scaling on the homogeneous self-dual embedding.  An infeasible or
unbounded program is not detected, and none is built by a task: its solve
ends ``ill_conditioned`` or at ``_MAX_ITERATIONS``.  A Mehrotra
predictor-corrector is used (Mehrotra, SIAM J. Optim. 2 (1992); Todd, Toh
& Tutuncu, SIAM J. Optim. 8 (1998)): the corrector carries the
second-order term of the tau/kappa pair and, for each matrix block, the
term G Z G^T of the NT factor G (W = G G^T), with
Z_ij = (A B + B A)_ij / (v_i + v_j), A = G^-1 dX G^-T and B = G^T dS G
from the predictor, and G^-1 X G^-T = G^T S G = diag(v).  When the
corrector jams at the boundary, a first-order recentering step replaces
it.  The Newton system is the m x m Schur complement M.  Matrices of one
size are stacked into one (n, d, d) array, so each step makes one batched
LAPACK or BLAS call per stack.  When the largest block has at most
``_PACK_MAX`` rows, the blocks are first packed, first-fit decreasing,
onto the diagonals of bins of that size; otherwise each block is a matrix
of its own.  The packed program is the same program: its data are zero
off the blocks, the start point and the barrier degree are those of the
blocks, and each block comes back as a view of its bin's diagonal.

A solve starts cold at eta I, or warm from the record of an earlier solve
of a program with the same blocks and m (``start``): 0.99 of that point
(``_WARM_SHARE``) blended with 0.01 of eta I, so that a sequence of
nearby programs, like the phase-I programs of one ``cost_approx`` call,
takes fewer iterations.  The record carries X and S by block, so a start
does not depend on the packing.

Each iteration factors its iterates once per stack: one Cholesky
factorisation of the stack concat[X, S] and one inversion of those factors
together with S.  G comes from the same factor: with X = L L^T and
L^T S L = Q D Q^T, G = L Q D^(-1/4) and v = D^(1/2), one ``eigh`` per
stack.  The two or three step-length tests of the iteration (predictor,
corrector, and the recentering step) reuse the factors, one ``eigvalsh``
per stack each.  Everything the Newton solves of an iteration share but do
not vary is computed once before them.

Each Newton direction takes one solve with M.  The corrector and the
recentering direction are then made primal-consistent: the miss
e = A(dX) - b dtau + eta p_res of the linearised primal rows is removed by
one more solve M delta = -e, kept only if it shrinks e.  Where M has an
exactly zero pivot, which near a degenerate optimum rounding can give, each
of these solves takes the least-squares solution instead.  A failed
factorisation, a Newton system or direction that is not finite, or a step
below 1e-14 ends the solve ``ill_conditioned``, with no retry.  So does
rounding that stalls it: its residuals, which every exact step shrinks,
have not reached a new low in ``_STALL_ITERATIONS`` iterations.  Either
way, and at ``_MAX_ITERATIONS``, the returned point is the best iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import SolverError

Array = np.ndarray


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    ILL_CONDITIONED = "ill_conditioned"


@dataclass
class SolverOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8


_MAX_ITERATIONS = 200
_STEP_FRACTION = 0.98    # fraction-to-boundary
# In exact arithmetic every step shrinks the embedding's residuals
# A(X) - b tau and A*(y) + S - C tau by the same factor, infeasible
# instances included; a solve whose residuals have not reached a new low
# in this many iterations has stalled on rounding error.
_STALL_ITERATIONS = 10
# Smaller blocks are packed into bins of the largest block's size only up to
# this size: above it the bins' zero off-diagonal parts cost more flops than
# one batched call set per block size saves (see :func:`_layout`).
_PACK_MAX = 16
# A warm start keeps this share of the given solution and takes the rest
# from the cold start eta I, so it stays interior (see :func:`solve`).
_WARM_SHARE = 0.99


@dataclass(eq=False)
class SdpProblem:
    """Block SDP in equality standard form (sense: minimize), PSD blocks only.

    ``objective`` and the ``mats`` of each row ``(mats, b)`` map a block
    index to its real symmetric matrix; a block left out of them is zero.
    """

    blocks: list[int]
    objective: dict[int, Array]
    constraints: list[tuple[dict[int, Array], float]]


@dataclass(eq=False)
class SdpSolution:
    """The record of one solve.  ``x_blocks``, ``s_blocks`` and ``y`` are
    the solver's point, X, S = C - A*(y) to its residual and y, in block
    order, so the record can start a solve of a program with the same blocks
    and m (:func:`solve`'s ``start``, which keeps 0.99 of it,
    ``_WARM_SHARE``).  ``tasks.cost_approx`` starts only from records that
    ended ``optimal``, and solves a warm program that fails its acceptance
    test again cold.  ``residuals`` holds the final relative residuals and
    objectives.  :meth:`Model.solve <symdist.model.Model.solve>` shifts
    ``value`` to the model's objective and fills ``primal``, the blocks by
    variable name, mapped back from the embedding of a complex program; it
    stays empty when ``y`` is not finite."""
    status: SdpStatus
    value: float
    x_blocks: list[Array]
    s_blocks: list[Array]
    y: Array
    gap: float
    iterations: int
    residuals: dict = field(default_factory=dict)
    primal: dict[str, Array] = field(default_factory=dict)


def _sym(a: Array) -> Array:
    return (a + np.swapaxes(a, -1, -2)) / 2


def _factor(x: Array, s: Array) -> tuple[Array, Array, Array]:
    """Factors of one stack's iterates, shared by every step test and
    by the NT scaling of an iteration: ``(basis, s^-1, l)``.  ``basis``
    holds the inverse Cholesky factors of the stack concat[x, s] and ``l``
    the Cholesky factors of x.

    Both stacks are factored by one ``cholesky`` call, which raises
    ``LinAlgError`` on a matrix that is not positive definite, and the
    factors are inverted with s by one ``inv`` call.
    """
    xs = np.concatenate([x, s])
    chol = np.linalg.cholesky(xs)
    inv = np.linalg.inv(np.concatenate([chol, s]))
    return inv[:len(xs)], inv[len(xs):], chol[:len(x)]


def _nt_scaling(s: Array, basis: Array, l: Array) -> tuple[Array, Array, Array, Array]:
    """NT factors ``(w, g, g^-1, v)`` of one stack from its
    :func:`_factor` output: W = G G^T with W S W = X and
    G^-1 X G^-T = G^T S G = diag(v).

    With X = L L^T and L^T S L = Q D Q^T, G = L Q D^(-1/4) and v = D^(1/2),
    so one ``eigh`` per stack.
    """
    lt = np.swapaxes(l, 1, 2)
    d, q = np.linalg.eigh(_sym(lt @ s @ l))
    d = np.maximum(d, 1e-300)
    g = l @ q * d[:, None, :] ** -0.25
    g_inv = d[:, :, None] ** 0.25 * (np.swapaxes(q, 1, 2) @ basis[:len(s)])
    return _sym(g @ np.swapaxes(g, 1, 2)), g, g_inv, np.sqrt(d)


def _second_order(g: Array, g_inv: Array, v: Array, dx: Array, ds: Array) -> Array:
    """Mehrotra's second-order term G Z G^T of one stack for the
    predictor step (dx, ds): Z_ij = (AB + BA)_ij / (v_i + v_j) with the
    scaled steps A = G^-1 dx G^-T and B = G^T ds G."""
    ab = (g_inv @ dx @ np.swapaxes(g_inv, 1, 2)) @ (np.swapaxes(g, 1, 2) @ ds @ g)
    z = (ab + np.swapaxes(ab, 1, 2)) / (v[:, :, None] + v[:, None, :])
    return _sym(g @ z @ np.swapaxes(g, 1, 2))


def _solve_m(M: Array, r: Array) -> Array:
    """M^-1 r; where M has an exactly zero pivot, a least-squares solution."""
    try:
        return np.linalg.solve(M, r)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, r, rcond=None)[0]


def _max_step(basis: Array, dxs: Array) -> float:
    """Largest alpha with xs_j + alpha*dxs_j >= 0 for every block j of a
    stack (n, d, d), for xs > 0 given by its step basis (see
    :func:`_factor`)."""
    lam = np.linalg.eigvalsh(_sym(basis @ dxs @ np.swapaxes(basis, 1, 2))).min()
    if lam >= 0:
        return np.inf
    return -1.0 / lam


def _layout(dims: list[int]) -> list[list[list[int]]]:
    """The stacks of a program: per bin size, ascending, the bins of that
    size, each the list of blocks on its diagonal.

    When the largest block has at most ``_PACK_MAX`` rows, the blocks are
    packed first-fit decreasing into block-diagonal bins of that block's
    size, each bin as large as the blocks in it.  Otherwise every block is a
    bin of its own and the stacks are the blocks of one size, in block order.
    """
    big = max(dims, default=0)
    if big > _PACK_MAX:
        bins = [[j] for j in range(len(dims))]
    else:
        bins, fill = [], []
        for j in sorted(range(len(dims)), key=lambda j: -dims[j]):
            k = next((k for k, f in enumerate(fill) if f + dims[j] <= big), len(fill))
            if k == len(fill):
                bins.append([])
                fill.append(0)
            bins[k].append(j)
            fill[k] += dims[j]
    sizes = [sum(dims[j] for j in b) for b in bins]
    return [[b for b, s in zip(bins, sizes) if s == d] for d in sorted(set(sizes))]


class _Workspace:
    """Mutable per-solve state; one instance per concurrent solve.

    Blocks are laid out on the diagonals of bins (see :func:`_layout`), and
    bins of one size form a stack: C as (n_g, d, d), A as (m, n_g, d, d)
    with the flat view Af (m, n_g*d*d).  Iterates are lists of stacks in
    stack order; :meth:`unstack` returns each block, as a view of its bin's
    diagonal, in block order (for A, a view of every row).

    A packed program is the original one: C and every A_i are zero off the
    blocks, so S and every dS are too, and the data see only the diagonal
    blocks of X, each PSD when its bin is.  The start point, cold eta I or
    a warm blend of a record's blocks into it (:meth:`warm`), and the
    barrier degree n_tot, and so mu, are those of the blocks.
    """

    def __init__(self, prob: SdpProblem):
        self.dims = list(prob.blocks)
        self.m = len(prob.constraints)
        if self.m == 0:
            raise SolverError("problem must have at least one constraint")
        # refused before the copy into real bins, which would drop the
        # imaginary part
        if any(np.iscomplexobj(x) for x in (
                *prob.objective.values(), *(b for _, b in prob.constraints),
                *(a for mats, _ in prob.constraints for a in mats.values()))):
            raise SolverError("problem data is complex; Model.compile embeds "
                              "complex programs in real symmetric form")
        self.C, self.A = [], []
        # (stack, bin, diagonal slice) of every block, in block order
        self.slots: list[tuple[int, int, slice]] = [None] * len(self.dims)
        for g, bins in enumerate(_layout(self.dims)):
            d = sum(self.dims[j] for j in bins[0])
            self.C.append(np.zeros((len(bins), d, d)))
            self.A.append(np.zeros((self.m, len(bins), d, d)))
            for k, b in enumerate(bins):
                off = 0
                for j in b:
                    self.slots[j] = (g, k, slice(off, off + self.dims[j]))
                    off += self.dims[j]
        c_blocks, a_blocks = self.unstack(self.C), self.unstack(self.A)
        for j, c in prob.objective.items():
            c_blocks[j][...] = c
        for i, (mats, _) in enumerate(prob.constraints):
            for j, a in mats.items():
                a_blocks[j][i] = a
        self.b = np.array([b for _, b in prob.constraints], dtype=float)
        self.Af = [a.reshape(self.m, -1) for a in self.A]
        if not all(np.all(np.isfinite(x)) for x in [*self.C, self.b, *self.A]):
            raise SolverError("problem data has a non-finite entry")
        self.n_tot = sum(self.dims)
        with np.errstate(over="ignore"):
            self.norm_b = max(1.0, float(np.linalg.norm(self.b)))
            # the whole objective's norm, the same however it is split into blocks
            self.norm_c = max(1.0, float(np.linalg.norm([np.linalg.norm(c) for c in self.C])))
        if not (np.isfinite(self.norm_b) and np.isfinite(self.norm_c)):
            raise SolverError("problem data norm overflows")

    # linear maps ---------------------------------------------------------
    def apply_a(self, xs: list[Array]) -> Array:
        return sum(af @ x.reshape(-1) for af, x in zip(self.Af, xs))

    def apply_at(self, y: Array) -> list[Array]:
        return [(y @ af).reshape(c.shape) for af, c in zip(self.Af, self.C)]

    @staticmethod
    def inner(xs: list[Array], ys: list[Array]) -> float:
        return float(sum(np.vdot(x, y).real for x, y in zip(xs, ys)))

    def unstack(self, xs: list[Array]) -> list[Array]:
        return [xs[g][..., k, sl, sl] for g, k, sl in self.slots]

    def warm(self, cold: list[Array], blocks: list[Array]) -> list[Array]:
        """The stacks (1 - beta) cold + beta blocks, beta = ``_WARM_SHARE``,
        for ``blocks`` in block order."""
        if [x.shape for x in blocks] != [(d, d) for d in self.dims]:
            raise SolverError("start is not a point of a program with these blocks")
        out = [(1.0 - _WARM_SHARE) * c for c in cold]
        for view, x in zip(self.unstack(out), blocks):
            view += _WARM_SHARE * x
        return out


# A diverging iterate overflows; the non-finite Newton system or step that
# follows ends the solve ill_conditioned, so numpy need not warn about it.
@np.errstate(over="ignore", invalid="ignore")
def solve(prob: SdpProblem, options: SolverOptions | None = None,
          start: SdpSolution | None = None) -> SdpSolution:
    """Solve a real block SDP; deterministic for fixed inputs.

    A cold solve starts at X = S = eta I, y = 0 and tau = kappa = 1.
    ``start``, the record of a solve of a program with the same blocks and
    m, starts it warm from that point (X*, S*, y*), following the
    homogeneous self-dual warm start of Skajaa, Andersen & Ye (Math.
    Program. Comput. 5 (2013)): X = beta X* + (1 - beta) eta I, S likewise,
    y = beta y*, tau = 1 and kappa = <X, S>/n_tot, with beta =
    ``_WARM_SHARE``.  The eta I part keeps the start interior, and kappa
    puts the tau/kappa pair on the central path's mu."""
    opts = options or SolverOptions()
    ws = _Workspace(prob)
    m = ws.m

    eta = max(1.0, np.sqrt(ws.norm_b), np.sqrt(ws.norm_c))
    X = [eta * np.broadcast_to(np.eye(c.shape[-1]), c.shape) for c in ws.C]
    S = list(X)
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0
    if start is not None:
        if len(start.y) != m:
            raise SolverError("start is not a point of a program with this m")
        X, S = ws.warm(X, start.x_blocks), ws.warm(S, start.s_blocks)
        y = _WARM_SHARE * start.y
        kappa = ws.inner(X, S) / ws.n_tot

    best = None
    best_metric = np.inf
    least_res, stalled = np.inf, 0

    status = SdpStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, _MAX_ITERATIONS + 1):
        p_res = ws.apply_a(X) - ws.b * tau
        d_res = [a + s - c * tau for a, s, c in zip(ws.apply_at(y), S, ws.C)]
        cx = ws.inner(ws.C, X)
        by = float(ws.b @ y)
        mu = (ws.inner(X, S) + tau * kappa) / (ws.n_tot + 1)
        if not (np.isfinite(mu) and np.isfinite(cx) and np.isfinite(by)
                and mu > 0):
            status = SdpStatus.ILL_CONDITIONED
            break

        pobj, dobj = cx / tau, by / tau
        rel_p = np.linalg.norm(p_res / tau) / ws.norm_b
        rel_d = max(np.abs(dr).max() for dr in d_res) / (tau * ws.norm_c)
        rel_g = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        metric = max(rel_p, rel_d, rel_g)
        if metric < best_metric:
            # every update rebinds the iterates, so references suffice
            best_metric = metric
            best = (X, S, y, tau, rel_p, rel_d, rel_g)

        if rel_p <= opts.feas_tol and rel_d <= opts.feas_tol and rel_g <= opts.gap_tol:
            status = SdpStatus.OPTIMAL
            break

        res = tau * max(rel_p, rel_d)    # the embedding's, not divided by tau
        stalled = 0 if res < least_res else stalled + 1
        least_res = min(least_res, res)
        if stalled == _STALL_ITERATIONS:
            status = SdpStatus.ILL_CONDITIONED
            break

        # NT scaling, factors and Schur complement, one batched call per
        # stack; everything newton() reads but does not vary is here.
        # The step is eliminated around the current dual point: with
        # dy = dy' + dtau y/tau, C enters as C' = C - A*(y)/tau =
        # (S - d_res)/tau and the gap residual as -<C', X> - kappa.  C'
        # shrinks with S, whereas W C W grows like 1/mu, so the dtau pivot
        # c0 + (b - h).q formed from C cancels terms of that size
        try:
            factors = [_factor(x, s) for x, s in zip(X, S)]
            nt = [_nt_scaling(s, basis, l) for s, (basis, _, l) in zip(S, factors)]
            W = [w for w, *_ in nt]
            Sinv = [si for _, si, _ in factors]
            C_y = [(s - dr) / tau for s, dr in zip(S, d_res)]
            g_res = -ws.inner(C_y, X) - kappa
            WCW = [w @ c @ w for w, c in zip(W, C_y)]
            M = sum(af @ (w @ a @ w).reshape(m, -1).T
                    for af, a, w in zip(ws.Af, ws.A, W))
            h = ws.apply_a(WCW)
            M = (M + M.T) / 2
            if not np.all(np.isfinite(M)):
                raise np.linalg.LinAlgError("non-finite Newton system")
            c0 = ws.inner(C_y, WCW)
            wdw = [w @ dr @ w for w, dr in zip(W, d_res)]
            a_wdw, c_wdw = ws.apply_a(wdw), ws.inner(C_y, wdw)
            h_plus_b, b_minus_h = h + ws.b, ws.b - h

            def newton(eta_f, sigma, corr, second=None):
                # rhs of the eliminated system; ``second`` is the matrix
                # part of Mehrotra's correction, G Z G^T per stack
                rc_mat = [sigma * mu * si - x for si, x in zip(Sinv, X)]
                if second is not None:
                    rc_mat = [rc - z for rc, z in zip(rc_mat, second)]
                rc_sc = sigma * mu - tau * kappa - corr
                r1 = -eta_f * p_res - ws.apply_a(rc_mat) - eta_f * a_wdw
                r3 = (-eta_f * g_res + ws.inner(C_y, rc_mat)
                      + eta_f * c_wdw + rc_sc / tau)
                rhs = np.column_stack([r1, h_plus_b])
                if not np.all(np.isfinite(rhs)):
                    raise np.linalg.LinAlgError("non-finite Newton system")
                sols = _solve_m(M, rhs)
                if not np.all(np.isfinite(sols)):
                    raise np.linalg.LinAlgError("singular Newton system")
                g, q = sols[:, 0], sols[:, 1]
                denom = float(b_minus_h @ q) + c0 + kappa / tau
                numer = r3 - float(b_minus_h @ g)
                dtau = numer / denom if abs(denom) > 1e-300 else 0.0
                dy = g + q * dtau
                dS = [-eta_f * dr - a + c * dtau
                      for dr, a, c in zip(d_res, ws.apply_at(dy), C_y)]
                dX = [_sym(rc - w @ ds @ w) for rc, w, ds in zip(rc_mat, W, dS)]
                dkappa = (rc_sc - kappa * dtau) / tau
                return dX, dS, dy + dtau / tau * y, dtau, dkappa

            def consistent(eta_f, step):
                # Near a degenerate optimum M is singular to working
                # precision and dX misses A(dX) - b dtau = -eta_f p_res.
                # With that miss e, M delta = -e moves (dy, dS, dX) along
                # (delta, -A*(delta), W A*(delta) W), which keeps the dual
                # and complementarity rows; kept only if the miss falls,
                # which a non-finite delta never makes it do.
                dX, dS, dy, dtau, dkappa = step
                e = ws.apply_a(dX) - ws.b * dtau + eta_f * p_res
                delta = _solve_m(M, -e)
                atd = ws.apply_at(delta)
                dX2 = [dx + _sym(w @ a @ w) for dx, w, a in zip(dX, W, atd)]
                e2 = ws.apply_a(dX2) - ws.b * dtau + eta_f * p_res
                if not np.linalg.norm(e2) < np.linalg.norm(e):
                    return step
                return (dX2, [ds - a for ds, a in zip(dS, atd)], dy + delta,
                        dtau, dkappa)

            def boundary(dX, dS, dtau, dkappa):
                alpha = min([np.inf] + [_max_step(basis, np.concatenate([dx, ds]))
                                        for (basis, *_), dx, ds
                                        in zip(factors, dX, dS)])
                if dtau < 0:
                    alpha = min(alpha, -tau / dtau)
                if dkappa < 0:
                    alpha = min(alpha, -kappa / dkappa)
                return alpha

            dXa, dSa, dya, dtaua, dkappaa = newton(1.0, 0.0, 0.0)
            if not (np.isfinite(dtaua) and np.isfinite(dkappaa)) \
                    or max(abs(dtaua), abs(dkappaa)) > 1e100:
                status = SdpStatus.ILL_CONDITIONED
                break
            alpha_aff = min(1.0, _STEP_FRACTION * boundary(dXa, dSa, dtaua, dkappaa))
            gap_aff = (ws.inner([x + alpha_aff * dx for x, dx in zip(X, dXa)],
                                [s + alpha_aff * ds for s, ds in zip(S, dSa)])
                       + (tau + alpha_aff * dtaua) * (kappa + alpha_aff * dkappaa))
            # the ratio is clipped before cubing: sigma is capped at 0.99 anyway
            ratio = min(gap_aff / (mu * (ws.n_tot + 1)), 1.0)
            sigma = min(0.99, max(1e-9, ratio ** 3))
            corr = dtaua * dkappaa
            second = [_second_order(g, gi, v, dx, ds)
                      for (_, g, gi, v), dx, ds in zip(nt, dXa, dSa)]
            dX, dS, dy, dtau, dkappa = consistent(
                1.0 - sigma, newton(1.0 - sigma, sigma, corr, second))
            alpha = min(1.0, _STEP_FRACTION * boundary(dX, dS, dtau, dkappa))
            if alpha < 0.05:
                # jammed near the boundary: take a recentering step instead
                dX, dS, dy, dtau, dkappa = consistent(
                    1.0 - 0.8, newton(1.0 - 0.8, 0.8, 0.0))
                alpha = min(1.0, _STEP_FRACTION * boundary(dX, dS, dtau, dkappa))
        except np.linalg.LinAlgError:
            status = SdpStatus.ILL_CONDITIONED
            break

        if not np.isfinite(alpha) or alpha <= 1e-14 \
                or not np.isfinite(dtau) or not np.isfinite(dkappa):
            status = SdpStatus.ILL_CONDITIONED
            break

        X = [x + alpha * dx for x, dx in zip(X, dX)]
        S = [s + alpha * ds for s, ds in zip(S, dS)]
        y = y + alpha * dy
        tau += alpha * dtau
        kappa += alpha * dkappa

    if status is not SdpStatus.OPTIMAL and best is not None:
        X, S, y, tau, rel_p, rel_d, rel_g = best

    xs = [x / tau for x in X]
    ys = y / tau
    pobj_f = ws.inner(ws.C, xs)
    dobj_f = float(ws.b @ ys)
    res = {"rel_primal": rel_p, "rel_dual": rel_d, "rel_gap": rel_g,
           "primal_objective": pobj_f, "dual_objective": dobj_f}
    return SdpSolution(status, pobj_f, ws.unstack(xs), ws.unstack([s / tau for s in S]),
                       ys, pobj_f - dobj_f, it, res)
