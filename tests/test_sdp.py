from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from symdist import sdp, tasks
from symdist.exceptions import SolverError
from symdist.boxes import random_box
from symdist.model import (Model, channel_output, hermitian_basis, inner,
                           ptrace_out, require_optimal, times, trace)
from symdist.sdp import SdpStatus

from conftest import figure4_boxes, random_hermitian
from oracles import kron_left, kron_right, nt_second_order


def test_trace_normalized_psd():
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), 1.0)
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-7)


def test_glb_of_equal_operators():
    # max Tr Y : Y <= p rho0, Y <= (1-p) rho1 with both sides I/4 -> 1/2;
    # Y = I/4 - Z with Z >= 0 and Z >= I/4 - I/4
    m = Model()
    z = m.psd_var("z", 2)
    m.maximize(0.5 - trace(z))
    m.ge(z, np.eye(2) / 4 - np.eye(2) / 4)
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(0.5, abs=1e-7)


def test_non_finite_data_raises_solver_error():
    """Non-finite data would break the first iteration before any iterate is
    scored; the solver refuses it up front with a typed error."""
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), float("nan"))
    with pytest.raises(SolverError, match="non-finite"):
        m.solve()


@pytest.mark.parametrize("c, b", [(np.eye(2), 1e155), (1e155 * np.eye(2), 1.0)])
def test_overflowing_data_raises_solver_error(c, b):
    """Finite data whose norm overflows would start from an infinite point
    and break the first iteration; the solver refuses it up front."""
    with pytest.raises(SolverError, match="overflows"):
        sdp.solve(sdp.SdpProblem([2], {0: c}, [({0: np.eye(2)}, b)]))


@pytest.mark.parametrize("sign, a, b", [(1.0, np.eye(2), -1.0),
                                        (-1.0, np.diag([1.0, 0.0]), 1.0)],
                         ids=["infeasible", "unbounded"])
def test_infeasible_and_unbounded_programs_end_non_optimal(sign, a, b):
    """The solver does not detect infeasibility: min Tr X : Tr X = -1 and
    min -Tr X : X_00 = 1, both with X >= 0, end short of optimal, so
    require_optimal raises."""
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(sign * trace(x))
    m.eq(inner(a, x), b)
    res = m.solve()
    assert res.status is not SdpStatus.OPTIMAL
    with pytest.raises(SolverError, match=res.status.value):
        require_optimal(res, "toy program")


def test_random_diagonal_lps():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        c = rng.uniform(0.1, 2, n)
        a = rng.uniform(0.5, 2, n)
        b = float(rng.uniform(0.5, 3))
        m = Model()
        xs = [m.scalar(f"x{i}") for i in range(n)]
        obj = xs[0] * float(c[0])
        con = xs[0] * float(a[0])
        for i in range(1, n):
            obj = obj + xs[i] * float(c[i])
            con = con + xs[i] * float(a[i])
        m.minimize(obj)
        m.eq(con, b)
        res = m.solve()
        assert res.status is SdpStatus.OPTIMAL
        assert abs(res.value - b * min(c / a)) <= 1e-6


def test_weak_duality_and_gap_at_solution():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = random_hermitian(3, rng)
        m = Model()
        x = m.psd_var("x", 3)
        m.minimize(inner(h, x))
        m.eq(trace(x), 1.0)
        res = m.solve()
        assert res.status is SdpStatus.OPTIMAL
        pobj = res.residuals["primal_objective"]
        dobj = res.residuals["dual_objective"]
        assert dobj <= pobj + 1e-7
        assert abs(pobj - dobj) <= 1e-7 * (1 + abs(res.value))
        # analytic optimum: the smallest eigenvalue
        assert res.value == pytest.approx(np.linalg.eigvalsh(h).min(), abs=1e-7)


@pytest.mark.parametrize("c,value,blocks", [
    (np.diag([0.5, 2.0]), 0.5, [2]),
    (0.5 * np.eye(2) + 0.3 * np.array([[0, -1j], [1j, 0]]), 0.2, [4]),
    (np.eye(3), 1.0, [3]),
], ids=["real-diagonal", "sigma-y", "identity"])
def test_compile_embeds_complex_data(c, value, blocks):
    """min <C, X> : Tr X = 1 is the least eigenvalue of C.  Complex data
    compile to doubled real blocks and real data do not; either way the
    primal comes back Hermitian, PSD and of unit trace."""
    m = Model()
    x = m.psd_var("x", len(c))
    m.minimize(inner(c, x))
    m.eq(trace(x), 1.0)
    prob, _ = m.compile()
    assert prob.blocks == blocks
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(value, abs=1e-7)
    x = res.primal["x"]
    assert x.shape == c.shape
    assert np.allclose(x, x.conj().T)
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.eigvalsh(x).min() >= -1e-8


def test_solver_rejects_complex_data():
    """The solver takes real data only; it refuses complex data instead of
    dropping the imaginary part, also in a program whose blocks it would
    pack into real bins."""
    c = 0.5 * np.eye(2) + 0.3 * np.array([[0, -1j], [1j, 0]])
    for blocks in ([2], [2, 1, 1]):
        prob = sdp.SdpProblem(blocks=blocks,
                              objective={0: c, **{j: np.eye(1) for j in range(1, len(blocks))}},
                              constraints=[({j: np.eye(d) for j, d in enumerate(blocks)}, 1.0)])
        assert len(sdp._layout(blocks)) == 1
        with pytest.raises(SolverError, match="complex"):
            sdp.solve(prob)


def _ptrace_out(x):
    return np.einsum("aibi->ab", x.reshape(2, 3, 2, 3))


# Each factory draws the payload and returns (builder on a variable, forward
# map of the payload and X); the builder's term carries its own payload.
@pytest.mark.parametrize("op_factory,din", [
    (lambda rng: (lambda v: 0.7 * v, lambda h, x: 0.7 * x), 3),
    (lambda rng: (partial(inner, random_hermitian(3, rng)),
                  lambda h, x: np.array([[np.vdot(h, x)]])), 3),
    (lambda rng: (partial(times, h=random_hermitian(3, rng)),
                  lambda h, x: complex(x[0, 0]) * h), 1),
    (lambda rng: (partial(kron_left, random_hermitian(2, rng)),
                  lambda h, x: np.kron(h, x)), 3),
    (lambda rng: (partial(kron_right, k=random_hermitian(2, rng)),
                  lambda h, x: np.kron(x, h)), 3),
    (lambda rng: (partial(channel_output, random_hermitian(2, rng), dims=(2, 3)),
                  lambda h, x: np.einsum("ki,kaib->ab", h, x.reshape(2, 3, 2, 3))), 6),
    (lambda rng: (partial(ptrace_out, dims=(2, 3)), lambda h, x: _ptrace_out(x)), 6),
    (lambda rng: (lambda v: -2.5 * ptrace_out(v, (2, 3)),
                  lambda h, x: -2.5 * _ptrace_out(x)), 6),
])
def test_linop_adjoints(op_factory, din):
    """<E, c L(X)> == <c L*(E), X> on random Hermitian pairs, for the term
    each public builder makes (coefficient c included)."""
    rng = np.random.default_rng(9)
    build, forward = op_factory(rng)
    expr = build(Model().psd_var("x", din))
    (_, coef, adjoint, payload), = expr.terms
    x = random_hermitian(din, rng)
    e = random_hermitian(expr.dim, rng)

    lhs = np.vdot(e, forward(payload, x))
    rhs = np.vdot(coef * adjoint(e[None])[0], x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("real,rows", [(True, 3), (False, 4)])
def test_realness_decision(real, rows):
    """Programs compile real exactly when their data is real, whether the
    data sit in constants or in term payloads."""
    w0, w1 = random_box(2, np.random.default_rng(5), real=real).weighted()
    # the greatest-lower-bound program with Y = w0 - Z: Z >= w0 - w1
    m = Model()
    z = m.psd_var("z", 2)
    m.maximize(float(np.trace(w0).real) - trace(z))
    m.ge(z, w0 - w1)
    prob, _ = m.compile()
    assert len(prob.constraints) == rows
    assert prob.blocks == ([2, 2] if real else [4, 4])

    # the same data entering only as a term payload: max t : t w0 <= I
    m = Model()
    t = m.scalar("t")
    m.maximize(t)
    m.le(times(t, w0), np.eye(2))
    prob, _ = m.compile()
    assert len(prob.constraints) == rows
    assert prob.blocks == ([1, 2] if real else [2, 4])
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(1 / np.linalg.eigvalsh(w0).max(), abs=1e-7)


def test_scaled_partial_trace_compiles_real():
    m = Model()
    om = m.psd_var("om", 4)
    m.eq(-2.5 * ptrace_out(om, (2, 2)), -2.5 * np.eye(2))
    m.minimize(trace(om))
    prob, _ = m.compile()
    assert prob.blocks == [4]
    assert not any(np.iscomplexobj(a) for a in prob.objective.values())
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-7)


@pytest.mark.parametrize("real", [True, False])
def test_every_basis_direction_is_a_row_naming_the_blocks_it_touches(real):
    """A d x d matrix equality compiles to d(d+1)/2 rows when the program is
    real and d^2 when it is complex, one per basis direction, and each row,
    like the objective, names only the blocks that its terms touch."""
    h = random_hermitian(3, np.random.default_rng(4))
    h = h.real if real else h
    m = Model()
    x, y, z = m.psd_var("x", 3), m.psd_var("y", 2), m.psd_var("z", 3)
    m.eq(x + 0.5 * z, h + 4 * np.eye(3))
    m.eq(y, np.eye(2))
    m.minimize(trace(x))
    prob, _ = m.compile()
    n3, n2 = (6, 3) if real else (9, 4)
    assert len(prob.constraints) == n3 + n2
    assert [sorted(mats) for mats, _ in prob.constraints] == [[0, 2]] * n3 + [[1]] * n2
    assert list(prob.objective) == [0]
    assert prob.blocks == ([3, 2, 3] if real else [6, 4, 6])


def _with_constant_row(b):
    """min Tr X : Tr X = 1, X >= 0 (2 x 2), and with b not None one more
    row 0 * Tr X = b, which names X with a zero matrix."""
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), 1.0)
    if b is not None:
        m.eq(0.0 * trace(x), b)
    return m


def test_a_zero_row_solves_like_the_program_without_it():
    """Compile keeps a row whose coefficients are all zero; with b = 0 the
    Schur complement is singular, and the Newton solves take its
    least-squares solution, so the solve goes as without the row."""
    plain, zero = _with_constant_row(None), _with_constant_row(0.0)
    assert len(zero.compile()[0].constraints) == len(plain.compile()[0].constraints) + 1
    a, b = plain.solve(), zero.solve()
    assert a.status is b.status is SdpStatus.OPTIMAL
    assert b.value == pytest.approx(a.value, abs=1e-8)
    assert b.iterations == a.iterations


def test_an_inconsistent_constant_row_ends_non_optimal():
    """A zero row with b = 1 cannot hold; the solve ends non-optimal and
    ``require_optimal`` raises."""
    res = _with_constant_row(1.0).solve()
    assert res.status is not SdpStatus.OPTIMAL
    with pytest.raises(SolverError):
        require_optimal(res, "inconsistent program")


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert basis.shape[0] == 9
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.allclose(gram, np.eye(9), atol=1e-12)
    real_basis = hermitian_basis(3, include_imag=False)
    assert real_basis.shape[0] == 6
    # built once per (d, include_imag) and shared by every constraint
    assert hermitian_basis(3) is basis and not basis.flags.writeable


def test_model_with_kron_terms():
    # max Tr[Y] : Y (x) I <= A (x) I  has optimum Tr of the projection of A;
    # every feasible Y is below c I, c = lambda_max(A) + 1, so Y = c I - Z
    rng = np.random.default_rng(4)
    a = random_hermitian(2, rng) + 2 * np.eye(2)
    c = float(np.linalg.eigvalsh(a).max()) + 1.0
    m = Model()
    z = m.psd_var("z", 2)
    m.maximize(2.0 * c - trace(z))
    m.le(-kron_right(z, np.eye(2)) + c * np.eye(4), np.kron(a, np.eye(2)))
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(np.trace(a).real, abs=1e-6)


def test_solver_deterministic():
    rng = np.random.default_rng(8)
    h = random_hermitian(3, rng)

    def run():
        m = Model()
        x = m.psd_var("x", 3)
        m.minimize(inner(h, x))
        m.eq(trace(x), 1.0)
        m.eq(inner(np.diag([1.0, 0, 0]), x), 0.25)
        return m.solve()

    a, b = run(), run()
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert np.array_equal(a.primal["x"], b.primal["x"])


def _per_block_problem(dims, seed):
    """min sum_k <C_k, X_k> s.t. Tr X_k = k + 1 and one row coupling every
    block, with a strictly feasible interior."""
    rng = np.random.default_rng(seed)
    objective = {j: random_hermitian(d, rng).real for j, d in enumerate(dims)}
    rows = [({k: np.eye(d)}, k + 1.0) for k, d in enumerate(dims)]
    rows.append(({j: np.diag(np.arange(1.0, d + 1)) for j, d in enumerate(dims)},
                 1.5 * sum(k + 1.0 for k in range(len(dims)))))
    return sdp.SdpProblem(list(dims), objective, rows)


def test_interleaved_block_sizes_keep_caller_order(monkeypatch):
    """Inside the solver the blocks are packed into bins of 3 rows, one
    stack; the solution still lists the blocks in the caller's order and
    shapes, reordering the blocks only reorders the solution, and the solve
    with the blocks left unpacked (``_PACK_MAX`` = 0) agrees."""
    dims = [1, 3, 2, 3, 1, 2]
    assert sdp._layout(dims) == [[[1], [3], [2, 0], [5, 4]]]
    prob = _per_block_problem(dims, 21)
    res = sdp.solve(prob)
    assert res.status is SdpStatus.OPTIMAL
    assert [x.shape for x in res.x_blocks] == [(d, d) for d in dims]
    for k, x in enumerate(res.x_blocks):
        assert np.trace(x) == pytest.approx(k + 1.0, abs=1e-6)
        assert np.linalg.eigvalsh(x).min() >= -1e-8

    perm = [4, 2, 0, 5, 3, 1]
    permuted = sdp.SdpProblem([dims[j] for j in perm],
                              {pos: prob.objective[j] for pos, j in enumerate(perm)},
                              [({pos: mats[j] for pos, j in enumerate(perm) if j in mats}, b)
                               for mats, b in prob.constraints])
    res_p = sdp.solve(permuted)
    assert res_p.status is SdpStatus.OPTIMAL
    assert res_p.value == pytest.approx(res.value, abs=1e-9)
    for pos, j in enumerate(perm):
        assert np.allclose(res_p.x_blocks[pos], res.x_blocks[j], atol=1e-6)

    monkeypatch.setattr(sdp, "_PACK_MAX", 0)
    plain = sdp.solve(prob)
    assert plain.status is SdpStatus.OPTIMAL
    for x, x_plain in zip(res.x_blocks, plain.x_blocks):
        assert np.allclose(x, x_plain, rtol=0, atol=1e-8)


def test_objective_norm_does_not_depend_on_the_block_split():
    """The start point and the scale of the dual residual read the whole
    objective's Frobenius norm, so a program and the same program with a
    block-diagonal variable split into its blocks start alike and are held
    to the same dual tolerance."""
    c1, c2 = np.diag([3.0, 1.0]), np.array([[2.0]])
    split = sdp.SdpProblem([2, 1], {0: c1, 1: c2}, [({0: np.eye(2), 1: np.eye(1)}, 1.0)])
    merged = sdp.SdpProblem([3], {0: np.diag([3.0, 1.0, 2.0])}, [({0: np.eye(3)}, 1.0)])
    assert sdp._Workspace(split).norm_c == pytest.approx(np.sqrt(14.0), rel=1e-15)
    assert sdp._Workspace(merged).norm_c == pytest.approx(np.sqrt(14.0), rel=1e-15)


def _step_by_eigh(x, dx):
    """Largest alpha with x + alpha*dx >= 0, from x^(-1/2) dx x^(-1/2)."""
    w, v = np.linalg.eigh(x)
    xih = (v / np.sqrt(w)) @ v.T
    lam = np.linalg.eigvalsh(xih @ dx @ xih).min()
    return np.inf if lam >= 0 else -1.0 / lam


def _max_step(x, s, dx, ds):
    """The step test of one block size: the largest alpha with x + alpha*dx
    and s + alpha*ds both >= 0, from the factors of the iterate pair."""
    basis, _, _ = sdp._factor(x, s)
    return sdp._max_step(basis, np.concatenate([dx, ds]))


def _random_pd(rng, n, d):
    g = rng.standard_normal((n, d, d))
    return g @ g.transpose(0, 2, 1) + 0.1 * np.eye(d)


def _random_sym(rng, n, d):
    h = rng.standard_normal((n, d, d))
    return h + h.transpose(0, 2, 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_max_step_of_a_stack_is_the_blockwise_minimum(d):
    rng = np.random.default_rng(d)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        x, s = _random_pd(rng, n, d), _random_pd(rng, n, d)
        if trial % 4 == 1 and d > 1:
            # one near-singular block: smallest eigenvalue 1e-10 of the largest
            w, v = np.linalg.eigh(x[0])
            w[0] = 1e-10 * w[-1]
            x[0] = (v * w) @ v.T
        dx, ds = _random_sym(rng, n, d), _random_sym(rng, n, d)
        if trial % 4 == 2:
            # positive semidefinite: no block bounds the step
            dx, ds = dx @ dx, ds @ ds
        got = _max_step(x, s, dx, ds)
        ref = min(_step_by_eigh(z[j], dz[j]) for z, dz in ((x, dx), (s, ds))
                  for j in range(n))
        single = min(_max_step(x[j:j + 1], s[j:j + 1], dx[j:j + 1], ds[j:j + 1])
                     for j in range(n))
        assert got == pytest.approx(single, rel=1e-12)
        if np.isinf(ref):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(ref, rel=1e-6)


def _near_singular_pair(rng, n, d):
    """Random positive definite stacks x, s of n blocks; x's first block has
    smallest eigenvalue 1e-10 of its largest."""
    x, s = _random_pd(rng, n, d), _random_pd(rng, n, d)
    w, v = np.linalg.eigh(x[0])
    w[0] = 1e-10 * w[-1]
    x[0] = (v * w) @ v.T
    return x, s


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_nt_factors_from_the_cholesky_factor(d):
    """The NT factors built from the Cholesky factor of X satisfy
    G G^T = W, W S W = X and G^-1 X G^-T = G^T S G = diag(v), block by
    block to 1e-10 relative, a near-singular block included."""
    rng = np.random.default_rng(30 + d)
    x, s = _near_singular_pair(rng, 4, d)
    basis, _, l = sdp._factor(x, s)
    w, g, g_inv, v = sdp._nt_scaling(s, basis, l)
    gt, g_invt = g.transpose(0, 2, 1), g_inv.transpose(0, 2, 1)
    for j in range(len(x)):
        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
        assert close(g[j] @ gt[j], w[j])
        assert close(w[j] @ s[j] @ w[j], x[j])
        assert close(g_inv[j] @ x[j] @ g_invt[j], np.diag(v[j]))
        assert close(gt[j] @ s[j] @ g[j], np.diag(v[j]))
        assert close(g_inv[j] @ g[j], np.eye(d))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_second_order_term_matches_the_kronecker_oracle(d):
    """Mehrotra's term G Z G^T, with Z from the solver's diagonal scaling,
    equals the oracle's dense Lyapunov solve in the symmetric-root frame."""
    rng = np.random.default_rng(40 + d)
    x, s = _random_pd(rng, 3, d), _random_pd(rng, 3, d)
    dx, ds = _random_sym(rng, 3, d), _random_sym(rng, 3, d)
    basis, _, l = sdp._factor(x, s)
    _, g, g_inv, v = sdp._nt_scaling(s, basis, l)
    got = sdp._second_order(g, g_inv, v, dx, ds)
    for j in range(3):
        ref = nt_second_order(x[j], s[j], dx[j], ds[j])
        assert np.allclose(got[j], ref, rtol=1e-8, atol=1e-10 * np.abs(ref).max())


def _record_solves(monkeypatch) -> tuple[list, list]:
    """The problems and the results of every sdp.solve call from here on,
    in call order."""
    problems, results = [], []
    solve = sdp.solve

    def recording(prob, *args, **kwargs):
        problems.append(prob)
        results.append(solve(prob, *args, **kwargs))
        return results[-1]
    monkeypatch.setattr(sdp, "solve", recording)
    return problems, results


def _phase1_problem():
    b = random_box(2, np.random.default_rng(3), real=True)
    return tasks._phase1_model(b, 0.05, tasks.CPTPA, 1.0).compile()[0]


# iterations to optimal with the Mehrotra corrector; before the corrector had
# its matrix term, these programs took 16, 21, 13, 12 and 19
@pytest.mark.parametrize("point, iterations", [(5, 9), (15, 10), (25, 10), (35, 10),
                                               ("phase-I", 12)])
def test_corrector_iteration_counts(monkeypatch, point, iterations):
    """The four figure-4 conversion programs at grid points 5, 15, 25 and 35
    of 41, and the phase-I program of a qubit box, end optimal within the
    iterations they take with the corrector."""
    if point == "phase-I":
        results = [sdp.solve(_phase1_problem(), tasks._PHASE1_OPTIONS)]
    else:
        _, results = _record_solves(monkeypatch)
        tasks.min_conversion_error(*figure4_boxes(point * np.pi / 80), tasks.CDS)
    assert [r.status for r in results] == [SdpStatus.OPTIMAL]
    assert results[0].iterations <= iterations


def test_a_stalled_solve_ends_ill_conditioned(monkeypatch):
    """At eps = 0 the last phase-I solve of cost_approx sits on the
    feasibility boundary, where rounding keeps its residuals above the
    tolerances.  In the call it starts warm and ends ill_conditioned at
    iteration 14, on a Newton solve that is not finite.  Started cold, it
    ends ill_conditioned at iteration 18, when the Cholesky factorisation
    of an iterate fails, before its residuals stall and instead of
    wandering to max_iterations; run on, that solve took 168 iterations.
    This is the test of the failed-factorisation exit."""
    problems, results = _record_solves(monkeypatch)
    tasks.cost_approx(random_box(2, np.random.default_rng(3)), 0.0, tasks.CPTPA)
    assert [r.status for r in results] == [SdpStatus.OPTIMAL] * 2 + [
        SdpStatus.ILL_CONDITIONED]
    assert results[-1].iterations <= 23
    cold = sdp.solve(problems[-1], tasks._PHASE1_OPTIONS)
    assert cold.status is SdpStatus.ILL_CONDITIONED
    assert cold.iterations <= 23


def test_each_iteration_factors_once_per_block_size(lapack_calls):
    """One phase-I solve.  Its 1 x 1 blocks are packed in pairs into 2 x 2
    bins, so every block sits in one stack of size 2: every iteration that
    takes a step makes one cholesky, one inv and one eigh (the NT scaling),
    all of size 2.  Its Newton directions make one solve each, and the final
    one (corrector, or recentering when the corrector jams) one more for its
    primal-consistent step: 3 or 5 solves where two per direction made 4 or
    6.  Each of the two or three step tests makes one eigvalsh of size 2."""
    problem = _phase1_problem()
    lapack_calls.clear()
    res = sdp.solve(problem, tasks._PHASE1_OPTIONS)
    assert res.status is SdpStatus.OPTIMAL
    assert res.iterations <= 12
    assert sorted(set(problem.blocks)) == [1, 2]
    # the last iteration stops at the convergence test, before factoring
    starts = [i for i, c in enumerate(lapack_calls) if c[0] == "cholesky"]
    assert starts[0] == 0 and len(starts) == res.iterations - 1
    factors = [("cholesky", 2), ("inv", 2), ("eigh", 2)]
    solve = [("solve", len(problem.constraints))]
    predictor, final = solve + [("eigvalsh", 2)], solve * 2 + [("eigvalsh", 2)]
    for a, z in zip(starts, starts[1:] + [len(lapack_calls)]):
        assert lapack_calls[a:z] in (factors + predictor + final,
                                     factors + predictor + final * 2)


def _figure4_problem(monkeypatch):
    """The compiled conversion program of figure 4 at grid point 15 of 41:
    blocks of 2 x 2 and 4 x 4."""
    with monkeypatch.context() as patch:
        problems, _ = _record_solves(patch)
        tasks.min_conversion_error(*figure4_boxes(15 * np.pi / 80), tasks.CDS)
    return problems[0]


@pytest.mark.parametrize("program", ["phase-I", "figure-4"])
def test_packed_blocks_solve_as_unpacked(monkeypatch, program):
    """The smaller blocks of both programs are packed into bins of the
    largest block's size, one stack in all.  Packed or left as they are
    (``_PACK_MAX`` = 0), each program reaches the same status, value, dual
    objective and primal blocks, and the figure-4 program the same y.  The
    phase-I program's dual optimum is not unique: scaling its b by
    1 + 2^-50 moves the unpacked y by 2e-5, so there the packed y is checked
    to be a dual optimum instead: C - A*(y) is PSD to the solver's
    tolerance, and b.y is the unpacked dual objective."""
    if program == "phase-I":
        prob, options = _phase1_problem(), tasks._PHASE1_OPTIONS
    else:
        prob, options = _figure4_problem(monkeypatch), sdp.SolverOptions()
    assert len(sdp._layout(prob.blocks)) == 1
    packed = sdp.solve(prob, options)
    monkeypatch.setattr(sdp, "_PACK_MAX", 0)
    assert len(sdp._layout(prob.blocks)) == 2
    plain = sdp.solve(prob, options)
    assert packed.status is plain.status is SdpStatus.OPTIMAL
    assert packed.value == pytest.approx(plain.value, abs=1e-8)
    b = np.array([bi for _, bi in prob.constraints])
    assert b @ packed.y == pytest.approx(plain.residuals["dual_objective"], abs=1e-8)
    norm_c = max(1.0, np.linalg.norm([np.linalg.norm(c) for c in prob.objective.values()]))
    for j, d in enumerate(prob.blocks):
        slack = prob.objective.get(j, np.zeros((d, d))) - sum(
            yi * mats[j] for yi, (mats, _) in zip(packed.y, prob.constraints) if j in mats)
        assert np.linalg.eigvalsh(slack).min() >= -d * options.feas_tol * norm_c
    if program == "figure-4":
        assert np.allclose(packed.y, plain.y, rtol=0, atol=1e-8)
    assert len(packed.x_blocks) == len(plain.x_blocks) == len(prob.blocks)
    for x, x_plain, d in zip(packed.x_blocks, plain.x_blocks, prob.blocks):
        assert x.shape == x_plain.shape == (d, d)
        assert np.allclose(x, x_plain, rtol=0, atol=1e-8)


@pytest.mark.parametrize("program", ["phase-I", "figure-4"])
def test_a_solve_started_from_its_own_optimum(monkeypatch, program):
    """The record of an optimal solve starts a solve of the same program:
    it ends optimal in fewer iterations than the cold solve, at its value
    within 1e-8.  The record's S is the dual slack C - A*(y) of its y, block
    by block, to the solver's tolerance, and a start that does not fit the
    program's blocks or m is refused."""
    if program == "phase-I":
        prob, options = _phase1_problem(), tasks._PHASE1_OPTIONS
    else:
        prob, options = _figure4_problem(monkeypatch), sdp.SolverOptions()
    cold = sdp.solve(prob, options)
    warm = sdp.solve(prob, options, start=cold)
    assert cold.status is warm.status is SdpStatus.OPTIMAL
    assert warm.iterations < cold.iterations
    assert warm.value == pytest.approx(cold.value, abs=1e-8)
    norm_c = max(1.0, np.linalg.norm([np.linalg.norm(c) for c in prob.objective.values()]))
    for j, (s, d) in enumerate(zip(cold.s_blocks, prob.blocks)):
        slack = prob.objective.get(j, np.zeros((d, d))) - sum(
            yi * mats[j] for yi, (mats, _) in zip(cold.y, prob.constraints) if j in mats)
        assert s.shape == (d, d)
        assert np.abs(s - slack).max() <= options.feas_tol * norm_c
    for bad in (replace(cold, y=cold.y[:-1]), replace(cold, x_blocks=cold.x_blocks[:-1])):
        with pytest.raises(SolverError, match="start is not a point"):
            sdp.solve(prob, options, start=bad)


@pytest.mark.parametrize("dims, layout", [
    ([1, 1, 3], [[[0, 1]], [[2]]]),
    ([2, 3, 2], [[[0], [2]], [[1]]]),
    ([24, 8, 24, 8, 8, 8], [[[1], [3], [4], [5]], [[0], [2]]]),
], ids=["packed", "packed-alone", "above-pack-max"])
def test_layout_packs_up_to_pack_max(dims, layout):
    """Up to ``_PACK_MAX`` rows the blocks are packed into bins of the
    largest block's size, also where that leaves as many sizes ([1, 1, 3])
    or every smaller block alone in its bin ([2, 3, 2]).  Above it each
    block is a bin of its own and the stacks are the blocks of one size, in
    block order."""
    assert sdp._layout(dims) == layout


def test_solve_m_falls_back_to_least_squares_on_a_zero_pivot():
    """A nonsingular M is solved by ``np.linalg.solve``, bit for bit; an
    exactly singular one, on which that raises, by ``np.linalg.lstsq``."""
    rng = np.random.default_rng(5)
    r = rng.standard_normal((3, 2))
    m = rng.standard_normal((3, 3))
    m = m @ m.T + np.eye(3)
    assert np.array_equal(sdp._solve_m(m, r), np.linalg.solve(m, r))
    singular = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(singular, r)
    assert np.array_equal(sdp._solve_m(singular, r),
                          np.linalg.lstsq(singular, r, rcond=None)[0])


def test_max_iterations_status(monkeypatch):
    monkeypatch.setattr(sdp, "_MAX_ITERATIONS", 2)
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), 1.0)
    prob, _ = m.compile()
    res = sdp.solve(prob)
    assert res.status in (SdpStatus.MAX_ITERATIONS, SdpStatus.OPTIMAL)
    assert res.iterations <= 2
