from functools import partial

import numpy as np
import pytest

from symdist import sdp
from symdist.exceptions import SolverError
from symdist.boxes import random_box
from symdist.model import (Model, channel_output, hermitian_basis, inner,
                           kron_left, kron_right, ptrace_out, times, trace)
from symdist.sdp import SdpStatus, SolverOptions

from conftest import random_hermitian


def test_trace_normalized_psd():
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), 1.0)
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-7)


def test_glb_of_equal_operators():
    # max Tr Y : Y <= p rho0, Y <= (1-p) rho1 with both sides I/4 -> 1/2
    m = Model()
    y = m.free_herm("y", 2)
    m.maximize(trace(y))
    m.le(y, np.eye(2) / 4)
    m.le(y, np.eye(2) / 4)
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(0.5, abs=1e-7)


def test_infeasible_toy():
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), -1.0)
    assert m.solve().status is SdpStatus.PRIMAL_INFEASIBLE


def test_non_finite_data_raises_solver_error():
    """Non-finite data would break the first iteration before any iterate is
    scored; the solver refuses it up front with a typed error."""
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), float("nan"))
    with pytest.raises(SolverError, match="non-finite"):
        m.solve()


def test_unbounded_toy():
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(-1.0 * trace(x))
    m.eq(inner(np.diag([1.0, 0.0]), x), 1.0)
    assert m.solve().status is SdpStatus.DUAL_INFEASIBLE


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
        pobj = res.diagnostics["primal_objective"]
        dobj = res.diagnostics["dual_objective"]
        assert dobj <= pobj + 1e-7
        assert abs(pobj - dobj) <= 1e-7 * (1 + abs(res.value))
        # analytic optimum: the smallest eigenvalue
        assert res.value == pytest.approx(np.linalg.eigvalsh(h).min(), abs=1e-7)


def _toy_problem(c_block):
    prob = sdp.SdpProblem(
        blocks=[c_block.shape[0]],
        objective=[c_block],
        constraints=[([np.eye(c_block.shape[0], dtype=complex)], 1.0)])
    return prob


def test_realify_real_problem_same_value():
    c = np.diag([0.5, 2.0]).astype(complex)
    prob = _toy_problem(c)
    direct = sdp.solve(prob)
    embedded = sdp.solve(sdp.realify(prob))
    assert embedded.status is SdpStatus.OPTIMAL
    assert direct.value == pytest.approx(embedded.value, abs=1e-7)
    assert sdp.realify(prob).blocks == [4]


def test_realify_sigma_y_block():
    sy = np.array([[0, -1j], [1j, 0]])
    c = 0.5 * np.eye(2) + 0.3 * sy
    prob = _toy_problem(c)
    direct = sdp.solve(prob)          # complex path (realified internally)
    embedded = sdp.solve(sdp.realify(prob))
    assert direct.value == pytest.approx(0.2, abs=1e-7)
    assert embedded.value == pytest.approx(0.2, abs=1e-7)
    # returned primal is a valid Hermitian unit-trace PSD matrix
    x = direct.x_blocks[0]
    assert np.allclose(x, x.conj().T)
    assert np.trace(x).real == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.eigvalsh(x).min() >= -1e-8


def test_realify_identity_objective_exact():
    prob = _toy_problem(np.eye(3, dtype=complex))
    res = sdp.solve(sdp.realify(prob))
    assert res.value == pytest.approx(1.0, abs=1e-7)


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


@pytest.mark.parametrize("real,rows,free", [(True, 6, 3), (False, 8, 4)])
def test_realness_decision(real, rows, free):
    """Programs compile real exactly when their data is real, whether the
    data sit in constants or in term payloads."""
    w0, w1 = random_box(2, np.random.default_rng(5), real=real).weighted()
    m = Model()
    y = m.free_herm("y", 2)
    m.maximize(trace(y))
    m.le(y, w0)
    m.le(y, w1)
    prob, _ = m.compile()
    assert len(prob.constraints) == rows
    assert prob.free_size == free
    assert prob.is_complex() is not real

    # the same data entering only as a term payload: max t : t w0 <= I
    m = Model()
    t = m.scalar("t")
    m.maximize(t)
    m.le(times(t, w0), np.eye(2))
    prob, _ = m.compile()
    assert len(prob.constraints) == rows // 2
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(1 / np.linalg.eigvalsh(w0).max(), abs=1e-7)


def test_scaled_partial_trace_compiles_real():
    m = Model()
    om = m.psd_var("om", 4)
    m.eq(-2.5 * ptrace_out(om, (2, 2)), -2.5 * np.eye(2))
    m.minimize(trace(om))
    prob, _ = m.compile()
    assert prob.is_complex() is False
    res = m.solve()
    assert res.status is SdpStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-7)


def test_hermitian_basis_orthonormal():
    basis = hermitian_basis(3)
    assert basis.shape[0] == 9
    gram = np.einsum("aij,bij->ab", basis.conj(), basis)
    assert np.allclose(gram, np.eye(9), atol=1e-12)
    real_basis = hermitian_basis(3, include_imag=False)
    assert real_basis.shape[0] == 6


def test_model_with_kron_terms():
    # max Tr[Y] : Y (x) I <= A (x) I  has optimum Tr of the projection of A
    rng = np.random.default_rng(4)
    a = random_hermitian(2, rng) + 2 * np.eye(2)
    m = Model()
    y = m.free_herm("y", 2)
    m.maximize(trace(y))
    m.le(kron_right(y, np.eye(2)), np.kron(a, np.eye(2)))
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


def test_max_iterations_status():
    m = Model()
    x = m.psd_var("x", 2)
    m.minimize(trace(x))
    m.eq(trace(x), 1.0)
    prob, _ = m.compile()
    res = sdp.solve(prob, SolverOptions(max_iterations=2))
    assert res.status in (SdpStatus.MAX_ITERATIONS, SdpStatus.OPTIMAL)
    assert res.iterations <= 2
