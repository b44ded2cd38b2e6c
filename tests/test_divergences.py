import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from symdist import divergences as dv
from symdist import linalg, tasks
from symdist.boxes import (QuantumBox, golden_box, random_box, random_density,
                           tensor_box)
from symdist.channels import apply_cds
from symdist.exceptions import NotPsdError
from symdist.sweep import SweepSpec, _boxes_at

from conftest import dense_box
from oracles import (distill_approx_program, p_err_sdp, pgm, q_min_bisection, random_cds,
                     random_cptp, scaled_trace_distance_sdp, smooth_thompson_witness)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


# --- p_err / sd ---------------------------------------------------------------

def test_p_err_examples(rng):
    rho = random_density(2, rng)
    assert dv.p_err(QuantumBox(0.5, rho, rho)) == pytest.approx(0.5)
    assert dv.p_err(golden_box(4, 0.5)) == pytest.approx(1 / 8, abs=1e-12)
    assert dv.p_err(QuantumBox(1 / 3, rho, rho)) == pytest.approx(1 / 3)


def test_p_err_sdp_matches_helstrom(rng):
    for _ in range(10):
        b = random_box(2, rng)
        assert p_err_sdp(b) == pytest.approx(dv.p_err(b), abs=1e-7)
    assert p_err_sdp(golden_box(4, 0.5)) == pytest.approx(1 / 8, abs=1e-7)


def test_sd_examples(rng):
    rho = random_density(2, rng)
    assert dv.sd(QuantumBox(0.5, rho, rho)) == pytest.approx(0.0, abs=1e-12)
    assert dv.sd(golden_box(8, 0.5)) == pytest.approx(3.0, abs=1e-10)
    assert dv.sd(QuantumBox(1 / 3, rho, rho)) == pytest.approx(math.log2(1.5))
    assert math.isinf(dv.sd(QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))))


# --- Q_min -----------------------------------------------------------------------

def _q_min_commuting_oracle(p0, p1):
    """Fractional-knapsack optimum of the diagonal Q_min program."""
    ratios = sorted(range(len(p0)), key=lambda i: p0[i] / max(p0[i] + p1[i], 1e-300))
    budget = 1.0
    cost = 0.0
    for i in ratios:
        w = p0[i] + p1[i]
        lam = min(1.0, budget / w) if w > 0 else 0.0
        cost += lam * p0[i]
        budget -= lam * w
        if budget <= 1e-15:
            break
    return 2 * cost


def test_q_min_golden():
    for m in (1.0, 2.0, 5.0):
        b = golden_box(m, 0.5)
        assert dv.q_min(b.rho0, b.rho1).value == pytest.approx(1 / m, abs=1e-7)


def test_q_min_equal_states(rng):
    rho = random_density(3, rng)
    assert dv.q_min(rho, rho).value == pytest.approx(1.0, abs=1e-7)


def test_q_min_orthogonal():
    v = dv.q_min(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).value
    assert v <= 1e-7


def test_q_min_commuting_vs_knapsack_oracle(rng):
    for _ in range(10):
        p0 = rng.dirichlet(np.ones(4))
        p1 = rng.dirichlet(np.ones(4))
        got = dv.q_min(np.diag(p0), np.diag(p1)).value
        assert got == pytest.approx(_q_min_commuting_oracle(p0, p1), abs=1e-6)


def test_q_min_symmetry(rng):
    for _ in range(10):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        assert dv.q_min(r0, r1).value == pytest.approx(
            dv.q_min(r1, r0).value, abs=1e-7)


def _pure(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj()) / np.vdot(v, v).real


def test_q_min_minimizer_is_feasible(rng):
    """On a qubit pair, b^(x)5 in block form, a pair of pure states in d = 3
    (sigma of rank 2) and a power of pure qubit states (every block of the
    quotient but the symmetric one is 0)."""
    qubit = random_density(2, rng), random_density(2, rng)
    t = tensor_box(random_box(2, rng), 5)
    pure = tensor_box(QuantumBox(0.5, _pure([1, 0]), _pure([1, 1j])), 4)
    pairs = [qubit, (t.rho0, t.rho1),
             (_pure(rng.normal(size=3) + 1j * rng.normal(size=3)),
              _pure(rng.normal(size=3) + 1j * rng.normal(size=3))),
             (pure.rho0, pure.rho1)]
    for r0, r1 in pairs:
        res = dv.q_min(r0, r1)
        blocks = linalg.BlockOp.of(res.minimizer).blocks
        for block in blocks:
            w = np.linalg.eigvalsh(block)
            assert w.min() >= -1e-12 and w.max() <= 1 + 1e-12
        assert linalg.inner(res.minimizer, r0 + r1) == pytest.approx(1.0, abs=1e-12)
        assert 2 * linalg.inner(res.minimizer, r0) == pytest.approx(res.value, abs=1e-12)
        again = dv.q_min(r0, r1)  # deterministic: bit-equal on a rerun
        assert again.value == res.value
        assert all(np.array_equal(a, b)
                   for a, b in zip(linalg.BlockOp.of(again.minimizer).blocks, blocks))


def _figure_pairs():
    """The state pairs of the figure 1-3 grids (41 steps): figures 1 and 3
    share the gad-gamma grid, figure 2 is the gad-phi grid."""
    specs = [SweepSpec(family="gad-gamma", N=0.1, q=1 / 3),
             SweepSpec(family="gad-phi", gamma=0.25, N=0.1, q=1 / 3)]
    return [(b.rho0, b.rho1) for spec in specs for x in spec.grid()
            for b, _ in [_boxes_at(spec, float(x))]]


def _random_pairs():
    """Unit-trace pairs of random boxes in d = 2..4, real and complex, and the
    prior-weighted pairs (p rho0, (1-p) rho1) at skewed and even priors."""
    rng = np.random.default_rng(11)
    boxes = [random_box(d, rng, real=real, p=p) for d in (2, 3, 4)
             for real in (True, False) for p in (0.05, 0.5, 0.93)]
    return [(b.rho0, b.rho1) for b in boxes] + [b.weighted() for b in boxes]


def _edge_pairs():
    """Rank-deficient sigma, equal states, orthogonal states (pure ones put
    breakpoints at exactly 0 and 1) and commuting diagonal pairs."""
    rng = np.random.default_rng(12)
    pairs = []
    for d in (2, 3, 4):
        rho = random_density(d, rng)
        pairs += [(rho, rho),
                  (_pure(rng.normal(size=d) + 1j * rng.normal(size=d)),
                   _pure(rng.normal(size=d) + 1j * rng.normal(size=d))),
                  (_pure(rng.normal(size=d)), random_density(d, rng)),
                  (np.diag(rng.dirichlet(np.ones(d))), np.diag(rng.dirichlet(np.ones(d)))),
                  (np.diag([1.0] + [0.0] * (d - 1)), np.diag([0.0] + [1.0 / (d - 1)] * (d - 1)))]
    pairs.append((np.diag([0.7, 0.3, 0.0]), np.diag([0.0, 0.4, 0.6])))
    return pairs


def _tensor_pairs():
    b = random_box(2, np.random.default_rng(7))
    return [(t.rho0, t.rho1) for t in (tensor_box(b, n) for n in range(1, 10))]


@pytest.mark.parametrize("pairs", [_figure_pairs, _random_pairs, _edge_pairs, _tensor_pairs])
def test_q_min_matches_bisection_oracle(pairs):
    """The breakpoint-and-Newton search against plain bisection on mu: the
    same value to 1e-12 on the figure grids, random boxes, the degenerate
    pairs and the block-form powers b^(x)1..9."""
    for r0, r1 in pairs():
        assert dv.q_min(r0, r1).value == pytest.approx(q_min_bisection(r0, r1).value,
                                                       abs=1e-12)


def test_q_min_decomposes_far_less_than_bisection(decompositions):
    """Rounds of ``eigh`` per call (one per block, sigma's included), read off
    the largest block, against 50 for bisection: measured 4.1 on average and
    6 at most on the figure 1-3 grids, 3-10 (5.0 on average) on the
    unit-trace random pairs, 4 on b and 8-12 on b^(x)2..9.  The bounds leave
    room for rounding on other machines; a fall back to bisection fails
    them."""
    rounds = []
    for n, (r0, r1) in enumerate(_tensor_pairs(), 1):
        before = decompositions["eigh", n + 1]
        dv.q_min(r0, r1)
        rounds.append(decompositions["eigh", n + 1] - before)
    assert rounds[0] <= 6 and max(rounds) <= 16
    for r0, r1 in _figure_pairs():
        before = decompositions["eigh", 2]
        dv.q_min(r0, r1)
        assert decompositions["eigh", 2] - before <= 8
    for r0, r1 in _random_pairs()[:18]:
        before = decompositions["eigh", len(r0)]
        dv.q_min(r0, r1)
        assert decompositions["eigh", len(r0)] - before <= 16
    before = decompositions["eigh", 10]
    q_min_bisection(*_tensor_pairs()[-1])
    assert decompositions["eigh", 10] - before == 50


def test_q_min_matches_distill_program(rng):
    """Q_min against its program, the eps = 0 CPTP_A distillation program
    (states swapped): q_min = 2^(-distill_approx_program)."""
    boxes = [random_box(d, rng, real=real, p=p) for d in (2, 3, 4)
             for real in (True, False) for p in (0.05, 0.5, 0.93)]
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    boxes.append(QuantumBox(0.5, np.outer(v, v.conj()), random_density(3, rng)))
    boxes.append(QuantumBox(0.3, np.diag([0.7, 0.3, 0.0]), np.diag([0.0, 0.4, 0.6])))
    for b in boxes:
        r = distill_approx_program(b, 0.0, tasks.CPTPA).value
        assert dv.q_min(b.rho0, b.rho1).value == pytest.approx(2.0 ** -r, abs=1e-6)


# --- D_max / Thompson -----------------------------------------------------------

def test_d_max_examples(rng):
    rho = random_density(2, rng)
    assert dv.d_max(rho, rho) == pytest.approx(0.0, abs=1e-9)
    assert dv.d_max(np.diag([0.5, 0.5]), np.diag([0.75, 0.25])) == pytest.approx(1.0)
    assert math.isinf(dv.d_max(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    # rank-deficient sigma holding supp rho: the sandwiched operator
    # sigma^(-1/2) rho sigma^(-1/2) built from the linalg functions
    for _ in range(5):
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        sigma = (u * [0.0, 0.0, 0.3, 0.7]) @ u.conj().T
        rho = u[:, 2:] @ random_density(2, rng) @ u[:, 2:].conj().T
        s = linalg.pseudo_inverse_sqrt(sigma)
        lam = np.linalg.eigvalsh(linalg.hermitian(s @ rho @ s)).max()
        assert dv.d_max(rho, sigma) == pytest.approx(math.log2(lam), abs=1e-9)


@pytest.mark.parametrize("f, names", [(dv.d_max, ("rho", "sigma")),
                                      (dv.thompson, ("rho0", "rho1"))],
                         ids=["d_max", "thompson"])
def test_psd_arguments_checked_once_at_psd_slack(f, names):
    """Each argument of d_max (and of thompson) may dip to -PSD_SLACK, and
    one below it raises NotPsdError naming that argument."""
    bad, fine = np.diag([1.0, -5e-10]), np.diag([1.0, -5e-11])
    rho = np.diag([1.0, 0.0])
    for i, name in enumerate(names):
        args = [rho, rho]
        args[i] = bad
        with pytest.raises(NotPsdError, match=f"argument {name} "):
            f(*args)
        args[i] = fine
        assert f(*args) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_state_functions_reject_non_finite_entries(bad):
    """d_max of diag(nan, 1) against I/2 was -inf, chernoff inf and q_min
    nan; each argument is now rejected, without a warning."""
    fns = [dv.q_min, dv.xi_min, dv.d_max, dv.thompson, dv.q_max, dv.xi_max,
           dv.chernoff, lambda a, b: smooth_thompson_witness(a, b, 0.1)]
    h, rho = np.array([[bad, 0.0], [0.0, 1.0]]), np.eye(2) / 2
    for fn in fns:
        for args in ((h, rho), (rho, h)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="non-finite"):
                    fn(*args)


def test_thompson_examples(rng):
    rho = random_density(2, rng)
    assert dv.thompson(rho, rho) == pytest.approx(0.0, abs=1e-9)
    assert dv.thompson(np.diag([0.5, 0.5]), np.diag([0.75, 0.25])) == pytest.approx(1.0)
    assert dv.thompson(rho, np.diag([0.6, 0.4])) == pytest.approx(
        dv.thompson(np.diag([0.6, 0.4]), rho))


def test_thompson_additivity(rng):
    """Doubles on repeated pairs; subadditive on mixed products (the max of
    the two one-sided sums need not split)."""
    for _ in range(5):
        a0, a1 = random_density(2, rng), random_density(2, rng)
        b0, b1 = random_density(2, rng), random_density(2, rng)
        doubled = dv.thompson(linalg.tensor(a0, a0), linalg.tensor(a1, a1))
        assert doubled == pytest.approx(2 * dv.thompson(a0, a1), abs=1e-8)
        mixed = dv.thompson(linalg.tensor(a0, b0), linalg.tensor(a1, b1))
        assert mixed <= dv.thompson(a0, a1) + dv.thompson(b0, b1) + 1e-8


def test_q_max_examples(rng):
    rho = random_density(2, rng)
    assert dv.q_max(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert dv.xi_max(rho, rho) == pytest.approx(0.0, abs=1e-9)
    g = golden_box(6, 0.5)
    assert dv.q_max(g.rho0, g.rho1) == pytest.approx(6.0, abs=1e-9)
    assert dv.q_max(np.diag([0.5, 0.5]), np.diag([0.75, 0.25])) == pytest.approx(1.5)


def test_q_max_definition_infimum(rng):
    """Closed form matches the defining infimum over the two operator bounds."""
    r0, r1 = random_density(2, rng), random_density(2, rng)
    m = dv.q_max(r0, r1)
    for shift in (1e-7, 1e-4):
        up = (2 * (m + shift) - 1)
        assert np.linalg.eigvalsh(up * r1 - r0).min() >= -1e-6
        assert np.linalg.eigvalsh(up * r0 - r1).min() >= -1e-6
    down = 2 * (m * (1 - 1e-4)) - 1
    feasible = (np.linalg.eigvalsh(down * r1 - r0).min() >= 0
                and np.linalg.eigvalsh(down * r0 - r1).min() >= 0)
    assert not feasible


def test_q_max_star_examples(rng):
    rho = random_density(2, rng)
    assert dv.q_max_star(QuantumBox(0.5, rho, rho)) == pytest.approx(1.0, abs=1e-9)
    assert dv.q_max_star(QuantumBox(1 / 3, rho, rho)) == pytest.approx(1.5, abs=1e-9)
    g = golden_box(4, 0.5)
    assert dv.q_max_star(g) == pytest.approx(4.0, abs=1e-9)
    assert math.isinf(dv.q_max_star(QuantumBox(0.0, rho, rho)))


def test_thompson_decomposes_each_state_once(decompositions):
    b = dense_box(tensor_box(random_box(2, np.random.default_rng(7)), 3))
    decompositions.clear()  # state validation
    dv.thompson(b.rho0, b.rho1)
    assert decompositions == {("eigh", 8): 2, ("eigvalsh", 8): 2}


def test_thompson_decomposes_each_block_once(decompositions):
    """Block form of b^(x)3: blocks of size 4 and 2, one eigh per block per
    state and one rank-sized eigvalsh per block per direction."""
    b = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    decompositions.clear()  # state validation
    dv.thompson(b.rho0, b.rho1)
    assert decompositions == {("eigh", 4): 2, ("eigh", 2): 2,
                              ("eigvalsh", 4): 2, ("eigvalsh", 2): 2}


# --- Chernoff ---------------------------------------------------------------------

def test_chernoff_examples(rng):
    rho = random_density(2, rng)
    assert dv.chernoff(rho, rho) == pytest.approx(0.0, abs=1e-9)
    assert dv.chernoff(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) == pytest.approx(1.0)
    assert math.isinf(dv.chernoff(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))


def test_chernoff_vs_scipy_oracle(rng):
    """Golden-section result vs an independent bounded scalar minimizer."""
    for _ in range(8):
        r0, r1 = random_density(3, rng), random_density(3, rng)
        got = dv.chernoff(r0, r1)
        w0, v0 = np.linalg.eigh(r0)
        w1, v1 = np.linalg.eigh(r1)
        overlap = np.abs(v0.conj().T @ v1) ** 2

        def f(s):
            return float((np.maximum(w0, 0) ** s) @ overlap
                         @ (np.maximum(w1, 0) ** (1 - s)))

        res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        expected = -math.log2(min(res.fun, f(0.0), f(1.0)))
        assert got == pytest.approx(expected, abs=1e-8)


def test_chernoff_additivity(rng):
    for _ in range(5):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        doubled = dv.chernoff(linalg.tensor(r0, r0), linalg.tensor(r1, r1))
        assert doubled == pytest.approx(2 * dv.chernoff(r0, r1), abs=1e-8)


def test_chernoff_decomposes_each_state_once(decompositions):
    b = dense_box(tensor_box(random_box(2, np.random.default_rng(7)), 3))
    decompositions.clear()  # state validation
    dv.chernoff(b.rho0, b.rho1)
    assert decompositions == {("eigh", 8): 2}


def test_chernoff_decomposes_each_block_once(decompositions):
    b = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    decompositions.clear()  # state validation
    dv.chernoff(b.rho0, b.rho1)
    assert decompositions == {("eigh", 4): 2, ("eigh", 2): 2}


@pytest.mark.parametrize("n", range(1, 10))
def test_closed_forms_additive_on_tensor_powers(n):
    """d_max (both directions), thompson and chernoff are additive on
    tensor powers of one box."""
    b1 = random_box(2, np.random.default_rng(7))
    b = tensor_box(b1, n)
    for f in (dv.d_max, lambda r0, r1: dv.d_max(r1, r0), dv.thompson, dv.chernoff):
        assert f(b.rho0, b.rho1) == pytest.approx(n * f(b1.rho0, b1.rho1),
                                                  rel=1e-8, abs=0.0)


# --- scaled trace distance -----------------------------------------------------------

def test_d_prime_examples(rng):
    b = random_box(2, rng)
    assert dv.scaled_trace_distance(b, b) == 0.0
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert math.isinf(dv.scaled_trace_distance(b, orth))
    assert dv.scaled_trace_distance(orth, orth) == 0.0
    assert dv.scaled_trace_distance(golden_box(2, 0.5),
                                    golden_box(4, 0.5)) == pytest.approx(1.0)


def test_d_prime_sdp_agreement(rng):
    for _ in range(8):
        a, b = random_box(2, rng), random_box(2, rng)
        analytic = dv.scaled_trace_distance(a, b)
        pair = scaled_trace_distance_sdp(a, b, return_pair=True)
        assert pair.primal == pytest.approx(analytic, abs=1e-6)
        assert pair.dual == pytest.approx(analytic, abs=1e-6)
    same = scaled_trace_distance_sdp(a, a, return_pair=True)
    assert same.primal == pytest.approx(0.0, abs=1e-6)
    assert same.dual == pytest.approx(0.0, abs=1e-6)


def test_d_prime_sdp_rejects_infinite_target(rng):
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    with pytest.raises(ValueError):
        scaled_trace_distance_sdp(random_box(2, rng), orth)


# --- smoothed Thompson ------------------------------------------------------------

def test_smooth_thompson_identity(rng):
    w = 0.6 * random_density(2, rng)
    st = smooth_thompson_witness(w, w, 0.3)
    assert np.allclose(st.omega0, w, atol=1e-12)
    assert np.allclose(st.omega1, w, atol=1e-12)
    assert st.value == pytest.approx(0.0, abs=1e-9)


def test_smooth_thompson_orthogonal_pure():
    st = smooth_thompson_witness(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5)
    assert st.value <= 2.0 + 1e-9
    assert linalg.trace_distance(st.omega0, np.diag([1.0, 0.0])) <= 0.5 + 1e-12
    assert linalg.trace_distance(st.omega1, np.diag([0.0, 1.0])) <= 0.5 + 1e-12


def test_smooth_thompson_weighted_pair_trace_sum(rng):
    b = random_box(2, rng)
    w0, w1 = b.weighted()
    st = smooth_thompson_witness(w0, w1, 0.2)
    assert (np.trace(st.omega0) + np.trace(st.omega1)).real == pytest.approx(
        1.0, abs=1e-10)
    assert st.value <= math.log2(4 / 0.2) + 1e-9


# --- monotonicity and bound invariants ------------------------------------------------------------

def test_q_min_sandwich(rng):
    """p_err(q,...) <= Q_min/2 <= 2 p_err(1/2,...) over a prior grid."""
    for _ in range(5):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        half_q = dv.q_min(r0, r1).value / 2
        for q in (0.1, 0.3, 0.5, 0.9):
            assert dv.p_err(QuantumBox(q, r0, r1)) <= half_q + 1e-8
        assert half_q <= 2 * dv.p_err(QuantumBox(0.5, r0, r1)) + 1e-8


def test_xi_min_above_chernoff_minus_one(rng):
    for _ in range(5):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        assert dv.xi_min(r0, r1) >= dv.chernoff(r0, r1) - 1 - 1e-7


def test_pgm_error_at_most_twice_optimal(rng):
    for _ in range(10):
        r0, r1 = random_density(3, rng), random_density(3, rng)
        lam = pgm(r0, r1)
        err = 0.5 * (np.trace(lam @ r0) + np.trace((np.eye(3) - lam) @ r1)).real
        assert err <= 2 * dv.p_err(QuantumBox(0.5, r0, r1)) + 1e-9


def test_p_err_bound_via_d_prime(rng):
    for _ in range(10):
        a, b = random_box(2, rng), random_box(2, rng)
        d = dv.scaled_trace_distance(a, b)
        if math.isfinite(d):
            assert dv.p_err(a) <= (d + 1) * dv.p_err(b) + 1e-9


def test_dpi_xi_min_xi_max_under_cptp(rng):
    for _ in range(25):
        r0, r1 = random_density(2, rng), random_density(2, rng)
        e = random_cptp(2, 2, rng)
        assert dv.xi_min(e(r0), e(r1)) <= dv.xi_min(r0, r1) + 1e-7
        assert dv.xi_max(e(r0), e(r1)) <= dv.xi_max(r0, r1) + 1e-8


def test_dpi_xi_max_star_and_d_prime_under_cds(rng):
    for _ in range(25):
        b = random_box(2, rng)
        c = random_box(2, rng, p=b.p)
        m = random_cds(2, 2, rng)
        assert dv.xi_max_star(apply_cds(m, b)) <= dv.xi_max_star(b) + 1e-8
        lhs = dv.scaled_trace_distance(apply_cds(m, b), apply_cds(m, c))
        rhs = dv.scaled_trace_distance(b, c)
        if math.isfinite(rhs):
            assert lhs <= rhs + 1e-8
