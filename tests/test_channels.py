import math
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import block_diag

from symdist import channels, linalg
from symdist.boxes import (KET0, KET1, PAULI_X, QuantumBox, golden_box,
                           random_box, random_density, tensor_box)
from symdist.channels import (CdsMap, CpMap, MeasurePrepare, apply_cds,
                              apply_cptp, cp_from_kraus, cptp_as_cds,
                              dilute_channel_cds, dilute_channel_cptpA,
                              distill_channel_cds, distill_channel_cptpA,
                              gad_channel, helstrom_povm, inf_to_any,
                              kraus_to_choi, measure_prepare)
from symdist.config import TOLS
from symdist.divergences import p_err, q_max, q_max_star, q_min
from symdist.exceptions import (InfiniteResourceError, InvalidChannelError,
                                MTooSmallError, NotInfiniteResourceError,
                                NotPsdError, ParameterRangeError, SymdistError)

from conftest import box_distance
from oracles import pgm, random_cds, random_cptp


def identity_map(d: int) -> CpMap:
    return cp_from_kraus([np.eye(d)])


class NotMajorizedError(SymdistError):
    """Requested golden-unit prior is not majorized by the source prior."""


def golden_majorize(M: float, q1: float, q2: float) -> CdsMap:
    """CDS map sending the (M, q2) golden unit to the (M, q1) one.

    Requires (q1, 1-q1) majorized by (q2, 1-q2)."""
    if max(q1, 1 - q1) > max(q2, 1 - q2) + 1e-12:
        raise NotMajorizedError(
            f"({q1}, {1 - q1}) is not majorized by ({q2}, {1 - q2})")
    if abs(2 * q2 - 1) < 1e-12:
        lam = 1.0
    else:
        lam = (q1 + q2 - 1) / (2 * q2 - 1)
    lam = min(max(lam, 0.0), 1.0)
    e0 = CpMap(lam * kraus_to_choi([np.eye(2)]), 2, 2)
    e1 = CpMap((1 - lam) * kraus_to_choi([PAULI_X]), 2, 2)
    return CdsMap(e0, e1)


def test_apply_identity(rng):
    b = random_box(3, rng)
    out = apply_cptp(identity_map(3), b)
    assert box_distance(out, b) <= 1e-12


def test_apply_flip_only(rng):
    b = random_box(2, rng)
    flip = CdsMap(channels.zero_map(2, 2), identity_map(2))
    out = apply_cds(flip, b)
    assert out.p == pytest.approx(1 - b.p)
    assert np.allclose(out.rho0, b.rho1)
    assert np.allclose(out.rho1, b.rho0)


def test_apply_trace_and_replace(rng):
    b = random_box(2, rng)
    omega = random_density(2, rng)
    const = measure_prepare([np.eye(2)], [omega])
    out = apply_cptp(const, b)
    assert out.p == pytest.approx(b.p)
    assert np.allclose(out.rho0, omega)
    assert np.allclose(out.rho1, omega)


def test_gad_examples(rng):
    ident = gad_channel(0.0, 0.7)
    rho = random_density(2, rng)
    assert np.allclose(ident(rho), rho, atol=1e-12)
    ch = gad_channel(1.0, 0.1)
    assert np.allclose(ch(KET0), np.diag([0.9, 0.1]))
    for gamma, n in [(0.3, 0.2), (0.9, 0.5), (1.0, 0.0)]:
        ch = gad_channel(gamma, n)
        assert np.allclose(ch(KET1),
                           np.diag([gamma * (1 - n), 1 - gamma * (1 - n)]))
        tr_out = linalg.ptrace(ch.choi, (2, 2))
        assert np.abs(tr_out - np.eye(2)).max() <= 1e-10
    with pytest.raises(ParameterRangeError):
        gad_channel(1.2, 0.0)


def test_helstrom_povm_examples(rng):
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    assert np.allclose(helstrom_povm(orth), np.diag([0.0, 1.0]))
    rho = random_density(2, rng)
    lam = helstrom_povm(QuantumBox(1 / 3, rho, rho))
    # all mass accepted as the likelier label 1 (support of rho)
    assert np.allclose(lam, linalg.support_projector(rho), atol=1e-10)
    b = golden_box(2, 0.5)
    lam = helstrom_povm(b)
    assert np.allclose(lam, np.diag([0.0, 1.0]))
    err = b.p * np.trace(lam @ b.rho0).real \
        + (1 - b.p) * np.trace((np.eye(2) - lam) @ b.rho1).real
    assert err == pytest.approx(0.25, abs=1e-12)


def test_helstrom_achieves_p_err(rng):
    for _ in range(20):
        b = random_box(3, rng)
        lam = helstrom_povm(b)
        err = b.p * np.trace(lam @ b.rho0).real \
            + (1 - b.p) * np.trace((np.eye(3) - lam) @ b.rho1).real
        assert err == pytest.approx(p_err(b), abs=1e-9)


def test_pgm(rng):
    r0 = np.diag([1.0, 0.0])
    r1 = np.diag([0.0, 1.0])
    assert np.allclose(pgm(r0, r1), np.diag([0.0, 1.0]))
    rho = random_density(2, rng)
    assert np.allclose(pgm(rho, rho), 0.5 * linalg.support_projector(rho),
                       atol=1e-10)
    a, b = random_density(2, rng), random_density(2, rng)
    s = linalg.pseudo_inverse_sqrt(a + b)
    assert np.allclose(pgm(a, b), s @ b @ s)
    assert np.trace(pgm(a, b) @ (a + b)).real == pytest.approx(1.0, abs=1e-9)


def test_pgm_on_quotient_states():
    """Quotient states enter the pgm as their block-diagonal matrices, so
    the two effects sum to the identity on the (full-rank) quotient."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    e0, e1 = pgm(t.rho1, t.rho0), pgm(t.rho0, t.rho1)
    dense = [np.asarray(t.rho0), np.asarray(t.rho1)]
    assert np.allclose(e1, pgm(*dense), atol=1e-12)
    assert np.allclose(e0 + e1, np.eye(len(dense[0])), atol=1e-9)


def test_distill_cptpA_fixed_point():
    g = golden_box(3, 0.4)
    ch = distill_channel_cptpA(g, q_min(g.rho0, g.rho1).minimizer)
    out = apply_cptp(ch, g)
    assert box_distance(out, g) <= 1e-7


def test_distill_cptpA_orthogonal_and_equal(rng):
    orth = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    ch = distill_channel_cptpA(orth, q_min(orth.rho0, orth.rho1).minimizer)
    out = apply_cptp(ch, orth)
    assert box_distance(out, golden_box(math.inf, 0.5)) <= 1e-7
    rho = random_density(2, rng)
    eq = QuantumBox(0.3, rho, rho)
    assert q_min(rho, rho).value == pytest.approx(1.0, abs=1e-7)
    out = apply_cptp(distill_channel_cptpA(eq, q_min(rho, rho).minimizer), eq)
    assert box_distance(out, golden_box(1.0, 0.3)) <= 1e-6


def test_distill_cds_examples(rng):
    b = golden_box(2, 0.5)  # p_err 1/4 -> target gamma^(2, 1/2)
    out = apply_cds(distill_channel_cds(b), b)
    assert box_distance(out, golden_box(2, 0.5)) <= 1e-9
    rho = random_density(2, rng)
    eq = QuantumBox(1 / 3, rho, rho)  # p_err 1/3 -> M = 3/2
    out = apply_cds(distill_channel_cds(eq), eq)
    assert box_distance(out, golden_box(1.5, 0.5)) <= 1e-9
    with pytest.raises(InfiniteResourceError):
        distill_channel_cds(QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0])))


def test_dilute_cptpA(rng):
    b = random_box(2, rng)
    m = q_max(b.rho0, b.rho1)
    back = apply_cptp(dilute_channel_cptpA(b, m), golden_box(m, b.p))
    assert box_distance(back, b) <= 1e-8
    # golden target at its own M behaves as the identity on pi_M
    g = golden_box(3, 0.5)
    back = apply_cptp(dilute_channel_cptpA(g, 3.0), golden_box(3, 0.5))
    assert box_distance(back, g) <= 1e-10
    # equal-state target at M = 1 is the constant channel
    rho = random_density(2, rng)
    eq = QuantumBox(0.5, rho, rho)
    back = apply_cptp(dilute_channel_cptpA(eq, 1.0), golden_box(1, 0.5))
    assert box_distance(back, eq) <= 1e-10
    with pytest.raises(MTooSmallError):
        dilute_channel_cptpA(b, max(1.0 + 1e-6, m / 2))


def test_dilute_cds(rng):
    b = random_box(2, rng)
    m = q_max_star(b)
    back = apply_cds(dilute_channel_cds(b, m), golden_box(m, 0.5))
    assert box_distance(back, b) <= 1e-8
    # boundary case: equal states with p < 1/2 at M = 1/(2p)
    rho = random_density(2, rng)
    eq = QuantumBox(0.25, rho, rho)
    back = apply_cds(dilute_channel_cds(eq, 2.0), golden_box(2, 0.5))
    assert box_distance(back, eq) <= 1e-10
    # and the mirrored prior
    eq2 = QuantumBox(0.75, rho, rho)
    back = apply_cds(dilute_channel_cds(eq2, 2.0), golden_box(2, 0.5))
    assert box_distance(back, eq2) <= 1e-10
    # golden target reproduces itself
    g = golden_box(2.5, 0.5)
    back = apply_cds(dilute_channel_cds(g, 2.5), golden_box(2.5, 0.5))
    assert box_distance(back, g) <= 1e-10


def test_distill_dilute_round_trip_on_golden():
    g = golden_box(5, 0.5)
    distilled = apply_cds(distill_channel_cds(g), g)
    m = 1 / (2 * p_err(g))
    diluted = apply_cds(dilute_channel_cds(g, m), distilled)
    assert box_distance(diluted, g) <= 1e-7


def test_inf_to_any(rng):
    source = QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0]))
    target = random_box(3, rng)
    out = apply_cds(inf_to_any(source, target), source)
    assert box_distance(out, target) <= 1e-9
    # target equal to source
    out = apply_cds(inf_to_any(source, source), source)
    assert box_distance(out, source) <= 1e-12
    # degenerate target prior
    tgt0 = QuantumBox(0.0, random_density(2, rng), random_density(2, rng))
    out = apply_cds(inf_to_any(source, tgt0), source)
    assert box_distance(out, tgt0) <= 1e-9
    # singular-prior source with overlapping states is still infinite-resource
    rho = random_density(2, rng)
    sing = QuantumBox(0.0, rho, random_density(2, rng))
    out = apply_cds(inf_to_any(sing, target), sing)
    assert box_distance(out, target) <= 1e-9
    with pytest.raises(NotInfiniteResourceError):
        inf_to_any(random_box(2, rng), target)
    # and so is one with p = 1, whose every input is label 0
    sing1 = QuantumBox(1.0, random_density(2, rng), random_density(2, rng))
    out = apply_cds(inf_to_any(sing1, target), sing1)
    assert box_distance(out, target) <= 1e-9


def test_golden_majorize():
    m = golden_majorize(3, 0.5, 1 / 3)
    out = apply_cds(m, golden_box(3, 1 / 3))
    assert box_distance(out, golden_box(3, 0.5)) <= 1e-12
    ident = golden_majorize(3, 0.3, 0.3)
    out = apply_cds(ident, golden_box(3, 0.3))
    assert box_distance(out, golden_box(3, 0.3)) <= 1e-12
    # extreme source prior majorizes everything
    m = golden_majorize(4, 0.25, 1e-9)
    with pytest.raises(NotMajorizedError):
        golden_majorize(3, 0.1, 0.4)


def test_monotonicity_of_p_err_under_cds(rng):
    """Discrimination never gets easier after a free operation."""
    for _ in range(100):
        b = random_box(2, rng)
        m = random_cds(2, 2, rng)
        assert p_err(apply_cds(m, b)) >= p_err(b) - 1e-9


def test_random_channels_valid(rng):
    for _ in range(20):
        e = random_cptp(2, 3, rng)
        assert e.is_trace_preserving()
        assert np.linalg.eigvalsh(e.choi).min() >= -1e-10
        m = random_cds(3, 2, rng)
        total = m.e0.choi + m.e1.choi
        tr_out = linalg.ptrace(total, (3, 2))
        assert np.abs(tr_out - np.eye(3)).max() <= 1e-8


def test_constructed_channels_pass_validity(rng):
    b = random_box(2, rng)
    # constructors validate CP/TP internally
    distill_channel_cptpA(b, q_min(b.rho0, b.rho1).minimizer)
    distill_channel_cds(b)
    dilute_channel_cptpA(b, q_max(b.rho0, b.rho1) + 0.1)
    dilute_channel_cds(b, q_max_star(b) + 0.1)


# --- PSD test of block-diagonal Choi matrices -----------------------------------

@pytest.mark.parametrize("d_in", [2, 3])
def test_cp_map_block_psd_test_matches_full(d_in, rng, decompositions):
    """A Choi matrix with zero off-diagonal input blocks is the
    measure-prepare map with effects |i><i| and its diagonal blocks as
    states.  That map is tested on its effects and states, the Choi matrix
    as a ``CpMap`` on its full spectrum, and both decide as the full
    spectrum does."""
    d_out, trials = 3, 40
    decisions = set()
    effects = list(np.eye(d_in)[:, :, None] * np.eye(d_in)[:, None, :])
    for _ in range(trials):
        states = [random_density(d_out, rng) + rng.uniform(-0.1, 0.1) * np.eye(d_out)
                  for _ in range(d_in)]
        choi = block_diag(*states)
        scale = max(1.0, np.trace(choi).real / len(choi))
        full = np.linalg.eigvalsh(choi).min() >= -TOLS.density * scale
        for build in (lambda: CpMap(choi, d_in, d_out),
                      lambda: measure_prepare(effects, states)):
            try:
                build()
                decided = True
            except NotPsdError:
                decided = False
            assert decided == full
        decisions.add(full)
    assert decisions == {True, False}
    want = Counter({("eigvalsh", d_in * d_out): 2 * trials})
    want["eigvalsh", d_in] += d_in * trials         # effects
    want["eigvalsh", d_out] += d_in * trials        # states
    assert decompositions == want


@pytest.mark.parametrize("d_in", [2, 3])
def test_cp_map_block_path_rejects_small_negative_eigenvalue(d_in, rng):
    d_out = 3
    blocks = [random_density(d_out, rng) for _ in range(d_in)]
    w, v = np.linalg.eigh(blocks[-1])
    w[0] = -1e-6
    blocks[-1] = (v * w) @ v.conj().T
    with pytest.raises(NotPsdError):
        CpMap(block_diag(*blocks), d_in, d_out)


@pytest.mark.parametrize("coupling, psd", [(0.5, True), (2.0, False)])
def test_cp_map_coupled_blocks_take_full_path(coupling, psd, decompositions):
    """A Choi matrix is tested on its full spectrum: here every diagonal
    input block is PSD, and the full matrix is PSD only for the weaker
    coupling."""
    d_in, d_out = 3, 2
    choi = np.eye(d_in * d_out, dtype=complex)
    c4 = choi.reshape(d_in, d_out, d_in, d_out)
    c4[0, :, 1, :] = c4[1, :, 0, :] = coupling * np.eye(d_out)
    if psd:
        CpMap(choi, d_in, d_out)
    else:
        with pytest.raises(NotPsdError):
            CpMap(choi, d_in, d_out)
    assert decompositions == {("eigvalsh", d_in * d_out): 1}


# --- measure-and-prepare maps ---------------------------------------------------

def _random_psd(d, rng, real):
    return rng.uniform(0.1, 2.0) * random_density(d, rng, real)


@pytest.mark.parametrize("d_in", [2, 3])
@pytest.mark.parametrize("d_out", [2, 3])
@pytest.mark.parametrize("real", [True, False])
def test_measure_prepare_matches_its_choi(d_in, d_out, real, rng):
    """Application and Tr_out read off the effects and states agree with the
    dense Choi matrix built on request."""
    for k in (1, 2, 3):
        mp = measure_prepare([_random_psd(d_in, rng, real) for _ in range(k)],
                             [0.7 * _random_psd(d_out, rng, real) for _ in range(k)])
        assert isinstance(mp, MeasurePrepare)
        cp = CpMap(mp.choi, d_in, d_out)
        for _ in range(3):
            rho = random_density(d_in, rng, real)
            assert np.abs(mp(rho) - cp(rho)).max() <= 1e-12
        tr_out = linalg.ptrace(mp.choi, (d_in, d_out))
        assert np.abs(mp.tr_out() - tr_out).max() <= 1e-12
        assert np.abs(cp.tr_out() - tr_out).max() <= 1e-12


def test_block_measure_prepare_matches_its_dense_form():
    """A map on the quotient of b^(x)3 (size 6) with block-form effects and
    states: applied to a block-form input it agrees with its dense Choi
    matrix on the input's block-diagonal matrix, and its Tr_out stays in
    block form."""
    t = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    lam = helstrom_povm(t)
    mp = measure_prepare([lam, linalg.identity_like(lam) - lam], [t.rho0, t.rho1])
    cp = CpMap(mp.choi, 6, 6)
    for block in t.weighted():
        out = mp(block)
        assert isinstance(out, linalg.BlockOp)
        assert np.abs(np.asarray(out) - cp(np.asarray(block))).max() <= 1e-12
    tr_out = mp.tr_out()
    assert isinstance(tr_out, linalg.BlockOp)
    assert np.abs(np.asarray(tr_out) - linalg.ptrace(mp.choi, (6, 6))).max() <= 1e-12


def test_measure_prepare_rejects_non_psd_effects_and_states():
    bad = np.diag([1.0, -1e-6])
    with pytest.raises(NotPsdError, match="effect"):
        measure_prepare([bad, np.eye(2)], [KET0, KET1])
    with pytest.raises(NotPsdError, match="state"):
        measure_prepare([KET0, KET1], [KET0, bad])
    t = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    with pytest.raises(NotPsdError, match="state"):
        measure_prepare([KET0], [t.rho0 - t.rho1])


def test_cds_map_of_measure_prepare_branches_must_be_trace_preserving():
    keep = measure_prepare([KET0, KET1], [0.5 * KET0, 0.5 * KET1])
    flip = measure_prepare([KET0, KET1], [0.5 * KET1, 0.5 * KET0])
    assert CdsMap(keep, flip).d_in == 2
    with pytest.raises(InvalidChannelError):
        CdsMap(keep, measure_prepare([KET0], [0.5 * KET1]))
    with pytest.raises(InvalidChannelError):
        CdsMap(keep, channels.zero_map(2, 2))
    with pytest.raises(InvalidChannelError):
        CdsMap(channels.zero_map(2, 2), channels.zero_map(2, 2))
