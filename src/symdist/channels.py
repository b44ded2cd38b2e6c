"""Channels as Choi matrices, plus every constructive protocol map.

Choi convention: for a map E with input dimension d_in and output d_out,

    choi = sum_ij |i><j|_in (x) E(|i><j|)_out,

so trace preservation reads Tr_out[choi] = I_in and application is
E(rho) = Tr_in[(rho^T (x) I) choi].  A CDS map holds two completely
positive branches: ``e0`` keeps the classical label, ``e1`` flips it;
their Choi matrices must sum to a trace-preserving map.  A channel acting
on the quantum register alone is the ``e1 = 0`` special case.

A map into or out of a qubit tensor power in block form (``linalg.BlockOp``)
holds its Choi matrix in block form too: one block per irreducible block of
the structured side, tensored with the other, dense side.  Validation and
application then run block by block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import BlockOp
from .boxes import KET0, KET1, PAULI_X, QuantumBox
from .config import TOLS
from .exceptions import (DimensionMismatchError, InfiniteResourceError,
                         InvalidChannelError, MTooSmallError,
                         NotInfiniteResourceError, NotMajorizedError,
                         NotPsdError, ParameterRangeError)

Array = np.ndarray


def _min_eigenvalue(c: Array, d_in: int, d_out: int) -> float:
    """Least eigenvalue of a Choi matrix on C^d_in (x) C^d_out.  When every
    off-diagonal input block <i|c|j> (i != j) is exactly zero, as for
    measure-prepare maps with diagonal effects, it decomposes the d_in
    diagonal blocks of size d_out instead: a block-diagonal spectrum is the
    union of its blocks' spectra."""
    idx = np.arange(d_in)
    blocks = c.reshape(d_in, d_out, d_in, d_out)[idx, :, idx, :]
    if np.count_nonzero(blocks) < np.count_nonzero(c):
        blocks = c
    return np.linalg.eigvalsh(blocks).min(initial=0.0)


@dataclass(frozen=True, eq=False)
class CpMap:
    """Completely positive map stored as a Choi matrix, dense or in block
    form.

    The PSD test decomposes each block of the Choi matrix once, or its
    input-diagonal blocks when it is block diagonal in the input
    (``_min_eigenvalue``).
    """
    choi: Array | BlockOp = field(repr=False)
    d_in: int
    d_out: int

    def __post_init__(self):
        c = BlockOp.of(linalg.hermitian(self.choi))
        if c.dim != self.d_in * self.d_out:
            raise DimensionMismatchError(
                f"choi has dim {c.dim}, expected {self.d_in * self.d_out}")
        _, split = linalg.bipartite(c, (self.d_in, self.d_out))
        wmin = min(_min_eigenvalue(b, *dims) for b, dims in zip(c.blocks, split))
        scale = max(1.0, linalg.trace(c) / c.dim)     # mean eigenvalue
        if wmin < -TOLS.density * scale:
            raise NotPsdError(f"choi matrix has eigenvalue {wmin:.3e}")
        object.__setattr__(self, "choi", c.like(c.blocks))

    def __call__(self, rho):
        """E(rho) = Tr_in[(rho^T (x) I) choi], block by block.  A map out of
        a block-form space takes its input in the same block form."""
        c, r = BlockOp.of(self.choi), BlockOp.of(rho)
        if r.dim != self.d_in:
            raise DimensionMismatchError(
                f"input dim {r.dim} != channel dim {self.d_in}")
        side, split = linalg.bipartite(c, (self.d_in, self.d_out))
        if side == 0 and r.layout()[:2] != (c.qubits, (c.pad[0], 1)):
            c = BlockOp.of(c.dense())       # input in another form: go dense
            side, split = linalg.bipartite(c, (self.d_in, self.d_out))
        inputs = r.blocks if side == 0 else [np.asarray(r.dense())] * len(c.blocks)
        parts = [np.einsum("ki,kaib->ab", x, b.reshape(d1, d2, d1, d2))
                 for x, b, (d1, d2) in zip(inputs, c.blocks, split)]
        return linalg.factor(c, None if side == 0 else 1, parts)

    def is_trace_preserving(self) -> bool:
        return _trace_preserving(self.choi, self.d_in, self.d_out)


def _trace_preserving(choi, d_in: int, d_out: int) -> bool:
    """Tr_out[choi] = I_in to ``TOLS.tp_sum`` in Frobenius norm."""
    tr_out = linalg.ptrace(choi, (d_in, d_out), axis=1)
    return linalg.frobenius(tr_out - linalg.identity_like(tr_out)) <= TOLS.tp_sum


@dataclass(frozen=True, eq=False)
class CdsMap:
    """Two-branch conditional doubly stochastic map (e0 keeps, e1 flips)."""
    e0: CpMap
    e1: CpMap

    def __post_init__(self):
        if (self.e0.d_in, self.e0.d_out) != (self.e1.d_in, self.e1.d_out):
            raise DimensionMismatchError("branch dimensions differ")
        if not _trace_preserving(self.e0.choi + self.e1.choi, self.d_in, self.d_out):
            raise InvalidChannelError("branch sum is not trace preserving")

    @property
    def d_in(self) -> int:
        return self.e0.d_in

    @property
    def d_out(self) -> int:
        return self.e0.d_out


def kraus_to_choi(kraus: list[Array]) -> Array:
    ks = np.stack([np.asarray(k, dtype=complex) for k in kraus])
    d_out, d_in = ks.shape[1], ks.shape[2]
    c = np.einsum("jai,jbk->iakb", ks, ks.conj())
    return c.reshape(d_in * d_out, d_in * d_out)


def cp_from_kraus(kraus: list[Array]) -> CpMap:
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    return CpMap(kraus_to_choi(ks), ks[0].shape[1], ks[0].shape[0])


def identity_map(d: int, weight: float = 1.0) -> CpMap:
    return cp_from_kraus([math.sqrt(weight) * np.eye(d)])


def measure_prepare(effects: list, states: list, weight: float = 1.0) -> CpMap:
    """E(rho) = weight * sum_k Tr(M_k rho) omega_k; effects or states may be
    in block form."""
    d_in = effects[0].shape[0]
    d_out = states[0].shape[0]
    choi = 0
    for m, w in zip(effects, states):
        choi = choi + weight * linalg.tensor(linalg.transpose(m), w)
    return CpMap(choi, d_in, d_out)


def zero_map(d_in: int, d_out: int) -> CpMap:
    return CpMap(np.zeros((d_in * d_out, d_in * d_out)), d_in, d_out)


def cptp_as_cds(e: CpMap) -> CdsMap:
    """Embed a channel on the quantum register as a one-branch CDS map."""
    if not e.is_trace_preserving():
        raise InvalidChannelError("single-branch embedding needs a CPTP map")
    return CdsMap(e, CpMap(0.0 * e.choi, e.d_in, e.d_out))


def apply_cds(m: CdsMap, b: QuantumBox) -> QuantumBox:
    """Push a box through a CDS map, renormalizing the output branches."""
    if b.dim != m.d_in:
        raise DimensionMismatchError(f"box dim {b.dim} != channel dim {m.d_in}")
    w0, w1 = b.weighted()
    out0 = m.e0(w0) + m.e1(w1)
    out1 = m.e1(w0) + m.e0(w1)
    p_out = linalg.trace(out0)
    mixed = linalg.identity_like(out0) / m.d_out
    rho0 = out0 / p_out if p_out > TOLS.infinite_perr else mixed
    rho1 = out1 / (1 - p_out) if 1 - p_out > TOLS.infinite_perr else mixed
    return QuantumBox(min(max(p_out, 0.0), 1.0), rho0, rho1)


def apply_cptp(e: CpMap, b: QuantumBox) -> QuantumBox:
    return apply_cds(cptp_as_cds(e), b)


# --- generalized amplitude damping -------------------------------------------

def gad_channel(gamma: float, N: float) -> CpMap:
    """Generalized amplitude damping channel as a Choi matrix (qubit)."""
    if not (0.0 <= gamma <= 1.0 and 0.0 <= N <= 1.0):
        raise ParameterRangeError(f"gamma={gamma}, N={N} outside [0, 1]")
    a0 = math.sqrt(1 - N) * np.array([[1.0, 0.0], [0.0, math.sqrt(1 - gamma)]])
    a1 = math.sqrt(gamma * (1 - N)) * np.array([[0.0, 1.0], [0.0, 0.0]])
    a2 = math.sqrt(N) * np.array([[math.sqrt(1 - gamma), 0.0], [0.0, 1.0]])
    a3 = math.sqrt(gamma * N) * np.array([[0.0, 0.0], [1.0, 0.0]])
    return cp_from_kraus([a0, a1, a2, a3])


# --- optimal and pretty good measurements ------------------------------------

def helstrom_povm(b: QuantumBox):
    """Effect accepting label 1: projector onto the strictly negative
    eigenspace of p rho0 - (1-p) rho1 (zero eigenvalues go with label 0),
    block by block."""
    w0, w1 = b.weighted()
    return linalg.spectrum(w0 - w1).apply(lambda w: (w < 0.0).astype(float))


def pgm(rho0: Array, rho1: Array) -> Array:
    """Pretty good measurement effect for rho1: (r0+r1)^(-1/2) r1 (r0+r1)^(-1/2)."""
    s = linalg.pseudo_inverse_sqrt(np.asarray(rho0) + np.asarray(rho1))
    return linalg.hermitian(s @ rho1 @ s)


# --- distillation channels ----------------------------------------------------

def distill_channel_cptpA(b: QuantumBox, lam: Array) -> CpMap:
    """Measure-and-prepare channel mapping b to its best golden unit
    (prior unchanged); the measurement ``lam`` is the Q_min minimizer,
    ``q_min(b.rho0, b.rho1).minimizer``."""
    return measure_prepare([linalg.identity_like(lam) - lam, lam], [KET0, KET1])


def distill_channel_cds(b: QuantumBox) -> CdsMap:
    """Label-flipping protocol reaching the golden unit with M = 1/(2 p_err)."""
    from .divergences import p_err
    if p_err(b) <= TOLS.infinite_perr:
        raise InfiniteResourceError(
            "box has p_err = 0; use inf_to_any for the exact conversion")
    lam = helstrom_povm(b)
    eye = linalg.identity_like(lam)
    e0 = measure_prepare([eye - lam, lam], [KET0, KET1], weight=0.5)
    e1 = measure_prepare([eye - lam, lam], [KET1, KET0], weight=0.5)
    return CdsMap(e0, e1)


# --- dilution channels ----------------------------------------------------------

def _clamped_state(m):
    """m with its negative eigenvalues (at most 1e-8 deep; deeper means M is
    below the exact cost) set to zero, at unit trace; block by block."""
    s = linalg.spectrum(m)
    s.least(1e-8, MTooSmallError, "prepared state")
    out = s.apply(lambda w: np.maximum(w, 0.0))
    return out / linalg.trace(out)


def dilute_channel_cptpA(target: QuantumBox, M: float) -> CpMap:
    """Channel sending pi_M -> rho0 and X pi_M X -> rho1 (qubit input)."""
    if not math.isfinite(M) or M < 1.0:
        raise ParameterRangeError(f"M must be finite and >= 1, got {M}")
    if M <= 1.0 + 1e-12:
        if linalg.trace_distance(target.rho0, target.rho1) > 1e-8:
            raise MTooSmallError("M = 1 dilutes only equal-state targets")
        return measure_prepare([np.eye(2)], [target.rho0])
    t0 = ((2 * M - 1) * target.rho0 - target.rho1) / (2 * M - 2)
    t1 = ((2 * M - 1) * target.rho1 - target.rho0) / (2 * M - 2)
    return measure_prepare([KET0, KET1], [_clamped_state(t0), _clamped_state(t1)])


def dilute_channel_cds(target: QuantumBox, M: float) -> CdsMap:
    """CDS map sending the (M, 1/2) golden unit to the target box."""
    if not math.isfinite(M) or M < 1.0:
        raise ParameterRangeError(f"M must be finite and >= 1, got {M}")
    p = target.p
    if p <= 0.0 or p >= 1.0:
        raise ParameterRangeError("CDS dilution needs a nonsingular prior")
    btol = 1e-9
    if abs(2 * M * p - 1) <= btol or abs(2 * M * (1 - p) - 1) <= btol:
        # boundary M = max(1/2p, 1/2(1-p)); only equal-state targets live here
        if linalg.trace_distance(target.rho0, target.rho1) > 1e-8:
            raise MTooSmallError("boundary M dilutes only equal-state targets")
        rho = target.rho0
        if p <= 1 - p:
            e0 = measure_prepare([KET1], [rho])
            e1 = measure_prepare([KET0], [rho])
        else:
            e0 = measure_prepare([KET0], [rho])
            e1 = measure_prepare([KET1], [rho])
        return CdsMap(e0, e1)
    q = (2 * M * p - 1) / (2 * M - 2)
    if not -1e-12 <= q <= 1 + 1e-12:
        raise MTooSmallError(f"derived golden prior {q} outside [0, 1]")
    q = min(max(q, 0.0), 1.0)
    t0 = (p * (2 * M - 1) * target.rho0 - (1 - p) * target.rho1) / (2 * M * p - 1)
    t1 = ((1 - p) * (2 * M - 1) * target.rho1 - p * target.rho0) / (2 * M * (1 - p) - 1)
    t0, t1 = _clamped_state(t0), _clamped_state(t1)
    e0 = measure_prepare([q * KET0, (1 - q) * KET1], [t0, t1])
    e1 = measure_prepare([(1 - q) * KET0, q * KET1], [t1, t0])
    return CdsMap(e0, e1)


# --- exact conversions from infinite-resource boxes ---------------------------

def inf_to_any(source: QuantumBox, target: QuantumBox) -> CdsMap:
    """Exact CDS conversion from an infinite-resource box to any box."""
    from .divergences import _support_if_orthogonal, p_err
    if p_err(source) > TOLS.infinite_perr:
        raise NotInfiniteResourceError("source box has positive p_err")
    q = target.p
    s0, s1 = target.rho0, target.rho1
    lam = _support_if_orthogonal(source.rho0, source.rho1)
    eye = linalg.identity_like(source.rho0)
    if lam is not None:
        e0 = measure_prepare([lam, eye - lam], [q * s0, (1 - q) * s1])
        e1 = measure_prepare([eye - lam, lam], [q * s0, (1 - q) * s1])
        return CdsMap(e0, e1)
    if source.p <= TOLS.infinite_perr:
        # only the rho1 branch carries weight
        e0 = measure_prepare([eye], [(1 - q) * s1])
        e1 = measure_prepare([eye], [q * s0])
        return CdsMap(e0, e1)
    if source.p >= 1.0 - TOLS.infinite_perr:
        e0 = measure_prepare([eye], [q * s0])
        e1 = measure_prepare([eye], [(1 - q) * s1])
        return CdsMap(e0, e1)
    raise NotInfiniteResourceError("source has overlapping branch states")


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
    flip = PAULI_X
    e0 = CpMap(lam * kraus_to_choi([np.eye(2)]), 2, 2)
    e1 = CpMap((1 - lam) * kraus_to_choi([flip]), 2, 2)
    return CdsMap(e0, e1)


# --- random channel generators (seeded; for property tests) -------------------

_DEFAULT_RNG = np.random.default_rng(0)


def seed_default_rng(seed: int):
    """Reseed the generator used when no explicit rng is passed."""
    global _DEFAULT_RNG
    _DEFAULT_RNG = np.random.default_rng(seed)


def random_cptp(d_in: int, d_out: int, rng: np.random.Generator | None = None,
                env: int | None = None) -> CpMap:
    """Random channel from a Haar-ish isometry followed by an environment trace."""
    rng = _DEFAULT_RNG if rng is None else rng
    env = env or d_in
    g = rng.normal(size=(env * d_out, d_in)) + 1j * rng.normal(size=(env * d_out, d_in))
    qmat, _ = np.linalg.qr(g)
    kraus = list(qmat.reshape(env, d_out, d_in))
    return cp_from_kraus(kraus)


def random_cds(d_in: int, d_out: int,
               rng: np.random.Generator | None = None) -> CdsMap:
    """Random CDS map: a random channel whose environment is measured with a
    random two-outcome projective split deciding the classical flip."""
    rng = _DEFAULT_RNG if rng is None else rng
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


def _choi_to_kraus(choi: Array, d_in: int, d_out: int) -> list[Array]:
    w, v = np.linalg.eigh(linalg.hermitian(choi))
    kraus = []
    for i in range(len(w)):
        if w[i] > 1e-12:
            vec = v[:, i].reshape(d_in, d_out)
            kraus.append(math.sqrt(w[i]) * vec.T)
    return kraus
