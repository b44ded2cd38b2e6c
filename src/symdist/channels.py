"""Channels as Choi matrices or measure-and-prepare maps, plus every
constructive protocol map.

Choi convention: for a map E with input dimension d_in and output d_out,

    choi = sum_ij |i><j|_in (x) E(|i><j|)_out,

so trace preservation reads Tr_out[choi] = I_in and application is
E(rho) = Tr_in[(rho^T (x) I) choi].  A CDS map holds two completely
positive branches: ``e0`` keeps the classical label, ``e1`` flips it;
they must sum to a trace-preserving map.  A channel acting on the quantum
register alone is the ``e1 = 0`` special case.

Every constructive protocol is a measure-and-prepare map (Holevo form),
E(rho) = sum_k Tr(M_k rho) omega_k, held as its effects and states
(:class:`MeasurePrepare`).  On a qubit tensor power those are Schur-Weyl
quotients (``linalg.BlockOp``), so validation, application and the trace
preservation test run block by block, and ``d_in``/``d_out`` are quotient
sizes; the dense Choi matrix is built only on request.  A general map
(``CpMap``) holds a dense Choi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .boxes import KET0, KET1, QuantumBox
from .config import TOLS
from .divergences import _support_if_orthogonal, p_err
from .exceptions import (DimensionMismatchError, InfiniteResourceError,
                         InvalidChannelError, MTooSmallError,
                         NotInfiniteResourceError, NotPsdError,
                         ParameterRangeError)

Array = np.ndarray


def _check_input(rho, d_in: int):
    if np.shape(rho)[0] != d_in:
        raise DimensionMismatchError(
            f"input dim {np.shape(rho)[0]} != channel dim {d_in}")


def _trace_preserving(tr_out, d_in: int) -> bool:
    """Tr_out[choi] = I_in to ``TOLS.tp_sum`` in Frobenius norm; ``tr_out``
    is 0 for the empty map."""
    eye = np.eye(d_in) if np.isscalar(tr_out) else linalg.identity_like(tr_out)
    return linalg.frobenius(tr_out - eye) <= TOLS.tp_sum


@dataclass(frozen=True, eq=False)
class CpMap:
    """Completely positive map stored as a dense Choi matrix, validated by
    one spectrum."""
    choi: Array = field(repr=False)
    d_in: int
    d_out: int

    def __post_init__(self):
        s = linalg.spectrum(np.asarray(self.choi), vectors=False)
        d = s.op.shape[0]
        if d != self.d_in * self.d_out:
            raise DimensionMismatchError(
                f"choi has dim {d}, expected {self.d_in * self.d_out}")
        scale = max(1.0, linalg.trace(s.op) / d)     # mean eigenvalue
        s.least(TOLS.density * scale, NotPsdError, "choi matrix")
        object.__setattr__(self, "choi", s.op.blocks[0])

    def __call__(self, rho) -> Array:
        """E(rho) = Tr_in[(rho^T (x) I) choi]."""
        _check_input(rho, self.d_in)
        c = self.choi.reshape(self.d_in, self.d_out, self.d_in, self.d_out)
        return np.einsum("ki,kaib->ab", np.asarray(rho, dtype=complex), c)

    def tr_out(self) -> Array:
        return linalg.ptrace(self.choi, (self.d_in, self.d_out))

    def is_trace_preserving(self) -> bool:
        return _trace_preserving(self.tr_out(), self.d_in)


@dataclass(frozen=True, eq=False)
class MeasurePrepare:
    """E(rho) = sum_k Tr(M_k rho) omega_k with PSD effects M_k and states
    omega_k (not normalized), each validated by one spectrum and stored
    validated, in its own kind (dense or block form).  An operator given
    as the ``linalg.Spectrum`` that validated it is not decomposed again."""
    effects: tuple
    states: tuple
    d_in: int
    d_out: int

    def __post_init__(self):
        if len(self.effects) != len(self.states):
            raise DimensionMismatchError("one state per effect")
        for what, d in (("effect", self.d_in), ("state", self.d_out)):
            ops = [x if isinstance(x, linalg.Spectrum) else linalg.spectrum(x, vectors=False)
                   for x in getattr(self, what + "s")]
            for s in ops:
                if s.op.shape != (d, d):
                    raise DimensionMismatchError(f"{what} has shape {s.op.shape}")
                s.least(TOLS.density, NotPsdError, what)
            object.__setattr__(self, what + "s", tuple(s.op.like(s.op.blocks) for s in ops))

    def __call__(self, rho):
        """sum_k Tr(M_k rho) omega_k, in the kind of the states; 0 for the
        empty map."""
        _check_input(rho, self.d_in)
        return sum(linalg.inner(m, rho) * w for m, w in zip(self.effects, self.states))

    def tr_out(self):
        """Tr_out of the Choi matrix, sum_k Tr(omega_k) M_k^T, in the kind of
        the effects; 0 for the empty map."""
        return sum(linalg.trace(w) * linalg.transpose(m)
                   for m, w in zip(self.effects, self.states))

    def is_trace_preserving(self) -> bool:
        return _trace_preserving(self.tr_out(), self.d_in)

    @property
    def choi(self) -> Array:
        """The dense Choi matrix sum_k M_k^T (x) omega_k."""
        return sum((linalg.tensor(linalg.transpose(m), w)
                    for m, w in zip(self.effects, self.states)),
                   np.zeros((self.d_in * self.d_out,) * 2, dtype=complex))


@dataclass(frozen=True, eq=False)
class CdsMap:
    """Two-branch conditional doubly stochastic map (e0 keeps, e1 flips)."""
    e0: CpMap | MeasurePrepare
    e1: CpMap | MeasurePrepare

    def __post_init__(self):
        if (self.e0.d_in, self.e0.d_out) != (self.e1.d_in, self.e1.d_out):
            raise DimensionMismatchError("branch dimensions differ")
        if not _trace_preserving(self.e0.tr_out() + self.e1.tr_out(), self.d_in):
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


def measure_prepare(effects: list, states: list) -> MeasurePrepare:
    """E(rho) = sum_k Tr(M_k rho) omega_k; effects or states may be in block
    form, and a state may be its validating ``linalg.Spectrum``
    (``MeasurePrepare``)."""
    d_out = states[0].op.shape[0] if isinstance(states[0], linalg.Spectrum) \
        else states[0].shape[0]
    return MeasurePrepare(tuple(effects), tuple(states), effects[0].shape[0], d_out)


def zero_map(d_in: int, d_out: int) -> MeasurePrepare:
    """The zero map: the measure-prepare map with no outcome."""
    return MeasurePrepare((), (), d_in, d_out)


def cptp_as_cds(e: CpMap | MeasurePrepare) -> CdsMap:
    """Embed a channel on the quantum register as a one-branch CDS map."""
    if not e.is_trace_preserving():
        raise InvalidChannelError("single-branch embedding needs a CPTP map")
    return CdsMap(e, zero_map(e.d_in, e.d_out))


def apply_cds(m: CdsMap, b: QuantumBox) -> QuantumBox:
    """Push a box through a CDS map, renormalizing the output branches."""
    if b.rho0.shape[0] != m.d_in:
        raise DimensionMismatchError(
            f"box states of size {b.rho0.shape[0]} != channel dim {m.d_in}")
    w0, w1 = b.weighted()
    out0 = m.e0(w0) + m.e1(w1)
    out1 = m.e1(w0) + m.e0(w1)
    p_out = linalg.trace(out0)
    mixed = linalg.identity_like(out0) / m.d_out
    rho0 = out0 / p_out if p_out > TOLS.infinite_perr else mixed
    rho1 = out1 / (1 - p_out) if 1 - p_out > TOLS.infinite_perr else mixed
    return QuantumBox(min(max(p_out, 0.0), 1.0), rho0, rho1)


def apply_cptp(e: CpMap | MeasurePrepare, b: QuantumBox) -> QuantumBox:
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
    block by block; the weights of a quotient do not move it."""
    w0, w1 = b.weighted()
    return linalg.spectrum(w0 - w1).apply(lambda w: (w < 0.0).astype(float))


# --- distillation channels ----------------------------------------------------

def distill_channel_cptpA(b: QuantumBox, lam: Array) -> MeasurePrepare:
    """Measure-and-prepare channel mapping b to its best golden unit
    (prior unchanged); the measurement ``lam`` is the Q_min minimizer,
    ``q_min(b.rho0, b.rho1).minimizer``."""
    return measure_prepare([linalg.identity_like(lam) - lam, lam], [KET0, KET1])


def distill_channel_cds(b: QuantumBox) -> CdsMap:
    """Label-flipping protocol reaching the golden unit with M = 1/(2 p_err)."""
    if p_err(b) <= TOLS.infinite_perr:
        raise InfiniteResourceError(
            "box has p_err = 0; use inf_to_any for the exact conversion")
    lam = helstrom_povm(b)
    eye = linalg.identity_like(lam)
    e0 = measure_prepare([eye - lam, lam], [0.5 * KET0, 0.5 * KET1])
    e1 = measure_prepare([eye - lam, lam], [0.5 * KET1, 0.5 * KET0])
    return CdsMap(e0, e1)


# --- dilution channels ----------------------------------------------------------

def _clamped_state(m) -> linalg.Spectrum:
    """m with its negative eigenvalues (at most 1e-8 deep; deeper means M is
    below the exact cost) set to zero, at unit trace; block by block.  It
    is returned with its spectrum, so ``MeasurePrepare`` takes it as
    validated: the one ``eigh`` per block here is its only decomposition."""
    s = linalg.spectrum(m)
    s.least(1e-8, MTooSmallError, "prepared state")
    out = s.apply(lambda w: np.maximum(w, 0.0))
    tr = linalg.trace(out)
    return linalg.Spectrum(linalg.BlockOp.of(out / tr),
                           [(np.maximum(w, 0.0) / tr, v) for w, v in s.eigs])


def dilute_channel_cptpA(target: QuantumBox, M: float) -> MeasurePrepare:
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
        keep, flip = (KET1, KET0) if p <= 1 - p else (KET0, KET1)
        return CdsMap(measure_prepare([keep], [target.rho0]),
                      measure_prepare([flip], [target.rho0]))
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
    if p_err(source) > TOLS.infinite_perr:
        raise NotInfiniteResourceError("source box has positive p_err")
    # lam accepts label 0: the support of rho0 when the branch states are
    # orthogonal, else 0 or I when only one branch carries weight
    lam = _support_if_orthogonal(source.rho0, source.rho1)
    eye = linalg.identity_like(source.rho0)
    if lam is None:
        if source.p <= TOLS.infinite_perr:
            lam = 0.0 * eye
        elif source.p >= 1.0 - TOLS.infinite_perr:
            lam = eye
        else:
            raise NotInfiniteResourceError("source has overlapping branch states")
    states = [target.p * target.rho0, (1 - target.p) * target.rho1]
    return CdsMap(measure_prepare([lam, eye - lam], states),
                  measure_prepare([eye - lam, lam], states))
