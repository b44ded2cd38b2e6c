"""Quantum boxes (binary classical-quantum sources) and golden units.

A box (p, rho0, rho1) emits rho0 with probability p and rho1 with 1-p; it
is the operator  p|0><0| (x) rho0 + (1-p)|1><1| (x) rho1  in block form.
Golden units are the qubit family whose discrimination error is exactly
1/(2M) in the scaling regime, the currency of distillation and dilution.

A qubit tensor power b^(x)n is held as its Schur-Weyl quotient box, with
states (+)_k m_k pi_k(rho) of size floor((n+2)^2/4); it converts to and from
b^(x)n for free (``linalg``), so every monotone and task agrees on both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import TOLS
from .exceptions import DimensionCapError, DimensionMismatchError, NotPsdError

Array = np.ndarray

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _validated_state(a):
    """A unit-trace state, dense or block by block, stored PSD: eigenvalues
    down to -``TOLS.density`` are accepted and set to zero."""
    s = linalg.spectrum(a, vectors=False)
    wmin = s.least(TOLS.density, NotPsdError, "state")
    tr = linalg.trace(s.op)
    if abs(tr - 1.0) > TOLS.density:
        raise ValueError(f"state trace {tr!r} differs from 1 beyond {TOLS.density:.1e}")
    if wmin < 0.0:
        h = linalg.spectrum(s.op).apply(lambda w: np.maximum(w, 0.0))
        return h / linalg.trace(h)
    return s.op.like(s.op.blocks) / tr


@dataclass(frozen=True, eq=False)
class QuantumBox:
    """A box; its states are dense matrices or ``linalg.BlockOp`` quotients
    (``tensor_box`` of a qubit box)."""
    p: float
    rho0: Array = field(repr=False)
    rho1: Array = field(repr=False)
    # (a0, a1, n) when the states are the quotients of a0^(x)n, a1^(x)n:
    # box_to_json keeps them, so box_from_json rebuilds the same blocks
    qubit_power: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"prior {self.p} outside [0, 1]")
        r0 = _validated_state(self.rho0)
        r1 = _validated_state(self.rho1)
        if r0.shape != r1.shape:
            raise DimensionMismatchError(
                f"branch states have shapes {r0.shape} and {r1.shape}")
        object.__setattr__(self, "rho0", r0)
        object.__setattr__(self, "rho1", r1)

    @property
    def dim(self) -> int:
        """Register dimension: 2^n for quotient states, else their size."""
        n = getattr(self.rho0, "qubits", None)
        return self.rho0.shape[0] if n is None else 2 ** n

    def weighted(self) -> tuple[Array, Array]:
        """The subnormalized pair (p rho0, (1-p) rho1)."""
        return self.p * self.rho0, (1.0 - self.p) * self.rho1


@dataclass(frozen=True)
class GoldenUnit:
    """(M, q) golden unit; M may be math.inf for the orthogonal pair."""
    M: float
    q: float

    def __post_init__(self):
        if not (self.M >= 1.0):
            raise ValueError(f"M must be >= 1 (or inf), got {self.M}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")


def pi_state(M: float) -> Array:
    """pi_M = (1 - 1/2M)|0><0| + 1/2M |1><1|; pi_inf = |0><0|."""
    if math.isinf(M):
        return KET0.copy()
    return (1 - 1 / (2 * M)) * KET0 + 1 / (2 * M) * KET1


def golden_to_box(g: GoldenUnit) -> QuantumBox:
    pi = pi_state(g.M)
    return QuantumBox(g.q, pi, PAULI_X @ pi @ PAULI_X)


def golden_box(M: float, q: float = 0.5) -> QuantumBox:
    return golden_to_box(GoldenUnit(M, q))


def tensor_box(b: QuantumBox, n: int) -> QuantumBox:
    """n copies of b, up to register dimension ``TOLS.dimension_cap``.  A
    qubit box, or a qubit tensor power (a0, a1, m), gives the quotient box
    of its (m n)-th power (blocks of size at most m n + 1); any other box
    gives dense Kronecker powers."""
    if b.dim ** n > TOLS.dimension_cap:
        raise DimensionCapError(
            f"dimension {b.dim}^{n} exceeds cap {TOLS.dimension_cap}")
    if b.qubit_power is not None or b.dim == 2:
        a0, a1, m = b.qubit_power or (b.rho0, b.rho1, 1)
        return _qubit_power_box(b.p, a0, a1, m * n)
    return QuantumBox(b.p, linalg.tensor_power(b.rho0, n),
                      linalg.tensor_power(b.rho1, n))


def _qubit_power_box(p: float, a0, a1, n: int) -> QuantumBox:
    """The quotient box of (p, a0^(x)n, a1^(x)n): block k of each state is
    m_k pi_k(a), m_k = C(n, k) - C(n, k-1) the multiplicity of block k."""
    a0, a1 = linalg.matrix(a0), linalg.matrix(a1)

    def quotient(a):
        pi = linalg.schur_weyl_power(a, n)
        return pi.like([(math.comb(n, k) - (math.comb(n, k - 1) if k else 0)) * x
                        for k, x in enumerate(pi.blocks)])

    return QuantumBox(p, quotient(a0), quotient(a1), (a0, a1, n))


def real_frame(b: QuantumBox) -> tuple[QuantumBox, Array | None]:
    """A box b' with real states and the qubit unitary U with
    b = U b' U^dag (pi(U) = ``linalg.schur_weyl_power(U, n)`` on the
    quotient of a qubit tensor power, whose one-copy pair is framed and
    whose blocks are rebuilt); b and None for any other box.

    A unitary on the quantum register is a reversible free operation in
    both regimes, so b and b' have the same value for every monotone and
    task.  U diagonalises rho0 (one ``linalg.spectrum``) and then carries
    the diagonal phase that makes the off-diagonal entry of U^dag rho1 U
    real and nonnegative."""
    if b.qubit_power is None and b.dim != 2:
        return b, None
    a0, a1, n = b.qubit_power or (np.asarray(b.rho0), np.asarray(b.rho1), 1)
    (w, u), = linalg.spectrum(a0).eigs
    z = (u.conj().T @ a1 @ u)[0, 1]
    u = u * np.array([1.0, np.conj(z) / abs(z) if z != 0 else 1.0])
    r0 = np.diag(np.maximum(w, 0.0))
    r1 = (u.conj().T @ a1 @ u).real
    if b.qubit_power is None:
        return QuantumBox(b.p, r0, r1), u
    return _qubit_power_box(b.p, r0, r1, n), u


# --- JSON interchange -------------------------------------------------------

def _matrix_to_json(m: Array) -> list:
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]


def _matrix_from_json(rows, name: str) -> Array:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: expected [[ [re, im], ... ], ...]") from exc


def box_to_json(b: QuantumBox) -> str:
    """JSON of the dense states.  A qubit tensor power (``tensor_box``)
    writes them as the Kronecker powers of its one-copy states, which it
    also records with n under "tensor_power"; ``box_from_json`` rebuilds
    the same quotient from those, so the box computes the same values after
    a round trip."""
    if b.qubit_power is None:
        return json.dumps({"p": b.p, "rho0": _matrix_to_json(np.asarray(b.rho0)),
                           "rho1": _matrix_to_json(np.asarray(b.rho1))})
    a0, a1, n = b.qubit_power
    return json.dumps({"p": b.p, "rho0": _matrix_to_json(linalg.tensor_power(a0, n)),
                       "rho1": _matrix_to_json(linalg.tensor_power(a1, n)),
                       "tensor_power": {"n": n, "rho0": _matrix_to_json(a0),
                                        "rho1": _matrix_to_json(a1)}})


def box_from_json(text: str) -> QuantumBox:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("box JSON: expected an object")
    for key in ("p", "rho0", "rho1"):
        if key not in data:
            raise ValueError(f"field {key!r} missing from box JSON")
    if not isinstance(data["p"], (int, float)) or isinstance(data["p"], bool):
        raise ValueError("field 'p': expected a number")
    p = float(data["p"])
    rho0 = _matrix_from_json(data["rho0"], "rho0")
    rho1 = _matrix_from_json(data["rho1"], "rho1")
    if "tensor_power" not in data:
        return QuantumBox(p, rho0, rho1)
    power = data["tensor_power"]
    n = power.get("n") if isinstance(power, dict) else None
    if (not isinstance(n, int) or isinstance(n, bool) or n < 1
            or any(k not in power for k in ("rho0", "rho1"))):
        raise ValueError("field 'tensor_power': expected "
                         "{\"n\": n >= 1, \"rho0\": ..., \"rho1\": ...}")
    d = len(rho0)
    if (rho0.shape != (d, d) or rho1.shape != (d, d)
            or d.bit_length() - 1 != n or d != 1 << n):
        raise ValueError(f"field 'tensor_power': n = {n} does not match "
                         f"states of shape {rho0.shape}")
    b = _qubit_power_box(p, _matrix_from_json(power["rho0"], "tensor_power.rho0"),
                         _matrix_from_json(power["rho1"], "tensor_power.rho1"), n)
    a0, a1, _ = b.qubit_power
    for dense, a in ((rho0, a0), (rho1, a1)):
        if not np.abs(linalg.tensor_power(a, n) - dense).max() <= TOLS.density:
            raise ValueError("field 'tensor_power' disagrees with the dense states")
    return b


# --- random instances (seeded; used by property tests and experiments) ------

def random_density(d: int, rng: np.random.Generator, real: bool = False) -> Array:
    g = rng.normal(size=(d, d))
    if not real:
        g = g + 1j * rng.normal(size=(d, d))
    r = g @ g.conj().T
    return r / np.trace(r).real


def random_box(d: int, rng: np.random.Generator, real: bool = False,
               p: float | None = None) -> QuantumBox:
    if p is None:
        p = float(rng.uniform(0.05, 0.95))
    return QuantumBox(p, random_density(d, rng, real), random_density(d, rng, real))
