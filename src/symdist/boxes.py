"""Quantum boxes (binary classical-quantum sources) and golden units.

A box (p, rho0, rho1) emits rho0 with probability p and rho1 with 1-p; it
is the operator  p|0><0| (x) rho0 + (1-p)|1><1| (x) rho1  in block form.
Golden units are the qubit family whose discrimination error is exactly
1/(2M) in the scaling regime, the currency of distillation and dilution.
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


def _validated_state(a, tol: float) -> Array:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("state has a non-finite entry")
    h = linalg.hermitian(a)
    w = np.linalg.eigvalsh(h)
    if w.min(initial=0.0) < -tol:
        raise NotPsdError(f"state has eigenvalue {w.min():.3e}")
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace {tr!r} differs from 1 beyond {tol:.1e}")
    return h / tr


@dataclass(frozen=True, eq=False)
class QuantumBox:
    p: float
    rho0: Array = field(repr=False)
    rho1: Array = field(repr=False)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"prior {self.p} outside [0, 1]")
        tol = TOLS.density
        r0 = _validated_state(self.rho0, tol)
        r1 = _validated_state(self.rho1, tol)
        if r0.shape != r1.shape:
            raise DimensionMismatchError(
                f"branch states have shapes {r0.shape} and {r1.shape}")
        object.__setattr__(self, "rho0", r0)
        object.__setattr__(self, "rho1", r1)

    @property
    def dim(self) -> int:
        return self.rho0.shape[0]

    def weighted(self) -> tuple[Array, Array]:
        """The subnormalized pair (p rho0, (1-p) rho1)."""
        return self.p * self.rho0, (1.0 - self.p) * self.rho1

    def cq_operator(self) -> Array:
        """Block embedding p|0><0| (x) rho0 + (1-p)|1><1| (x) rho1."""
        w0, w1 = self.weighted()
        d = self.dim
        out = np.zeros((2 * d, 2 * d), dtype=complex)
        out[:d, :d] = w0
        out[d:, d:] = w1
        return out


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


def is_infinite_resource(b: QuantumBox, tol: float | None = None) -> bool:
    """True iff the minimum discrimination error is at most ``tol``."""
    from .divergences import p_err
    if tol is None:
        tol = TOLS.infinite_perr
    return p_err(b) <= tol


def tensor_box(b: QuantumBox, n: int, cap: int | None = None) -> QuantumBox:
    if cap is None:
        cap = TOLS.dimension_cap
    if b.dim ** n > cap:
        raise DimensionCapError(f"dimension {b.dim}^{n} exceeds cap {cap}")
    return QuantumBox(b.p, linalg.tensor_power(b.rho0, n),
                      linalg.tensor_power(b.rho1, n))


# --- JSON interchange -------------------------------------------------------

def _matrix_to_json(m: Array) -> list:
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]


def _matrix_from_json(rows, name: str) -> Array:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {name!r}: expected [[ [re, im], ... ], ...]") from exc


def box_to_json(b: QuantumBox) -> str:
    return json.dumps({"p": b.p, "rho0": _matrix_to_json(b.rho0),
                       "rho1": _matrix_to_json(b.rho1)})


def box_from_json(text: str) -> QuantumBox:
    data = json.loads(text)
    for key in ("p", "rho0", "rho1"):
        if key not in data:
            raise ValueError(f"field {key!r} missing from box JSON")
    if not isinstance(data["p"], (int, float)):
        raise ValueError("field 'p': expected a number")
    return QuantumBox(float(data["p"]),
                      _matrix_from_json(data["rho0"], "rho0"),
                      _matrix_from_json(data["rho1"], "rho1"))


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
