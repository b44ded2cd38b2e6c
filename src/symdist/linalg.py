"""Dense Hermitian linear algebra: spectral calculus, trace norms, tensors.

Every public function validates its argument with :func:`hermitian`;
matrices rebuilt here from a validated spectrum are only symmetrized.
Spectral functions follow the support convention 0**0 = 0, i.e. they act on
the support only, matching the pseudo-inverse convention used by the pretty
good measurement.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import TOLS
from .exceptions import NotPsdError

Array = np.ndarray


def hermitian(a, tol: float | None = None) -> Array:
    """Validate and symmetrize a square matrix to (A + A^dag)/2.

    Asymmetry beyond ``tol`` (default 1e-8) is a hard error: it catches
    transposed or corrupted user data rather than silently averaging it away.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if tol is None:
        tol = TOLS.asymmetry
    ah = a.conj().T
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    asym = float(np.abs(a - ah).max(initial=0.0))
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {asym:.3e}")
    return (a + ah) / 2


class EigenDecomposition(NamedTuple):
    eigenvalues: Array   # real, ascending
    eigenvectors: Array  # unitary, columns match eigenvalues


def eig(h: Array) -> EigenDecomposition:
    """Hermitian eigendecomposition with ascending eigenvalues."""
    w, v = np.linalg.eigh(hermitian(h))
    return EigenDecomposition(w, v)


def _spectral(h: Array, fn, clamp_tol: float | None = None, require_psd: bool = False) -> Array:
    w, v = eig(h)
    if require_psd:
        if clamp_tol is None:
            clamp_tol = TOLS.psd_clamp
        if w.min(initial=0.0) < -clamp_tol:
            raise NotPsdError(f"eigenvalue {w.min():.3e} below -{clamp_tol:.1e}")
        w = np.maximum(w, 0.0)
    out = (v * fn(w)) @ v.conj().T
    return (out + out.conj().T) / 2  # symmetrized, not re-validated


def matrix_power(h: Array, s: float, clamp_tol: float | None = None) -> Array:
    """h**s for PSD h and s in [0, 1], with the support convention 0**0 = 0."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {s}")

    def power(w):
        out = np.zeros_like(w)
        pos = w > 0
        out[pos] = w[pos] ** s
        return out

    return _spectral(h, power, clamp_tol, require_psd=True)


def trace_norm(h: Array) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(hermitian(h))).sum())


def trace_distance(a: Array, b: Array) -> float:
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def positive_part(h: Array) -> Array:
    return _spectral(h, lambda w: np.maximum(w, 0.0))


def negative_part(h: Array) -> Array:
    """Negative part, so that h = positive_part(h) - negative_part(h)."""
    return _spectral(h, lambda w: np.maximum(-w, 0.0))


def support_projector(h: Array, clamp_tol: float | None = None) -> Array:
    if clamp_tol is None:
        clamp_tol = TOLS.psd_clamp
    return _spectral(h, lambda w: (np.abs(w) > clamp_tol).astype(float))


def pseudo_inverse_sqrt(h: Array, clamp_tol: float | None = None) -> Array:
    """h^(-1/2) on the support of a PSD matrix, zero on the kernel."""
    if clamp_tol is None:
        clamp_tol = TOLS.psd_clamp

    def inv_sqrt(w):
        out = np.zeros_like(w)
        pos = w > clamp_tol
        out[pos] = w[pos] ** -0.5
        return out

    return _spectral(h, inv_sqrt, clamp_tol, require_psd=True)


def tensor(a: Array, b: Array) -> Array:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_power(a: Array, n: int) -> Array:
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = np.asarray(a, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def ptrace(m: Array, dims: tuple[int, int], axis: int) -> Array:
    """Partial trace of an operator on a bipartite space.

    ``axis=0`` traces out the first tensor factor, ``axis=1`` the second.
    """
    d1, d2 = dims
    t = np.asarray(m, dtype=complex).reshape(d1, d2, d1, d2)
    if axis == 0:
        return np.einsum("iaib->ab", t)
    if axis == 1:
        return np.einsum("aibi->ab", t)
    raise ValueError("axis must be 0 or 1")
