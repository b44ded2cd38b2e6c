"""Hermitian linear algebra on dense or block-diagonal operators.

An operator is either a dense matrix or a :class:`BlockOp`, the block form
(+)_k B_k (x) I_{m_k} that Schur-Weyl duality gives qubit tensor powers.
``BlockOp.of`` coerces both to a ``BlockOp`` (a dense matrix is the single
block with multiplicity 1), so every function here has one code path over
blocks, with traces weighted by multiplicity; results come back in the
kind of their argument.  Dense forms of block operators are built only on
request (``np.asarray``).  Bipartite operators (``tensor``, ``ptrace``) are
dense: channels on block-form spaces are held as effects and states
(``channels.MeasurePrepare``), never as block-form Choi matrices.

Every spectral function reads its argument through :func:`spectrum`, which
validates it once (:func:`hermitian`); matrices rebuilt from that spectrum
are only symmetrized.  Spectral functions follow the support convention
0**0 = 0, i.e. they act on the support only, matching the pseudo-inverse
convention used by the pretty good measurement.  An eigenvalue counts as
zero at or below ``Spectrum.cut`` = lambda_max * d * eps_mach, the default
rank rule of ``numpy.linalg.matrix_rank``; a PSD argument may dip to
-``PSD_SLACK``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .config import TOLS
from .exceptions import NotPsdError

Array = np.ndarray
_EPS = float(np.finfo(float).eps)
PSD_SLACK = 1e-10       # a PSD argument's least eigenvalue may dip this far


class BlockOp:
    """The operator (+)_k B_k (x) I_{m_k} on H = (C^2)^(x)qubits.

    ``blocks`` act on the irreducible blocks C^{s_k} of H, of size s_k and
    multiplicity m_k (``schur_weyl_power``).  ``qubits=None`` marks a dense
    matrix, held as its single block.  The dense form is taken in the
    computational basis through the qubit Schur transform, which is real,
    so transposition acts block by block.
    """
    __slots__ = ("blocks", "mults", "qubits")
    __array_ufunc__ = None      # ndarray (op) BlockOp defers to BlockOp

    def __init__(self, blocks, mults, qubits=None):
        self.blocks = tuple(blocks)
        self.mults = tuple(mults)
        self.qubits = qubits

    @staticmethod
    def of(*hs):
        """Coerce operators to ``BlockOp`` in one common layout: a dense
        matrix is the single block with multiplicity 1; operators on
        different spaces (``qubits``, which fixes the block layout) are all
        taken dense.  One argument gives one ``BlockOp``, several a tuple."""
        ops = [h if isinstance(h, BlockOp)
               else BlockOp((np.asarray(h, dtype=complex),), (1,)) for h in hs]
        if len(ops) == 1:
            return ops[0]
        if any(o.qubits != ops[0].qubits for o in ops[1:]):
            ops = [BlockOp((np.asarray(o.dense(), dtype=complex),), (1,)) for o in ops]
        return tuple(ops)

    @property
    def dim(self) -> int:
        return sum(m * len(b) for b, m in zip(self.blocks, self.mults))

    @property
    def shape(self) -> tuple[int, int]:
        d = self.dim
        return d, d

    def like(self, blocks):
        """New blocks in this layout; a dense operator comes back dense."""
        if self.qubits is None:
            return blocks[0]
        return BlockOp(blocks, self.mults, self.qubits)

    def dense(self) -> Array:
        if self.qubits is None:
            return self.blocks[0]
        out = 0.0
        for b, cols in zip(self.blocks, _schur_transform(self.qubits)):
            d, _, m = cols.shape
            lhs = np.matmul(cols.transpose(0, 2, 1), b)   # (d, m, s)
            out = out + lhs.reshape(d, -1) @ cols.transpose(0, 2, 1).reshape(d, -1).T
        return out

    def __array__(self, dtype=None, copy=None):
        a = self.dense()
        return a if dtype is None else a.astype(dtype, copy=False)

    def _binary(self, other, fn):
        if np.isscalar(other):
            return self.like([fn(b, other) for b in self.blocks])
        a, b = BlockOp.of(self, other)      # mixed layouts come back dense
        return a.like([fn(x, y) for x, y in zip(a.blocks, b.blocks)])

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, lambda x, y: y + x)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda x, y: y - x)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self.like([b * c for b in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self.like([b / c for b in self.blocks])

    def __neg__(self):
        return self.like([-b for b in self.blocks])


def _wsum(mults, values) -> float:
    """Multiplicity-weighted sum of per-block scalars."""
    return float(sum(m * v for m, v in zip(mults, values)))


def trace(h) -> float:
    """Real part of the trace."""
    op = BlockOp.of(h)
    return _wsum(op.mults, (np.trace(b).real for b in op.blocks))


def inner(a, b) -> float:
    """Re Tr(a^dag b)."""
    a, b = BlockOp.of(a, b)
    return _wsum(a.mults, (np.vdot(x, y).real for x, y in zip(a.blocks, b.blocks)))


def frobenius(h) -> float:
    """Frobenius norm, sqrt(sum_k m_k ||B_k||_F^2): the Schur transform is
    orthogonal, so block and dense forms give the same norm."""
    op = BlockOp.of(h)
    return math.sqrt(_wsum(op.mults, (np.vdot(b, b).real for b in op.blocks)))


def identity_like(h):
    op = BlockOp.of(h)
    return op.like([np.eye(len(b)) for b in op.blocks])


def transpose(h):
    op = BlockOp.of(h)
    return op.like([b.T for b in op.blocks])


def hermitian(a):
    """Validate and symmetrize each block to (A + A^dag)/2.

    A non-finite entry, or asymmetry beyond ``TOLS.asymmetry`` relative to
    the largest entry, is a hard error: it catches transposed or corrupted
    user data rather than silently averaging it away.
    """
    op = BlockOp.of(a)
    out, scale, asym = [], 1.0, 0.0
    for b in op.blocks:
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {b.shape}")
        top = float(np.abs(b).max(initial=0.0))
        if not math.isfinite(top):
            raise ValueError("matrix has a non-finite entry")
        bh = b.conj().T
        scale = max(scale, top)
        asym = max(asym, float(np.abs(b - bh).max(initial=0.0)))
        out.append((b + bh) / 2)
    if asym > TOLS.asymmetry * scale:
        raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {asym:.3e}")
    return op.like(out)


class Spectrum(NamedTuple):
    """A validated operator and, per block, its ascending eigenvalues with
    their eigenvectors (``None`` from ``spectrum(h, vectors=False)``)."""
    op: BlockOp
    eigs: list

    def least(self, slack: float, error=NotPsdError, what: str = "operator") -> float:
        """min(0, least eigenvalue); ``error`` when it is below -``slack``."""
        wmin = min(float(w.min(initial=0.0)) for w, _ in self.eigs)
        if wmin < -slack:
            raise error(f"{what} has eigenvalue {wmin:.3e} below -{slack:.1e}")
        return wmin

    def cut(self) -> float:
        """Eigenvalues at or below this are zero: lambda_max * d * eps_mach
        over every block, with d the full dimension."""
        top = max((float(np.abs(w).max(initial=0.0)) for w, _ in self.eigs), default=0.0)
        return top * self.op.dim * _EPS

    def apply(self, fn):
        """fn(w) on each block's eigenvectors, symmetrized (not re-validated),
        in the kind of the operator."""
        out = []
        for w, v in self.eigs:
            x = (v * fn(w)) @ v.conj().T
            out.append((x + x.conj().T) / 2)
        return self.op.like(out)


def spectrum(h, vectors: bool = True) -> Spectrum:
    """Validate h (``hermitian``) and decompose each block: ``eigh``, or
    ``eigvalsh`` alone when ``vectors`` is false."""
    op = BlockOp.of(hermitian(h))
    if vectors:
        return Spectrum(op, [np.linalg.eigh(b) for b in op.blocks])
    return Spectrum(op, [(np.linalg.eigvalsh(b), None) for b in op.blocks])


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    s = spectrum(h, vectors=False)
    return _wsum(s.op.mults, (np.abs(w).sum() for w, _ in s.eigs))


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b; both are validated before subtracting."""
    return 0.5 * trace_norm(BlockOp.of(hermitian(a)) - hermitian(b))


def positive_part(h):
    return spectrum(h).apply(lambda w: np.maximum(w, 0.0))


def negative_part(h):
    """Negative part, so that h = positive_part(h) - negative_part(h)."""
    return spectrum(h).apply(lambda w: np.maximum(-w, 0.0))


def support_projector(h):
    s = spectrum(h)
    cut = s.cut()
    return s.apply(lambda w: (np.abs(w) > cut).astype(float))


def pseudo_inverse_sqrt(h):
    """h^(-1/2) on the support of a PSD operator, zero on the kernel."""
    s = spectrum(h)
    s.least(PSD_SLACK)
    cut = s.cut()

    def inv_sqrt(w):
        out = np.zeros_like(w)
        pos = w > cut
        out[pos] = w[pos] ** -0.5
        return out

    return s.apply(inv_sqrt)


def tensor(a, b) -> Array:
    """Dense Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def tensor_power(a: Array, n: int) -> Array:
    """Dense n-fold Kronecker power."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    out = np.asarray(a, dtype=complex)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def ptrace(m, dims: tuple[int, int], axis: int) -> Array:
    """Partial trace of a dense operator on a bipartite space.

    ``axis=0`` traces out the first tensor factor, ``axis=1`` the second.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    d1, d2 = dims
    spec = "iaib->ab" if axis == 0 else "aibi->ab"
    return np.einsum(spec, np.asarray(m, dtype=complex).reshape(d1, d2, d1, d2))


# --- Schur-Weyl block form of qubit tensor powers -------------------------------

def _sym_power(a: Array, m: int) -> Array:
    """Sym^m(a) on the symmetric subspace of (C^2)^(x)m in the Dicke basis
    (j = number of 1s): column j holds the coefficients of the normalised
    monomial x^(m-j) y^j after x -> a00 x + a10 y, y -> a01 x + a11 y."""
    binom = np.array([math.comb(m, j) for j in range(m + 1)], dtype=float)
    out = np.empty((m + 1, m + 1), dtype=complex)
    for j in range(m + 1):
        poly = np.ones(1, dtype=complex)
        for _ in range(m - j):
            poly = np.convolve(poly, a[:, 0])
        for _ in range(j):
            poly = np.convolve(poly, a[:, 1])
        out[:, j] = poly * np.sqrt(binom[j] / binom)
    return out


def schur_weyl_power(a, n: int) -> BlockOp:
    """a^(x)n for a 2 x 2 matrix, in block form: block k = 0..n//2 is
    det(a)^k Sym^(n-2k)(a), of size n - 2k + 1 and multiplicity
    C(n, k) - C(n, k-1)."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"Schur-Weyl form needs a qubit operator, got {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    ks = range(n // 2 + 1)
    return BlockOp([det ** k * _sym_power(a, n - 2 * k) for k in ks],
                   [math.comb(n, k) - (math.comb(n, k - 1) if k else 0) for k in ks],
                   n)


@functools.lru_cache(maxsize=None)
def _schur_transform(n: int) -> tuple[Array, ...]:
    """Columns of the real orthogonal qubit Schur transform, one (2^n, s_k,
    m_k) array per block: copy j of block k spans S_-^i v_kj, normalised,
    where the v_kj are an orthonormal basis of the kernel of the total
    raising operator S_+ = S_-^T on the weight space with k ones."""
    dim = 2 ** n
    x = np.arange(dim)
    ones = np.array([bin(y).count("1") for y in x])
    lower = np.zeros((dim, dim))               # S_- : x -> x with a 0 set
    for q in range(n):
        zero = x[(x >> q & 1) == 0]
        lower[zero | 1 << q, zero] = 1.0
    out = []
    for k in range(n // 2 + 1):
        weight, below = np.flatnonzero(ones == k), np.flatnonzero(ones == k - 1)
        raise_k = lower[np.ix_(weight, below)].T
        kernel = np.linalg.svd(raise_k)[2][len(below):].T if len(below) else np.eye(1)
        top = np.zeros((dim, kernel.shape[1]))
        top[weight] = kernel
        cols = [top]
        for _ in range(n - 2 * k):
            nxt = lower @ cols[-1]
            cols.append(nxt / np.linalg.norm(nxt, axis=0))
        out.append(np.stack(cols, axis=1))
        out[-1].flags.writeable = False     # cached: shared by every caller
    return tuple(out)
