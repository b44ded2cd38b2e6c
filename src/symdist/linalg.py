"""Hermitian linear algebra on dense or block-diagonal operators.

An operator is either a dense matrix or a block-diagonal :class:`BlockOp`,
such as the Schur-Weyl quotient of a qubit tensor power
(``schur_weyl_power``): the pinch-and-trace map E, X -> (+)_k
Tr_mult(P_k X P_k), keeps one copy of each irreducible block, and R,
Y -> (+)_k Y_k (x) I_{m_k}/m_k, undoes it.  ``BlockOp.of`` holds a dense
matrix as its single block, so every function here is one plain sum over
blocks, with results in the kind of its argument; operators in different
layouts do not mix.  Data are stored real where every imaginary part is
exactly zero (``matrix``), so real blocks are decomposed and multiplied
real.  The dense form of a block operator is its
block-diagonal matrix (``np.asarray``).  Bipartite operators (``tensor``,
``ptrace``) are dense: channels on quotient spaces are held as effects and
states (``channels.MeasurePrepare``).

Every spectral function reads its argument through :func:`spectrum`, which
validates it once (:func:`hermitian`); matrices rebuilt from that spectrum
are only symmetrized.  Spectral functions follow the support convention
0**0 = 0, i.e. they act on the support only, matching the pseudo-inverse
convention used by the pretty good measurement.  An eigenvalue counts as
zero at or below ``Spectrum.cut`` = lambda_max * d * eps_mach, the default
rank rule of ``numpy.linalg.matrix_rank``, with d the size of the held
operator; a PSD argument may dip to -``PSD_SLACK``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import TOLS
from .exceptions import DimensionMismatchError, NotPsdError

Array = np.ndarray
_EPS = float(np.finfo(float).eps)
PSD_SLACK = 1e-10       # a PSD argument's least eigenvalue may dip this far


def matrix(a) -> Array:
    """a as an array, float when every imaginary part is exactly zero and
    complex otherwise."""
    a = np.asarray(a)
    if np.iscomplexobj(a) and a.imag.any():
        return a.astype(complex, copy=False)
    return np.asarray(a.real, dtype=float)


class BlockOp:
    """The block-diagonal operator (+)_k B_k: the Schur-Weyl quotient of
    (C^2)^(x)``qubits`` (``schur_weyl_power``), or with ``qubits=None`` a
    dense matrix, held as its single block."""
    __slots__ = ("blocks", "qubits")
    __array_ufunc__ = None      # ndarray (op) BlockOp defers to BlockOp

    def __init__(self, blocks, qubits=None):
        self.blocks = tuple(blocks)
        self.qubits = qubits

    @staticmethod
    def of(*hs):
        """Coerce operators to ``BlockOp``: a dense matrix is its single
        block.  One argument gives one ``BlockOp``, several a tuple, which
        must share one layout (``qubits``) or ``DimensionMismatchError``."""
        ops = [h if isinstance(h, BlockOp) else BlockOp((matrix(h),)) for h in hs]
        if len(ops) == 1:
            return ops[0]
        if any(o.qubits != ops[0].qubits for o in ops[1:]):
            raise DimensionMismatchError(
                f"operators in different layouts (qubits {[o.qubits for o in ops]})")
        return tuple(ops)

    @property
    def shape(self) -> tuple[int, int]:
        d = sum(len(b) for b in self.blocks)
        return d, d

    def like(self, blocks):
        """New blocks in this layout; a dense operator comes back dense."""
        if self.qubits is None:
            return blocks[0]
        return BlockOp(blocks, self.qubits)

    def dense(self) -> Array:
        """The block-diagonal matrix."""
        if self.qubits is None:
            return self.blocks[0]
        out = np.zeros(self.shape, dtype=np.result_type(*self.blocks))
        at = 0
        for b in self.blocks:
            out[at:at + len(b), at:at + len(b)] = b
            at += len(b)
        return out

    def __array__(self, dtype=None, copy=None):
        a = self.dense()
        return a if dtype is None else a.astype(dtype, copy=False)

    def _binary(self, other, fn):
        if np.isscalar(other):
            return self.like([fn(b, other) for b in self.blocks])
        a, b = BlockOp.of(self, other)
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


def trace(h) -> float:
    """Real part of the trace."""
    op = BlockOp.of(h)
    return float(sum(np.trace(b).real for b in op.blocks))


def inner(a, b) -> float:
    """Re Tr(a^dag b)."""
    a, b = BlockOp.of(a, b)
    return float(sum(np.vdot(x, y).real for x, y in zip(a.blocks, b.blocks)))


def frobenius(h) -> float:
    """Frobenius norm of the held operator, sqrt(sum_k ||B_k||_F^2)."""
    op = BlockOp.of(h)
    return math.sqrt(sum(np.vdot(b, b).real for b in op.blocks))


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
    return op.like(_hermitian_blocks(op))


def _hermitian_blocks(op: BlockOp) -> list:
    """``hermitian`` block by block; each block keeps its dtype."""
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
    return out


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
        over every block, with d the size of the held operator."""
        top = max((float(np.abs(w).max(initial=0.0)) for w, _ in self.eigs), default=0.0)
        return top * self.op.shape[0] * _EPS

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
    ``eigvalsh`` alone when ``vectors`` is false.  Each block keeps its
    dtype, so real blocks are decomposed real."""
    op = BlockOp.of(h)
    op = BlockOp(_hermitian_blocks(op), op.qubits)
    if vectors:
        return Spectrum(op, [np.linalg.eigh(b) for b in op.blocks])
    return Spectrum(op, [(np.linalg.eigvalsh(b), None) for b in op.blocks])


def trace_norm(h) -> float:
    """Sum of absolute eigenvalues of a Hermitian operator."""
    s = spectrum(h, vectors=False)
    return float(sum(np.abs(w).sum() for w, _ in s.eigs))


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b; both are validated before subtracting."""
    return 0.5 * trace_norm(BlockOp.of(hermitian(a)) - hermitian(b))


def positive_part(h):
    return spectrum(h).apply(lambda w: np.maximum(w, 0.0))


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
    """Dense Kronecker product, real when both factors are (``matrix``)."""
    return np.kron(matrix(a), matrix(b))


def tensor_power(a: Array, n: int) -> Array:
    """Dense n-fold Kronecker power, real when a is (``matrix``)."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    a = out = matrix(a)
    for _ in range(n - 1):
        out = np.kron(out, a)
    return out


def ptrace(m, dims: tuple[int, int]) -> Array:
    """Partial trace over the second factor of a dense operator on a
    bipartite space of dimensions ``dims``."""
    d1, d2 = dims
    return np.einsum("aibi->ab", np.asarray(m).reshape(d1, d2, d1, d2))


# --- Schur-Weyl quotient of qubit tensor powers -------------------------------

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
    """The Schur-Weyl quotient of a^(x)n for a 2 x 2 matrix: block
    k = 0..n//2 is pi_k(a) = det(a)^k Sym^(n-2k)(a), of size n - 2k + 1,
    and a^(x)n acts as pi_k(a) on each of the C(n, k) - C(n, k-1) copies
    of block k.  Unweighted, this is the form of an effect, a projector or
    a unitary; a state's quotient weights block k by that multiplicity
    (``boxes.tensor_box``)."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError(f"Schur-Weyl form needs a qubit operator, got {a.shape}")
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return BlockOp([matrix(det ** k * _sym_power(a, n - 2 * k)) for k in range(n // 2 + 1)], n)
