"""Small modeling layer over the interior-point solver.

Programs are written with PSD and nonnegative scalar variables and affine
matrix expressions; ``le``/``ge`` constraints get slack blocks, so a
program in the inequality standard form  max <A, X> : Phi(X) <= B, X >= 0
compiles directly to the solver's equality form.  Matrix equalities are
expanded over an orthonormal Hermitian basis of the constraint space.

Every datum enters through ``linalg.matrix``, which stores it real when
every imaginary part is exactly zero and complex otherwise; that is the
one realness rule from box to solver.  A program is complex exactly when
some coefficient or constant is.  Real programs compile, in real
arithmetic throughout, to real symmetric blocks.  Complex programs compile
through the real symmetric embedding H -> [[Re H, -Im H], [Im H, Re H]] / 2,
which doubles every block and halves the data so optimal values match;
:meth:`Model.solve` maps the primal blocks back.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg, sdp
from .exceptions import SolverError

Array = np.ndarray


@functools.lru_cache(maxsize=32)
def hermitian_basis(d: int, include_imag: bool = True) -> Array:
    """Orthonormal basis of d x d Hermitian matrices, deterministic order,
    as a read-only stack cached per (d, include_imag).

    With ``include_imag=False`` only the real symmetric part is returned,
    as a float stack; real-data programs stay real that way (their optimum
    is attained on real symmetric matrices, and imaginary-part rows would
    be identically zero for the real solver).
    """
    mats = []
    for i in range(d):
        m = np.zeros((d, d))
        m[i, i] = 1.0
        mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d))
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            mats.append(m)
            if include_imag:
                m = np.zeros((d, d), dtype=complex)
                m[i, j] = -1j / np.sqrt(2)
                m[j, i] = 1j / np.sqrt(2)
                mats.append(m)
    out = np.stack(mats)
    out.flags.writeable = False
    return out


def _embed(h: Array) -> Array:
    """Real symmetric embedding of a stack (..., d, d) of Hermitians."""
    re, im = 0.5 * h.real, 0.5 * h.imag
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2)


def _unembed(x: Array, d: int) -> Array:
    """The Hermitian d x d block whose embedding is nearest to x (2d x 2d)."""
    a, b, c, ct = x[:d, :d], x[d:, d:], x[d:, :d], x[:d, d:]
    out = (a + b) / 2 + 1j * (c - ct) / 2
    return (out + out.conj().T) / 2


# --- expressions ------------------------------------------------------------
#
# A linear term is ``(variable name, coefficient, adjoint, payload)``: it maps
# the variable X to ``coefficient * L(X)``.  ``adjoint`` applies L* to a stack
# (r, out_dim, out_dim) of Hermitians; ``payload`` is the data matrix of L
# (None for a data-free map), whose kind counts towards the program's.

Term = tuple[str, float, Callable[[Array], Array], Array | None]


def _identity(e: Array) -> Array:
    return e


@dataclass
class Expr:
    dim: int
    terms: list[Term]
    const: Array | None = None

    def _const(self) -> Array:
        if self.const is None:
            return np.zeros((self.dim, self.dim))
        return self.const

    @staticmethod
    def wrap(x, dim=None) -> "Expr":
        if isinstance(x, Expr):
            return x
        if np.isscalar(x):
            d = dim or 1
            return Expr(d, [], linalg.matrix(x * np.eye(d)))
        arr = linalg.matrix(x)
        return Expr(arr.shape[0], [], arr)

    def __add__(self, other):
        o = Expr.wrap(other, self.dim)
        if o.dim != self.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {o.dim}")
        return Expr(self.dim, self.terms + o.terms, self._const() + o._const())

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Expr.wrap(other, self.dim))

    def __rsub__(self, other):
        return (-self) + Expr.wrap(other, self.dim)

    def __neg__(self):
        return self * (-1.0)

    def __mul__(self, a):
        a = float(a)
        terms = [(n, a * c, adj, h) for n, c, adj, h in self.terms]
        return Expr(self.dim, terms, a * self._const())

    __rmul__ = __mul__


class Var(Expr):
    """A model variable; as an expression it is the identity map on itself."""

    def __init__(self, name: str, dim: int):
        super().__init__(dim, [(name, 1.0, _identity, None)])
        self.name = name


def inner(h, var: Var) -> Expr:
    """X -> [[<H, X>]] (scalar-valued)."""
    h = linalg.matrix(h)

    def adjoint(e):
        return np.einsum("r,ij->rij", e[:, 0, 0], h)

    return Expr(1, [(var.name, 1.0, adjoint, h)])


def trace(var: Var) -> Expr:
    return inner(np.eye(var.dim), var)


def times(var: Var, h) -> Expr:
    """Scalar variable times a fixed matrix: t -> t * H."""
    h = linalg.matrix(h)

    def adjoint(e):
        return np.einsum("ij,rij->r", h.conj(), e).reshape(-1, 1, 1)

    return Expr(h.shape[0], [(var.name, 1.0, adjoint, h)])


def channel_output(k, choi_var: Var, dims: tuple[int, int]) -> Expr:
    """Tr_in[(K^T (x) I) Omega] for a Choi-matrix variable on in (x) out."""
    k = linalg.matrix(k)
    d1, d2 = dims

    def adjoint(e):
        out = np.einsum("rab,ki->rkaib", e, k.conj())
        return out.reshape(-1, d1 * d2, d1 * d2)

    return Expr(d2, [(choi_var.name, 1.0, adjoint, k)])


def ptrace_out(choi_var: Var, dims: tuple[int, int]) -> Expr:
    """Trace out the output factor (axis 1) of a Choi-matrix variable."""
    d1, d2 = dims

    def adjoint(e):  # E -> E (x) I
        out = np.einsum("rab,ij->raibj", e, np.eye(d2))
        return out.reshape(-1, d1 * d2, d1 * d2)

    return Expr(d1, [(choi_var.name, 1.0, adjoint, None)])


# --- model ------------------------------------------------------------------

class Model:
    def __init__(self):
        self._psd: list[Var] = []
        self._cons: list[tuple[Expr, Array]] = []  # expr == const, const Hermitian
        self._obj: Expr | None = None
        self._sense = 1.0  # +1 minimize, -1 maximize
        self._slack_count = 0

    # variables ---------------------------------------------------------
    def psd_var(self, name: str, dim: int) -> Var:
        v = Var(name, dim)
        self._psd.append(v)
        return v

    def scalar(self, name: str) -> Var:
        """Nonnegative scalar (a 1 x 1 PSD block)."""
        return self.psd_var(name, 1)

    # constraints ---------------------------------------------------------
    def eq(self, a, b):
        ea = Expr.wrap(a)
        eb = Expr.wrap(b, ea.dim)
        diff = ea - eb
        self._cons.append((Expr(diff.dim, diff.terms), -diff._const()))

    def le(self, a, b):
        """a <= b via a slack PSD block: b - a - z = 0."""
        ea = Expr.wrap(a)
        eb = Expr.wrap(b, ea.dim)
        z = self.psd_var(f"_slack{self._slack_count}", ea.dim)
        self._slack_count += 1
        self.eq(eb - ea - z, np.zeros((ea.dim, ea.dim)))
        return z

    def ge(self, a, b):
        return self.le(b, a)

    def minimize(self, e):
        self._obj = Expr.wrap(e)
        self._sense = 1.0

    def maximize(self, e):
        self._obj = Expr.wrap(e)
        self._sense = -1.0

    # compile and solve -----------------------------------------------------
    def compile(self) -> tuple[sdp.SdpProblem, float]:
        """The program in the solver's equality form, a row for every basis
        direction of every constraint, each row and the objective naming only
        the blocks their terms touch; and the constant of its objective."""
        if self._obj is None:
            raise SolverError("objective not set")
        pairs = [*self._cons, (self._obj, self._obj._const())]
        self._with_imag = any(np.iscomplexobj(h) for e, c in pairs
                              for h in [c, *(payload for *_, payload in e.terms)])
        to_real = _embed if self._with_imag else np.real
        psd_index = {v.name: i for i, v in enumerate(self._psd)}

        def rows(expr: Expr, e_stack: Array) -> dict[int, Array]:
            """Coefficients of <E_r, expr> for each E_r in e_stack: one real
            stack per PSD block that the terms of expr touch."""
            psd: dict[int, Array] = {}
            for name, c, adjoint, _ in expr.terms:
                coef = c * adjoint(e_stack)
                coef = (coef + np.conj(np.transpose(coef, (0, 2, 1)))) / 2
                j = psd_index[name]
                psd[j] = psd[j] + coef if j in psd else coef
            return {j: to_real(a) for j, a in psd.items()}

        constraints: list[tuple[dict[int, Array], float]] = []
        for expr, const in self._cons:
            e_stack = hermitian_basis(expr.dim, self._with_imag)
            psd = rows(expr, e_stack)
            bvals = np.real(np.einsum("rij,ij->r", e_stack.conj(), const))
            constraints += [({j: a[i] for j, a in psd.items()}, float(b))
                            for i, b in enumerate(bvals)]

        psd = rows(self._obj, hermitian_basis(1))
        problem = sdp.SdpProblem([v.dim * (2 if self._with_imag else 1) for v in self._psd],
                                 {j: self._sense * a[0] for j, a in psd.items()}, constraints)
        return problem, float(np.real(self._obj._const()[0, 0]))

    def solve(self) -> sdp.SdpSolution:
        """Compile the program and hand it to ``sdp.solve`` with the default
        options.  Returns the solver's record with ``value`` in this model's
        sense, its objective constant added, and ``primal`` filled: the
        blocks by variable name, Hermitian for a complex program.
        ``x_blocks`` and ``y`` stay in compiled space, embedded for a
        complex program."""
        problem, obj_const = self.compile()
        sol = sdp.solve(problem)
        sol.value = self._sense * sol.value + obj_const
        if np.all(np.isfinite(sol.y)):
            sol.primal = {v.name: _unembed(x, v.dim) if self._with_imag else x
                          for x, v in zip(sol.x_blocks, self._psd)}
        return sol


def require_optimal(res: sdp.SdpSolution, what: str) -> sdp.SdpSolution:
    if res.status is not sdp.SdpStatus.OPTIMAL:
        raise SolverError(f"{what}: solver returned {res.status.value} "
                          f"(gap={res.gap:.2e}, iters={res.iterations})")
    return res
