import math
from collections import Counter

import numpy as np
import pytest

from symdist import linalg, model, sdp
from symdist.boxes import QuantumBox, random_box, random_density
from symdist.channels import gad_channel


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_solver(monkeypatch):
    """Make every SDP solve raise, so a test proves its path is solver-free."""
    def refuse(*args, **kwargs):
        raise AssertionError("sdp.solve called on a solver-free path")
    monkeypatch.setattr(sdp, "solve", refuse)


@pytest.fixture
def no_dense(monkeypatch):
    """Make building the dense form of a block operator raise, so a test
    proves its path stays in block form."""
    dense = linalg.BlockOp.dense

    def refuse(self):
        if self.qubits is not None:
            raise AssertionError("dense form of a block operator built")
        return dense(self)
    monkeypatch.setattr(linalg.BlockOp, "dense", refuse)


@pytest.fixture
def no_embedding(monkeypatch):
    """Make the real embedding of complex program data raise, so a test
    proves its programs compile real."""
    def refuse(h):
        raise AssertionError("complex program data embedded")
    monkeypatch.setattr(model, "_embed", refuse)


class Decompositions(Counter):
    """``np.linalg.eigh``/``eigvalsh`` calls by (name, size)."""

    @property
    def largest(self) -> int:
        """Size of the largest operand decomposed."""
        return max((size for _, size in self), default=0)


@pytest.fixture
def decompositions(monkeypatch):
    """Count ``np.linalg.eigh``/``eigvalsh`` calls by (name, size), so a test
    can pin how often a closed form decomposes an operator."""
    counts = Decompositions()

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            counts[name, np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return counts


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record ``np.linalg`` cholesky/inv/eigh/eigvalsh/solve calls as
    (name, size) in call order, so a test can pin how often the solver
    factors and solves per iteration."""
    calls = []

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)[-1]))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("cholesky", "inv", "eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def dense_box(b: QuantumBox) -> QuantumBox:
    """The same box on the full register, with dense states: a qubit tensor
    power (``qubit_power``) gives the Kronecker powers of its one-copy
    states, any other box its states as matrices."""
    if b.qubit_power is None:
        return QuantumBox(b.p, np.asarray(b.rho0), np.asarray(b.rho1))
    a0, a1, n = b.qubit_power
    return QuantumBox(b.p, linalg.tensor_power(a0, n), linalg.tensor_power(a1, n))


def random_hermitian(d, rng, real=False):
    g = rng.normal(size=(d, d))
    if not real:
        g = g + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def cq_operator(b: QuantumBox) -> np.ndarray:
    """Dense embedding p|0><0| (x) rho0 + (1-p)|1><1| (x) rho1."""
    w0, w1 = b.weighted()
    d = w0.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = np.asarray(w0)
    out[d:, d:] = np.asarray(w1)
    return out


def box_distance(a: QuantumBox, b: QuantumBox) -> float:
    """Trace distance between the c-q embeddings."""
    return 0.5 * linalg.trace_norm(cq_operator(a) - cq_operator(b))


def dilution_reproducer() -> QuantumBox:
    """The second draw of random_box(2, default_rng(1)) after one real draw
    (p ~ 0.0748, complex states): at the exact cost its phase-I solve sits
    on the feasibility boundary."""
    rng = np.random.default_rng(1)
    random_box(2, rng, real=True)
    return random_box(2, rng)


def figure4_boxes(phi: float) -> tuple[QuantumBox, QuantumBox]:
    """Figure-4 conversion pair: the damped source and the target whose
    second branch is rotated by exp(i phi sigma_x)."""
    a1, a2 = gad_channel(0.5, 0.3), gad_channel(0.25, 0.1)
    k0, k1 = np.diag([1.0, 0]), np.diag([0, 1.0])
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = math.cos(phi) * np.eye(2) + 1j * math.sin(phi) * sx
    source = QuantumBox(1 / 3, a1(k0), a1(k1))
    target = QuantumBox(1 / 4, a2(k0), u @ a2(k1) @ u.conj().T)
    return source, target


__all__ = ["random_hermitian", "random_density", "random_box", "box_distance",
           "dense_box", "dilution_reproducer", "figure4_boxes"]
