import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist import linalg
from symdist.exceptions import NotPsdError
from symdist.model import Model, trace

from conftest import random_hermitian
from oracles import negative_part

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _eigh(h):
    """Eigenvalues and eigenvectors of a dense operator's single block."""
    (w, v), = linalg.spectrum(h).eigs
    return w, v


def test_eig_diagonal():
    w, v = _eigh(np.diag([1.0, 2.0]))
    assert np.allclose(w, [1, 2])
    assert np.allclose(np.abs(v), np.eye(2))


def test_eig_identity():
    w, _ = _eigh(np.eye(2))
    assert np.allclose(w, [1, 1])


def test_eig_rank_one_projector():
    w, _ = _eigh(0.5 * (np.eye(2) + SX))
    assert np.allclose(w, [0, 1], atol=1e-12)


@given(st.integers(0, 10**6), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_eig_reconstruction(seed, d):
    h = random_hermitian(d, np.random.default_rng(seed))
    w, v = _eigh(h)
    err = np.linalg.norm((v * w) @ v.conj().T - h)
    assert err <= 1e-9 * max(1.0, np.linalg.norm(h))


def matrix_power(h, s: float):
    """h**s for PSD h and s in [0, 1], with the support convention 0**0 = 0:
    a spectral function of a PSD argument, the way the library builds them."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {s}")

    def power(w):
        out = np.zeros_like(w)
        pos = w > 0
        out[pos] = w[pos] ** s
        return out

    spec = linalg.spectrum(h)
    spec.least(linalg.PSD_SLACK)
    return spec.apply(power)


def test_matrix_power_examples():
    assert np.allclose(matrix_power(np.diag([4.0, 0.0]), 0.5),
                       np.diag([2.0, 0.0]))
    h = np.diag([0.3, 0.7])
    assert np.allclose(matrix_power(h, 1.0), h)
    # s = 0 restricts to the support
    assert np.allclose(matrix_power(np.diag([0.5, 0.5]), 0.0), np.eye(2))
    assert np.allclose(matrix_power(np.diag([0.5, 0.0]), 0.0),
                       np.diag([1.0, 0.0]))


def test_matrix_power_rejects_negative():
    with pytest.raises(NotPsdError):
        matrix_power(np.diag([1.0, -0.5]), 0.5)


def test_psd_arguments_may_dip_to_1e10():
    """matrix_power and pseudo_inverse_sqrt reject an eigenvalue below
    -1e-10 and clamp one above it to zero."""
    for f in (lambda h: matrix_power(h, 0.5), linalg.pseudo_inverse_sqrt):
        with pytest.raises(NotPsdError):
            f(np.diag([1.0, -5e-10]))
        assert np.allclose(f(np.diag([1.0, -5e-11])), np.diag([1.0, 0.0]))


def test_frobenius_is_the_same_in_block_and_dense_form():
    op = linalg.schur_weyl_power(random_hermitian(2, np.random.default_rng(3)), 5)
    assert linalg.frobenius(op) == pytest.approx(
        np.linalg.norm(np.asarray(op)), rel=1e-12)


def test_trace_norm_examples():
    assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    assert linalg.trace_norm(np.zeros((3, 3))) == 0.0
    assert linalg.trace_norm(np.diag([1 / 3, -2 / 3])) == pytest.approx(1.0)


def test_parts_and_pinv_examples():
    assert np.allclose(linalg.positive_part(np.diag([2.0, -3.0])),
                       np.diag([2.0, 0.0]))
    assert np.allclose(negative_part(np.diag([2.0, -3.0])),
                       np.diag([0.0, 3.0]))
    assert np.allclose(linalg.pseudo_inverse_sqrt(np.diag([4.0, 0.0])),
                       np.diag([0.5, 0.0]))


def test_tensor_power_kron_oracle():
    a, b = 0.3, 0.7
    expected = np.kron(np.diag([a, b]), np.diag([a, b]))
    assert np.allclose(linalg.tensor_power(np.diag([a, b]), 2), expected)
    assert np.allclose(np.diag(expected), [a * a, a * b, a * b, b * b])


def test_hermitian_rejects_asymmetry():
    with pytest.raises(ValueError):
        linalg.hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        linalg.hermitian(np.ones((2, 3)))


VALIDATING = {
    "hermitian": linalg.hermitian,
    "spectrum": linalg.spectrum,
    "eigenvalues": lambda h: linalg.spectrum(h, vectors=False),
    "matrix_power": lambda h: matrix_power(h, 0.5),
    "trace_norm": linalg.trace_norm,
    "trace_distance": lambda h: linalg.trace_distance(h, 0.0 * linalg.identity_like(h)),
    # the same non-finite entry in both operands: nothing to subtract first
    "trace_distance_same": lambda h: linalg.trace_distance(h, h),
    "positive_part": linalg.positive_part,
    "negative_part": negative_part,
    "support_projector": linalg.support_projector,
    "pseudo_inverse_sqrt": linalg.pseudo_inverse_sqrt,
}


@pytest.mark.parametrize("name", VALIDATING)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectral_functions_reject_non_finite_entries(name, bad):
    """A non-finite entry compares false against every bound, so it would
    pass validation (trace_norm of diag(nan, 1) was 0.0); it is rejected
    before any arithmetic that warns."""
    for h in (np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[1.0, bad], [0.0, 1.0]]),
              linalg.BlockOp([np.diag([0.5, bad, 0.5]), np.eye(1)], 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                VALIDATING[name](h)


# Every function that may decompose an operator itself; everything else
# reads its spectrum through linalg.spectrum, which validates it once.
EIGEN_SITES = {
    "linalg.spectrum",
    "divergences.q_min", "divergences.q_min_eps.neg_r", "divergences._d_max",
    "sdp._nt_scaling", "sdp._max_step",
}


def test_eigendecompositions_only_at_listed_sites():
    """A new call of np.linalg.eigh/eigvalsh must be added here on purpose."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, (ast.Attribute, ast.Name)):
                if getattr(child, "attr", getattr(child, "id", None)) in ("eigh", "eigvalsh"):
                    sites.add(scope)
            visit(child, inner)

    for path in Path(linalg.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    assert sites == EIGEN_SITES


def test_no_global_statements():
    """Module state is not rebound at run time: no ``global`` in the package."""
    found = [f"{path.name}:{node.lineno}"
             for path in Path(linalg.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []


def test_no_module_but_model_reads_model_state():
    """No module but ``model.py`` reads a private attribute of a ``Model``:
    the attributes are those a compiled model holds, so the set follows
    the class."""
    m = Model()
    m.minimize(trace(m.psd_var("x", 2)))
    m.compile()
    private = {a for a in vars(m) if a.startswith("_")}
    assert {"_psd", "_cons", "_with_imag"} <= private
    found = [f"{path.name}:{node.lineno} {node.attr}"
             for path in Path(linalg.__file__).parent.glob("*.py")
             if path.name != "model.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in private]
    assert found == []


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_positive_negative_decomposition(seed, d):
    h = random_hermitian(d, np.random.default_rng(seed))
    pos, neg = linalg.positive_part(h), negative_part(h)
    assert np.linalg.norm(pos - neg - h) <= 1e-9
    assert abs(linalg.trace_norm(h)
               - np.trace(pos).real - np.trace(neg).real) <= 1e-9


@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_power_split_traces(seed, s):
    rng = np.random.default_rng(seed)
    h = random_hermitian(3, rng)
    h = linalg.positive_part(h)  # PSD with a generic kernel now and then
    lhs = np.trace(matrix_power(h, s) @ matrix_power(h, 1 - s)).real
    rhs = np.trace(h @ linalg.support_projector(h)).real
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


@given(st.integers(0, 10**6), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_tensor_power_trace_norm_multiplicative(seed, n):
    h = random_hermitian(2, np.random.default_rng(seed))
    lhs = linalg.trace_norm(linalg.tensor_power(h, n))
    rhs = linalg.trace_norm(h) ** n
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_ptrace():
    rng = np.random.default_rng(5)
    a = random_hermitian(2, rng)
    b = random_hermitian(3, rng)
    m = linalg.tensor(a, b)
    assert np.allclose(linalg.ptrace(m, (2, 3)), np.trace(b) * a)
