import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdist import boxes, linalg
from symdist.boxes import (GoldenUnit, QuantumBox, box_from_json, box_to_json,
                           golden_box, golden_to_box, random_box,
                           random_density, real_frame, tensor_box)
from symdist.config import TOLS
from symdist.divergences import p_err
from symdist.exceptions import DimensionCapError, NotPsdError

from conftest import dense_box


def test_golden_m1_is_free():
    b = golden_to_box(GoldenUnit(1, 0.5))
    assert np.allclose(b.rho0, np.diag([0.5, 0.5]))
    assert np.allclose(b.rho1, np.diag([0.5, 0.5]))
    assert b.p == 0.5


def test_golden_infinite_is_orthogonal_pair():
    b = golden_to_box(GoldenUnit(math.inf, 0.3))
    assert np.allclose(b.rho0, np.diag([1.0, 0.0]))
    assert np.allclose(b.rho1, np.diag([0.0, 1.0]))


def test_golden_m2():
    b = golden_to_box(GoldenUnit(2, 0.5))
    assert np.allclose(b.rho0, np.diag([0.75, 0.25]))
    assert np.allclose(b.rho1, np.diag([0.25, 0.75]))


@given(st.floats(1.0, 50.0), st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_golden_error_piecewise_formula(m, q):
    """p_err equals 1/2M in the scaling regime and the absolute-value
    formula outside it."""
    b = golden_box(m, q)
    e = p_err(b)
    if 2 * m >= max(1 / q, 1 / (1 - q)):
        assert abs(e - 1 / (2 * m)) <= 1e-10
    else:
        expected = 0.5 * (1 - abs(q - 1 / (2 * m)) - abs(1 - q - 1 / (2 * m)))
        assert abs(e - expected) <= 1e-10


def is_infinite_resource(b: QuantumBox) -> bool:
    """True iff p_err(b) is at most ``TOLS.infinite_perr``."""
    return p_err(b) <= TOLS.infinite_perr


def test_is_infinite_resource():
    assert is_infinite_resource(QuantumBox(0.5, np.diag([1.0, 0]), np.diag([0, 1.0])))
    rho = random_density(2, np.random.default_rng(0))
    assert not is_infinite_resource(QuantumBox(0.5, rho, rho))
    # singular prior has zero error regardless of the states
    assert is_infinite_resource(QuantumBox(0.0, rho, random_density(2, np.random.default_rng(1))))


def test_tensor_box_shapes_and_values(rng):
    b = boxes.random_box(2, rng)
    assert tensor_box(b, 1).rho0 is not b.rho0  # fresh validated copy
    assert np.allclose(tensor_box(b, 1).rho0, b.rho0)
    t3 = tensor_box(b, 3)
    assert t3.dim == 8
    # commuting diagonal case: entries are products
    d = QuantumBox(0.4, np.diag([0.2, 0.8]), np.diag([0.6, 0.4]))
    t2 = dense_box(tensor_box(d, 2))
    assert np.allclose(np.diag(t2.rho0), [0.04, 0.16, 0.16, 0.64])
    # consistency of n+m with kron of parts
    t5 = dense_box(tensor_box(b, 3))
    combined = linalg.tensor(dense_box(tensor_box(b, 2)).rho0, b.rho0)
    assert np.allclose(t5.rho0, combined, atol=1e-12)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_tensor_box_dense_path_keeps_the_kind(real):
    """A box of dimension 3 takes the dense Kronecker path: its powers are
    np.kron of its states (up to the box's own normalisation), built real
    from real states and complex from complex ones."""
    b = random_box(3, np.random.default_rng(5), real=real)
    t = tensor_box(b, 2)
    assert t.qubit_power is None and t.dim == 9
    kind = float if real else complex
    for a, power in ((b.rho0, t.rho0), (b.rho1, t.rho1)):
        assert linalg.tensor_power(a, 2).dtype == kind
        assert np.asarray(power).dtype == kind
        assert np.abs(power - np.kron(a, a)).max() <= 1e-15


def test_tensor_box_cap():
    b = golden_box(2, 0.5)
    with pytest.raises(DimensionCapError):
        tensor_box(b, 10)


def test_validation():
    with pytest.raises(NotPsdError):
        QuantumBox(0.5, np.diag([1.5, -0.5]), np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        QuantumBox(0.5, np.diag([0.6, 0.6]), np.diag([0.5, 0.5]))
    with pytest.raises(ValueError):
        QuantumBox(1.5, np.diag([0.5, 0.5]), np.diag([0.5, 0.5]))
    # trace drift within tolerance is renormalized
    b = QuantumBox(0.5, np.diag([0.5 + 4e-10, 0.5]), np.diag([0.5, 0.5]))
    assert np.trace(b.rho0).real == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite_entries(bad):
    """A non-finite entry compares false against every bound, so each
    validation step would pass it on."""
    with pytest.raises(ValueError, match="non-finite"):
        QuantumBox(0.5, np.array([[bad, 0.0], [0.0, 1.0]]), np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="non-finite"):
        QuantumBox(0.5, np.diag([0.5, 0.5]), np.array([[0.5, bad], [bad, 0.5]]))
    data = json.loads(box_to_json(golden_box(2, 0.5)))
    data["rho0"][0][0] = [bad, 0.0]
    with pytest.raises(ValueError, match="non-finite"):
        box_from_json(json.dumps(data))  # NaN / Infinity literals


def test_json_round_trip(rng):
    b = boxes.random_box(3, rng)
    b2 = box_from_json(box_to_json(b))
    assert b2.p == b.p
    assert np.allclose(b2.rho0, b.rho0)
    assert np.allclose(b2.rho1, b.rho1)


def test_json_errors_name_field():
    with pytest.raises(ValueError, match="rho1"):
        box_from_json(json.dumps({"p": 0.5, "rho0": [[[1, 0]]]}))
    with pytest.raises(ValueError, match="'p'"):
        box_from_json(json.dumps({"p": "x", "rho0": [[[1, 0]]], "rho1": [[[1, 0]]]}))
    with pytest.raises(ValueError, match="'p'"):
        box_from_json(json.dumps({"p": True, "rho0": [[[1, 0]]], "rho1": [[[1, 0]]]}))
    with pytest.raises(ValueError, match="rho0"):
        box_from_json(json.dumps({"p": 0.5, "rho0": [[1, 0]], "rho1": [[[1, 0]]]}))


# --- real frame -------------------------------------------------------------

def _is_real(state) -> bool:
    return all(not np.imag(x).any() for x in linalg.BlockOp.of(state).blocks)


def _frame_cases():
    cases = [random_box(2, np.random.default_rng(seed)) for seed in range(5)]
    rho1 = random_density(2, np.random.default_rng(5))
    pure = np.array([[1.0, 1j], [-1j, 1.0]]) / 2
    cases += [QuantumBox(0.4, np.eye(2) / 2, rho1),                  # degenerate
              QuantumBox(0.6, pure, rho1),                           # pure rho0
              QuantumBox(0.3, np.diag([0.8, 0.2]),
                         random_density(2, np.random.default_rng(6), real=True)),
              QuantumBox(0.5, np.diag([0.7, 0.3]), np.diag([0.1, 0.9]))]   # z = 0
    return cases


@pytest.mark.parametrize("b", _frame_cases())
def test_real_frame_is_a_real_unitary_copy(b):
    framed, u = real_frame(b)
    assert framed.p == b.p and _is_real(framed.rho0) and _is_real(framed.rho1)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-14
    for got, want in ((framed.rho0, b.rho0), (framed.rho1, b.rho1)):
        assert np.abs(u @ got @ u.conj().T - want).max() <= 1e-14


def test_real_frame_of_a_tensor_power_keeps_the_block_form():
    t = tensor_box(random_box(2, np.random.default_rng(7)), 3)
    framed, u = real_frame(t)
    u3 = np.asarray(linalg.schur_weyl_power(u, 3))
    assert framed.qubit_power is not None and framed.qubit_power[2] == 3
    for got, want in ((framed.rho0, t.rho0), (framed.rho1, t.rho1)):
        assert isinstance(got, linalg.BlockOp) and _is_real(got)
        assert [len(x) for x in got.blocks] == [len(x) for x in want.blocks]
        assert np.abs(u3 @ np.asarray(got) @ u3.conj().T
                      - np.asarray(want)).max() <= 1e-14
    back = box_from_json(box_to_json(framed))
    for got, want in ((back.rho0, framed.rho0), (back.rho1, framed.rho1)):
        assert all(np.array_equal(x, y) for x, y in zip(got.blocks, want.blocks))


def test_real_frame_leaves_other_boxes_as_they_are():
    b = random_box(3, np.random.default_rng(8))
    assert real_frame(b) == (b, None)
