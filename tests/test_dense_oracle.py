"""Pins the dense oracle's textbook gate matrices (``tests/dense_oracle.py``).

The oracle is the fuzzer's numerical reference, so its matrices are checked
against identities that do not go through the package: every gate is
unitary, sx . sx = x, u3(theta, -pi/2, pi/2) = rx(theta), and iSWAP has its
known entries.  The simulator itself is checked on controls of both
polarities and on a two-qubit gate whose line order matters.
"""

import math

import numpy as np
import pytest

from tests import dense_oracle

_ANGLES = (0.0, 0.3, math.pi / 2, 2.1, math.pi, 5.9)

_GATES = [
    (name, ())
    for name in ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
                 "swap", "iswap", "iswapdg")
] + [
    (name, (angle,)) for name in ("rx", "ry", "rz", "p") for angle in _ANGLES
] + [
    ("u2", (0.4, 1.3)),
    ("u2", (-2.0, 0.0)),
    ("u3", (0.7, 0.4, 1.3)),
    ("u3", (3.0, -1.1, 2.2)),
]


@pytest.mark.parametrize(
    "name, params",
    _GATES,
    ids=[name + "".join(f"-{p:g}" for p in params) for name, params in _GATES],
)
def test_every_gate_is_unitary(name, params):
    matrix = dense_oracle.gate_matrix(name, params)
    identity = np.eye(matrix.shape[0])
    assert np.allclose(matrix.conj().T @ matrix, identity, atol=1e-14)


def test_sx_squares_to_x():
    sx = dense_oracle.gate_matrix("sx")
    assert np.allclose(sx @ sx, dense_oracle.gate_matrix("x"), atol=1e-15)
    sxdg = dense_oracle.gate_matrix("sxdg")
    assert np.allclose(sxdg, sx.conj().T, atol=0.0)


@pytest.mark.parametrize("theta", _ANGLES)
def test_u3_reduces_to_rx(theta):
    u3 = dense_oracle.gate_matrix("u3", (theta, -math.pi / 2, math.pi / 2))
    rx = dense_oracle.gate_matrix("rx", (theta,))
    assert np.allclose(u3, rx, atol=1e-15)


def test_iswap_entries():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(dense_oracle.gate_matrix("iswap"), expected)
    assert np.array_equal(dense_oracle.gate_matrix("iswapdg"), expected.conj())


def test_negative_control_fires_on_zero():
    # q1 stays |0>, so a negatively controlled X on q0 flips it: |01>.
    state = dense_oracle.simulate(2, [("x", 0, (), (), (1,))])
    assert np.array_equal(state, [0, 1, 0, 0])
    # A positive control on the same line does nothing.
    state = dense_oracle.simulate(2, [("x", 0, (), (1,))])
    assert np.array_equal(state, [1, 0, 0, 0])


def test_two_qubit_gate_respects_line_order():
    # |q2 q1 q0> = |001>, then SWAP(q2, q0) -> |100>; the untouched middle
    # line and the axis bookkeeping around it must survive.
    state = dense_oracle.simulate(3, [("x", 0, (), ()), ("swap", (2, 0), (), ())])
    assert np.array_equal(state, np.eye(8)[4])
    # Fredkin: SWAP(q1, q0) controlled on q2, which is |1>.
    gates = [("x", 2, (), ()), ("x", 0, (), ()), ("swap", (1, 0), (), (2,))]
    assert np.array_equal(dense_oracle.simulate(3, gates), np.eye(8)[6])
    # iSWAP on |01> puts i on |10>.
    state = dense_oracle.simulate(2, [("x", 0, (), ()), ("iswap", (1, 0), (), ())])
    assert np.array_equal(state, [0, 0, 1j, 0])
