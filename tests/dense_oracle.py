"""Independent dense state-vector oracle for the DD engine's tests.

The state is an ``n``-axis ``(2, ..., 2)`` array and every gate is one
``numpy.tensordot`` along its target axis, restricted to the slice where
each control is 1 — no ``2**n x 2**n`` matrix is ever built.  Nothing here
imports the package: gate matrices are written out from their textbook
definitions, so an error shared by the engine and its gate library cannot
cancel out.

A gate is a tuple ``(name, target, params, controls)``.  Qubit ``q`` is bit
``q`` of a basis index (little-endian), as in the package.
"""

import cmath
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex),
}


def gate_matrix(name, params=()):
    """The 2x2 unitary of a gate from its textbook definition."""
    if name in _FIXED:
        return _FIXED[name]
    (theta,) = params
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array(
            [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]]
        )
    raise ValueError(f"oracle has no gate {name!r}")


def simulate(num_qubits, gates):
    """Final state vector of ``gates`` applied to |0...0>."""
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0

    def axis(qubit):  # C-order reshape: axis 0 is the most significant bit
        return num_qubits - 1 - qubit

    for name, target, params, controls in gates:
        index = [slice(None)] * num_qubits
        for control in controls:
            index[axis(control)] = 1
        index = tuple(index)
        # Axes fixed by the controls vanish from the slice.
        target_axis = axis(target) - sum(
            1 for control in controls if axis(control) < axis(target)
        )
        block = np.tensordot(
            gate_matrix(name, params), state[index], axes=([1], [target_axis])
        )
        state[index] = np.moveaxis(block, 0, target_axis)
    return state.reshape(-1)
