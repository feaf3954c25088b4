"""Dense reference simulator that applies each gate along its own axes.

The state is an ``n``-axis ``(2, ..., 2)`` array; a gate is one
``numpy.tensordot`` over its target axis, restricted to the slice where
every control is 1.  It shares no code with the program: gate matrices
are written out here from their textbook definitions.
"""

import cmath
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

FIXED = {
    "id": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
}


def _rotation(name, theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array([[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]])
    if name == "p":
        return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)
    raise ValueError(f"oracle has no gate {name!r}")


# Controlled gates: name -> base gate on the target (control listed first).
CONTROLLED = {"cx": "x", "cy": "y", "cz": "z", "cp": "p"}


def _matrix(name, params):
    return FIXED[name] if name in FIXED else _rotation(name, *params)


def _apply_1q(state, matrix, axis):
    return np.moveaxis(np.tensordot(matrix, state, axes=([1], [axis])), 0, axis)


def simulate(num_qubits, gates):
    """Final state vector of ``gates`` applied to |0...0>, little-endian."""
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0

    def axis(qubit):  # C-order reshape: axis 0 is the most significant bit
        return num_qubits - 1 - qubit

    for name, qubits, params in gates:
        if name == "barrier":
            continue
        if name == "swap":
            state = np.swapaxes(state, axis(qubits[0]), axis(qubits[1]))
        elif name in CONTROLLED:
            control, target = axis(qubits[0]), axis(qubits[1])
            index = [slice(None)] * num_qubits
            index[control] = 1
            index = tuple(index)
            state[index] = _apply_1q(
                state[index],
                _matrix(CONTROLLED[name], params),
                target - (target > control),
            )
        else:
            state = _apply_1q(state, _matrix(name, params), axis(qubits[0]))
    return state.reshape(-1)


def compare(expected, actual, tolerance=1e-8):
    """``None`` if the vectors agree entrywise within ``tolerance``, else a
    one-line description of the worst entry."""
    actual = np.asarray(actual, dtype=complex)
    if actual.shape != expected.shape:
        return f"shape {actual.shape} != {expected.shape}"
    error = np.abs(actual - expected)
    worst = int(np.argmax(error))
    if error[worst] <= tolerance:
        return None
    return (
        f"amplitude {worst}: {actual[worst]:.6g} != {expected[worst]:.6g} "
        f"(|diff| {error[worst]:.3g} > {tolerance:g})"
    )
