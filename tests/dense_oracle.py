"""Independent dense state-vector oracle for the DD engine's tests.

The state is an ``n``-axis ``(2, ..., 2)`` array and every gate is one
``numpy.tensordot`` along its target axes, restricted to the slice where
each control holds its active value — no ``2**n x 2**n`` matrix is ever
built.  Nothing here imports the package: gate matrices are written out
from their textbook definitions, so an error shared by the engine and its
gate library cannot cancel out.

A gate is a tuple ``(name, target, params, controls)`` with an optional
fifth element ``negative_controls`` (lines that must be |0>).  ``target``
is one line (or a 1-tuple) for a single-qubit gate and a ``(high, low)``
pair for a two-qubit gate, ``high`` being the more significant index of
the 4x4 matrix.  Qubit ``q`` is bit ``q`` of a basis index (little-endian), as in
the package.
"""

import cmath
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)

_FIXED = {
    "id": np.array([[1, 0], [0, 1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=complex),
    # sqrt(X) = H S H.
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
    # Two-qubit gates, basis order |high low> = |00>, |01>, |10>, |11>.
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswap": np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    "iswapdg": np.array(
        [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _u3(theta, phi, lam):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def gate_matrix(name, params=()):
    """The unitary of a gate from its textbook definition."""
    if name in _FIXED:
        return _FIXED[name]
    if name in ("u3", "u"):
        return _u3(*params)
    if name == "u2":
        phi, lam = params
        return _u3(math.pi / 2.0, phi, lam)
    (theta,) = params
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array(
            [[cmath.exp(-0.5j * theta), 0], [0, cmath.exp(0.5j * theta)]]
        )
    if name in ("p", "u1"):
        return np.array([[1, 0], [0, cmath.exp(1j * theta)]], dtype=complex)
    raise ValueError(f"oracle has no gate {name!r}")


def simulate(num_qubits, gates):
    """Final state vector of ``gates`` applied to |0...0>."""
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0

    def axis(qubit):  # C-order reshape: axis 0 is the most significant bit
        return num_qubits - 1 - qubit

    for gate in gates:
        name, target, params, controls = gate[:4]
        negative_controls = gate[4] if len(gate) > 4 else ()
        targets = tuple(target) if isinstance(target, (tuple, list)) else (target,)
        fixed = {axis(line): 1 for line in controls}
        fixed.update({axis(line): 0 for line in negative_controls})
        index = tuple(fixed.get(k, slice(None)) for k in range(num_qubits))
        # Axes fixed by the controls vanish from the slice.
        target_axes = [
            axis(line) - sum(1 for fixed_axis in fixed if fixed_axis < axis(line))
            for line in targets
        ]
        width = len(targets)
        matrix = gate_matrix(name, params).reshape((2,) * (2 * width))
        block = np.tensordot(
            matrix, state[index], axes=(list(range(width, 2 * width)), target_axes)
        )
        state[index] = np.moveaxis(block, list(range(width)), target_axes)
    return state.reshape(-1)
