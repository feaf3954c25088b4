"""Direct gate-application kernels for decision diagrams.

The matrix-construction path realizes every gate by building the full
``n``-qubit matrix DD (a kron chain of identities around the local 2x2
unitary) and multiplying it onto the state.  Dedicated DD packages avoid
that overhead with *direct apply* routines (Zulehner/Hillmich/Wille, DATE
2019; Wille/Hillmich/Burgholzer 2021): the gate is applied by recursing
over the state diagram alone — no gate DD is ever constructed, so no
matrix nodes are allocated and levels the gate does not touch are copied
by reference.

This module implements those kernels for

* **vector DDs** (one simulation step, paper Sec. III-B): ``g |psi>``;
* **matrix DDs** from either side (the alternating equivalence scheme of
  paper Sec. III-C / Ex. 12): ``g . E`` and ``E . g``.

Kernel taxonomy (reported through the ``dd_apply_total`` counter):

``diagonal``
    ``Z``/``S``/``T``/``P``/``RZ``-like gates touch only edge weights —
    children are rescaled, never restructured, and no additions occur.
``antidiagonal``
    ``X``/``Y``-like gates swap the two successors (the Toffoli fast
    path: a multi-controlled X is branch selection plus one child swap).
``generic``
    Arbitrary 2x2 unitaries mix the successors with two DD additions.
``controlled``
    Any gate with control lines.  Controls *above* the target select a
    branch (the other branch is shared unchanged); controls *below* the
    target use the identity ``CU = I + P (U - I)`` with a projector-chain
    recursion (``P`` zeroes the inactive control branches).
``swap``
    SWAP / Fredkin via three CX kernel applications; iSWAP via
    ``SWAP . CZ . (S x S)``.  One stage list (:func:`_stages`) serves
    vectors and both matrix sides.

All kernels share one dedicated compute table (``DDPackage._apply_cache``)
keyed on ``(gate id, node)``, where the gate id holds the unitary's entries
(raw ``complex`` values, sub-tolerance entries snapped to zero), so repeated
gates (GHZ cascades, Grover iterations, the inverse side of the alternating
scheme) hit the cache.  Like the rest of the weight arithmetic, gate entries
are never looked up in the complex table; only the weights of the nodes the
kernel creates and the returned root weight are.

This module also owns the choice between the kernels and the matrix path
(the gate's full-system matrix DD, multiplied on): :func:`apply_operation`
(vectors) and :func:`apply_operation_matrix` (operators) are the only
readers of the package setting ``use_apply_kernels``.  Both paths
normalize through the same unique tables, so they yield the very same
root edge within one package.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence

import numpy as np

from repro.dd.edge import Edge
from repro.dd.pooled import PooledApplyKernel
from repro.errors import DDError, GateError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS

__all__ = [
    "apply_single_qubit",
    "apply_controlled",
    "apply_swap",
    "apply_operation",
    "apply_operation_matrix",
    "KERNEL_NAMES",
]

#: Kernel labels used for the ``dd_apply_total`` / ``dd_apply_seconds``
#: metrics (and by tests asserting coverage of every kernel).
KERNEL_NAMES = ("diagonal", "antidiagonal", "generic", "controlled", "swap")

_X_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S_MATRIX = np.array([[1.0, 0.0], [0.0, 1j]], dtype=complex)
_SDG_MATRIX = np.array([[1.0, 0.0], [0.0, -1j]], dtype=complex)
_Z_MATRIX = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _constant in (_X_MATRIX, _S_MATRIX, _SDG_MATRIX, _Z_MATRIX):
    _constant.setflags(write=False)
del _constant


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
def _observe(package, kernel: str, start: Optional[float]) -> None:
    """Bump the per-kernel counter (and timer when a start time is given)."""
    counters = getattr(package, "_apply_counters", None)
    if counters is None:
        counters = {}
        package._apply_counters = counters
    entry = counters.get(kernel)
    if entry is None:
        entry = (
            package.registry.counter("dd_apply_total", {"kernel": kernel}),
            package.registry.histogram(
                "dd_apply_seconds", DEFAULT_TIME_BUCKETS, {"kernel": kernel}
            ),
        )
        counters[kernel] = entry
    entry[0].inc()
    if start is not None:
        entry[1].observe(perf_counter() - start)


# ----------------------------------------------------------------------
# public vector-DD API
# ----------------------------------------------------------------------
def _make_kernel(package, mode, matrix, target, controls):
    """The prepared kernel for one gate, reused across applications."""
    engine = package._pooled
    if type(matrix) is np.ndarray and not matrix.flags.writeable:
        # An immutable (interned gate-library) matrix can be keyed by
        # identity; the cache entry pins it so its id stays valid.
        key = (mode, id(matrix), int(target), tuple(sorted(controls.items())))
    else:
        matrix = np.asarray(matrix, dtype=complex)
        key = (
            mode, matrix.tobytes(), int(target), tuple(sorted(controls.items()))
        )
    hit = engine._kernel_cache.get(key)
    if hit is not None:
        return hit[0]
    kernel = PooledApplyKernel(package, mode, matrix, target, controls)
    engine._kernel_cache[key] = (kernel, matrix)
    return kernel


def _control_map(
    controls: Sequence[int], negative_controls: Sequence[int]
) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    for line in controls:
        mapping[int(line)] = 1
    for line in negative_controls:
        if int(line) in mapping:
            raise DDError("a line cannot be both a positive and negative control")
        mapping[int(line)] = 0
    if len(mapping) != len(controls) + len(negative_controls):
        raise DDError("control lines must be distinct")
    return mapping


def _map_lines(package, target: int, mapping: Dict[int, int]):
    """Translate qubit lines into DD levels under the package's variable
    order (the identity while no reorder has run)."""
    if package._order_is_identity:
        return target, mapping
    return (
        package.level_of(target),
        {package.level_of(line): bit for line, bit in mapping.items()},
    )


def apply_single_qubit(package, state: Edge, matrix: np.ndarray, target: int) -> Edge:
    """Apply a single-qubit gate directly to a vector DD: ``U_t |state>``."""
    return apply_controlled(package, state, matrix, target)


def apply_controlled(
    package,
    state: Edge,
    matrix: np.ndarray,
    target: int,
    controls: Sequence[int] = (),
    negative_controls: Sequence[int] = (),
) -> Edge:
    """Apply a (multi-)controlled single-qubit gate directly to a vector DD."""
    return _run(
        package, "v", state,
        ((matrix, target, _control_map(controls, negative_controls)),),
    )


def apply_swap(
    package,
    state: Edge,
    line_a: int,
    line_b: int,
    controls: Sequence[int] = (),
    negative_controls: Sequence[int] = (),
) -> Edge:
    """Apply a (controlled) SWAP directly to a vector DD (see
    :func:`_swap_stages`)."""
    if line_a == line_b:
        raise DDError("SWAP needs two distinct lines")
    return _run(
        package, "v", state,
        _swap_stages(line_a, line_b, _control_map(controls, negative_controls)),
    )


# ----------------------------------------------------------------------
# gates as kernel stages
# ----------------------------------------------------------------------
def _swap_stages(line_a: int, line_b: int, controls: Dict[int, int]):
    """SWAP as three CX stages: ``cx(b,a); ccx(controls+a, b); cx(b,a)``.

    The standard Fredkin decomposition, with all extra controls attached
    to the middle Toffoli (as in :func:`repro.qc.dd_builder.gate_to_dd`),
    so both paths realize the same operator.
    """
    outer = (_X_MATRIX, line_a, {line_b: 1})
    inner_controls = dict(controls)
    inner_controls[line_a] = 1
    return (outer, (_X_MATRIX, line_b, inner_controls), outer)


def _stages(operation):
    """``operation`` as (multi-)controlled 2x2 kernel stages, listed in
    application order: the first stage is the rightmost product factor,
    the one that acts first on a state."""
    if type(operation) is tuple:
        matrix, qubit = operation
        return ((matrix, qubit, {}),)
    matrix = operation.matrix_readonly()
    targets = operation.targets
    controls = _control_map(operation.controls, operation.negative_controls)
    if matrix.shape == (2, 2):
        return ((matrix, targets[0], controls),)
    if operation.gate == "swap":
        return _swap_stages(targets[0], targets[1], controls)
    if operation.gate in ("iswap", "iswapdg") and not controls:
        # iSWAP = SWAP . CZ . (S x S), the adjoint with S†: the phase
        # layer acts first.
        high, low = targets
        phase = _S_MATRIX if operation.gate == "iswap" else _SDG_MATRIX
        return (
            (phase, high, {}),
            (phase, low, {}),
            (_Z_MATRIX, high, {low: 1}),
        ) + _swap_stages(high, low, {})
    raise GateError(
        f"controlled two-qubit gate {operation.gate!r} is not supported; "
        "decompose it into controlled single-qubit gates and CNOTs"
    )


def _run(package, mode: str, operand: Edge, stages) -> Edge:
    """Run kernel stages in order on ``operand``; one metric observation
    per call (a multi-stage SWAP/iSWAP counts as one ``swap``)."""
    package._maybe_gc()
    result = package._resolve(operand)
    start = perf_counter() if package._obs_on else None
    for matrix, target, controls in stages:
        target, controls = _map_lines(package, target, controls)
        kernel = _make_kernel(package, mode, matrix, target, controls)
        result = kernel.run(result)
    if start is not None:
        _observe(package, kernel.kernel if len(stages) == 1 else "swap", start)
    return result


# ----------------------------------------------------------------------
# the two gate-application entries
# ----------------------------------------------------------------------
def _gate_dd(package, operation, num_qubits: int) -> Edge:
    """The full-system matrix DD of ``operation`` (the matrix path)."""
    if type(operation) is tuple:
        matrix, qubit = operation
        return package.single_qubit_gate(num_qubits, matrix, qubit)
    from repro.qc.dd_builder import gate_to_dd

    return gate_to_dd(package, operation, num_qubits)


def apply_operation(package, state: Edge, operation, num_qubits: int) -> Edge:
    """Apply one operation to a vector DD: ``operation |state>``.

    ``operation`` is a :class:`~repro.qc.operations.GateOp`, or a
    ``(matrix, qubit)`` pair for a local 2x2 operator that is not a
    library gate (the measurement projectors).  This is the one vector
    entry: ``package.use_apply_kernels`` picks the direct kernels or the
    matrix path (the operation's full-system matrix DD, multiplied onto
    the state).  Both give the same canonical edge.  A gate neither path
    supports (a controlled iSWAP) raises :class:`~repro.errors.GateError`.
    """
    if package.use_apply_kernels:
        return _run(package, "v", state, _stages(operation))
    return package.multiply(_gate_dd(package, operation, num_qubits), state)


def apply_operation_matrix(
    package, operand: Edge, operation, num_qubits: int, side: str = "left"
) -> Edge:
    """Apply a gate to a *matrix* DD from the left (``g . E``) or right
    (``E . g``) — the two moves of the alternating equivalence scheme.

    The one operator entry; ``package.use_apply_kernels`` picks the path
    as in :func:`apply_operation`.
    """
    if side not in ("left", "right"):
        raise DDError(f"side must be 'left' or 'right', got {side!r}")
    if not package.use_apply_kernels:
        gate_dd = _gate_dd(package, operation, num_qubits)
        if side == "left":
            return package.multiply(gate_dd, operand)
        return package.multiply(operand, gate_dd)
    stages = _stages(operation)
    if side == "left":
        # (Fk ... F1) . E groups as Fk . (... . (F1 . E)): the first
        # stage multiplies first.
        return _run(package, "ml", operand, stages)
    # E . (Fk ... F1) groups as ((E . Fk) . ...) . F1: the last stage
    # multiplies first from the right.
    return _run(package, "mr", operand, stages[::-1])
