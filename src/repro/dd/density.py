"""Density matrices on decision diagrams — the exact treatment of
non-unitary operations.

Paper Sec. IV-B notes that a reset "maps pure states to mixed states and
can thus in general not be represented by the same kind of decision diagram
used for representing state vectors"; the tool therefore handles resets
probabilistically.  This module provides the exact alternative: a density
matrix is just a ``2^n x 2^n`` Hermitian matrix, so it fits the *matrix*
decision diagrams the package already has.  On top of that representation:

* ``outer_product`` builds ``|psi><phi|`` from two vector DDs;
* ``trace`` / ``partial_trace`` contract diagonal blocks recursively;
* ``apply_unitary`` evolves ``rho -> U rho U^t``;
* ``measure_probabilities`` / ``collapse`` implement projective
  measurement, and ``reset`` applies the *exact* reset channel
  ``rho -> P0 rho P0 + X P1 rho P1 X`` — deterministically, with no
  dialog or random branch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Tuple

import numpy as np

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ONE_EDGE, ZERO_EDGE
from repro.dd.node import Node
from repro.dd.package import DDPackage
from repro.errors import DDError, InvalidStateError

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def outer_product(package: DDPackage, ket: Edge, bra: Edge) -> Edge:
    """The matrix DD of ``|ket><bra|`` from two vector DDs."""
    if ket.is_zero or bra.is_zero:
        return ZERO_EDGE
    factor = package.complex_table.lookup(ket.weight * bra.weight.conjugate())
    result = _outer_nodes(package, ket.node, bra.node, {})
    return package._export(result.scaled(factor, package.complex_table))


def _outer_nodes(
    package: DDPackage, ket: Node, bra: Node, cache: Dict[Tuple[Node, Node], Edge]
) -> Edge:
    if ket.is_terminal and bra.is_terminal:
        return ONE_EDGE
    if ket.var != bra.var:
        raise DDError("outer product requires equally-sized vectors")
    key = (ket, bra)
    cached = cache.get(key)
    if cached is not None:
        return cached
    children = []
    for i in (0, 1):
        for j in (0, 1):
            k_edge = ket.edges[i]
            b_edge = bra.edges[j]
            if k_edge.is_zero or b_edge.is_zero:
                children.append(ZERO_EDGE)
                continue
            sub = _outer_nodes(package, k_edge.node, b_edge.node, cache)
            weight = package.complex_table.lookup(
                k_edge.weight * b_edge.weight.conjugate()
            )
            children.append(sub.scaled(weight, package.complex_table))
    result = package.make_matrix_node(ket.var, children)
    cache[key] = result
    return result


def density_from_state(package: DDPackage, state: Edge) -> Edge:
    """The pure-state density matrix ``|state><state|``."""
    return outer_product(package, state, state)


def density_from_statevector(package: DDPackage, vector) -> Edge:
    """Density matrix of a dense state vector."""
    return density_from_state(package, package.from_state_vector(vector))


def maximally_mixed(package: DDPackage, num_qubits: int) -> Edge:
    """The maximally mixed state ``I / 2^n``."""
    identity = package.identity(num_qubits)
    factor = package.complex_table.lookup(1.0 / (1 << num_qubits))
    return package._export(identity.scaled(factor, package.complex_table))


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
def trace(package: DDPackage, rho: Edge) -> complex:
    """The full trace of a matrix DD."""
    return _trace_edge(package, rho, {})


def _trace_edge(package: DDPackage, edge: Edge, cache: Dict[Node, complex]) -> complex:
    if edge.is_zero:
        return ComplexTable.ZERO
    if edge.node.is_terminal:
        return edge.weight
    node_trace = cache.get(edge.node)
    if node_trace is None:
        node_trace = _trace_edge(package, edge.node.edges[0], cache) + _trace_edge(
            package, edge.node.edges[3], cache
        )
        cache[edge.node] = node_trace
    return edge.weight * node_trace


def partial_trace(
    package: DDPackage, rho: Edge, traced_qubits: Sequence[int]
) -> Edge:
    """Trace out ``traced_qubits``; the kept qubits are re-indexed densely
    (order preserved).  Tracing out everything returns a scalar edge."""
    if rho.is_zero:
        return ZERO_EDGE
    num_qubits = package.num_qubits(rho)
    traced = frozenset(int(q) for q in traced_qubits)
    for qubit in traced:
        if not 0 <= qubit < num_qubits:
            raise DDError(f"qubit {qubit} out of range for {num_qubits} qubits")
    cache: Dict[Node, Edge] = {}
    result = _pt_node(package, rho.node, traced, cache)
    return package._export(result.scaled(rho.weight, package.complex_table))


def _pt_node(
    package: DDPackage, node: Node, traced: FrozenSet[int], cache: Dict[Node, Edge]
) -> Edge:
    if node.is_terminal:
        return ONE_EDGE
    cached = cache.get(node)
    if cached is not None:
        return cached
    if node.var in traced:
        result = package.add(
            _pt_edge(package, node.edges[0], traced, cache),
            _pt_edge(package, node.edges[3], traced, cache),
        )
    else:
        new_var = sum(1 for level in range(node.var) if level not in traced)
        children = [
            _pt_edge(package, child, traced, cache) for child in node.edges
        ]
        result = package.make_matrix_node(new_var, children)
    cache[node] = result
    return result


def _pt_edge(
    package: DDPackage, edge: Edge, traced: FrozenSet[int], cache: Dict[Node, Edge]
) -> Edge:
    if edge.is_zero:
        return ZERO_EDGE
    sub = _pt_node(package, edge.node, traced, cache)
    return sub.scaled(edge.weight, package.complex_table)


def purity(package: DDPackage, rho: Edge) -> float:
    """``Tr(rho^2)``: 1 for pure states, ``1/2^n`` for maximally mixed."""
    squared = package.multiply(rho, rho)
    return trace(package, squared).real


# ----------------------------------------------------------------------
# evolution and measurement
# ----------------------------------------------------------------------
def apply_unitary(package: DDPackage, rho: Edge, unitary: Edge) -> Edge:
    """``rho -> U rho U^t``."""
    return package.multiply(package.multiply(unitary, rho), package.adjoint(unitary))


def measure_probabilities(
    package: DDPackage, rho: Edge, qubit: int
) -> Tuple[float, float]:
    """``(Tr(P0 rho), Tr(P1 rho))``, normalized by ``Tr(rho)``."""
    num_qubits = package.num_qubits(rho)
    total = trace(package, rho).real
    if total <= 0.0:
        raise InvalidStateError("density matrix has non-positive trace")
    projector = package.single_qubit_gate(num_qubits, _P1, qubit)
    p1 = trace(package, package.multiply(projector, rho)).real / total
    p1 = min(max(p1, 0.0), 1.0)
    return 1.0 - p1, p1


def collapse(
    package: DDPackage, rho: Edge, qubit: int, outcome: int
) -> Tuple[float, Edge]:
    """Projective collapse: returns ``(probability, P rho P / p)``."""
    if outcome not in (0, 1):
        raise DDError(f"measurement outcome must be 0 or 1, got {outcome}")
    probabilities = measure_probabilities(package, rho, qubit)
    probability = probabilities[outcome]
    if probability <= 0.0:
        raise InvalidStateError(
            f"outcome {outcome} on qubit {qubit} has probability zero"
        )
    num_qubits = package.num_qubits(rho)
    projector = package.single_qubit_gate(
        num_qubits, _P0 if outcome == 0 else _P1, qubit
    )
    projected = package.multiply(package.multiply(projector, rho), projector)
    scale = package.complex_table.lookup(projected.weight / probability)
    return probability, Edge(projected.node, scale)


def reset(package: DDPackage, rho: Edge, qubit: int) -> Edge:
    """The exact reset channel: ``P0 rho P0 + X P1 rho P1 X``.

    Unlike the probabilistic reset of the vector simulator (paper
    Sec. IV-B), this is deterministic and generally produces a mixed state.
    """
    num_qubits = package.num_qubits(rho)
    p0_dd = package.single_qubit_gate(num_qubits, _P0, qubit)
    p1_dd = package.single_qubit_gate(num_qubits, _P1, qubit)
    x_dd = package.single_qubit_gate(num_qubits, _X, qubit)
    keep = package.multiply(package.multiply(p0_dd, rho), p0_dd)
    flip = package.multiply(
        x_dd, package.multiply(package.multiply(p1_dd, rho), package.multiply(p1_dd, x_dd))
    )
    return package.add(keep, flip)


def fidelity_with_state(package: DDPackage, rho: Edge, state: Edge) -> float:
    """``<state| rho |state>`` for a pure reference state."""
    image = package.multiply(rho, state)
    return package.inner_product(state, image).real
