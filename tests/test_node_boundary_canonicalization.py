"""Contract of node-boundary canonicalization (arXiv:1911.12691).

Weight arithmetic between normalizations stays raw ``complex``; the complex
table is consulted only for weights that land on a node (normalization)
and for root edges leaving the package through a public call.  These
tests pin the three observable consequences:

* the table holds few entries on a wide simulation — intermediate
  products, ratios and sums are never minted as representatives;
* every root weight a public operation returns is canonical;
* deep circuits stay within a documented drift of an independent dense
  oracle (``tests/dense_oracle.py``).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.dd import DDPackage, density
from repro.qc.circuit import QuantumCircuit
from repro.simulation.simulator import DDSimulator
from tests import dense_oracle

#: Largest absolute amplitude error allowed against the dense oracle.
#: Each normalization may snap a node weight to a representative up to the
#: table tolerance (1e-10) away; the bound allows ten such snaps along a
#: path.  Measured on these circuits: 1.2e-15 (n=8) and 3.8e-16 (n=10).
DRIFT_BOUND = 1e-9


def _brickwork(num_qubits: int, layers: int, rng: random.Random):
    """Seeded ``ry``/``rz`` layers with CNOTs on alternating matchings."""
    half = num_qubits // 2
    matchings = [
        [(q, q + half) for q in range(half)],
        [(q, q + 1) for q in range(0, num_qubits - 1, 2)],
        [(q, (q + 1) % num_qubits) for q in range(1, num_qubits - 1, 2)],
    ]
    gates = []
    for layer in range(layers):
        for qubit in range(num_qubits):
            gates.append(("ry", qubit, (rng.uniform(0.0, 2.0 * math.pi),), ()))
            gates.append(("rz", qubit, (rng.uniform(0.0, 2.0 * math.pi),), ()))
        for control, target in matchings[layer % len(matchings)]:
            gates.append(("x", target, (), (control,)))
    return gates


def _random_gates(num_qubits: int, count: int, rng: random.Random):
    """``count`` seeded gates from {h, t, ry, rz, cx}."""
    gates = []
    for _ in range(count):
        kind = rng.choice(("h", "t", "ry", "rz", "cx", "cx"))
        target = rng.randrange(num_qubits)
        if kind == "cx":
            control = rng.choice([q for q in range(num_qubits) if q != target])
            gates.append(("x", target, (), (control,)))
        elif kind in ("ry", "rz"):
            gates.append((kind, target, (rng.uniform(0.0, 2.0 * math.pi),), ()))
        else:
            gates.append((kind, target, (), ()))
    return gates


def _circuit(num_qubits: int, gates) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits)
    for name, target, params, controls in gates:
        circuit.gate(name, [target], params=params, controls=controls)
    return circuit


def _simulate(num_qubits: int, gates):
    package = DDPackage()
    simulator = DDSimulator(_circuit(num_qubits, gates), package=package, seed=0)
    simulator.run_all()
    return package, simulator


def _assert_canonical(package: DDPackage, edge) -> None:
    table = package.complex_table
    before = len(table)
    assert table.lookup(edge.weight) == edge.weight
    assert len(table) == before, f"root weight {edge.weight!r} is not canonical"


def test_brickwork_table_stays_small():
    """Seeded 10-qubit brickwork (a 1023-node final state): intermediate
    weights are not minted, so the table stays far below the 61k entries
    that canonicalizing every product, ratio and sum produced."""
    gates = _brickwork(10, 3, random.Random("brickwork-10"))
    package, simulator = _simulate(10, gates)
    assert simulator.node_count() == 1023
    assert len(package.complex_table) <= 25_000
    _assert_canonical(package, simulator.state)
    simulator.close()


def test_public_ops_return_canonical_roots():
    package = DDPackage()
    rng = np.random.default_rng(7)
    vector = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = package.from_state_vector(vector / np.linalg.norm(vector))
    matrix, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    operation = package.from_matrix(matrix)
    rotation = dense_oracle.gate_matrix("ry", (0.7,))
    gate = package.controlled_gate(3, rotation, 0, controls=[2])
    pair = package.two_qubit_gate(3, np.kron(rotation, rotation), 2, 0)
    results = [
        state,
        operation,
        gate,
        pair,
        package.add(state, state),
        package.add(operation, gate),
        package.multiply(operation, state),
        package.multiply(gate, operation),
        package.kron(state, package.basis_state(1, "1")),
        package.kron(gate, operation),
        package.adjoint(operation),
        package.apply_single_qubit_gate(state, rotation, 1),
        package.apply_controlled_gate(state, rotation, 0, controls=[1, 2]),
        package.apply_swap_gate(state, 0, 2),
        density.outer_product(package, state, state),
    ]
    for edge in results:
        assert not edge.is_zero
        _assert_canonical(package, edge)
    _package, simulator = _simulate(4, _random_gates(4, 40, random.Random(3)))
    _assert_canonical(simulator.package, simulator.state)
    simulator.close()


def _drift(num_qubits: int, gates) -> float:
    package, simulator = _simulate(num_qubits, gates)
    actual = package.to_vector(simulator.state, num_qubits)
    simulator.close()
    expected = dense_oracle.simulate(num_qubits, gates)
    return float(np.max(np.abs(actual - expected)))


@pytest.mark.parametrize(
    "num_qubits, count, seed",
    [(8, 400, "deep-8"), (10, 200, "deep-10")],
)
def test_deep_circuit_drift(num_qubits, count, seed):
    gates = _random_gates(num_qubits, count, random.Random(seed))
    assert _drift(num_qubits, gates) <= DRIFT_BOUND

