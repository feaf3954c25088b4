"""Exact density-matrix simulation with classical branching.

Where :class:`~repro.simulation.simulator.DDSimulator` follows *one*
measurement trajectory (mirroring the tool's pop-up dialogs), this
simulator tracks the full ensemble: each measurement splits the state into
classical branches weighted by their probabilities, resets apply the exact
channel, and classically-controlled gates act per branch.  The result is
the exact distribution over classical registers and the exact (generally
mixed) final quantum state — no sampling noise, no dialogs.

Branch count grows with the number of measurements (at most doubling per
measurement), which is fine for the protocol-sized circuits the paper's
tool targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dd import density
from repro.dd.edge import Edge
from repro.dd.package import DDPackage
from repro.errors import SimulationError
from repro.qc.circuit import QuantumCircuit
from repro.qc.dd_builder import gate_to_dd
from repro.qc.operations import BarrierOp, GateOp, MeasureOp, ResetOp


@dataclass(frozen=True)
class Branch:
    """One classical branch of the ensemble."""

    probability: float
    classical_bits: Tuple[int, ...]
    rho: Edge


class DensityMatrixSimulator:
    """Exact simulation of a circuit with measurements and resets."""

    def __init__(
        self,
        circuit: QuantumCircuit,
        package: Optional[DDPackage] = None,
        initial_state: Optional[Edge] = None,
        prune_threshold: float = 1e-12,
    ):
        self.circuit = circuit
        self.package = package if package is not None else DDPackage()
        self.prune_threshold = prune_threshold
        if initial_state is None:
            initial_state = self.package.zero_state(circuit.num_qubits)
        rho = density.density_from_state(self.package, initial_state)
        self._branches: List[Branch] = [
            Branch(1.0, (0,) * circuit.num_clbits, rho)
        ]
        self._position = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def at_end(self) -> bool:
        return self._position >= len(self.circuit)

    @property
    def position(self) -> int:
        return self._position

    @property
    def branches(self) -> Tuple[Branch, ...]:
        return tuple(self._branches)

    def step(self) -> None:
        """Execute the next operation on every branch."""
        if self.at_end:
            raise SimulationError("already at the end of the circuit")
        operation = self.circuit[self._position]
        if isinstance(operation, BarrierOp):
            pass
        elif isinstance(operation, MeasureOp):
            self._measure(operation.qubit, operation.clbit)
        elif isinstance(operation, ResetOp):
            self._branches = [
                Branch(
                    branch.probability,
                    branch.classical_bits,
                    density.reset(self.package, branch.rho, operation.qubit),
                )
                for branch in self._branches
            ]
        elif isinstance(operation, GateOp):
            self._apply_gate(operation)
        else:  # pragma: no cover - the IR has no other operation kinds
            raise SimulationError(f"unsupported operation {operation!r}")
        self._position += 1

    def run(self) -> Tuple[Branch, ...]:
        """Execute all remaining operations; returns the final branches."""
        while not self.at_end:
            self.step()
        return self.branches

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def classical_distribution(self) -> Dict[str, float]:
        """Exact probability of each classical-register value (big-endian:
        the highest classical index is the leftmost character)."""
        distribution: Dict[str, float] = {}
        for branch in self._branches:
            key = "".join(
                str(bit) for bit in reversed(branch.classical_bits)
            )
            distribution[key] = distribution.get(key, 0.0) + branch.probability
        return distribution

    def state(self) -> Edge:
        """The ensemble-averaged density matrix ``sum_b p_b rho_b``."""
        total = None
        for branch in self._branches:
            weighted = self.package._export(branch.rho.scaled(
                self.package.complex_table.lookup(branch.probability),
                self.package.complex_table,
            ))
            total = weighted if total is None else self.package.add(total, weighted)
        return total

    def density_matrix(self) -> np.ndarray:
        """Dense ensemble density matrix (small systems)."""
        return self.package.to_matrix(self.state(), self.circuit.num_qubits)

    def probabilities(self, qubit: int) -> Tuple[float, float]:
        """Exact measurement probabilities for ``qubit``."""
        return density.measure_probabilities(self.package, self.state(), qubit)

    def purity(self) -> float:
        """``Tr(rho^2)`` of the ensemble state."""
        return density.purity(self.package, self.state())

    def reduced_density_matrix(self, keep_qubits) -> np.ndarray:
        """Dense reduced state over ``keep_qubits`` (order preserved)."""
        keep = sorted(int(q) for q in keep_qubits)
        traced = [
            qubit
            for qubit in range(self.circuit.num_qubits)
            if qubit not in keep
        ]
        reduced = density.partial_trace(self.package, self.state(), traced)
        return self.package.to_matrix(reduced, len(keep))

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _apply_gate(self, operation: GateOp) -> None:
        unitary = gate_to_dd(self.package, operation, self.circuit.num_qubits)
        updated: List[Branch] = []
        for branch in self._branches:
            if operation.condition is not None and not self._condition_met(
                operation, branch.classical_bits
            ):
                updated.append(branch)
                continue
            updated.append(
                Branch(
                    branch.probability,
                    branch.classical_bits,
                    density.apply_unitary(self.package, branch.rho, unitary),
                )
            )
        self._branches = updated

    def _measure(self, qubit: int, clbit: int) -> None:
        updated: List[Branch] = []
        for branch in self._branches:
            p0, p1 = density.measure_probabilities(
                self.package, branch.rho, qubit
            )
            for outcome, probability in ((0, p0), (1, p1)):
                weight = branch.probability * probability
                if weight <= self.prune_threshold:
                    continue
                __, collapsed = density.collapse(
                    self.package, branch.rho, qubit, outcome
                )
                bits = list(branch.classical_bits)
                bits[clbit] = outcome
                updated.append(Branch(weight, tuple(bits), collapsed))
        self._branches = self._merge(updated)

    def _merge(self, branches: List[Branch]) -> List[Branch]:
        """Merge branches with identical classical bits and states."""
        merged: Dict[Tuple[Tuple[int, ...], int, complex], Branch] = {}
        for branch in branches:
            key = (branch.classical_bits, branch.rho.node.uid, branch.rho.weight)
            existing = merged.get(key)
            if existing is None:
                merged[key] = branch
            else:
                merged[key] = Branch(
                    existing.probability + branch.probability,
                    branch.classical_bits,
                    branch.rho,
                )
        return list(merged.values())

    @staticmethod
    def _condition_met(operation: GateOp, classical) -> bool:
        clbits, value = operation.condition
        actual = 0
        for index, clbit in enumerate(clbits):
            actual |= classical[clbit] << index
        return actual == value
