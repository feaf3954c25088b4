"""Backend parity and lifetime tests for sifting (:mod:`repro.dd.reorder`).

The sift runs on in-flight ``(handle, weight)`` pairs: pool indices on the
pooled backend, node objects on the object backend.  Both must make the
same decisions (swaps, node counts, final order) and mint bit-identical
root weights.  Around that recursion the package must not pin stale
diagrams forever (the root remap is keyed weakly) and must refuse a
garbage collection while a sift holds unpinned pool indices.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.dd.package import DDPackage
from repro.errors import DDError
from repro.qc import QuantumCircuit
from repro.qc.dd_builder import circuit_to_dd
from repro.qc.library import qft
from repro.simulation.simulator import DDSimulator

STORAGES = ("pooled", "object")


def _blocked_bell(num_qubits: int) -> QuantumCircuit:
    """Bell pairs between qubits n/2 apart: exponential under the static order."""
    circuit = QuantumCircuit(num_qubits)
    half = num_qubits // 2
    for index in range(half):
        circuit.h(index + half)
        circuit.cx(index + half, index)
    return circuit


def _bits(weight: complex):
    return (float(weight.real).hex(), float(weight.imag).hex())


def _bell_roots(storage: str, num_qubits: int):
    package = DDPackage(storage=storage, reorder="manual")
    simulator = DDSimulator(_blocked_bell(num_qubits), package=package)
    simulator.run_all()
    state = package.incref(simulator.state)
    simulator.close()  # the final state is the only root
    return package, [("vector", state, num_qubits)]


def _qft_roots(storage: str, num_qubits: int = 4):
    package = DDPackage(
        storage=storage, reorder="manual", identity_skipping=True,
        use_apply_kernels=False,
    )
    unitary = package.incref(circuit_to_dd(package, qft(num_qubits)))
    return package, [("matrix", unitary, num_qubits)]


def _mixed_roots(storage: str, num_qubits: int = 4):
    # A vector root and a matrix root sifted together: the swap recursion
    # keeps one memo per node kind and both roots share the order map.
    package = DDPackage(storage=storage, reorder="manual")
    simulator = DDSimulator(_blocked_bell(num_qubits), package=package)
    simulator.run_all()
    state = package.incref(simulator.state)
    simulator.close()  # the final state is the only root
    unitary = package.incref(circuit_to_dd(package, qft(num_qubits)))
    return package, [("vector", state, num_qubits), ("matrix", unitary, num_qubits)]


CASES = {
    "bell-8": lambda storage: _bell_roots(storage, 8),
    "bell-10": lambda storage: _bell_roots(storage, 10),
    "qft-4-skipping": _qft_roots,
    "vector-and-matrix": _mixed_roots,
}


def _read(package, kind: str, edge, num_qubits: int):
    if kind == "vector":
        return package.to_vector(edge, num_qubits)
    return package.to_matrix(edge, num_qubits)


def _run_two_sifts(storage: str, case: str):
    """Two successive sifts; returns the summaries, final roots and readouts.

    The readouts go through the edges captured *before* the first sift, so
    stale-edge resolution is exercised across both reorders.
    """
    package, roots = CASES[case](storage)
    originals = [_read(package, kind, edge, n) for kind, edge, n in roots]
    summaries = [package.reorder(), package.reorder()]
    finals = [package._resolve(edge) for _kind, edge, _n in roots]
    readouts = [_read(package, kind, edge, n) for kind, edge, n in roots]
    for original, readout in zip(originals, readouts):
        assert np.abs(readout - original).max() < 1e-12
    return summaries, finals, readouts


@pytest.mark.parametrize("case", sorted(CASES))
def test_backends_sift_identically(case):
    pooled = _run_two_sifts("pooled", case)
    obj = _run_two_sifts("object", case)
    keys = ("swaps", "nodes_before", "nodes_after", "order")
    for left, right in zip(pooled[0], obj[0]):
        assert {key: left[key] for key in keys} == {key: right[key] for key in keys}
    assert pooled[0][0]["nodes_after"] <= pooled[0][0]["nodes_before"]
    assert [_bits(edge.weight) for edge in pooled[1]] == [
        _bits(edge.weight) for edge in obj[1]
    ]
    for left, right in zip(pooled[2], obj[2]):
        assert np.array_equal(left, right)


@pytest.mark.parametrize("storage", STORAGES)
def test_reorder_remap_does_not_pin_stale_diagrams(storage):
    # Each round roots a fresh dense state, sifts it and releases it.  The
    # remap entry for the stale root must die with the last stale edge, so
    # nothing of the twenty pre-reorder diagrams survives a forced GC.
    package = DDPackage(storage=storage, reorder="manual")
    rng = np.random.default_rng(5)
    for _ in range(20):
        vector = rng.normal(size=256) + 1j * rng.normal(size=256)
        vector /= np.linalg.norm(vector)
        edge = package.incref(package.from_state_vector(vector))
        package.reorder()
        package.decref(edge)
        del edge
    gc.collect()
    package.gc(force=True)
    assert len(package._remap) == 0
    assert package.governor.node_count() == 0


@pytest.mark.parametrize("storage", STORAGES)
def test_collection_is_refused_while_a_sift_runs(storage, monkeypatch):
    package, roots = _bell_roots(storage, 6)
    state = roots[0][1]
    reference = package.to_vector(state, 6)
    refresh = package._refresh_order_identity
    attempts = []

    def collect_mid_sift():
        refresh()
        with pytest.raises(DDError, match="reorder"):
            package.gc(force=True)
        attempts.append(True)

    monkeypatch.setattr(package, "_refresh_order_identity", collect_mid_sift)
    package.reorder()
    monkeypatch.undo()
    assert attempts, "the sift never swapped"
    assert not package._in_reorder
    package.gc(force=True)  # allowed again between operations
    assert np.abs(package.to_vector(state, 6) - reference).max() < 1e-12
