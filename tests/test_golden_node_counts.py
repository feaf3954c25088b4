"""Committed node-count goldens (``tests/data/golden_node_counts.json``).

Freezes structural numbers of the DD engine that no tolerance can hide:

* for four representative circuits (Bell, GHZ-5, QFT-4, Grover-3): the
  final state's node count, the node count of the circuit's functionality
  DD and the number of complex-table entries after the simulation;
* the final state node count of every seed-0 differential-fuzzer case
  (``tests/test_differential_apply.py``).

The file was first written while a second, independent storage backend
still existed, and only after both backends agreed on every number.

Regenerate (only when intentionally changing the frozen numbers) with::

    PYTHONPATH=src python -m tests.test_golden_node_counts --regenerate
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.dd.package import DDPackage
from repro.qc import library
from repro.qc.dd_builder import circuit_to_dd
from repro.simulation.simulator import DDSimulator
from tests.test_differential_apply import NUM_CASES, _case_circuit

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_node_counts.json"
)

CIRCUITS = {
    "bell": library.bell_pair,
    "ghz5": lambda: library.ghz_state(5),
    "qft4": lambda: library.qft(4),
    "grover3": lambda: library.grover(3, marked=5),
}


def circuit_counts(name: str, **options) -> dict:
    circuit = CIRCUITS[name]()
    simulator = DDSimulator(circuit, package=DDPackage(**options))
    simulator.run_all()
    package = DDPackage(**options)
    functionality = circuit_to_dd(package, circuit)
    return {
        "state_nodes": simulator.node_count(),
        "functionality_nodes": package.node_count(functionality),
        "complex_entries": len(simulator.package.complex_table),
    }


def fuzz_final_nodes(case: int, **options) -> int:
    simulator = DDSimulator(_case_circuit(case, base_seed=0), package=DDPackage(**options))
    simulator.run_all()
    return simulator.node_count()


def compute_payload(**options) -> dict:
    return {
        "circuits": {name: circuit_counts(name, **options) for name in sorted(CIRCUITS)},
        "fuzz_seed0_final_nodes": [
            fuzz_final_nodes(case, **options) for case in range(NUM_CASES)
        ],
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_circuit_counts_match_golden(golden, name):
    assert circuit_counts(name) == golden["circuits"][name]


def test_fuzz_final_node_counts_match_golden(golden):
    expected = golden["fuzz_seed0_final_nodes"]
    assert len(expected) == NUM_CASES
    actual = [fuzz_final_nodes(case) for case in range(NUM_CASES)]
    mismatches = [
        (case, want, got)
        for case, (want, got) in enumerate(zip(expected, actual))
        if want != got
    ]
    assert not mismatches, f"(case, golden, actual): {mismatches[:10]}"


def _regenerate() -> None:
    payload = compute_payload()
    text = json.dumps(payload, indent=1, sort_keys=True)
    # One line for the per-case list keeps the file reviewable.
    counts = payload["fuzz_seed0_final_nodes"]
    text = text.replace(
        json.dumps(counts, indent=1).replace("\n", "\n "), json.dumps(counts)
    )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
