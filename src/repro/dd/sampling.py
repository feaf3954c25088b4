"""Measurement, sampling and reset on vector decision diagrams.

Implements the paper's Sec. III-B / IV-B semantics:

* **sampling** (weak simulation, [16]): a randomized single-path traversal.
  Under the L2 normalization scheme every sub-tree represents a norm-1
  vector, so at each node the squared magnitude of the |0>/|1> successor
  weight *is* the branch probability and sampling costs one root-to-terminal
  walk.  Under other schemes a (cached) subtree-norm computation provides
  the probabilities instead.
* **measurement** of a single qubit: the outcome probabilities are reported,
  an outcome is chosen (by the caller or at random), and the state collapses
  irreversibly via the corresponding projector, renormalized.  Measurements
  of classically simulated states are non-destructive in the sense that the
  pre-measurement DD can be kept and re-measured (paper Sec. III-B).
* **reset**: probabilistic reset as described in Sec. IV-B — the qubit is
  measured, the other branch is discarded, and the remaining branch becomes
  the |0> branch (equivalently: a conditional X after the collapse).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.dd.edge import Edge
from repro.dd.node import Node, VectorNode
from repro.dd.normalization import NormalizationScheme
from repro.dd.package import DDPackage
from repro.errors import DDError, InvalidStateError

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

#: Callback deciding a measurement outcome given ``(p0, p1)``; mirrors the
#: web tool's pop-up dialog (paper Sec. IV-B).
OutcomeChooser = Callable[[float, float], int]


def _subtree_norms(edge: Edge, cache: Dict[Node, float]) -> float:
    """Squared norm of the sub-vector represented by ``edge``."""
    if edge.is_zero:
        return 0.0
    if edge.node.is_terminal:
        return abs(edge.weight) ** 2
    node_norm = cache.get(edge.node)
    if node_norm is None:
        node_norm = sum(_subtree_norms(child, cache) for child in edge.node.edges)
        cache[edge.node] = node_norm
    return abs(edge.weight) ** 2 * node_norm


def branch_probabilities(package: DDPackage, state: Edge) -> Tuple[float, float]:
    """Probabilities of the root qubit being |0> / |1> in ``state``."""
    state = package._resolve(state)
    return qubit_probabilities(
        package, state, package.qubit_at(state.node.var)
    )


def qubit_probabilities(
    package: DDPackage, state: Edge, qubit: int
) -> Tuple[float, float]:
    """Probabilities ``(p0, p1)`` of measuring ``qubit`` in ``state``.

    Works for any normalization scheme by accumulating path probabilities
    down to the qubit's level, then using (cached) subtree norms.
    """
    state = package._resolve(state)
    if state.is_zero:
        raise InvalidStateError("cannot measure the zero vector")
    num_qubits = package.num_qubits(state)
    if not 0 <= qubit < num_qubits:
        raise DDError(f"qubit {qubit} out of range for {num_qubits} qubits")
    # Under dynamic reordering the qubit's nodes sit at its *level*.
    level = package.level_of(qubit)
    cache: Dict[Node, float] = {}
    total = _subtree_norms(state, cache)
    if total <= 0.0:
        raise InvalidStateError("state has zero norm")

    # mass_cache[node] = probability mass of `outcome` within the
    # sub-vector rooted at `node` (memoized per node, so shared structure
    # is visited once instead of once per path).
    mass_cache: Dict[Node, float] = {}

    def mass(edge: Edge, outcome: int) -> float:
        if edge.is_zero:
            return 0.0
        if edge.node.is_terminal:
            # The measured qubit was skipped by a zero stub - impossible for
            # a non-zero path, because stubs only stand for zero vectors.
            return 0.0
        node_mass = mass_cache.get(edge.node)
        if node_mass is None:
            if edge.node.var == level:
                node_mass = _subtree_norms(edge.node.edges[outcome], cache)
            else:
                node_mass = sum(
                    mass(child, outcome) for child in edge.node.edges
                )
            mass_cache[edge.node] = node_mass
        return abs(edge.weight) ** 2 * node_mass

    p1 = mass(state, 1) / total
    p1 = min(max(p1, 0.0), 1.0)
    return 1.0 - p1, p1


def _pooled_sampler(package: DDPackage, state: Edge):
    """A one-shot sampler walking the pooled node arrays, or ``None``.

    Only for vector DDs under the L2 scheme, where a node's |0>
    probability is ``|w0|**2`` of its stored successor weight.  Each node's
    probability is read once and memoized across shots; each level still
    draws exactly one ``rng.random()``, so a seeded generator yields the
    same outcomes as the node-view walk of :func:`sample`.
    """
    engine = package._pooled
    node = state.node
    if package.vector_scheme is not NormalizationScheme.L2 or not isinstance(
        node, VectorNode
    ):
        return None
    pool = engine.vpool
    succ, wsucc, level_of_node = pool.succ, pool.wsucc, pool.var
    values = engine.weights._values
    num_qubits = node.var + 1
    # String position of the bit drawn at each level (big-endian by qubit).
    position = [num_qubits - 1 - package.qubit_at(level) for level in range(num_qubits)]
    root = engine.node_index(node)
    # node index -> (p0, string position, |0> successor, |1> successor)
    memo: Dict[int, Tuple[float, int, int, int]] = {}

    def draw(rng: np.random.Generator) -> str:
        bits = ["0"] * num_qubits
        index = root
        while index >= 0:
            entry = memo.get(index)
            if entry is None:
                base = 2 * index
                entry = (
                    abs(values[wsucc[base]]) ** 2,
                    position[level_of_node[index]],
                    succ[base],
                    succ[base + 1],
                )
                memo[index] = entry
            p0, pos, zero, one = entry
            if rng.random() < p0:
                index = zero
            else:
                bits[pos] = "1"
                index = one
        return "".join(bits)

    return draw


def sample(
    package: DDPackage,
    state: Edge,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Draw one basis state from ``state`` via single-path traversal.

    Returns the big-endian bit string ``q_{n-1} ... q_0`` (paper footnote 1).
    """
    state = package._resolve(state)
    if state.is_zero:
        raise InvalidStateError("cannot sample from the zero vector")
    if rng is None:
        rng = np.random.default_rng()
    draw = _pooled_sampler(package, state)
    if draw is not None:
        return draw(rng)
    local = package.vector_scheme is NormalizationScheme.L2
    cache: Dict[Node, float] = {}
    num_qubits = 0 if state.node.is_terminal else state.node.var + 1
    # Bit at level l belongs to qubit_at(l); place it at its big-endian
    # string position so reordering never changes the reported outcomes.
    bits = [0] * num_qubits
    edge = state
    while not edge.node.is_terminal:
        zero_child, one_child = edge.node.edges
        if local:
            p0 = abs(zero_child.weight) ** 2
        else:
            mass0 = _subtree_norms(zero_child, cache)
            mass1 = _subtree_norms(one_child, cache)
            p0 = mass0 / (mass0 + mass1)
        outcome = 0 if rng.random() < p0 else 1
        bits[num_qubits - 1 - package.qubit_at(edge.node.var)] = outcome
        edge = edge.node.edges[outcome]
    return "".join(str(bit) for bit in bits)


def sample_counts(
    package: DDPackage,
    state: Edge,
    shots: int,
    rng: Optional[np.random.Generator] = None,
) -> Dict[str, int]:
    """Histogram of ``shots`` independent samples (non-destructive)."""
    if shots <= 0:
        raise DDError("shots must be positive")
    if rng is None:
        rng = np.random.default_rng()
    state = package._resolve(state)
    if state.is_zero:
        raise InvalidStateError("cannot sample from the zero vector")
    draw = _pooled_sampler(package, state)
    if draw is None:
        def draw(rng):
            return sample(package, state, rng)
    counts: Dict[str, int] = {}
    for _ in range(shots):
        outcome = draw(rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def measure_qubit(
    package: DDPackage,
    state: Edge,
    qubit: int,
    outcome: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[int, float, Edge]:
    """Measure ``qubit``; returns ``(outcome, probability, collapsed_state)``.

    If ``outcome`` is given it is forced (its probability must be non-zero),
    mirroring the user choosing an option in the tool's measurement dialog;
    otherwise the outcome is drawn from ``rng``.
    """
    p0, p1 = qubit_probabilities(package, state, qubit)
    if outcome is None:
        if rng is None:
            rng = np.random.default_rng()
        outcome = 0 if rng.random() < p0 else 1
    if outcome not in (0, 1):
        raise DDError(f"measurement outcome must be 0 or 1, got {outcome}")
    probability = p0 if outcome == 0 else p1
    if probability <= 0.0:
        raise InvalidStateError(
            f"outcome {outcome} on qubit {qubit} has probability zero"
        )
    collapsed = _project(package, state, qubit, outcome, probability)
    return outcome, probability, collapsed


def _project(
    package: DDPackage, state: Edge, qubit: int, outcome: int, probability: float
) -> Edge:
    """Apply the outcome projector and renormalize."""
    matrix = _P0 if outcome == 0 else _P1
    if getattr(package, "use_apply_kernels", False):
        # Diagonal kernel: the projector only rescales (zeroes) edge
        # weights, no full-system matrix DD is built.
        from repro.dd.apply import apply_single_qubit

        projected = apply_single_qubit(package, state, matrix, qubit)
    else:
        num_qubits = package.num_qubits(state)
        projector = package.single_qubit_gate(num_qubits, matrix, qubit)
        projected = package.multiply(projector, state)
    if projected.is_zero:
        raise InvalidStateError("projection annihilated the state")
    scale = package.complex_table.lookup(
        projected.weight / math.sqrt(probability)
    )
    return Edge(projected.node, scale)


def reset_qubit(
    package: DDPackage,
    state: Edge,
    qubit: int,
    outcome: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[int, float, Edge]:
    """Probabilistic reset (paper Sec. IV-B).

    Measures the qubit (``outcome`` may be forced, as in the tool's dialog),
    discards the other branch, and re-initializes the qubit to |0>.
    Returns ``(observed_outcome, probability, new_state)``.
    """
    observed, probability, collapsed = measure_qubit(
        package, state, qubit, outcome, rng
    )
    if observed == 1:
        if getattr(package, "use_apply_kernels", False):
            from repro.dd.apply import apply_single_qubit

            collapsed = apply_single_qubit(package, collapsed, _X, qubit)
        else:
            num_qubits = package.num_qubits(state)
            flip = package.single_qubit_gate(num_qubits, _X, qubit)
            collapsed = package.multiply(flip, collapsed)
    return observed, probability, collapsed
