"""The decision-diagram package facade.

:class:`DDPackage` owns the complex table, the unique tables and the compute
tables, and exposes every operation the paper builds on:

* construction of state DDs (``zero_state``, ``basis_state``,
  ``from_state_vector``) and operation DDs (``identity``, ``from_matrix``,
  ``single_qubit_gate``, ``controlled_gate``, ``two_qubit_gate``);
* arithmetic — element-wise addition, matrix-vector and matrix-matrix
  multiplication (paper Fig. 4), tensor products by terminal replacement
  (paper Fig. 3) and conjugate transposition;
* queries — node counts (terminal excluded, as in the paper), amplitudes,
  dense reconstruction, inner products and norms.

Weights stored on nodes are canonicalized through the complex table during
normalization, and every root edge a public operation returns carries a
canonical weight, so those edges compare with plain ``==`` and two
structurally equal diagrams share the very same root node (canonicity; paper
Sec. III-C).  Weight arithmetic in between (edge scaling, ``add`` ratios,
multiply/kron factors) stays raw ``complex`` (arXiv:1911.12691).

Qubit/level convention follows the paper's big-endian notation: level ``n-1``
(the root) is the most-significant qubit ``q_{n-1}``, level ``0`` is ``q_0``.
"""

from __future__ import annotations

import os
import weakref
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE
from repro.dd.compute_table import ComputeTable
from repro.dd.edge import Edge, ONE_EDGE, ZERO_EDGE
from repro.dd.governance import GcStats, MemoryBudget, ResourceGovernor
from repro.dd.node import MatrixNode, TERMINAL
from repro.dd.normalization import NormalizationScheme
from repro.dd.pool import WeightPool
from repro.dd.pooled import MATRIX, PooledEngine, PooledUniqueAdapter, VECTOR
from repro.errors import DDError, InvalidStateError
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

_ID2 = np.eye(2, dtype=complex)

#: Elementary matrices |i><j| used to decompose two-qubit gates.
_ELEMENTARY = {
    (i, j): np.array(
        [[1.0 if (r, c) == (i, j) else 0.0 for c in (0, 1)] for r in (0, 1)],
        dtype=complex,
    )
    for i in (0, 1)
    for j in (0, 1)
}

BitString = Union[str, int, Sequence[int]]


def _bits_from(value: BitString, num_qubits: int) -> Tuple[int, ...]:
    """Normalize a basis-state designator to a big-endian bit tuple."""
    if isinstance(value, str):
        if len(value) != num_qubits or any(c not in "01" for c in value):
            raise DDError(f"invalid basis string {value!r} for {num_qubits} qubits")
        return tuple(int(c) for c in value)
    if isinstance(value, int):
        if not 0 <= value < (1 << num_qubits):
            raise DDError(f"basis index {value} out of range for {num_qubits} qubits")
        return tuple((value >> (num_qubits - 1 - k)) & 1 for k in range(num_qubits))
    bits = tuple(int(b) for b in value)
    if len(bits) != num_qubits or any(b not in (0, 1) for b in bits):
        raise DDError(f"invalid bit sequence {value!r} for {num_qubits} qubits")
    return bits


class DDPackage:
    """A self-contained decision-diagram package instance.

    Diagrams created by different packages must not be mixed: canonicity
    only holds within one package's unique tables.

    Parameters
    ----------
    tolerance:
        Complex-number identification tolerance.
    vector_scheme:
        Normalization scheme for vector nodes.  The default ``L2`` scheme
        (paper footnote 3) makes subtree norms 1, enabling single-path
        sampling; ``MAX_MAGNITUDE`` is provided for ablation.
    registry:
        Metrics registry receiving the package's table statistics and
        operation counters/timers.  Each package creates a private registry
        by default (so per-package statistics stay separate); pass one
        explicitly to aggregate several components into one report.
    use_apply_kernels:
        The package's gate path, read by :mod:`repro.dd.apply` only.  On
        (the default), gates are applied by direct kernels that build no
        full-system gate DD.  Off, each gate's matrix DD is built and
        multiplied on; both give the same canonical edges.  The matrix
        path stays a real setting because its gate DDs count toward a
        node budget: the budgeted ``reorder="pressure"`` cells of
        ``benchmarks/campaigns/variable_order.json`` sift earlier on it
        (``blocked-n8-dynamic`` peaks at 21 nodes, 30 on the kernels).
    budget:
        Memory budget enforced by the package's resource governor
        (:mod:`repro.dd.governance`).  The default budget has no limits:
        ``incref``/``decref``/``gc`` still work (so workers can force a
        collection between jobs), but no automatic collection triggers.
    sanitize_every:
        Run the structural sanitizer (:mod:`repro.sanitizer`) every N
        public operations, raising :class:`~repro.errors.SanitizerError`
        on the first violation.  ``0`` disables op-boundary sanitizing;
        ``None`` (the default) reads the ``REPRO_SANITIZE_EVERY``
        environment variable (unset/invalid means disabled).  While
        enabled, the sanitizer also runs after every garbage collection.
    event_bus:
        Optional :class:`repro.obs.events.EventBus` onto which the package
        publishes structured events: ``dd.gc`` per collection,
        ``dd.pressure`` per pressure-tier transition and ``dd.sanitize``
        per failing sanitizer run (the live dashboard's state feed).
    reorder:
        Dynamic variable-reordering mode.  ``"off"`` (the default) keeps
        the level-to-qubit mapping fixed; ``"manual"`` enables explicit
        :meth:`reorder` calls (sifting, :mod:`repro.dd.reorder`);
        ``"pressure"`` additionally lets the resource governor sift the
        variable order on SOFT memory pressure, before it starts shedding
        compute-table entries.  ``None`` reads ``REPRO_DD_REORDER``.
    identity_skipping:
        Reduce matrix-DD nodes of the form ``(e, 0, 0, e)`` to ``e``
        (arXiv:2406.11959): an edge from level ``l`` straight to a node
        at level ``k < l - 1`` denotes identities on the skipped levels.
        Shrinks operation DDs that act trivially on many qubits (the
        common case during functionality construction and alternating
        verification).  Only matrix DDs skip; vector DDs stay dense.
        ``None`` reads ``REPRO_DD_IDENTITY_SKIPPING`` (``1``/``true``).
    """

    _OPERATION_NAMES = ("add", "multiply", "kron", "adjoint", "inner_product")

    _REORDER_MODES = ("off", "manual", "pressure")

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        vector_scheme: NormalizationScheme = NormalizationScheme.L2,
        cache_capacity: int = 1 << 16,
        registry: Optional[MetricsRegistry] = None,
        use_apply_kernels: bool = True,
        budget: Optional[MemoryBudget] = None,
        sanitize_every: Optional[int] = None,
        event_bus=None,
        reorder: Optional[str] = None,
        identity_skipping: Optional[bool] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Optional :class:`repro.obs.events.EventBus`: the governor
        #: publishes GC/pressure events onto it and :meth:`sanitize`
        #: publishes its verdicts, feeding the service's live streams.
        self.event_bus = event_bus
        self.use_apply_kernels = use_apply_kernels
        if reorder is None:
            reorder = os.environ.get("REPRO_DD_REORDER", "").strip() or "off"
        if reorder not in self._REORDER_MODES:
            raise DDError(
                f"unknown reorder mode {reorder!r} "
                f"(expected one of: {', '.join(self._REORDER_MODES)})"
            )
        self.reorder_mode = reorder
        if identity_skipping is None:
            raw = os.environ.get("REPRO_DD_IDENTITY_SKIPPING", "").strip().lower()
            identity_skipping = raw in ("1", "true", "yes", "on")
        self.identity_skipping = bool(identity_skipping)
        # Level-to-qubit order map: ``_order[level]`` is the qubit hosted at
        # ``level``.  Grown lazily; the identity flag keeps the fast path of
        # every walk free of permutation work while no reorder has run.
        self._order: List[int] = []
        self._order_is_identity = True
        # Reorder root-translation map: old root node -> current Edge.  Edges
        # handed out before a reorder stay resolvable through it (see
        # :meth:`_resolve`); composition keeps every entry one hop deep.
        # Keyed weakly: an entry dies with the last stale edge holding its
        # old root, so a sift never pins the pre-reorder diagram.
        self._remap: "weakref.WeakKeyDictionary[object, Edge]" = (
            weakref.WeakKeyDictionary()
        )
        self._in_reorder = False
        self._reorder_pending = False
        self._reorder_cooldown = 0
        self._reorder_runs = 0
        self._reorder_swaps = 0
        self.complex_table = WeightPool(tolerance, registry=self.registry)
        self.vector_scheme = vector_scheme
        self._add_cache = ComputeTable("add", cache_capacity, registry=self.registry)
        self._mult_mv_cache = ComputeTable(
            "mult-mv", cache_capacity, registry=self.registry
        )
        self._mult_mm_cache = ComputeTable(
            "mult-mm", cache_capacity, registry=self.registry
        )
        self._kron_cache = ComputeTable("kron", cache_capacity, registry=self.registry)
        self._adjoint_cache = ComputeTable(
            "adjoint", cache_capacity, registry=self.registry
        )
        self._inner_cache = ComputeTable(
            "inner", cache_capacity, registry=self.registry
        )
        self._apply_cache = ComputeTable(
            "apply", cache_capacity, registry=self.registry
        )
        self._pooled = PooledEngine(
            self.complex_table,
            vector_scheme,
            {
                "add": self._add_cache,
                "mult-mv": self._mult_mv_cache,
                "mult-mm": self._mult_mm_cache,
                "kron": self._kron_cache,
                "adjoint": self._adjoint_cache,
                "inner": self._inner_cache,
                "apply": self._apply_cache,
            },
            identity_skipping=self.identity_skipping,
        )
        self._vector_unique = PooledUniqueAdapter(
            self._pooled, "vector", registry=self.registry
        )
        self._matrix_unique = PooledUniqueAdapter(
            self._pooled, "matrix", registry=self.registry
        )
        # Operation counters/timers cover only the *public* entry points;
        # the recursive workers below them stay uninstrumented so the hot
        # recursion pays nothing.
        self._obs_on = self.registry.enabled
        self._op_counters = {
            name: self.registry.counter("dd_ops_total", {"op": name})
            for name in self._OPERATION_NAMES
        }
        self._op_timers = {
            name: self.registry.histogram(
                "dd_op_seconds", DEFAULT_TIME_BUCKETS, {"op": name}
            )
            for name in self._OPERATION_NAMES
        }
        # Sanitizer state must exist before the governor: `collect()` calls
        # back into `_post_gc_sanitize()`.
        if sanitize_every is None:
            raw = os.environ.get("REPRO_SANITIZE_EVERY", "")
            try:
                sanitize_every = int(raw) if raw.strip() else 0
            except ValueError:
                sanitize_every = 0
        self.sanitize_every = max(0, int(sanitize_every))
        self._sanitize_ticks = 0
        self.sanitize_runs = 0
        self.sanitize_violations = 0
        self.last_sanitize_report = None
        self._m_sanitize_runs = self.registry.counter("dd_sanitize_runs_total")
        self._m_sanitize_violations = self.registry.counter(
            "dd_sanitize_violations_total"
        )
        self.governor = ResourceGovernor(
            self,
            budget if budget is not None else MemoryBudget(),
            self.registry,
            event_bus=event_bus,
        )
        # Occupancy is sampled at export time through a weakly-bound
        # collector, so a shared registry never keeps a package alive.
        ref = weakref.ref(self)
        self.registry.add_collector(
            lambda: None if ref() is None else ref()._collect_occupancy()
        )

    def _collect_occupancy(self) -> None:
        """Sample table occupancy into gauges (export-time collector)."""
        registry = self.registry
        registry.gauge("dd_complex_table_entries").set(len(self.complex_table))
        registry.gauge("dd_unique_table_entries", {"kind": "vector"}).set(
            len(self._vector_unique)
        )
        registry.gauge("dd_unique_table_entries", {"kind": "matrix"}).set(
            len(self._matrix_unique)
        )
        for table in self._compute_tables():
            registry.gauge(
                "dd_compute_table_entries", {"table": table.name}
            ).set(len(table))
        # Plain-int hot-path counters, synced into the registry at export
        # time so the recursions pay nothing while metrics are idle.
        registry.counter("dd_identity_skipped_total").set_value(
            self.identity_skip_count
        )
        registry.counter("dd_reorder_total").set_value(self._reorder_runs)
        registry.counter("dd_reorder_swaps_total").set_value(self._reorder_swaps)

    def _observe_op(self, name: str, start: float) -> None:
        self._op_counters[name].inc()
        self._op_timers[name].observe(perf_counter() - start)

    # ------------------------------------------------------------------
    # variable order
    # ------------------------------------------------------------------
    def _ensure_order(self, num_qubits: int) -> None:
        """Grow the level-to-qubit map to cover ``num_qubits`` levels."""
        while len(self._order) < num_qubits:
            self._order.append(len(self._order))

    def qubit_at(self, level: int) -> int:
        """The qubit hosted at ``level`` under the current variable order."""
        if self._order_is_identity or level >= len(self._order):
            return level
        return self._order[level]

    def level_of(self, qubit: int) -> int:
        """The level currently hosting ``qubit``."""
        if self._order_is_identity:
            return qubit
        try:
            return self._order.index(qubit)
        except ValueError:
            return qubit

    @property
    def qubit_order(self) -> List[int]:
        """Copy of the level-to-qubit map (index = level, value = qubit)."""
        return list(self._order) if self._order else []

    def _refresh_order_identity(self) -> None:
        self._order_is_identity = all(
            qubit == level for level, qubit in enumerate(self._order)
        )

    def _resolve(self, edge: Edge) -> Edge:
        """Translate an edge handed out before a reorder to its current root.

        Reordering rebuilds diagrams under the new variable order; edges the
        caller captured earlier keep pointing at the old structure.  Every
        public entry point funnels operands through this map so stale edges
        keep working.  A no-op (and near-free) while no reorder has run.
        """
        if not self._remap or edge.is_zero or edge.node.is_terminal:
            return edge
        res = self._remap.get(edge.node)
        if res is None:
            return edge
        if res.is_zero:
            return ZERO_EDGE
        return Edge(res.node, self.complex_table.lookup(edge.weight * res.weight))

    def _export(self, edge: Edge) -> Edge:
        """Canonicalize the weight of a root edge leaving the package."""
        weight = self.complex_table.lookup(edge.weight)
        if weight == ComplexTable.ZERO:
            return ZERO_EDGE
        return Edge(edge.node, weight)

    # ------------------------------------------------------------------
    # node creation (normalizing constructors)
    # ------------------------------------------------------------------
    def make_vector_node(self, var: int, edges: Sequence[Edge]) -> Edge:
        """Create (or reuse) a normalized vector node; returns its edge.

        The returned edge's weight is the common factor extracted by the
        normalization scheme.  If all successors are zero, the zero stub is
        returned instead of a node.
        """
        if var < 0:
            raise DDError("vector nodes require a non-negative level")
        return self._pooled.make_node_public(VECTOR, var, edges)

    def make_matrix_node(self, var: int, edges: Sequence[Edge]) -> Edge:
        """Create (or reuse) a normalized matrix node; returns its edge."""
        if var < 0:
            raise DDError("matrix nodes require a non-negative level")
        return self._pooled.make_node_public(MATRIX, var, edges)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def zero_state(self, num_qubits: int) -> Edge:
        """The all-zero state |0...0> as a vector DD (paper Ex. 3)."""
        return self.basis_state(num_qubits, 0)

    def basis_state(self, num_qubits: int, bits: BitString) -> Edge:
        """The computational basis state |bits> as a vector DD."""
        if num_qubits <= 0:
            raise DDError("states require at least one qubit")
        bit_tuple = _bits_from(bits, num_qubits)
        edge = ONE_EDGE
        for var in range(num_qubits):
            bit = bit_tuple[num_qubits - 1 - self.qubit_at(var)]
            children = [ZERO_EDGE, ZERO_EDGE]
            children[bit] = edge
            edge = self.make_vector_node(var, children)
        return edge

    def from_state_vector(self, vector: Iterable[complex]) -> Edge:
        """Build a vector DD from a dense state vector of length ``2**n``.

        The recursive sub-vector decomposition of paper Sec. III-A; sharing
        happens automatically through the unique table.
        """
        array = np.asarray(list(vector), dtype=complex).reshape(-1)
        size = array.shape[0]
        num_qubits = int(size).bit_length() - 1
        if size < 2 or (1 << num_qubits) != size:
            raise InvalidStateError(f"state vector length {size} is not a power of two >= 2")
        array = self._permute_vector_axes(array, num_qubits)
        return self._vector_from_array(array, num_qubits - 1)

    def _permute_vector_axes(self, array: np.ndarray, num_qubits: int) -> np.ndarray:
        """Permute a dense state vector from qubit order into level order.

        The recursive array decompositions assign array axis ``k`` (MSB
        first) to level ``n-1-k``; under a non-identity variable order that
        level hosts qubit ``order[n-1-k]``, so the axes must be shuffled.
        """
        if self._order_is_identity:
            return array
        axes = [
            num_qubits - 1 - self.qubit_at(num_qubits - 1 - k)
            for k in range(num_qubits)
        ]
        return array.reshape([2] * num_qubits).transpose(axes).reshape(-1)

    def _vector_from_array(self, array: np.ndarray, var: int) -> Edge:
        if var < 0:
            value = complex(array[0])
            if self.complex_table.is_zero(value):
                return ZERO_EDGE
            return Edge(TERMINAL, value)
        half = array.shape[0] // 2
        low = self._vector_from_array(array[:half], var - 1)
        high = self._vector_from_array(array[half:], var - 1)
        return self.make_vector_node(var, (low, high))

    # ------------------------------------------------------------------
    # matrix construction
    # ------------------------------------------------------------------
    def identity(self, num_qubits: int) -> Edge:
        """The identity operation on ``num_qubits`` qubits as a matrix DD."""
        if num_qubits <= 0:
            raise DDError("operations require at least one qubit")
        edge = ONE_EDGE
        for var in range(num_qubits):
            edge = self.make_matrix_node(var, (edge, ZERO_EDGE, ZERO_EDGE, edge))
        return edge

    def from_matrix(self, matrix: "np.ndarray | Sequence[Sequence[complex]]") -> Edge:
        """Build a matrix DD from a dense ``2**n x 2**n`` matrix.

        Splits into the four sub-matrices ``U_ij`` recursively (paper Ex. 7).
        """
        array = np.asarray(matrix, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise DDError(f"expected a square matrix, got shape {array.shape}")
        size = array.shape[0]
        num_qubits = int(size).bit_length() - 1
        if size < 2 or (1 << num_qubits) != size:
            raise DDError(f"matrix dimension {size} is not a power of two >= 2")
        if not self._order_is_identity:
            axes = [
                num_qubits - 1 - self.qubit_at(num_qubits - 1 - k)
                for k in range(num_qubits)
            ]
            array = (
                array.reshape([2] * (2 * num_qubits))
                .transpose(axes + [num_qubits + a for a in axes])
                .reshape(size, size)
            )
        return self._matrix_from_array(array, num_qubits - 1)

    def _matrix_from_array(self, array: np.ndarray, var: int) -> Edge:
        if var < 0:
            value = complex(array[0, 0])
            if self.complex_table.is_zero(value):
                return ZERO_EDGE
            return Edge(TERMINAL, value)
        half = array.shape[0] // 2
        blocks = (
            array[:half, :half],
            array[:half, half:],
            array[half:, :half],
            array[half:, half:],
        )
        children = tuple(self._matrix_from_array(block, var - 1) for block in blocks)
        return self.make_matrix_node(var, children)

    def _chain(self, num_qubits: int, factors: Dict[int, np.ndarray]) -> Edge:
        """Matrix DD for a tensor-product chain with 2x2 ``factors`` at the
        given qubit lines and identities everywhere else."""
        edge = ONE_EDGE
        for var in range(num_qubits):
            matrix = factors.get(self.qubit_at(var), _ID2)
            children: List[Edge] = []
            for i in (0, 1):
                for j in (0, 1):
                    value = complex(matrix[i, j])
                    if self.complex_table.is_zero(value) or edge.is_zero:
                        children.append(ZERO_EDGE)
                    else:
                        children.append(edge.scaled(value, self.complex_table))
            edge = self.make_matrix_node(var, children)
        return edge

    def single_qubit_gate(
        self, num_qubits: int, matrix: np.ndarray, target: int
    ) -> Edge:
        """Matrix DD of a single-qubit gate embedded into ``num_qubits``
        qubits (identity on all other lines; paper Ex. 3 / Fig. 3)."""
        self._check_line(num_qubits, target)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        return self._chain(num_qubits, {target: matrix})

    def controlled_gate(
        self,
        num_qubits: int,
        matrix: np.ndarray,
        target: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        Uses the identity ``CU = I + P_c ⊗ (U - I)`` where ``P_c`` projects
        the control lines onto their active values: the gate acts only where
        all positive controls are |1> and all negative controls |0>.
        """
        self._check_line(num_qubits, target)
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        lines = {target, *controls, *negative_controls}
        if len(lines) != 1 + len(controls) + len(negative_controls):
            raise DDError("target and control lines must be distinct")
        for line in lines:
            self._check_line(num_qubits, line)
        if not controls and not negative_controls:
            return self._chain(num_qubits, {target: matrix})
        factors: Dict[int, np.ndarray] = {target: matrix - _ID2}
        for control in controls:
            factors[control] = _ELEMENTARY[(1, 1)]
        for control in negative_controls:
            factors[control] = _ELEMENTARY[(0, 0)]
        return self._export(
            self._add(self.identity(num_qubits), self._chain(num_qubits, factors))
        )

    def two_qubit_gate(
        self, num_qubits: int, matrix: np.ndarray, qubit_high: int, qubit_low: int
    ) -> Edge:
        """Matrix DD of an arbitrary two-qubit gate on any pair of lines.

        ``matrix`` is the 4x4 unitary in big-endian order with ``qubit_high``
        as the more significant of the two lines.  Decomposes into
        ``sum_ij |i><j|_high ⊗ B_ij_low`` (four tensor-product chains).
        """
        self._check_line(num_qubits, qubit_high)
        self._check_line(num_qubits, qubit_low)
        if qubit_high == qubit_low:
            raise DDError("two-qubit gates need two distinct lines")
        if qubit_high < qubit_low:
            raise DDError("qubit_high must be the more significant line")
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (4, 4):
            raise DDError(f"expected a 4x4 matrix, got shape {matrix.shape}")
        result = ZERO_EDGE
        for i in (0, 1):
            for j in (0, 1):
                block = matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if np.allclose(block, 0.0, atol=self.complex_table.tolerance):
                    continue
                term = self._chain(
                    num_qubits,
                    {qubit_high: _ELEMENTARY[(i, j)], qubit_low: block},
                )
                result = self._add(result, term)
        return self._export(result)

    @staticmethod
    def _check_line(num_qubits: int, line: int) -> None:
        if not 0 <= line < num_qubits:
            raise DDError(f"qubit line {line} out of range for {num_qubits} qubits")

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def add(self, left: Edge, right: Edge) -> Edge:
        """Element-wise sum of two vector or two matrix DDs (paper Fig. 4)."""
        self._maybe_gc()
        left = self._resolve(left)
        right = self._resolve(right)
        if not self._obs_on:
            return self._export(self._add(left, right))
        start = perf_counter()
        result = self._export(self._add(left, right))
        self._observe_op("add", start)
        return result

    def _add(self, left: Edge, right: Edge) -> Edge:
        if left.is_zero:
            return right
        if right.is_zero:
            return left
        engine = self._pooled
        lt, rt = left.node.is_terminal, right.node.is_terminal
        if not lt and not rt and type(left.node) is not type(right.node):
            raise DDError("cannot add a vector DD and a matrix DD")
        probe = right.node if lt else left.node
        kind = MATRIX if isinstance(probe, MatrixNode) else VECTOR
        return engine.to_edge(
            kind, engine.add(kind, engine.from_edge(left), engine.from_edge(right))
        )

    def multiply(self, operation: Edge, operand: Edge) -> Edge:
        """Matrix-vector or matrix-matrix product (paper Fig. 4).

        ``operation`` must be a matrix DD; ``operand`` may be a vector DD
        (simulation step) or a matrix DD (functionality construction).
        """
        self._maybe_gc()
        operation = self._resolve(operation)
        operand = self._resolve(operand)
        if not self._obs_on:
            return self._export(self._multiply(operation, operand))
        start = perf_counter()
        result = self._export(self._multiply(operation, operand))
        self._observe_op("multiply", start)
        return result

    def _multiply(self, operation: Edge, operand: Edge) -> Edge:
        if operation.is_zero or operand.is_zero:
            return ZERO_EDGE
        if not isinstance(operation.node, MatrixNode):
            if self.identity_skipping and operation.node.is_terminal:
                # A fully skipped operation (w * identity) rescales the
                # operand, whatever its kind.
                return operand.scaled(operation.weight, self.complex_table)
            raise DDError("the first multiply operand must be a matrix DD")
        engine = self._pooled
        left, right = engine.from_edge(operation), engine.from_edge(operand)
        if isinstance(operand.node, MatrixNode) or (
            self.identity_skipping and operand.node.is_terminal
        ):
            # With identity skipping a terminal operand is a collapsed
            # identity matrix (vector DDs stay level-dense, so a terminal
            # state can only be the 0-qubit scalar, where the mm rescale
            # is the same answer).
            return engine.to_edge(MATRIX, engine.multiply_mm(left, right))
        return engine.to_edge(VECTOR, engine.multiply_mv(left, right))

    def kron(
        self, top: Edge, bottom: Edge, bottom_qubits: Optional[int] = None
    ) -> Edge:
        """Tensor product ``top ⊗ bottom`` by terminal replacement.

        The terminal of ``top`` is replaced by the root of ``bottom`` and the
        ``top`` levels are shifted above ``bottom``'s (paper Fig. 3).  Works
        for two vector DDs or two matrix DDs.  With identity skipping the
        span of a matrix DD is no longer ``root.var + 1``; pass
        ``bottom_qubits`` explicitly when ``bottom`` skips at its root.
        """
        self._maybe_gc()
        top = self._resolve(top)
        bottom = self._resolve(bottom)
        if not self._obs_on:
            return self._export(self._kron(top, bottom, bottom_qubits))
        start = perf_counter()
        result = self._export(self._kron(top, bottom, bottom_qubits))
        self._observe_op("kron", start)
        return result

    def _kron(
        self, top: Edge, bottom: Edge, bottom_qubits: Optional[int] = None
    ) -> Edge:
        if top.is_zero or bottom.is_zero:
            return ZERO_EDGE
        if (
            not top.node.is_terminal
            and not bottom.node.is_terminal
            and type(top.node) is not type(bottom.node)
        ):
            raise DDError("cannot tensor a vector DD with a matrix DD")
        shift = bottom.node.var + 1 if bottom_qubits is None else bottom_qubits
        engine = self._pooled
        probe = bottom.node if top.node.is_terminal else top.node
        kind = MATRIX if isinstance(probe, MatrixNode) else VECTOR
        return engine.to_edge(
            kind,
            engine.kron(kind, engine.from_edge(top), engine.from_edge(bottom), shift),
        )

    # ------------------------------------------------------------------
    # direct gate application (no gate DD is constructed)
    # ------------------------------------------------------------------
    def apply_single_qubit_gate(
        self, state: Edge, matrix: np.ndarray, target: int
    ) -> Edge:
        """Apply a single-qubit gate directly to a vector DD.

        Unlike :meth:`single_qubit_gate` + :meth:`multiply`, no full-system
        matrix DD is built — the kernel recurses over the state diagram
        alone (:mod:`repro.dd.apply`).
        """
        from repro.dd import apply as apply_kernels

        self._check_line(self.num_qubits(state), target)
        return apply_kernels.apply_single_qubit(self, state, matrix, target)

    def apply_controlled_gate(
        self,
        state: Edge,
        matrix: np.ndarray,
        target: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Apply a (multi-)controlled single-qubit gate directly to a
        vector DD (the direct counterpart of :meth:`controlled_gate`)."""
        from repro.dd import apply as apply_kernels

        num_qubits = self.num_qubits(state)
        for line in (target, *controls, *negative_controls):
            self._check_line(num_qubits, line)
        return apply_kernels.apply_controlled(
            self, state, matrix, target, controls, negative_controls
        )

    def apply_swap_gate(
        self,
        state: Edge,
        line_a: int,
        line_b: int,
        controls: Sequence[int] = (),
        negative_controls: Sequence[int] = (),
    ) -> Edge:
        """Apply a (controlled) SWAP directly to a vector DD."""
        from repro.dd import apply as apply_kernels

        num_qubits = self.num_qubits(state)
        for line in (line_a, line_b, *controls, *negative_controls):
            self._check_line(num_qubits, line)
        return apply_kernels.apply_swap(
            self, state, line_a, line_b, controls, negative_controls
        )

    def adjoint(self, operation: Edge) -> Edge:
        """Conjugate transpose of a matrix DD."""
        self._maybe_gc()
        operation = self._resolve(operation)
        if not self._obs_on:
            return self._export(self._adjoint(operation))
        start = perf_counter()
        result = self._export(self._adjoint(operation))
        self._observe_op("adjoint", start)
        return result

    def _adjoint(self, operation: Edge) -> Edge:
        if operation.is_zero:
            return ZERO_EDGE
        if not operation.node.is_terminal and not isinstance(
            operation.node, MatrixNode
        ):
            raise DDError("adjoint is only defined for matrix DDs")
        engine = self._pooled
        return engine.to_edge(MATRIX, engine.adjoint(engine.from_edge(operation)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @staticmethod
    def num_qubits(edge: Edge) -> int:
        """Number of qubits of a (non-zero) DD rooted at ``edge``."""
        return edge.node.var + 1

    def node_count(self, edge: Edge) -> int:
        """Number of non-terminal nodes reachable from ``edge``.

        The terminal is not counted, following the paper's convention
        (Ex. 6: the Bell-state DD "consists of 3 nodes").
        """
        node = self._resolve(edge).node
        if node.is_terminal:
            return 0
        return self._pooled.count_nodes(node._KIND, self._pooled.node_index(node))

    def amplitude(self, state: Edge, basis: BitString, num_qubits: Optional[int] = None) -> complex:
        """Amplitude of ``|basis>`` in ``state`` (product of path weights)."""
        state = self._resolve(state)
        if num_qubits is None:
            num_qubits = self.num_qubits(state)
        bits = _bits_from(basis, num_qubits)
        if not self._order_is_identity:
            # Walk step k descends level n-1-k, which hosts qubit
            # order[n-1-k]; pick that qubit's bit from the big-endian input.
            bits = tuple(
                bits[num_qubits - 1 - self.qubit_at(num_qubits - 1 - k)]
                for k in range(num_qubits)
            )
        value = complex(1.0, 0.0)
        edge = state
        for bit in bits:
            if edge.is_zero:
                return ComplexTable.ZERO
            value *= edge.weight
            edge = edge.node.edges[bit]
        if edge.is_zero:
            return ComplexTable.ZERO
        return self.complex_table.lookup(value * edge.weight)

    def matrix_entry(
        self,
        operation: Edge,
        row: BitString,
        column: BitString,
        num_qubits: Optional[int] = None,
    ) -> complex:
        """Entry ``U[row, column]`` of a matrix DD.

        Skip-aware: a node below the expected level (identity skipping)
        contributes identity entries for the skipped levels.  Pass
        ``num_qubits`` explicitly for DDs that skip at the root.
        """
        operation = self._resolve(operation)
        if num_qubits is None:
            num_qubits = self.num_qubits(operation)
        row_bits = _bits_from(row, num_qubits)
        col_bits = _bits_from(column, num_qubits)
        if not self._order_is_identity:
            permuted = tuple(
                num_qubits - 1 - self.qubit_at(num_qubits - 1 - k)
                for k in range(num_qubits)
            )
            row_bits = tuple(row_bits[p] for p in permuted)
            col_bits = tuple(col_bits[p] for p in permuted)
        value = complex(1.0, 0.0)
        edge = operation
        for k in range(num_qubits):
            if edge.is_zero:
                return ComplexTable.ZERO
            level = num_qubits - 1 - k
            i, j = row_bits[k], col_bits[k]
            node = edge.node
            if node.is_terminal or node.var < level:
                # Skipped level: identity — diagonal survives, rest is zero.
                if i != j:
                    return ComplexTable.ZERO
                continue
            value *= edge.weight
            edge = node.edges[2 * i + j]
        if edge.is_zero:
            return ComplexTable.ZERO
        return self.complex_table.lookup(value * edge.weight)

    def to_vector(self, state: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense state vector represented by ``state`` (for small systems)."""
        state = self._resolve(state)
        if num_qubits is None:
            num_qubits = self.num_qubits(state)
        out = np.zeros(1 << num_qubits, dtype=complex)
        self._fill_vector(state, 0, complex(1.0, 0.0), out)
        return out

    def _fill_vector(
        self, edge: Edge, offset: int, weight: complex, out: np.ndarray
    ) -> None:
        if edge.is_zero:
            return
        weight = weight * edge.weight
        if edge.node.is_terminal:
            out[offset] = weight
            return
        # Level ``var`` hosts qubit ``order[var]``: its bit's significance.
        stride = 1 << self.qubit_at(edge.node.var)
        self._fill_vector(edge.node.edges[0], offset, weight, out)
        self._fill_vector(edge.node.edges[1], offset + stride, weight, out)

    def to_matrix(self, operation: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Dense matrix represented by ``operation`` (for small systems).

        Skip-aware: pass ``num_qubits`` explicitly for identity-skipping
        DDs whose root sits below the intended top level.
        """
        operation = self._resolve(operation)
        if num_qubits is None:
            num_qubits = self.num_qubits(operation)
        size = 1 << num_qubits
        out = np.zeros((size, size), dtype=complex)
        self._fill_matrix(operation, num_qubits - 1, 0, 0, complex(1.0, 0.0), out)
        return out

    def _fill_matrix(
        self,
        edge: Edge,
        level: int,
        row: int,
        column: int,
        weight: complex,
        out: np.ndarray,
    ) -> None:
        if edge.is_zero:
            return
        node = edge.node
        if level < 0:
            out[row, column] = weight * edge.weight
            return
        stride = 1 << self.qubit_at(level)
        if node.is_terminal or node.var < level:
            # Skipped level: identity — recurse diagonally with the same
            # edge, deferring its weight until the node is reached.
            self._fill_matrix(edge, level - 1, row, column, weight, out)
            self._fill_matrix(
                edge, level - 1, row + stride, column + stride, weight, out
            )
            return
        weight = weight * edge.weight
        for i in (0, 1):
            for j in (0, 1):
                self._fill_matrix(
                    node.edges[2 * i + j],
                    level - 1,
                    row + i * stride,
                    column + j * stride,
                    weight,
                    out,
                )

    def inner_product(self, left: Edge, right: Edge) -> complex:
        """The inner product ``<left|right>`` of two vector DDs."""
        self._maybe_gc()
        left = self._resolve(left)
        right = self._resolve(right)
        if not self._obs_on:
            return self._inner_product(left, right)
        start = perf_counter()
        result = self._inner_product(left, right)
        self._observe_op("inner_product", start)
        return result

    def _inner_product(self, left: Edge, right: Edge) -> complex:
        if left.is_zero or right.is_zero:
            return ComplexTable.ZERO
        if isinstance(left.node, MatrixNode) or isinstance(right.node, MatrixNode):
            raise DDError("the inner product is defined on vector DDs")
        factor = left.weight.conjugate() * right.weight
        engine = self._pooled
        return self.complex_table.lookup(
            factor
            * engine.inner_nodes(
                engine.node_index(left.node), engine.node_index(right.node)
            )
        )

    def norm_squared(self, state: Edge) -> float:
        """Squared L2 norm of a vector DD."""
        return self.inner_product(state, state).real

    def fidelity(self, left: Edge, right: Edge) -> float:
        """``|<left|right>|**2`` of two (normalized) states."""
        return abs(self.inner_product(left, right)) ** 2

    # ------------------------------------------------------------------
    # dynamic variable reordering
    # ------------------------------------------------------------------
    def reorder(self, strategy: str = "sifting", max_growth: float = 2.0) -> Dict:
        """Re-optimize the variable order of all live (incref'd) roots.

        Runs the sifting optimizer of :mod:`repro.dd.reorder`: each variable
        is moved through every level via adjacent swaps and settled where
        the total diagram is smallest.  Edges handed out before the call
        remain valid — every public entry point translates them through the
        package's remap (:meth:`_resolve`).  Returns a summary dict with
        ``nodes_before``/``nodes_after``/``swaps``/``order``.

        Only enabled with ``reorder="manual"`` or ``"pressure"``.
        """
        if self.reorder_mode == "off":
            raise DDError(
                "dynamic reordering is disabled; construct the package with "
                "reorder='manual' or reorder='pressure'"
            )
        return self._reorder_now(strategy, max_growth)

    def _reorder_now(self, strategy: str = "sifting", max_growth: float = 2.0) -> Dict:
        from repro.dd.reorder import sift

        if strategy != "sifting":
            raise DDError(f"unknown reorder strategy {strategy!r}")
        if self._in_reorder:
            raise DDError("reorder() is not reentrant")
        self._in_reorder = True
        try:
            summary = sift(self, max_growth=max_growth)
        finally:
            self._in_reorder = False
        self._reorder_runs += 1
        # Memoized results remain structurally sound across a reorder, but
        # gate DDs cached per (gate, qubits) are built for the old order.
        self.clear_caches()
        cache = getattr(self, "_gate_dd_cache", None)
        if cache is not None:
            cache.clear()
        return summary

    def _pressure_reorder(self) -> None:
        """Governor hook: request a sift on SOFT pressure
        (``reorder="pressure"``).

        The sift itself is *deferred* to the next :meth:`incref`: pressure
        is detected at operation entry, where callers may still hold
        unrooted intermediate edges (a staged kernel result, a freshly
        built gate DD) that the root remap cannot see — reordering under
        their feet would silently re-interpret their levels.  An incref is
        the natural safe point: the caller is committing a result, so
        every edge that must survive is registered with the governor.
        """
        if self.reorder_mode != "pressure" or self._in_reorder:
            return
        if self._reorder_cooldown > 0:
            self._reorder_cooldown -= 1
            return
        self._reorder_pending = True

    def _run_pending_reorder(self) -> None:
        """Run a pressure-requested sift (called from :meth:`incref`).

        A sift that saves less than 1% of nodes triggers a cooldown to
        keep repeated SOFT collections from thrashing on a local minimum.
        """
        self._reorder_pending = False
        if self.reorder_mode != "pressure" or self._in_reorder:
            return
        summary = self._reorder_now()
        before = summary.get("nodes_before", 0)
        after = summary.get("nodes_after", 0)
        if before <= 0 or (before - after) < 0.01 * before:
            self._reorder_cooldown = 8

    def _retire_stale_roots(self, nodes) -> None:
        """Withdraw pre-reorder root nodes from the unique tables.

        Called by the reorder rebuild *before* any swap conses new nodes.
        The old roots become the remap's domain; evicting them first
        guarantees neither the rebuild itself nor any later operation can
        hash-cons onto a stale node — without this, a rebuilt diagram that
        coincides with another old root (e.g. reordering a state whose
        SWAP-ed twin is also rooted) would alias two meanings onto one
        node object and :meth:`_resolve` would translate fresh edges.
        """
        for node in nodes:
            self._pooled.retire_node(node)

    def _apply_reorder_remap(self, mapping: Dict[object, Edge]) -> None:
        """Fold a swap's old-node -> new-edge map into the package remap.

        Existing entries are re-targeted through the new mapping (so the
        remap stays one hop deep), then genuinely new entries are added and
        the governor's root registry is rebuilt.
        """
        if not mapping:
            return
        table = self.complex_table
        for old_node, edge in list(self._remap.items()):
            res = mapping.get(edge.node)
            if res is not None:
                self._remap[old_node] = (
                    ZERO_EDGE
                    if res.is_zero
                    else Edge(res.node, table.lookup(edge.weight * res.weight))
                )
        for old_node, edge in mapping.items():
            if old_node not in self._remap:
                self._remap[old_node] = edge
        self.governor.remap_roots(self._resolve)

    # ------------------------------------------------------------------
    # resource governance
    # ------------------------------------------------------------------
    def incref(self, edge: Edge) -> Edge:
        """Register a long-lived root edge with the governor.

        Holders of roots that must survive garbage collection — simulators,
        verification engines, service sessions — call this so a complex-
        table sweep never purges the root's weight representative.  Node
        liveness itself is still governed by ordinary Python references.
        Returns the (resolved) ``edge`` for call-through convenience.
        """
        edge = self._resolve(edge)
        self.governor.incref(edge)
        if self._reorder_pending:
            self._run_pending_reorder()
            edge = self._resolve(edge)
        return edge

    def decref(self, edge: Edge) -> None:
        """Release a root edge registered with :meth:`incref`.

        Unbalanced calls are tolerated: a decref of an unregistered edge is
        a no-op, and a forgotten decref self-cleans once the node dies.
        """
        self.governor.decref(self._resolve(edge))

    def gc(self, force: bool = False) -> GcStats:
        """Run one garbage collection at the current pressure tier.

        ``force=True`` runs the full HARD tier (clear compute tables, sweep
        the complex table) regardless of measured pressure.  Only safe
        between operations — never call from inside a DD recursion; raises
        :class:`DDError` while a reorder is running.
        """
        return self.governor.collect(force=force)

    def _maybe_gc(self) -> None:
        """Governor hook for public operation entry points.

        Runs *before* the operation starts, when no un-marked intermediate
        edges are in flight; a sweep mid-recursion could purge weights held
        only by local variables and silently degrade canonicity.  The
        sanitizer tick shares this boundary for the same reason: between
        operations every live edge is table-resident, so a violation here
        is a real invariant break, never an in-flight intermediate.
        """
        if self.sanitize_every:
            self._sanitize_ticks += 1
            if self._sanitize_ticks >= self.sanitize_every:
                self._sanitize_ticks = 0
                self.sanitize(raise_on_violation=True)
        if self.governor.should_collect():
            self.governor.collect()

    # ------------------------------------------------------------------
    # sanitizing
    # ------------------------------------------------------------------
    def sanitize(self, raise_on_violation: bool = False):
        """Verify the package's structural invariants.

        Walks the unique tables, the complex table and the governor's root
        registry, checking hash-consing canonicity, normalization, weight
        hygiene and representative uniqueness (see :mod:`repro.sanitizer`).
        Returns the :class:`~repro.sanitizer.core.SanitizeReport`; with
        ``raise_on_violation`` a failing report raises
        :class:`~repro.errors.SanitizerError` instead.
        """
        from repro.sanitizer.core import DDSanitizer

        report = DDSanitizer(self).run()
        self.sanitize_runs += 1
        self.last_sanitize_report = report
        self._m_sanitize_runs.inc()
        if not report.ok:
            self.sanitize_violations += len(report.violations)
            self._m_sanitize_violations.inc(len(report.violations))
            if self.event_bus is not None:
                self.event_bus.publish("dd.sanitize", {
                    "ok": False,
                    "violations": len(report.violations),
                    "violations_total": self.sanitize_violations,
                    "checks": sorted({v.check for v in report.violations}),
                })
            if raise_on_violation:
                report.raise_if_violations()
        return report

    def _post_gc_sanitize(self) -> None:
        """Governor callback: re-verify invariants right after a collection.

        A sweep is the riskiest moment for canonicity (a live weight swept
        from the complex table lets a later lookup mint a second
        representative), so while sanitizing is enabled every collection is
        followed by a full check.
        """
        if self.sanitize_every:
            self.sanitize(raise_on_violation=True)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop all memoized operation results (unique tables are kept)."""
        for table in self._compute_tables():
            table.clear()
        self._pooled.clear_memos()

    def _compute_tables(self) -> Tuple[ComputeTable, ...]:
        return (
            self._add_cache,
            self._mult_mv_cache,
            self._mult_mm_cache,
            self._kron_cache,
            self._adjoint_cache,
            self._inner_cache,
            self._apply_cache,
        )

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Table statistics (sizes and hit ratios) for diagnostics."""
        result: Dict[str, Dict[str, float]] = {
            "complex_table": {
                "entries": len(self.complex_table),
                "hits": self.complex_table.hits,
                "misses": self.complex_table.misses,
            },
            "unique_vector": {
                "entries": len(self._vector_unique),
                "hits": self._vector_unique.hits,
                "misses": self._vector_unique.misses,
            },
            "unique_matrix": {
                "entries": len(self._matrix_unique),
                "hits": self._matrix_unique.hits,
                "misses": self._matrix_unique.misses,
            },
        }
        for table in self._compute_tables():
            result[table.name] = {
                "entries": len(table),
                "hits": table.hits,
                "misses": table.misses,
                "hit_ratio": table.hit_ratio,
            }
        result["governance"] = self.governor.stats()
        result["storage"] = self._pooled.stats()
        result["sanitizer"] = {
            "every": self.sanitize_every,
            "runs": self.sanitize_runs,
            "violations": self.sanitize_violations,
        }
        result["reorder"] = {
            "mode": self.reorder_mode,
            "identity_skipping": self.identity_skipping,
            "runs": self._reorder_runs,
            "swaps": self._reorder_swaps,
            "identity_skips": self.identity_skip_count,
            "order": (
                "identity" if self._order_is_identity else self.qubit_order
            ),
        }
        return result

    @property
    def identity_skip_count(self) -> int:
        """Total matrix-node reductions performed by identity skipping."""
        return self._pooled.identity_skips
