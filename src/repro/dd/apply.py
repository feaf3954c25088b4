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
    ``SWAP . CZ . (S x S)``.

All kernels share one dedicated compute table (``DDPackage._apply_cache``)
keyed on ``(gate id, node)``, where the gate id holds the unitary's entries
(raw ``complex`` values, sub-tolerance entries snapped to zero), so repeated
gates (GHZ cascades, Grover iterations, the inverse side of the alternating
scheme) hit the cache.  Like the rest of the weight arithmetic, gate entries
are never looked up in the complex table; only the weights of the nodes the
kernel creates and the returned root weight are.

Results are bit-identical to the matrix path in the canonical sense: both
paths normalize through the same unique tables, so they yield the very
same root edge within one package (tested by the differential suite).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import MatrixNode, Node, VectorNode
from repro.dd.pooled import PooledApplyKernel
from repro.errors import DDError
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
# the recursive kernel
# ----------------------------------------------------------------------
class _ApplyKernel:
    """One prepared gate application: a 2x2 unitary at ``target`` with
    control lines, specialized to a DD mode.

    ``mode`` selects how node successors are traversed:

    * ``"v"``  — vector nodes, successors indexed by the qubit value;
    * ``"ml"`` — matrix nodes, the gate multiplies from the *left* (acts
      on the row index ``i`` of successor ``2*i + j``);
    * ``"mr"`` — matrix nodes, the gate multiplies from the *right* (acts
      on the column index ``j``; realized by transposing the unitary and
      reusing the row recursion on column-grouped successors).
    """

    __slots__ = (
        "package", "table", "mode", "u", "target", "controls",
        "low", "below", "below_low", "op_key", "proj_key", "kernel",
        "skipping", "high", "lines", "below_lines", "below_map",
    )

    def __init__(
        self,
        package,
        mode: str,
        matrix: np.ndarray,
        target: int,
        controls: Dict[int, int],
    ):
        self.package = package
        self.table = package.complex_table
        self.mode = mode
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise DDError(f"expected a 2x2 matrix, got shape {matrix.shape}")
        if mode == "mr":
            matrix = matrix.T
        self.u = tuple(self._snap(matrix[i, j]) for i in (0, 1) for j in (0, 1))
        self.target = target
        self.controls = dict(controls)
        for line, bit in self.controls.items():
            if line == target:
                raise DDError("target and control lines must be distinct")
            if bit not in (0, 1):
                raise DDError(f"control value must be 0 or 1, got {bit!r}")
        levels = [target, *self.controls]
        self.low = min(levels)
        self.high = max(levels)
        self.lines = tuple(sorted(levels, reverse=True))
        self.below = tuple(
            sorted((line, bit) for line, bit in self.controls.items() if line < target)
        )
        self.below_low = self.below[0][0] if self.below else target
        self.below_map = dict(self.below)
        self.below_lines = tuple(sorted(self.below_map, reverse=True))
        # Matrix DDs in identity-skipping packages may skip gate lines; the
        # level-tracking recursion (`_rec_s`) materializes skipped levels on
        # demand.  Vector DDs stay dense, so mode "v" keeps the fast path.
        self.skipping = mode != "v" and bool(
            getattr(package, "identity_skipping", False)
        )
        ctrl_key = tuple(sorted(self.controls.items()))
        self.op_key = ("apply", mode, self.u, target, ctrl_key)
        self.proj_key = ("proj", mode, self.below)
        if self.controls:
            self.kernel = "controlled"
        elif self.u[1] == ComplexTable.ZERO and self.u[2] == ComplexTable.ZERO:
            self.kernel = "diagonal"
        elif self.u[0] == ComplexTable.ZERO and self.u[3] == ComplexTable.ZERO:
            self.kernel = "antidiagonal"
        else:
            self.kernel = "generic"

    def _snap(self, value: complex) -> complex:
        value = complex(value)
        if self.table.is_zero(value):
            return ComplexTable.ZERO
        return value

    # -- entry -----------------------------------------------------------
    def run(self, root: Edge) -> Edge:
        if root.is_zero:
            return ZERO_EDGE
        node = root.node
        if self.skipping:
            if not node.is_terminal and not isinstance(node, MatrixNode):
                raise DDError("apply kernels need a matrix DD root")
            entry = self.high if node.is_terminal else max(self.high, node.var)
            return self.package._export(
                self._rec_s(node, entry).scaled(root.weight, self.table)
            )
        expected = VectorNode if self.mode == "v" else MatrixNode
        if node.is_terminal or not isinstance(node, expected):
            kind = "vector" if self.mode == "v" else "matrix"
            raise DDError(f"apply kernels need a non-trivial {kind} DD root")
        if node.var < self.target or (self.controls and node.var < max(self.controls)):
            raise DDError(
                f"gate lines exceed the DD's qubit range (root level {node.var})"
            )
        return self.package._export(self._rec(node).scaled(root.weight, self.table))

    # -- recursion over untouched upper levels ---------------------------
    def _rec(self, node: Node) -> Edge:
        if node.var < self.low:
            # Everything the gate touches lies above: the subtree (possibly
            # the terminal) is shared unchanged.
            return Edge(node, ComplexTable.ONE)
        cache = self.package._apply_cache
        key = (self.op_key, node)
        cached = cache.lookup(key)
        if cached is None:
            cached = self._expand(node)
            cache.insert(key, cached)
        return cached

    def _rec_edge(self, edge: Edge) -> Edge:
        if edge.is_zero:
            return ZERO_EDGE
        return self._rec(edge.node).scaled(edge.weight, self.table)

    def _expand(self, node: Node) -> Edge:
        var = node.var
        pairs = self._pairs(node)
        if var == self.target:
            new_pairs = [self._apply_target(pair) for pair in pairs]
        else:
            bit = self.controls.get(var)
            if bit is None:
                # A line between the gate's lines: descend on both branches.
                new_pairs = [
                    tuple(self._rec_edge(child) for child in pair) for pair in pairs
                ]
            else:
                # Control above the (remaining) gate lines: the active branch
                # continues, the inactive branch is shared unchanged.
                new_pairs = []
                for pair in pairs:
                    updated = list(pair)
                    updated[bit] = self._rec_edge(pair[bit])
                    new_pairs.append(tuple(updated))
        return self._make(var, new_pairs)

    # -- the target level -----------------------------------------------
    def _apply_target(self, pair: Tuple[Edge, Edge], project=None) -> Tuple[Edge, Edge]:
        """New successor pair at the target level.

        ``project`` maps a successor onto the controls below the target
        (``_proj_edge``, or ``_proj_s_edge`` in skipping mode).
        """
        u00, u01, u10, u11 = self.u
        c0, c1 = pair
        table = self.table
        if self.below:
            # Controls below the target: CU = I + P (U - I), with the
            # projector chain P applied to the subtrees first.
            add = self.package._add
            d00 = self._snap(u00 - 1.0)
            d11 = self._snap(u11 - 1.0)
            if project is None:
                p0 = self._proj_edge(c0)
                p1 = self._proj_edge(c1)
            else:
                p0 = project(c0, self.target - 1)
                p1 = project(c1, self.target - 1)
            new0 = add(c0, add(p0.scaled(d00, table), p1.scaled(u01, table)))
            new1 = add(c1, add(p0.scaled(u10, table), p1.scaled(d11, table)))
            return (new0, new1)
        if u01 == ComplexTable.ZERO and u10 == ComplexTable.ZERO:
            # Diagonal shortcut: only the edge weights change.
            return (c0.scaled(u00, table), c1.scaled(u11, table))
        if u00 == ComplexTable.ZERO and u11 == ComplexTable.ZERO:
            # Anti-diagonal shortcut (X/Y): swap the successors.
            return (c1.scaled(u01, table), c0.scaled(u10, table))
        add = self.package._add
        new0 = add(c0.scaled(u00, table), c1.scaled(u01, table))
        new1 = add(c0.scaled(u10, table), c1.scaled(u11, table))
        return (new0, new1)

    # -- projector chain for controls below the target -------------------
    def _proj_edge(self, edge: Edge) -> Edge:
        if edge.is_zero:
            return ZERO_EDGE
        return self._proj(edge.node).scaled(edge.weight, self.table)

    def _proj(self, node: Node) -> Edge:
        if node.var < self.below_low:
            return Edge(node, ComplexTable.ONE)
        cache = self.package._apply_cache
        key = (self.proj_key, node)
        cached = cache.lookup(key)
        if cached is None:
            var = node.var
            pairs = self._pairs(node)
            bit = dict(self.below).get(var)
            new_pairs = []
            for pair in pairs:
                if bit is None:
                    new_pairs.append(tuple(self._proj_edge(child) for child in pair))
                else:
                    updated = [ZERO_EDGE, ZERO_EDGE]
                    updated[bit] = self._proj_edge(pair[bit])
                    new_pairs.append(tuple(updated))
            cached = self._make(var, new_pairs)
            cache.insert(key, cached)
        return cached

    # -- identity-skipping recursion (matrix modes) ----------------------
    # Skipped levels stand for identities, so a gate line may fall *inside*
    # a skipped range.  Memoizing by node alone would collide (two parents
    # can reach the same node with different remaining gate lines), so the
    # recursion tracks the next gate line and keys the cache on it.
    @staticmethod
    def _next_line(lines: Tuple[int, ...], level: int) -> Optional[int]:
        for line in lines:
            if line <= level:
                return line
        return None

    def _pairs_at(self, node: Node, virtual: bool):
        if not virtual:
            return self._pairs(node)
        # The node skips this level: virtually a diagonal (e, 0, 0, e),
        # identical under row ("ml") and column ("mr") grouping.
        unit = Edge(node, ComplexTable.ONE)
        return ((unit, ZERO_EDGE), (ZERO_EDGE, unit))

    def _rec_s_edge(self, edge: Edge, level: int) -> Edge:
        if edge.is_zero:
            return ZERO_EDGE
        return self._rec_s(edge.node, level).scaled(edge.weight, self.table)

    def _rec_s(self, node: Node, level: int) -> Edge:
        line = self._next_line(self.lines, level)
        if line is None:
            return Edge(node, ComplexTable.ONE)
        cache = self.package._apply_cache
        key = (self.op_key, node, line)
        cached = cache.lookup(key)
        if cached is not None:
            return cached
        if not node.is_terminal and node.var > line:
            pairs = self._pairs(node)
            new_pairs = [
                tuple(self._rec_s_edge(child, node.var - 1) for child in pair)
                for pair in pairs
            ]
            cached = self._make(node.var, new_pairs)
        else:
            virtual = node.is_terminal or node.var < line
            pairs = self._pairs_at(node, virtual)
            if line == self.target:
                new_pairs = [
                    self._apply_target(pair, self._proj_s_edge) for pair in pairs
                ]
            else:
                bit = self.controls[line]
                new_pairs = []
                for pair in pairs:
                    updated = list(pair)
                    updated[bit] = self._rec_s_edge(pair[bit], line - 1)
                    new_pairs.append(tuple(updated))
            cached = self._make(line, new_pairs)
        cache.insert(key, cached)
        return cached

    def _proj_s_edge(self, edge: Edge, level: int) -> Edge:
        if edge.is_zero:
            return ZERO_EDGE
        return self._proj_s(edge.node, level).scaled(edge.weight, self.table)

    def _proj_s(self, node: Node, level: int) -> Edge:
        line = self._next_line(self.below_lines, level)
        if line is None:
            return Edge(node, ComplexTable.ONE)
        cache = self.package._apply_cache
        key = (self.proj_key, node, line)
        cached = cache.lookup(key)
        if cached is not None:
            return cached
        if not node.is_terminal and node.var > line:
            pairs = self._pairs(node)
            new_pairs = [
                tuple(self._proj_s_edge(child, node.var - 1) for child in pair)
                for pair in pairs
            ]
            cached = self._make(node.var, new_pairs)
        else:
            virtual = node.is_terminal or node.var < line
            pairs = self._pairs_at(node, virtual)
            bit = self.below_map[line]
            new_pairs = []
            for pair in pairs:
                updated = [ZERO_EDGE, ZERO_EDGE]
                updated[bit] = self._proj_s_edge(pair[bit], line - 1)
                new_pairs.append(tuple(updated))
            cached = self._make(line, new_pairs)
        cache.insert(key, cached)
        return cached

    # -- mode-dependent successor layout ---------------------------------
    def _pairs(self, node: Node):
        """Successors grouped into 2-vectors along the gate's active index."""
        edges = node.edges
        if self.mode == "v":
            return (edges,)
        if self.mode == "ml":
            # Row pairs per column j: (U_0j, U_1j).
            return ((edges[0], edges[2]), (edges[1], edges[3]))
        # "mr": column pairs per row i: (U_i0, U_i1).
        return ((edges[0], edges[1]), (edges[2], edges[3]))

    def _make(self, var: int, new_pairs) -> Edge:
        if self.mode == "v":
            return self.package.make_vector_node(var, new_pairs[0])
        if self.mode == "ml":
            (e00, e10), (e01, e11) = new_pairs
        else:
            (e00, e01), (e10, e11) = new_pairs
        return self.package.make_matrix_node(var, (e00, e01, e10, e11))


# ----------------------------------------------------------------------
# public vector-DD API
# ----------------------------------------------------------------------
def _make_kernel(package, mode, matrix, target, controls):
    """Build the kernel matching the package's storage backend.

    Both kernels share recursion structure, shortcuts and arithmetic, so
    the two backends stay bit-identical (the differential suite's check).
    """
    engine = getattr(package, "_pooled", None)
    if engine is None:
        return _ApplyKernel(package, mode, matrix, target, controls)
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
    package._maybe_gc()
    state = package._resolve(state)
    target, mapping = _map_lines(
        package, target, _control_map(controls, negative_controls)
    )
    kernel = _make_kernel(package, "v", matrix, target, mapping)
    if not package._obs_on:
        return kernel.run(state)
    start = perf_counter()
    result = kernel.run(state)
    _observe(package, kernel.kernel, start)
    return result


def apply_swap(
    package,
    state: Edge,
    line_a: int,
    line_b: int,
    controls: Sequence[int] = (),
    negative_controls: Sequence[int] = (),
) -> Edge:
    """Apply a (controlled) SWAP via three CX kernel applications.

    The standard Fredkin decomposition ``cx(c,b); ccx(ctrls+b, c); cx(c,b)``
    with all extra controls attached to the middle Toffoli — mirroring the
    matrix path so both produce the same operator.
    """
    if line_a == line_b:
        raise DDError("SWAP needs two distinct lines")
    package._maybe_gc()
    state = package._resolve(state)
    mapping = _control_map(controls, negative_controls)
    if not package._order_is_identity:
        line_a = package.level_of(line_a)
        line_b = package.level_of(line_b)
        mapping = {package.level_of(line): bit for line, bit in mapping.items()}
    start = perf_counter() if package._obs_on else None
    outer = _make_kernel(package, "v", _X_MATRIX, line_a, {line_b: 1})
    mapping[line_a] = 1
    inner = _make_kernel(package, "v", _X_MATRIX, line_b, mapping)
    result = outer.run(inner.run(outer.run(state)))
    if start is not None:
        _observe(package, "swap", start)
    return result


def _iswap_stages(targets: Tuple[int, int], sign: int):
    """iSWAP = SWAP . CZ . (S x S); the adjoint uses S† (``sign=-1``)."""
    high, low = targets
    phase = _S_MATRIX if sign > 0 else _SDG_MATRIX
    return (
        (phase, high, {}),
        (phase, low, {}),
        (_Z_MATRIX, high, {low: 1}),
    )


# ----------------------------------------------------------------------
# circuit-IR dispatch
# ----------------------------------------------------------------------
def apply_operation(package, state: Edge, operation, num_qubits: int):
    """Apply one :class:`~repro.qc.operations.GateOp` to a vector DD.

    Returns the new state edge, or ``None`` when the operation has no
    direct kernel (the caller falls back to the matrix path).
    """
    matrix = operation.matrix_readonly()
    targets = operation.targets
    if matrix.shape == (2, 2):
        return apply_controlled(
            package,
            state,
            matrix,
            targets[0],
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
    if operation.gate == "swap":
        return apply_swap(
            package,
            state,
            targets[0],
            targets[1],
            controls=operation.controls,
            negative_controls=operation.negative_controls,
        )
    if operation.gate in ("iswap", "iswapdg") and operation.num_controls == 0:
        start = perf_counter() if package._obs_on else None
        sign = 1 if operation.gate == "iswap" else -1
        result = package._resolve(state)
        for gate_matrix, target, ctrls in _iswap_stages(targets, sign):
            target, ctrls = _map_lines(package, target, ctrls)
            result = _make_kernel(package, "v", gate_matrix, target, ctrls).run(result)
        result = apply_swap(package, result, targets[0], targets[1])
        if start is not None:
            _observe(package, "swap", start)
        return result
    return None


def apply_operation_matrix(
    package, operand: Edge, operation, num_qubits: int, side: str = "left"
):
    """Apply a gate to a *matrix* DD from the left (``g . E``) or right
    (``E . g``) — the two moves of the alternating equivalence scheme.

    Returns ``None`` when the operation has no direct kernel.
    """
    if side not in ("left", "right"):
        raise DDError(f"side must be 'left' or 'right', got {side!r}")
    package._maybe_gc()
    operand = package._resolve(operand)
    mode = "ml" if side == "left" else "mr"
    matrix = operation.matrix_readonly()
    targets = operation.targets
    if matrix.shape == (2, 2):
        target, mapping = _map_lines(
            package,
            targets[0],
            _control_map(operation.controls, operation.negative_controls),
        )
        kernel = _make_kernel(package, mode, matrix, target, mapping)
        if not package._obs_on:
            return kernel.run(operand)
        start = perf_counter()
        result = kernel.run(operand)
        _observe(package, kernel.kernel, start)
        return result
    if matrix.shape != (4, 4):
        return None
    stages = _matrix_stages(package, operation, targets)
    if stages is None:
        return None
    start = perf_counter() if package._obs_on else None
    if side == "left":
        # (Fk ... F1) . E groups as Fk . (... . (F1 . E)): the first product
        # factor (stages are listed in application order) multiplies first.
        ordered = stages
    else:
        # E . (Fk ... F1) groups as ((E . Fk) . ...) . F1: the last factor
        # multiplies first from the right.
        ordered = tuple(reversed(stages))
    result = operand
    for gate_matrix, target, ctrls in ordered:
        target, ctrls = _map_lines(package, target, ctrls)
        result = _make_kernel(package, mode, gate_matrix, target, ctrls).run(result)
    if start is not None:
        _observe(package, "swap", start)
    return result


def _matrix_stages(package, operation, targets):
    """Decompose a supported 4x4 gate into 2x2 stages in *product order*
    (first stage = rightmost factor, applied first to a state)."""
    extra = _control_map(operation.controls, operation.negative_controls)
    if operation.gate == "swap":
        cx_outer = (_X_MATRIX, targets[0], {targets[1]: 1})
        inner_controls = dict(extra)
        inner_controls[targets[0]] = 1
        cx_inner = (_X_MATRIX, targets[1], inner_controls)
        return (cx_outer, cx_inner, cx_outer)
    if operation.gate in ("iswap", "iswapdg") and not extra:
        sign = 1 if operation.gate == "iswap" else -1
        high, low = targets
        swap_stages = (
            (_X_MATRIX, high, {low: 1}),
            (_X_MATRIX, low, {high: 1}),
            (_X_MATRIX, high, {low: 1}),
        )
        # Product order: SWAP . CZ . (S x S) — the phase layer acts first.
        return _iswap_stages(targets, sign) + swap_stages
    return None
