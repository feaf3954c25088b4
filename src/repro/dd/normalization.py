"""Normalization schemes for decision-diagram nodes.

To unify sub-vectors that only differ by a common factor, the weights of a
node's outgoing edges are normalized and the extracted factor is multiplied
onto the incoming edge (paper Sec. III-A).  Canonicity requires the rule to
be deterministic; two schemes are provided:

``L2``
    Divide the outgoing weights by the L2 norm of the weight vector and make
    the first non-zero weight real and non-negative.  This is the scheme of
    the paper's footnote 3 ([16]): every sub-tree then represents a vector of
    norm 1, so the squared magnitude of an edge weight *is* the probability
    of the corresponding measurement outcome, enabling single-path sampling.

``MAX_MAGNITUDE``
    Divide all outgoing weights by the weight of largest magnitude (ties
    broken towards the smallest index), which then becomes exactly 1.  This
    is the classic QMDD scheme and is used for matrix nodes, where an L2
    interpretation does not apply.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Sequence, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.errors import DDError


class NormalizationScheme(enum.Enum):
    """Deterministic weight-extraction rules for node creation."""

    L2 = "l2"
    MAX_MAGNITUDE = "max-magnitude"


def _clean_edges(edges: Sequence[Edge], table: ComplexTable) -> Tuple[Edge, ...]:
    """Replace numerically-zero weights by the canonical zero stub.

    Clamps both component-wise sub-tolerance weights (the canonical-zero
    definition) and weights whose *magnitude* is below the tolerance, so a
    ``|w| < tolerance`` edge can never become a division pivot — dividing
    by such a weight amplifies its rounding noise into a garbage phase on
    every sibling edge.  Non-finite weights are rejected outright: they
    would otherwise silently win the max-magnitude pivot selection.
    """
    cleaned = []
    for edge in edges:
        weight = edge.weight
        if not (math.isfinite(weight.real) and math.isfinite(weight.imag)):
            raise DDError(f"non-finite edge weight {weight!r} in normalization")
        if (
            weight == ComplexTable.ZERO
            or table.is_zero(weight)
            or abs(weight) < table.tolerance
        ):
            cleaned.append(ZERO_EDGE)
        else:
            cleaned.append(edge)
    return tuple(cleaned)


def normalize(
    edges: Sequence[Edge],
    table: ComplexTable,
    scheme: NormalizationScheme,
) -> Tuple[complex, Tuple[Edge, ...]]:
    """Normalize a node's successor edges.

    Returns ``(common_factor, normalized_edges)`` such that scaling the
    normalized edges by ``common_factor`` recovers the original weights.
    If all edges are zero, the common factor is 0 and all edges are zero
    stubs (the caller then collapses the whole node to a zero stub).

    The input weights may be raw ``complex`` values.  The factor and every
    normalized weight come back canonical: this is one of the two places
    the complex table is consulted (the other is a root edge leaving the
    package).
    """
    edges = _clean_edges(edges, table)
    if all(edge.is_zero for edge in edges):
        return ComplexTable.ZERO, edges
    if scheme is NormalizationScheme.L2:
        return _normalize_l2(edges, table)
    return _normalize_max(edges, table)


def _normalize_l2(
    edges: Tuple[Edge, ...], table: ComplexTable
) -> Tuple[complex, Tuple[Edge, ...]]:
    norm = math.sqrt(sum(abs(edge.weight) ** 2 for edge in edges))
    first = next(index for index, edge in enumerate(edges) if not edge.is_zero)
    phase = cmath.phase(edges[first].weight)
    factor = table.lookup(cmath.rect(norm, phase))
    normalized = []
    for index, edge in enumerate(edges):
        if edge.is_zero:
            normalized.append(ZERO_EDGE)
        elif index == first:
            # Exactly real and non-negative by construction.
            weight = table.lookup(complex(abs(edge.weight) / norm, 0.0))
            normalized.append(Edge(edge.node, weight))
        else:
            normalized.append(Edge(edge.node, table.lookup(edge.weight / factor)))
    return factor, tuple(normalized)


def _normalize_max(
    edges: Tuple[Edge, ...], table: ComplexTable
) -> Tuple[complex, Tuple[Edge, ...]]:
    magnitudes = [abs(edge.weight) for edge in edges]
    # Tolerance-aware pivot: the first edge whose magnitude ties with the
    # maximum.  A plain argmax would let ~1e-16 rounding noise pick
    # different pivots for equal diagrams, breaking canonicity.
    maximum = max(magnitudes)
    # ">=" rather than ">": for large magnitudes the tolerance subtraction
    # is absorbed (maximum - tol == maximum) and a strict comparison would
    # match nothing.
    pivot = next(
        index
        for index, magnitude in enumerate(magnitudes)
        if magnitude >= maximum - table.tolerance
    )
    factor = edges[pivot].weight
    normalized = []
    for index, edge in enumerate(edges):
        if edge.is_zero:
            normalized.append(ZERO_EDGE)
        elif index == pivot:
            normalized.append(Edge(edge.node, ComplexTable.ONE))
        else:
            normalized.append(Edge(edge.node, table.lookup(edge.weight / factor)))
    return table.lookup(factor), tuple(normalized)
