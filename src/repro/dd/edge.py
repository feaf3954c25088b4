"""Weighted edges of decision diagrams.

An :class:`Edge` is a pointer to a node together with a complex weight.  The
amplitude of a basis state is the product of the edge weights along the
corresponding root-to-terminal path (paper Sec. III-A).

Two special shapes occur:

* the **zero stub**: an edge with weight ``0`` pointing directly at the
  terminal, denoting an all-zero sub-vector/sub-matrix regardless of level;
* **terminal edges** with non-zero weight, which represent scalars (they only
  appear as successors of level-0 nodes, or as the root of a 0-qubit DD).

Edges are immutable value objects; equality is structural (same node object,
same weight).  Weights stored on nodes and root weights handed out by the
package are canonical, so for those edges — thanks to hash consing and the
complex table — equality coincides with semantic equality of the
represented functions.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dd.complex_table import ComplexTable
from repro.dd.node import Node, TERMINAL


class Edge(NamedTuple):
    """A weighted pointer to a decision-diagram node."""

    node: Node
    weight: complex

    @property
    def is_zero(self) -> bool:
        """Whether this edge denotes the zero vector/matrix."""
        return self.weight == ComplexTable.ZERO

    @property
    def is_terminal(self) -> bool:
        """Whether this edge points at the terminal node."""
        return self.node.is_terminal

    def with_weight(self, weight: complex) -> "Edge":
        """A copy of this edge carrying ``weight`` instead."""
        return Edge(self.node, weight)

    def scaled(self, factor: complex, table: ComplexTable) -> "Edge":
        """This edge with its weight multiplied by ``factor``.

        The product stays a raw ``complex``: weights are canonicalized only
        where they land on a node (normalization) or leave the package as a
        root.  A product within ``table``'s tolerance of zero becomes the
        zero stub.
        """
        if factor == ComplexTable.ONE:
            return self
        product = self.weight * factor
        if table.is_zero(product):
            return ZERO_EDGE
        return Edge(self.node, product)


#: The canonical zero stub (all-zero sub-function).
ZERO_EDGE = Edge(TERMINAL, ComplexTable.ZERO)

#: The scalar 1 (used as the root of empty tensor products).
ONE_EDGE = Edge(TERMINAL, ComplexTable.ONE)
