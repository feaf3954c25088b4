"""Unit tests for the normalization schemes (paper footnote 3).

Every case goes through the package's normalizing constructors: vector
nodes under the ``L2`` and ``MAX_MAGNITUDE`` schemes
(``make_vector_node``) and four-successor matrix nodes
(``make_matrix_node``, always ``MAX_MAGNITUDE``).  A constructor returns
the extracted common factor as the root weight and stores the normalized
weights on the node's successor edges.
"""

import cmath
import math

import pytest

from repro.dd.complex_table import ComplexTable
from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import TERMINAL
from repro.dd.normalization import NormalizationScheme
from repro.dd.package import DDPackage
from repro.errors import DDError


def _edges(*weights):
    return tuple(Edge(TERMINAL, complex(w)) if w != 0 else ZERO_EDGE for w in weights)


def _normalize(package, edges):
    """``(factor, normalized edges)`` of a node built from ``edges``."""
    if len(edges) == 4:
        root = package.make_matrix_node(0, edges)
    else:
        root = package.make_vector_node(0, edges)
    if root.is_zero:
        return root.weight, (ZERO_EDGE,) * len(edges)
    return root.weight, root.node.edges


def _l2():
    return DDPackage()


def _max():
    return DDPackage(vector_scheme=NormalizationScheme.MAX_MAGNITUDE)


class TestL2:
    def test_unit_pair_already_normalized(self):
        package = _l2()
        inv = 1.0 / math.sqrt(2.0)
        factor, edges = _normalize(package, _edges(inv, inv))
        assert factor == ComplexTable.ONE
        assert edges[0].weight == package.complex_table.lookup(inv)

    def test_norm_extracted(self):
        factor, edges = _normalize(_l2(), _edges(3.0, 4.0))
        assert abs(factor - 5.0) < 1e-12
        norm = math.sqrt(sum(abs(e.weight) ** 2 for e in edges))
        assert abs(norm - 1.0) < 1e-12

    def test_first_nonzero_weight_positive_real(self):
        factor, edges = _normalize(_l2(), _edges(1j * 0.6, 0.8j))
        first = edges[0].weight
        assert abs(first.imag) < 1e-12
        assert first.real > 0
        # Reconstruction: factor * normalized weight == original.
        assert cmath.isclose(factor * first, 0.6j, abs_tol=1e-12)

    def test_zero_first_branch(self):
        factor, edges = _normalize(_l2(), _edges(0.0, -2.0))
        assert edges[0] == ZERO_EDGE
        assert abs(edges[1].weight - 1.0) < 1e-12  # real, positive
        assert abs(factor + 2.0) < 1e-12

    def test_all_zero(self):
        factor, edges = _normalize(_l2(), (ZERO_EDGE, ZERO_EDGE))
        assert factor == ComplexTable.ZERO
        assert all(edge == ZERO_EDGE for edge in edges)

    def test_tiny_weights_treated_as_zero(self):
        factor, edges = _normalize(_l2(), _edges(1e-14, 1.0))
        assert edges[0] == ZERO_EDGE


class TestMaxMagnitude:
    def test_pivot_becomes_exactly_one(self):
        factor, edges = _normalize(_max(), _edges(0.5, -0.75))
        assert edges[1].weight == ComplexTable.ONE
        assert abs(factor + 0.75) < 1e-12

    def test_tie_broken_towards_smaller_index(self):
        factor, edges = _normalize(_max(), _edges(0.5, 0.5))
        assert edges[0].weight == ComplexTable.ONE
        assert abs(factor - 0.5) < 1e-12

    def test_four_edges(self):
        package = _l2()
        factor, edges = _normalize(package, _edges(0.0, 1j, 0.0, -1j))
        assert edges[1].weight == ComplexTable.ONE
        assert abs(factor - 1j) < 1e-12
        assert edges[3].weight == package.complex_table.lookup(-1.0)

    def test_reconstruction(self):
        weights = (0.1 + 0.2j, -0.3, 0.05j, 0.0)
        factor, edges = _normalize(_l2(), _edges(*weights))
        for original, edge in zip(weights, edges):
            assert cmath.isclose(factor * edge.weight, original, abs_tol=1e-12)


class TestNearZeroClamp:
    """Near-zero and non-finite weights must never reach normalization."""

    def test_sub_tolerance_magnitude_clamped_both_schemes(self):
        for package in (_l2(), _max()):
            tolerance = package.complex_table.tolerance
            tiny = complex(tolerance * 0.5, -tolerance * 0.5)
            for pair in (
                (Edge(TERMINAL, tiny), Edge(TERMINAL, 0.8 + 0j)),
                (Edge(TERMINAL, tiny), Edge(TERMINAL, 0.8 + 0j), ZERO_EDGE, ZERO_EDGE),
            ):
                factor, edges = _normalize(package, pair)
                assert edges[0] == ZERO_EDGE
                assert not edges[1].is_zero

    def test_tiny_weight_never_becomes_pivot(self):
        # If the only non-zero weight is sub-tolerance, the whole node must
        # collapse to the zero stub — dividing by a ~1e-11 pivot would blow
        # its rounding noise up into garbage sibling phases.
        for package in (_l2(), _max()):
            tiny = complex(package.complex_table.tolerance * 0.9, 0.0)
            for pair in (
                (Edge(TERMINAL, tiny), ZERO_EDGE),
                (Edge(TERMINAL, tiny), ZERO_EDGE, ZERO_EDGE, ZERO_EDGE),
            ):
                factor, edges = _normalize(package, pair)
                assert factor == ComplexTable.ZERO
                assert all(edge == ZERO_EDGE for edge in edges)

    def test_non_finite_weight_rejected(self):
        for bad in (
            complex(float("inf"), 0.0),
            complex(0.0, float("-inf")),
            complex(float("nan"), 0.0),
        ):
            for package, edges in (
                (_max(), (Edge(TERMINAL, bad), Edge(TERMINAL, ComplexTable.ONE))),
                (_l2(), (Edge(TERMINAL, bad), Edge(TERMINAL, ComplexTable.ONE))),
                (_l2(), (Edge(TERMINAL, bad), ZERO_EDGE, ZERO_EDGE, ZERO_EDGE)),
            ):
                with pytest.raises(DDError):
                    _normalize(package, edges)
