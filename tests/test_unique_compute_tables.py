"""Unit tests for hash-consing and memoization tables."""

import itertools

import pytest

from repro.dd.compute_table import ComputeTable
from repro.dd.pool import NodePool, PooledUniqueTable, TERMINAL_INDEX, WeightPool

#: Successor/weight-index pairs of a vector node: (|0> -> zero, |1> -> one)
#: and (|0> -> one, |1> -> one), in pool terms.
_ZERO_ONE = ((TERMINAL_INDEX, TERMINAL_INDEX), (0, WeightPool.ONE_INDEX))
_ONE_ONE = ((TERMINAL_INDEX, TERMINAL_INDEX), (WeightPool.ONE_INDEX,) * 2)


class _Consing:
    """A vector node pool behind its open-addressed unique table."""

    def __init__(self):
        self.table = PooledUniqueTable(NodePool(2))
        self._uids = itertools.count(1)

    def get_or_create(self, var, key):
        successors, weights = key
        slot, found = self.table.find_slot(var, successors, weights)
        if found >= 0:
            self.table.hits += 1
            return found
        self.table.misses += 1
        index = self.table.pool.alloc(var, successors, weights, next(self._uids))
        self.table.insert_at(slot, index)
        return index


class TestUniqueTable:
    def test_identical_structure_shares_node(self):
        consing = _Consing()
        a = consing.get_or_create(0, _ZERO_ONE)
        b = consing.get_or_create(0, _ZERO_ONE)
        assert a == b
        assert consing.table.hits == 1
        assert consing.table.misses == 1

    def test_different_levels_are_distinct(self):
        consing = _Consing()
        a = consing.get_or_create(0, _ZERO_ONE)
        b = consing.get_or_create(1, _ZERO_ONE)
        assert a != b

    def test_different_weights_are_distinct(self):
        consing = _Consing()
        a = consing.get_or_create(0, _ZERO_ONE)
        b = consing.get_or_create(0, _ONE_ONE)
        assert a != b

    def test_clear(self):
        consing = _Consing()
        keep = consing.get_or_create(0, _ZERO_ONE)
        consing.table.clear()
        assert len(consing.table) == 0
        again = consing.get_or_create(0, _ZERO_ONE)
        assert again != keep  # fresh node after clear
        assert consing.table.misses == 1


class TestComputeTable:
    def test_lookup_miss_then_hit(self):
        cache = ComputeTable("test")
        assert cache.lookup("key") is None
        cache.insert("key", "value")
        assert cache.lookup("key") == "value"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_capacity_clears_when_full(self):
        cache = ComputeTable("test", capacity=2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        cache.insert("c", 3)  # exceeds capacity: table cleared first
        assert cache.lookup("a") is None
        assert cache.lookup("c") == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ComputeTable("test", capacity=0)

    def test_hit_ratio(self):
        cache = ComputeTable("test")
        assert cache.hit_ratio == 0.0
        cache.insert("x", 1)
        cache.lookup("x")
        cache.lookup("y")
        assert 0.0 < cache.hit_ratio < 1.0

    def test_clear(self):
        cache = ComputeTable("test")
        cache.insert("x", 1)
        cache.clear()
        assert len(cache) == 0
