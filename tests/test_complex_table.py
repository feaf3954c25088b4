"""Unit tests for the complex-number table."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dd.complex_table import ComplexTable, DEFAULT_TOLERANCE, phase_of
from repro.dd.pool import WeightPool


class TestLookup:
    def test_zero_and_one_are_exact(self):
        table = ComplexTable()
        assert table.lookup(0.0) == ComplexTable.ZERO
        assert table.lookup(1.0 + 0.0j) == ComplexTable.ONE

    def test_nearby_values_unify(self):
        table = ComplexTable()
        first = table.lookup(0.123456789)
        second = table.lookup(0.123456789 + DEFAULT_TOLERANCE / 10)
        assert first == second
        assert first is not None

    def test_distant_values_stay_distinct(self):
        table = ComplexTable()
        first = table.lookup(0.5)
        second = table.lookup(0.5 + 100 * DEFAULT_TOLERANCE)
        assert first != second

    def test_near_one_snaps_to_exact_one(self):
        table = ComplexTable()
        assert table.lookup(1.0 + DEFAULT_TOLERANCE / 5) == ComplexTable.ONE

    def test_near_zero_snaps_to_exact_zero(self):
        table = ComplexTable()
        assert table.lookup(complex(1e-14, -1e-14)) == ComplexTable.ZERO

    def test_bucket_boundary_values_unify(self):
        # Two values straddling a bucket boundary but within tolerance must
        # still be identified (the 3x3 neighbourhood search).
        tolerance = 1e-6
        table = ComplexTable(tolerance)
        base = 5 * tolerance  # exactly on a bucket boundary
        first = table.lookup(base - tolerance / 4)
        second = table.lookup(base + tolerance / 4)
        assert first == second

    def test_half_tolerance_apart_across_bucket_edge(self):
        # Regression: two values tolerance/2 apart whose buckets differ
        # (one just below, one just above a grid line) must map to the
        # same canonical representative on both axes.
        tolerance = 1e-6
        table = ComplexTable(tolerance)
        for base in (3 * tolerance, -7 * tolerance):
            first = table.lookup(complex(base - tolerance / 4, 0.0))
            second = table.lookup(complex(base + tolerance / 4, 0.0))
            assert first == second, f"real-axis split at {base}"
        imag_base = 11 * tolerance
        first = table.lookup(complex(0.5, imag_base - tolerance / 4))
        second = table.lookup(complex(0.5, imag_base + tolerance / 4))
        assert first == second

    def test_sqrt2_inverse_is_seeded(self):
        table = ComplexTable()
        value = table.lookup(1.0 / math.sqrt(2.0))
        assert value == complex(1.0 / math.sqrt(2.0), 0.0)

    def test_imaginary_units_seeded(self):
        table = ComplexTable()
        assert table.lookup(complex(0.0, 1.0)) == 1j
        assert table.lookup(complex(0.0, -1.0)) == -1j

    def test_non_finite_rejected(self):
        table = ComplexTable()
        with pytest.raises(ValueError):
            table.lookup(complex(float("inf"), 0.0))
        with pytest.raises(ValueError):
            table.lookup(complex(0.0, float("nan")))

    def test_lookup_real_wrapper(self):
        table = ComplexTable()
        assert table.lookup_real(0.5) == complex(0.5, 0.0)

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ComplexTable(0.0)
        with pytest.raises(ValueError):
            ComplexTable(-1e-9)


class TestPredicates:
    def test_is_zero(self):
        table = ComplexTable()
        assert table.is_zero(ComplexTable.ZERO)
        assert table.is_zero(complex(1e-12, 1e-12))
        assert not table.is_zero(complex(1e-3, 0.0))

    def test_is_one(self):
        table = ComplexTable()
        assert table.is_one(ComplexTable.ONE)
        assert table.is_one(complex(1.0 + 1e-12, -1e-12))
        assert not table.is_one(complex(0.999, 0.0))

    def test_approx_equal(self):
        table = ComplexTable()
        assert table.approx_equal(0.3 + 0.4j, 0.3 + 0.4j + 1e-12)
        assert not table.approx_equal(0.3 + 0.4j, 0.3 + 0.5j)


class TestBookkeeping:
    def test_hit_and_miss_counting(self):
        table = ComplexTable()
        table.lookup(0.123)  # miss
        table.lookup(0.123)  # hit
        assert table.misses >= 1
        assert table.hits >= 1

    def test_len_counts_entries(self):
        table = ComplexTable()
        before = len(table)
        table.lookup(0.777)
        assert len(table) == before + 1

    def test_clear_reseeds_specials(self):
        table = ComplexTable()
        table.lookup(0.777)
        table.clear()
        assert table.lookup(1.0) == ComplexTable.ONE
        assert table.hits >= 0

    def test_clear_reseeds_full_special_set(self):
        # Regression: clear() used to re-insert only 0/1/-1/+-1j, so the
        # sqrt(2) family got fresh (bit-different) representatives after a
        # cache reset — breaking exact == against pre-clear weights.
        table = ComplexTable()
        sqrt2_inv = 1.0 / math.sqrt(2.0)
        before = len(table)
        table.clear()
        assert len(table) == before
        for special in (complex(sqrt2_inv, 0.0), complex(-sqrt2_inv, 0.0),
                        complex(0.0, sqrt2_inv), complex(0.0, -sqrt2_inv)):
            hits_before = table.hits
            assert table.lookup(special) == special
            assert table.hits == hits_before + 1  # seeded, not re-minted


class TestSweep:
    def test_unmarked_values_dropped(self):
        table = ComplexTable()
        keep = table.lookup(0.123 + 0.456j)
        table.lookup(0.777)
        table.lookup(-0.25j)
        reclaimed = table.sweep({keep})
        assert reclaimed == 2
        # The survivor keeps its identity (a re-lookup is a hit).
        hits_before = table.hits
        assert table.lookup(0.123 + 0.456j) == keep
        assert table.hits == hits_before + 1

    def test_specials_survive_empty_mark_set(self):
        table = ComplexTable()
        table.lookup(0.777)
        table.sweep(set())
        assert table.lookup(1.0) == ComplexTable.ONE
        assert table.lookup(1.0 / math.sqrt(2.0)) == complex(
            1.0 / math.sqrt(2.0), 0.0
        )

    def test_sweep_does_not_duplicate_marked_specials(self):
        # A marked seed survives the sweep AND gets re-seeded; the idempotent
        # _seed() must not insert it a second time.
        table = ComplexTable()
        size = len(table)
        table.sweep({ComplexTable.ONE, complex(0.0, 1.0)})
        assert len(table) == size
        table.sweep(set())
        assert len(table) == size


class TestPhaseOf:
    def test_positive_real_phase_zero(self):
        assert phase_of(complex(2.0, 0.0)) == 0.0

    def test_quadrants(self):
        assert abs(phase_of(1j) - math.pi / 2) < 1e-12
        assert abs(phase_of(-1.0 + 0j) - math.pi) < 1e-12
        assert abs(phase_of(-1j) - 1.5 * math.pi) < 1e-12

    def test_range_half_open(self):
        angle = phase_of(complex(1.0, -1e-18))
        assert 0.0 <= angle < 2.0 * math.pi


_LEN_VALUES = st.complex_numbers(
    max_magnitude=4.0, allow_nan=False, allow_infinity=False
)
_LEN_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), _LEN_VALUES),
        st.tuples(st.just("sweep"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


@pytest.mark.parametrize("factory", [ComplexTable, WeightPool])
@settings(max_examples=60, deadline=None)
@given(ops=_LEN_OPS)
def test_len_equals_bucket_total(factory, ops):
    """``len`` is a running count; it must match the buckets after any
    sequence of inserts, sweeps and clears."""
    table = factory()
    stored = []
    for op, arg in ops:
        if op == "lookup":
            stored.append(table.lookup(arg))
        elif op == "sweep":
            # Keep every (arg+1)-th value seen so far.
            table.sweep(set(stored[:: arg + 1]))
        else:
            table.clear()
            stored.clear()
        assert len(table) == sum(len(b) for b in table._buckets.values())
