"""Canonical storage for complex edge weights.

Decision diagrams are only canonical if identical weights are recognised as
identical.  Under floating-point arithmetic, two computations of the same
amplitude (e.g. ``1/sqrt(2)`` obtained via normalization versus via a Hadamard
matrix entry) may differ in the last bits.  Following the complex-table design
of the JKQ/MQT DD package (ICCAD 2019), node and root weights are looked up
in a :class:`ComplexTable` which returns one canonical representative per
tolerance-ball, so that exact ``==`` comparison (and hashing) of those
weights is sound everywhere else in the package.

The table buckets values on a grid of width ``2 * tolerance`` and searches
the 2x2 block of buckets the query's tolerance ball can overlap, which
guarantees that any stored value within ``tolerance`` (in Chebyshev
distance) of the query is found.

Only weights that land on a node (normalization) and root weights leaving
the package are looked up; intermediate weight arithmetic stays raw
``complex`` (arXiv:1911.12691).
"""

from __future__ import annotations

import cmath
import math
import weakref
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Default tolerance used to identify complex numbers.
DEFAULT_TOLERANCE = 1e-10

_SQRT2_INV = 1.0 / math.sqrt(2.0)

#: Values every table holds permanently (0 and 1 first).
SEED_VALUES = (
    complex(0.0, 0.0), complex(1.0, 0.0), complex(-1.0, 0.0), 1j, -1j,
    complex(_SQRT2_INV, 0.0), complex(-_SQRT2_INV, 0.0),
    complex(0.0, _SQRT2_INV), complex(0.0, -_SQRT2_INV),
)


class ComplexTable:
    """Canonicalizes complex numbers up to a tolerance.

    Values within ``tolerance`` of an already-stored value are mapped to that
    stored representative; otherwise the value itself becomes a new canonical
    representative.  ``0`` and ``1`` are pre-seeded and always returned
    exactly, because the rest of the package tests edge weights against them.
    """

    #: Canonical zero and one, shared by every table.
    ZERO = complex(0.0, 0.0)
    ONE = complex(1.0, 0.0)

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        registry: Optional[MetricsRegistry] = None,
    ):
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = tolerance
        self._buckets: Dict[Tuple[int, int], List[complex]] = {}
        # Number of stored values, kept by every bucket mutation so that
        # ``len`` (polled by the governor's pressure checks) is O(1).
        self._count = 0
        # Plain-integer statistics (every weight canonicalization passes
        # through `lookup`, so the hot path must stay one increment); a
        # registry collector copies them into counters at export time.
        self.hits = 0
        self.misses = 0
        if registry is not None and registry.enabled:
            self._register(registry)
        self._seed()

    def _seed(self) -> None:
        """(Re-)insert the special values as canonical representatives.

        Shared by ``__init__``, ``clear`` and ``sweep`` so the seed set
        cannot drift between construction and later resets.  Idempotent:
        a seed that survived a sweep is not inserted twice.
        """
        for special in SEED_VALUES:
            bucket = self._buckets.setdefault(self._key(special), [])
            if special not in bucket:
                bucket.append(special)
                self._count += 1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def lookup(self, value: complex) -> complex:
        """Return the canonical representative for ``value``.

        If a stored value lies within the tolerance (component-wise), it is
        returned; otherwise ``value`` is stored and returned as-is.
        """
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ValueError(f"non-finite complex value: {value!r}")
        # Snap sub-tolerance components to exactly zero.  Besides improving
        # sharing, this keeps subnormals out of the table (cmath.phase
        # raises "math range error" on them).
        real, imag = value.real, value.imag
        tolerance = self.tolerance
        if real != 0.0 and abs(real) < tolerance:
            value = complex(0.0, imag)
        if imag != 0.0 and abs(imag) < tolerance:
            value = complex(value.real, 0.0)
        found = self._find(value)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        self._insert(value)
        return value

    def lookup_real(self, value: float) -> complex:
        """Canonicalize a real number (convenience wrapper)."""
        return self.lookup(complex(value, 0.0))

    def is_zero(self, value: complex) -> bool:
        """Whether ``value`` is (canonically) zero."""
        return value == self.ZERO or (
            abs(value.real) < self.tolerance and abs(value.imag) < self.tolerance
        )

    def is_one(self, value: complex) -> bool:
        """Whether ``value`` is (canonically) one."""
        return value == self.ONE or (
            abs(value.real - 1.0) < self.tolerance
            and abs(value.imag) < self.tolerance
        )

    def approx_equal(self, a: complex, b: complex) -> bool:
        """Whether two complex numbers agree within the tolerance."""
        return (
            abs(a.real - b.real) < self.tolerance
            and abs(a.imag - b.imag) < self.tolerance
        )

    def _register(self, registry: MetricsRegistry) -> None:
        hits = registry.counter("dd_complex_table_hits_total")
        misses = registry.counter("dd_complex_table_misses_total")
        ref = weakref.ref(self)

        def sync() -> None:
            table = ref()
            if table is not None:
                hits.set_value(table.hits)
                misses.set_value(table.misses)

        registry.add_collector(sync)

    def __len__(self) -> int:
        return self._count

    def entries(self) -> "list[Tuple[Tuple[int, int], complex]]":
        """Snapshot of ``(bucket key, stored value)`` pairs for audits."""
        return [
            (key, value)
            for key, bucket in self._buckets.items()
            for value in bucket
        ]

    def clear(self) -> None:
        """Drop all stored values (the special seeds are re-inserted)."""
        self._buckets.clear()
        self._count = 0
        self.hits = 0
        self.misses = 0
        self._seed()

    def sweep(self, marked: "set[complex]") -> int:
        """Drop every stored value not in ``marked``; return how many.

        This is the sweep half of the governor's mark-and-sweep: ``marked``
        must contain every weight still referenced by a live diagram (node
        successor weights plus registered root-edge weights), because
        removing a live weight's representative would let a later lookup
        mint a *different* representative — silently breaking the exact
        ``==``/hash canonicity the rest of the package relies on.  The
        special seeds always survive.  Only safe between operations: weights
        held solely by in-flight intermediates are not marked.
        """
        before = self._count
        survivors: Dict[Tuple[int, int], List[complex]] = {}
        count = 0
        for key, bucket in self._buckets.items():
            kept = [value for value in bucket if value in marked]
            if kept:
                survivors[key] = kept
                count += len(kept)
        self._buckets = survivors
        self._count = count
        self._seed()
        return before - self._count

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _key(self, value: complex) -> Tuple[int, int]:
        width = 2.0 * self.tolerance
        return (
            math.floor(value.real / width),
            math.floor(value.imag / width),
        )

    def _find(self, value: complex) -> "complex | None":
        """The nearest stored value within the tolerance, or ``None``.

        Buckets are ``2 * tolerance`` wide, so the tolerance ball around
        ``value`` overlaps at most two buckets per axis: the query's own and
        the neighbour on the side of the bucket's midpoint it lies on.
        Ties keep the first value found.
        """
        tolerance = self.tolerance
        width = 2.0 * tolerance
        real, imag = value.real, value.imag
        scaled_r = real / width
        scaled_i = imag / width
        key_r = math.floor(scaled_r)
        key_i = math.floor(scaled_i)
        rows = (key_r - 1, key_r) if scaled_r - key_r < 0.5 else (key_r, key_r + 1)
        cols = (key_i - 1, key_i) if scaled_i - key_i < 0.5 else (key_i, key_i + 1)
        get = self._buckets.get
        best = None
        best_dist = tolerance
        for row in rows:
            for col in cols:
                bucket = get((row, col))
                if bucket:
                    for stored in bucket:
                        dist = max(abs(stored.real - real), abs(stored.imag - imag))
                        if dist < best_dist:
                            best = stored
                            best_dist = dist
        return best

    def _insert(self, value: complex) -> None:
        self._buckets.setdefault(self._key(value), []).append(value)
        self._count += 1

    def _discard(self, value: complex) -> bool:
        """Remove one stored ``value`` from its bucket; return whether it was
        there.  Used by fault injection to model an over-eager sweep."""
        bucket = self._buckets.get(self._key(value))
        if not bucket or value not in bucket:
            return False
        bucket.remove(value)
        self._count -= 1
        return True


def phase_of(value: complex) -> float:
    """Phase of ``value`` in the half-open interval ``[0, 2*pi)``.

    Used by the visualization layer's HLS color wheel; exposed here because
    normalization also needs a consistent phase convention.
    """
    angle = cmath.phase(value)
    if angle < 0:
        angle += 2.0 * math.pi
    if angle >= 2.0 * math.pi:
        angle = 0.0
    return angle
