"""Memoization caches for decision-diagram operations.

DD packages employ *compute tables* so that repeated sub-computations (which
abound, thanks to sharing) are performed only once (paper footnote 4).  This
module provides a bounded cache: when the table exceeds its capacity it is
cleared wholesale, mirroring the fixed-size overwrite-on-collision tables of
the C++ package while staying simple and allocation-friendly in Python.

Keys may contain node objects (kept alive while cached — harmless because the
cache is bounded) and canonical complex weights.
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, Optional

from repro.obs.metrics import MetricsRegistry


class ComputeTable:
    """A bounded memoization table with hit/miss statistics.

    ``hits`` / ``misses`` / ``evictions`` are plain integer attributes so
    the lookup hot path costs exactly one increment.  When a ``registry``
    is given, a weakref-bound collector copies them into registry counters
    (labelled with the table name) at export time, so ``DDPackage.stats()``,
    the ``qdd-tool stats`` command and any Prometheus scrape all read the
    same numbers without taxing lookups.
    """

    def __init__(
        self,
        name: str,
        capacity: int = 1 << 16,
        registry: Optional[MetricsRegistry] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._table: Dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if registry is not None and registry.enabled:
            self._register(registry)

    def _register(self, registry: MetricsRegistry) -> None:
        labels = {"table": self.name}
        hits = registry.counter("dd_compute_table_hits_total", labels)
        misses = registry.counter("dd_compute_table_misses_total", labels)
        evictions = registry.counter("dd_compute_table_evictions_total", labels)
        ref = weakref.ref(self)

        def sync() -> None:
            table = ref()
            if table is not None:
                hits.set_value(table.hits)
                misses.set_value(table.misses)
                evictions.set_value(table.evictions)

        registry.add_collector(sync)

    def lookup(self, key: Hashable):
        """Return the cached result for ``key`` or ``None`` if absent."""
        result = self._table.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def insert(self, key: Hashable, result: object) -> None:
        """Cache ``result`` under ``key`` (clearing the table when full)."""
        if len(self._table) >= self.capacity:
            self._table.clear()
            self.evictions += 1
        self._table[key] = result

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Empty the table and reset the hit/miss statistics.

        The counters describe the *current* table contents — after a HARD
        collection empties it, a stale pre-collection ratio would
        misrepresent cache effectiveness in ``stats()`` and ``/metrics``
        until enough fresh traffic drowned it out.  Evictions stay
        cumulative (they count capacity events over the table's lifetime).
        """
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def shrink(self, fraction: float = 0.5) -> int:
        """Drop the oldest ``fraction`` of entries; return how many.

        Dict insertion order approximates LRU-by-insertion: the oldest
        entries are the least likely to be hit again.  Used by the resource
        governor's SOFT pressure tier.  Like :meth:`clear`, a shrink
        that actually drops entries resets the hit/miss statistics so the
        reported ratio describes the surviving table.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        drop = int(len(self._table) * fraction)
        if drop <= 0:
            return 0
        if drop >= len(self._table):
            dropped = len(self._table)
            self._table.clear()
        else:
            for key in list(self._table)[:drop]:
                del self._table[key]
            dropped = drop
        self.hits = 0
        self.misses = 0
        return dropped

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComputeTable {self.name}: {len(self._table)} entries, "
            f"{self.hits} hits / {self.misses} misses>"
        )
