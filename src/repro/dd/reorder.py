"""Dynamic variable reordering for decision diagrams.

Decision diagrams are canonical — and compact — only *relative to a
variable order* (paper Sec. III-C); a bad order costs up to ``2^(n/2)``
nodes for states a good order represents linearly.  Here the
level-to-qubit mapping is dynamic, optimized by *sifting* (Rudell 1993)
built from adjacent-level swaps.

Nodes are hash-consed, so swapping levels ``(l, l+1)`` *rebuilds* every
live root through a memoized recursion that re-brackets the window

    top(l+1) -> children c_k -> grandchildren g[k][m]

into ``top'(l+1) -> inner_m(l) -> g[k][m]`` (path ``(k, m)`` becomes path
``(m, k)``).  Nodes below the window are shared unchanged; nodes above it
are rebuilt with translated children.  Everything goes back through the
normalizing constructors, so the result is canonical under the new order
— and with identity skipping, the reduction rule re-fires on every
rebuilt matrix node.

The recursion, the per-swap node count and the level populations run on
in-flight ``(node_index, weight)`` pairs read straight off the engine's
flat node pools (:mod:`repro.dd.pooled`).  Pairs become edges again only
when the result is installed (:func:`_finish`); they pin nothing, so the
package refuses a garbage collection while a reorder runs.  Edges handed
out before a reorder keep working through the package's remap
(``DDPackage._resolve``).
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Dict, List, Tuple

from repro.dd.complex_table import ComplexTable
from repro.dd.node import MatrixNode
from repro.dd.pooled import MATRIX, VECTOR, ZERO_E
from repro.errors import DDError

__all__ = ["swap_adjacent", "sift"]

_ONE = ComplexTable.ONE


def _live_roots(package) -> Tuple[List, List]:
    """Deduplicated non-terminal governor root nodes, and their unit pairs
    tagged with their node kind."""
    nodes, roots = [], []
    seen = set()
    for node, _weight in package.governor._live_roots():
        if node.is_terminal or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        kind = MATRIX if isinstance(node, MatrixNode) else VECTOR
        roots.append((kind, (node._index, _ONE)))
    return nodes, roots


def _swapper(engine, kind: int, level: int):
    """Memoized swap of levels ``(level, level + 1)`` for one node kind's pairs."""
    pool = engine.vpool if kind == VECTOR else engine.mpool
    var, arity = pool.var, pool.arity
    skipping = kind == MATRIX and engine.identity_skipping
    scale = engine.scale
    children = functools.partial(engine.children, kind)
    make = functools.partial(engine.make_node, kind)

    def var_of(index):
        return var[index] if index >= 0 else -1

    memo: Dict = {}

    def window(index, top: int):
        # ``top`` is ``level + 1`` (the usual case) or ``level`` (identity
        # skipping only: the path skips ``level + 1``, so the top of the
        # window is a virtual identity).
        if top == level + 1:
            tops = children(index)
        elif skipping:
            unit = (index, _ONE)
            tops = (unit, ZERO_E, ZERO_E, unit)
        else:
            raise DDError(
                f"cannot swap levels ({level}, {level + 1}): a root spans only "
                f"{top + 1} levels (mixed-span roots are not supported)"
            )
        rows = []
        for child in tops:
            cindex, cweight = child
            if not cweight:
                rows.append((ZERO_E,) * arity)
            elif var_of(cindex) >= level:
                rows.append(
                    [ZERO_E if not g[1] else scale(g, cweight) for g in children(cindex)]
                )
            elif skipping:
                # The child skips the lower window level: virtually diagonal.
                rows.append((child, ZERO_E, ZERO_E, child))
            else:
                raise DDError(
                    f"level {level} is missing below a level-{level + 1} node "
                    "(non-canonical diagram)"
                )
        inner = [make(level, [row[m] for row in rows]) for m in range(arity)]
        return make(level + 1, inner)

    def swap(pair):
        index, weight = pair
        if not weight:
            return pair
        at = var_of(index)
        if at < level:
            # Entirely below the window (or, with identity skipping, an
            # identity across both window levels): shared unchanged.
            return pair
        res = memo.get(index)
        if res is None:
            if at > level + 1:
                res = make(at, [swap(child) for child in children(index)])
            else:
                res = window(index, at)
            memo[index] = res
        return ZERO_E if not res[1] else scale(res, weight)

    return swap


def _swap_roots(package, level: int, roots: List) -> List:
    """Swap levels ``(level, level + 1)`` under every root pair: exports the
    translated root weights through the complex table, swaps the order-map
    entries and bumps the swap counter.  Returns the translated roots."""
    if level < 0:
        raise DDError("swap levels must be non-negative")
    lookup = package.complex_table.lookup
    swaps = [_swapper(package._pooled, kind, level) for kind in (VECTOR, MATRIX)]
    out = []
    for kind, pair in roots:
        index, weight = swaps[kind](pair)
        weight = lookup(weight)
        out.append((kind, ZERO_E if weight == 0 else (index, weight)))
    package._ensure_order(level + 2)
    order = package._order
    order[level], order[level + 1] = order[level + 1], order[level]
    package._refresh_order_identity()
    package._reorder_swaps += 1
    return out


def _reachable(engine, roots: List) -> Tuple[set, set]:
    """Node indices reachable from the root pairs, per node kind."""
    seen = (set(), set())
    for kind, (index, weight) in roots:
        nodes = seen[kind]
        if not weight or index < 0 or index in nodes:
            continue
        pool = engine.vpool if kind == VECTOR else engine.mpool
        succ, arity = pool.succ, pool.arity
        nodes.add(index)
        stack = [index]
        while stack:
            base = stack.pop() * arity
            for child in succ[base : base + arity]:
                if child >= 0 and child not in nodes:
                    nodes.add(child)
                    stack.append(child)
    return seen


def _count(engine, roots: List) -> int:
    """Live nodes under all roots together (shared nodes count once)."""
    return sum(len(nodes) for nodes in _reachable(engine, roots))


def _finish(package, root_nodes, roots: List) -> None:
    """Install the root translation map and rebuild the governor roots."""
    mapping = {}
    for orig, (kind, pair) in zip(root_nodes, roots):
        final = package._pooled.to_edge(kind, pair)
        if final.node is not orig or final.weight != _ONE:
            mapping[orig] = final
    package._apply_reorder_remap(mapping)


def swap_adjacent(package, level: int) -> None:
    """Swap the variables at ``level`` and ``level + 1`` for all live roots.

    The primitive underneath :func:`sift`, exposed for tests and manual
    experiments.  Statevector-preserving: only the level-to-qubit map and
    the diagram structure change, never the represented amplitudes.
    """
    root_nodes, roots = _live_roots(package)
    # Retire the old roots from the unique tables before rebuilding: the
    # rebuild (and every later operation) must cons *fresh* nodes, never
    # resurrect a stale one, or the remap would alias two meanings onto a
    # single node object and mis-translate current edges.
    package._retire_stale_roots([node for node in root_nodes if node.var >= level])
    _finish(package, root_nodes, _swap_roots(package, level, roots))
    cache = getattr(package, "_gate_dd_cache", None)
    if cache:
        cache.clear()


def sift(package, max_growth: float = 2.0) -> Dict:
    """Sifting: move every variable through all levels via adjacent swaps
    and settle it where the total live diagram is smallest.

    Variables are processed in decreasing level-population order.  Ties
    keep a variable at its original position, which makes sifting
    idempotent at a local minimum.  ``max_growth`` aborts a sweep
    direction once the diagram exceeds that multiple of the best size
    seen for the current variable.
    """
    engine = package._pooled
    root_nodes, current = _live_roots(package)
    reachable = _reachable(engine, current)
    before = sum(len(nodes) for nodes in reachable)
    summary = {"strategy": "sifting", "swaps": 0, "nodes_before": before,
               "nodes_after": before, "order": package.qubit_order}
    n = max((node.var for node in root_nodes), default=0) + 1
    if n < 2:
        return summary
    package._ensure_order(n)
    swaps_before = package._reorder_swaps
    # See swap_adjacent: the old roots become the remap's domain, so they
    # must leave the unique tables before the first swap conses anything.
    package._retire_stale_roots(root_nodes)

    def shift(pos: int, step: int) -> int:
        """Move the variable at ``pos`` one level by ``step`` (+1 or -1)."""
        current[:] = _swap_roots(package, min(pos, pos + step), current)
        return pos + step

    pools = (engine.vpool, engine.mpool)
    sizes = Counter(
        pools[kind].var[index] for kind, nodes in enumerate(reachable) for index in nodes
    )
    by_population = sorted(range(n), key=lambda lvl: (-sizes[lvl], lvl))
    # Each variable starts from the count at the position the previous one
    # settled at (the diagram is canonical for the order, so no re-walk).
    settled = before
    for qubit in [package.qubit_at(lvl) for lvl in by_population]:
        pos = best_pos = package.level_of(qubit)
        best_count = settled
        # Sweep down to level 0, then up to the top ...
        for step, stop in ((-1, 0), (1, n - 1)):
            while pos != stop:
                pos = shift(pos, step)
                count = _count(engine, current)
                if count < best_count:
                    best_count, best_pos = count, pos
                if count > max_growth * best_count:
                    break
        # ... and settle at the best position seen.
        while pos != best_pos:
            pos = shift(pos, 1 if best_pos > pos else -1)
        settled = best_count
    _finish(package, root_nodes, current)
    summary["swaps"] = package._reorder_swaps - swaps_before
    summary["nodes_after"] = _count(engine, current)
    summary["order"] = package.qubit_order
    return summary
