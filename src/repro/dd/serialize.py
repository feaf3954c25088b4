"""JSON (de)serialization of decision diagrams.

Lets users persist a computed diagram (a state reached after a long
simulation, a verified functionality) and reload it later — including
into a *different* package instance, where hash consing rebuilds canonical
sharing.  The format is a flat node table:

.. code-block:: json

    {
      "kind": "vector",
      "num_qubits": 2,
      "root": {"node": 2, "weight": [1.0, 0.0]},
      "nodes": [
        {"id": 0, "var": 0, "edges": [{"node": null, "weight": [1.0, 0.0]},
                                       "zero"]},
        ...
      ]
    }

``null`` denotes the terminal, ``"zero"`` a zero stub.  Node ids are only
meaningful within one document.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.dd.edge import Edge, ZERO_EDGE
from repro.dd.node import MatrixNode, Node, TERMINAL
from repro.dd.package import DDPackage
from repro.errors import DDError

_FORMAT_VERSION = 1


def dd_to_dict(package: DDPackage, root: Edge, num_qubits: int = None) -> dict:
    """Serialize a (non-zero) DD rooted at ``root`` to plain data.

    ``num_qubits`` pins the document's qubit span explicitly; without it
    the span is inferred from the root level — which *undercounts* for
    identity-skipping matrix DDs whose top levels are skipped (and for
    the all-identity diagram, whose root is the terminal), so callers
    holding the true width should always pass it.  The document records
    the package's level-to-qubit order and skipping flag so a loader can
    refuse an incompatible package instead of silently permuting
    amplitudes.
    """
    root = package._resolve(root)
    if root.is_zero:
        raise DDError("cannot serialize the zero decision diagram")
    ids: Dict[Node, int] = {}
    nodes: List[dict] = []

    def visit(node: Node) -> int:
        if node in ids:
            return ids[node]
        # Children first so the node list is in topological (bottom-up) order.
        edges = []
        for edge in node.edges:
            if edge.is_zero:
                edges.append("zero")
            elif edge.node.is_terminal:
                edges.append(
                    {"node": None, "weight": [edge.weight.real, edge.weight.imag]}
                )
            else:
                child = visit(edge.node)
                edges.append(
                    {"node": child, "weight": [edge.weight.real, edge.weight.imag]}
                )
        identifier = len(nodes)
        ids[node] = identifier
        nodes.append({"id": identifier, "var": node.var, "edges": edges})
        return identifier

    if root.node.is_terminal:
        # Identity skipping can collapse a whole matrix DD (e.g. the
        # identity itself) to a weighted terminal edge.
        if not package.identity_skipping:
            raise DDError("cannot serialize a bare terminal diagram")
        root_id = None
        kind = "matrix"
    else:
        root_id = visit(root.node)
        kind = "matrix" if isinstance(root.node, MatrixNode) else "vector"
    if num_qubits is None:
        num_qubits = root.node.var + 1
    elif num_qubits < root.node.var + 1:
        raise DDError(
            f"num_qubits={num_qubits} is smaller than the root level span "
            f"({root.node.var + 1})"
        )
    return {
        "format": _FORMAT_VERSION,
        "kind": kind,
        "num_qubits": num_qubits,
        "order": [package.qubit_at(level) for level in range(num_qubits)],
        "identity_skipping": bool(package.identity_skipping),
        "root": {"node": root_id, "weight": [root.weight.real, root.weight.imag]},
        "nodes": nodes,
    }


def dd_from_dict(package: DDPackage, data: dict) -> Edge:
    """Rebuild a DD in ``package`` from :func:`dd_to_dict` data.

    Normalization and hash consing re-establish the canonical form, so the
    result compares (by root pointer) with freshly built diagrams.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise DDError(f"unsupported DD format version {data.get('format')!r}")
    kind = data.get("kind")
    if kind not in ("vector", "matrix"):
        raise DDError(f"unknown DD kind {kind!r}")
    if bool(data.get("identity_skipping", False)) and not package.identity_skipping:
        raise DDError(
            "document was serialized with identity skipping; loading into "
            "a dense package would plant level-skipping edges "
            "(use DDPackage(identity_skipping=True))"
        )
    doc_order = data.get("order")
    if doc_order is not None:
        doc_order = [int(q) for q in doc_order]
        package_order = [package.qubit_at(level) for level in range(len(doc_order))]
        if doc_order != package_order:
            pristine = (
                package._order_is_identity
                and not package.governor.stats()["live_roots"]
            )
            if not pristine:
                raise DDError(
                    f"document qubit order {doc_order} does not match the "
                    f"package's current order {package_order}; reorder the "
                    "package (or load into a fresh one) first"
                )
            # A fresh package holds nothing whose readout the order could
            # change, so it adopts the document's order wholesale.
            package._ensure_order(len(doc_order))
            package._order[: len(doc_order)] = doc_order
            package._refresh_order_identity()
    make_node = (
        package.make_matrix_node if kind == "matrix" else package.make_vector_node
    )
    rebuilt: Dict[int, Edge] = {}
    for entry in data["nodes"]:
        edges = []
        for edge_data in entry["edges"]:
            edges.append(_edge_from(package, edge_data, rebuilt))
        rebuilt[int(entry["id"])] = make_node(int(entry["var"]), edges)
    root_data = data["root"]
    weight = complex(*root_data["weight"])
    if root_data["node"] is None:
        base = Edge(TERMINAL, package.complex_table.ONE)
    else:
        base = rebuilt.get(int(root_data["node"]))
    if base is None:
        raise DDError(f"root references unknown node {root_data['node']!r}")
    return package._export(
        base.scaled(package.complex_table.lookup(weight), package.complex_table)
    )


def _edge_from(package: DDPackage, edge_data, rebuilt: Dict[int, Edge]) -> Edge:
    if edge_data == "zero":
        return ZERO_EDGE
    weight = package.complex_table.lookup(complex(*edge_data["weight"]))
    target = edge_data["node"]
    if target is None:
        return Edge(TERMINAL, weight)
    child = rebuilt.get(int(target))
    if child is None:
        raise DDError(
            f"edge references node {target!r} before its definition "
            "(the node list must be bottom-up)"
        )
    return child.scaled(weight, package.complex_table)


def save_dd(package: DDPackage, root: Edge, path: str) -> None:
    """Write a DD to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dd_to_dict(package, root), handle)


def load_dd(package: DDPackage, path: str) -> Edge:
    """Load a DD from a JSON file into ``package``."""
    with open(path, "r", encoding="utf-8") as handle:
        return dd_from_dict(package, json.load(handle))
