"""Rooted tree networks and their ascending vertex labelings.

A network is an undirected tree over named parties; choosing a root
orients every edge parent-to-child.  An ascending labeling is an
ordering v1, ..., vN starting at the root in which every vertex appears
after its parent — exactly the orders in which a state can be spread
root-first, or concentrated leaf-first by walking the order backwards.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .errors import (
    BadEdge,
    HasCycle,
    NotAscending,
    NotConnected,
    SchemaError,
    UnknownVertex,
)


@dataclass(frozen=True)
class RootedTree:
    """An oriented tree: vertex names, a root, and parent pointers."""

    root: str
    parent_of: dict[str, str] = field(compare=False)
    vertices: tuple[str, ...] = ()

    def __post_init__(self):
        names = set(self.parent_of) | {self.root}
        object.__setattr__(self, "vertices", tuple(sorted(names)))

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_edges(root: str, edges) -> RootedTree:
        """Orient an undirected edge list away from ``root``."""
        adj: dict[str, set[str]] = {}
        for e in edges:
            try:
                a, b = e
            except (TypeError, ValueError):
                raise BadEdge(f"edge {e!r} is not a pair")
            a, b = str(a), str(b)
            if a == b:
                raise BadEdge(f"self-loop at {a!r}")
            if b in adj.get(a, ()):
                raise BadEdge(f"repeated edge {a!r}-{b!r}")
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        if not adj:
            adj = {root: set()}  # the single-vertex tree
        if root not in adj:
            raise UnknownVertex(f"root {root!r} is not a vertex of the edge list")
        n_edges = sum(len(s) for s in adj.values()) // 2
        if n_edges != len(adj) - 1:
            raise HasCycle(f"{len(adj)} vertices need {len(adj) - 1} edges, got {n_edges}")
        parent: dict[str, str] = {}
        frontier = [root]
        seen = {root}
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in seen:
                    continue
                parent[w] = v
                seen.add(w)
                frontier.append(w)
        if len(seen) != len(adj):
            missing = sorted(set(adj) - seen)
            raise NotConnected(f"vertices {missing} are unreachable from the root")
        return RootedTree(root=root, parent_of=parent)

    # -- structure maps -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.vertices)

    def parent(self, v: str) -> str | None:
        """Parent of ``v``; None at the root."""
        if v == self.root:
            return None
        if v not in self.parent_of:
            raise UnknownVertex(f"no vertex {v!r}")
        return self.parent_of[v]

    def children(self, v: str) -> tuple[str, ...]:
        if v != self.root and v not in self.parent_of:
            raise UnknownVertex(f"no vertex {v!r}")
        return tuple(sorted(w for w, p in self.parent_of.items() if p == v))

    def subtree(self, v: str) -> tuple[str, ...]:
        """``v`` together with all its descendants, sorted."""
        out = [v]
        k = 0
        while k < len(out):
            out.extend(self.children(out[k]))
            k += 1
        return tuple(sorted(out))

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All (parent, child) pairs, sorted by child name."""
        return tuple((p, c) for c, p in sorted(self.parent_of.items()))

    # -- labelings ------------------------------------------------------------

    def check_ascending(self, labeling) -> tuple[str, ...]:
        """Validate that ``labeling`` starts at the root and respects parents."""
        order = tuple(str(v) for v in labeling)
        if sorted(order) != list(self.vertices):
            raise NotAscending(
                f"labeling {order!r} is not an ordering of {self.vertices!r}"
            )
        if order[0] != self.root:
            raise NotAscending(f"labeling must start at the root {self.root!r}")
        pos = {v: k for k, v in enumerate(order)}
        for v, p in self.parent_of.items():
            if pos[p] > pos[v]:
                raise NotAscending(f"{v!r} is labeled before its parent {p!r}")
        return order

    def default_labeling(self) -> tuple[str, ...]:
        """Breadth-first order, children visited in name order."""
        order = [self.root]
        k = 0
        while k < len(order):
            order.extend(self.children(order[k]))
            k += 1
        return tuple(order)

    def count_ascending_labelings(self) -> int:
        """N! / prod_v |subtree(v)| (the hook length formula for forests)."""
        n = self.size
        denom = 1
        for v in self.vertices:
            denom *= len(self.subtree(v))
        return math.factorial(n) // denom

    def count_merged_sets(self) -> int:
        """Sets of non-root vertices holding every child of each member: the
        sets a concentrating walk can have merged.  h(v) = 1 + ∏ h(child)
        counts them within subtree(v); the root never merges."""
        ways: dict[str, int] = {}
        for v in reversed(self.default_labeling()):
            ways[v] = 1 + math.prod(ways[w] for w in self.children(v))
        return ways[self.root] - 1


def line_tree(n: int) -> RootedTree:
    """Path v1 - v2 - ... - vN rooted at v1."""
    if n < 1:
        raise BadEdge("a tree needs at least one vertex")
    return RootedTree.from_edges("v1", [(f"v{k}", f"v{k + 1}") for k in range(1, n)])


def star_tree(n: int) -> RootedTree:
    """Center v1 with leaves v2..vN."""
    if n < 1:
        raise BadEdge("a tree needs at least one vertex")
    return RootedTree.from_edges("v1", [("v1", f"v{k}") for k in range(2, n + 1)])


def parse_tree(text: str) -> RootedTree:
    """Parse a tree description.

    Accepts the shorthands ``line:N`` and ``star:N`` (vertices named
    v1..vN, rooted at v1) or an explicit edge list such as
    ``v1-v2,v2-v3`` (rooted at the first vertex named).
    """
    text = text.strip()
    for name, builder in (("line", line_tree), ("star", star_tree)):
        if text.startswith(name + ":"):
            try:
                n = int(text.split(":", 1)[1])
            except ValueError:
                raise BadEdge(f"bad vertex count in {text!r}")
            return builder(n)
    if "-" not in text:
        raise BadEdge(f"cannot parse tree description {text!r}")
    edges = []
    root = None
    for part in text.split(","):
        bits = part.strip().split("-")
        if len(bits) != 2 or not bits[0] or not bits[1]:
            raise BadEdge(f"bad edge {part.strip()!r}")
        if root is None:
            root = bits[0]
        edges.append((bits[0], bits[1]))
    return RootedTree.from_edges(root, edges)


def tree_from_json(payload) -> tuple[RootedTree, tuple[str, ...] | None]:
    """Build a tree (and optional labeling) from a parsed JSON document.

    Schema: ``{root, edges: [[name, name], ...], labeling?: [names in
    rank order]}``.  A single-vertex tree may omit ``edges``.
    """
    if not isinstance(payload, dict):
        raise SchemaError("tree document must be a JSON object")
    if not isinstance(payload.get("root"), str):
        raise SchemaError("field 'root' must be a vertex name string")
    edges_field = payload.get("edges", [])
    if not isinstance(edges_field, list):
        raise SchemaError("field 'edges' must be a list of [name, name] pairs")
    edges = []
    for i, item in enumerate(edges_field):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, str) and x for x in item)
        ):
            raise SchemaError(f"field 'edges[{i}]' must be a [name, name] pair")
        edges.append((item[0], item[1]))
    tree = RootedTree.from_edges(payload["root"], edges)
    labeling = payload.get("labeling")
    if labeling is not None:
        if not isinstance(labeling, list) or not all(
            isinstance(x, str) for x in labeling
        ):
            raise SchemaError("field 'labeling' must be a list of vertex names")
        labeling = tuple(labeling)
    return tree, labeling


def tree_to_document(tree: RootedTree) -> dict:
    """JSON document for a tree (inverse of tree_from_json, without a labeling)."""
    return {"root": tree.root, "edges": [[a, b] for a, b in tree.edges()]}


def load_tree(text: str) -> tuple[RootedTree, tuple[str, ...] | None]:
    """Shorthand description, or a path to a JSON tree file."""
    if not os.path.exists(text):
        return parse_tree(text), None
    try:
        with open(text) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise BadEdge(f"cannot read tree file {text!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad JSON in tree file {text!r}: {exc}")
    return tree_from_json(payload)
