"""Directed graphs for the constraint analyses, standard library only.

The paper's graph checks need strongly connected components and
reachability, nothing more: the cycle rule of the UIDs+FDs finite
closure (`repro.constraints.finite_closure`), weak acyclicity and the
acyclic position graphs behind semi-width (`repro.constraints.analysis`).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator

Node = Hashable


class DiGraph:
    """Successor sets with per-edge attributes: ``succ[u][v]`` is the
    attribute dict of the edge u → v.  Every edge endpoint is a node."""

    __slots__ = ("succ",)

    def __init__(self) -> None:
        self.succ: dict[Node, dict[Node, dict[str, Any]]] = {}

    def add_edge(self, source: Node, target: Node, **data: Any) -> None:
        """Add u → v, or update its attributes when it exists."""
        self.succ.setdefault(target, {})
        self.succ.setdefault(source, {}).setdefault(target, {}).update(data)

    def has_edge(self, source: Node, target: Node) -> bool:
        return target in self.succ.get(source, ())

    def edges(self, data: bool = False) -> Iterator[tuple]:
        """``(u, v)`` per edge, or ``(u, v, attributes)`` with ``data``."""
        for source, targets in self.succ.items():
            for target, attributes in targets.items():
                yield (source, target, attributes) if data else (source, target)


def strongly_connected_components(graph: DiGraph) -> list[set]:
    """Tarjan's algorithm with an explicit stack (no recursion limit)."""
    index: dict[Node, int] = {}
    low: dict[Node, int] = {}
    stack: list[Node] = []
    on_stack: set[Node] = set()
    components: list[set] = []
    for root in graph.succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(graph.succ[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(graph.succ[successor])))
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def reachable(graph: DiGraph, source: Node, target: Node) -> bool:
    """True iff a path, possibly empty, leads from source to target: a
    node always reaches itself."""
    seen = {source}
    frontier = [source]
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for successor in graph.succ.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return False


def is_acyclic(graph: DiGraph) -> bool:
    """True iff the graph has no cycle; a self-loop is a cycle."""
    if any(node in targets for node, targets in graph.succ.items()):
        return False
    return all(
        len(component) == 1
        for component in strongly_connected_components(graph)
    )
