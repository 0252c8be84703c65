"""Property tests for `repro.constraints.graph` against a brute-force
transitive closure on random digraphs (self-loops included)."""

from hypothesis import given, settings, strategies as st

from repro.constraints import is_weakly_acyclic, tgd
from repro.constraints.graph import (
    DiGraph,
    is_acyclic,
    reachable,
    strongly_connected_components,
)

NODES = 7

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NODES - 1),
        st.integers(min_value=0, max_value=NODES - 1),
    ),
    max_size=20,
)


def build(edges) -> DiGraph:
    graph = DiGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


def closure(graph: DiGraph) -> dict:
    """Nodes reachable by a path of length >= 1 (Warshall)."""
    reach = {node: set(targets) for node, targets in graph.succ.items()}
    for middle in graph.succ:
        for node in graph.succ:
            if middle in reach[node]:
                reach[node] |= reach[middle]
    return reach


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_components_are_the_mutual_reachability_classes(edges):
    graph = build(edges)
    reach = closure(graph)
    components = strongly_connected_components(graph)
    assert sorted(node for c in components for node in c) == sorted(graph.succ)
    for component in components:
        for node in component:
            expected = {
                other for other in graph.succ
                if other == node
                or (other in reach[node] and node in reach[other])
            }
            assert component == expected


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_reachable_is_the_reflexive_transitive_closure(edges):
    graph = build(edges)
    reach = closure(graph)
    for source in graph.succ:
        for target in graph.succ:
            assert reachable(graph, source, target) == (
                source == target or target in reach[source]
            )


@settings(max_examples=300, deadline=None)
@given(edge_lists)
def test_acyclic_iff_no_node_reaches_itself_by_an_edge_path(edges):
    graph = build(edges)
    reach = closure(graph)
    assert is_acyclic(graph) == all(
        node not in reach[node] for node in graph.succ
    )


def test_a_node_reaches_itself_without_edges():
    graph = build([(0, 1)])
    assert reachable(graph, 0, 0)
    assert reachable(graph, 1, 1)
    assert not reachable(graph, 1, 0)


def test_a_self_loop_is_a_cycle():
    assert is_acyclic(build([(0, 1), (1, 2)]))
    assert not is_acyclic(build([(0, 1), (1, 1)]))
    components = strongly_connected_components(build([(0, 0)]))
    assert components == [{0}]


def test_a_special_self_loop_breaks_weak_acyclicity():
    # (R,0) feeds the existential position (R,0) of the head: a special
    # self-loop, and the chase creates R(n1, a), R(n2, n1), ... forever.
    rule = tgd("R(x, y) -> R(z, x)")
    assert not is_weakly_acyclic([rule])


def test_edge_attributes_update_in_place():
    graph = DiGraph()
    graph.add_edge("a", "b", special=False)
    graph.add_edge("a", "b", special=True)
    assert list(graph.edges(data=True)) == [("a", "b", {"special": True})]
    assert list(graph.edges()) == [("a", "b")]
    assert graph.has_edge("a", "b") and not graph.has_edge("b", "a")
    assert set(graph.succ) == {"a", "b"}


def test_deep_chain_needs_no_recursion():
    graph = build((i, i + 1) for i in range(20_000))
    graph.add_edge(20_000, 0)
    assert len(strongly_connected_components(graph)) == 1
    assert reachable(graph, 5, 4)
