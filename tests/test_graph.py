import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockerlab.catalogue import CATALOGUE_CLASSES, graph_catalogue, random_connected_graph
from blockerlab.errors import InvalidEdgeError, InvalidVertexError
from blockerlab.graph import (
    Graph,
    _merge,
    bits,
    components,
    complete_graph,
    complete_multipartite_graph,
    contains_induced,
    contract_edges,
    cycle_graph,
    delete_edges,
    delete_vertices,
    disjoint_union,
    path_graph,
    validate_edge_set,
)
from blockerlab.isomorphism import are_isomorphic
from helpers import forest


def test_contract_single_path_edge():
    g, comp = contract_edges(path_graph(3), [(0, 1)])
    assert are_isomorphic(g, path_graph(2))
    assert comp[0] == comp[1] != comp[2]


def test_contract_whole_cycle_to_point():
    g, _ = contract_edges(cycle_graph(4), cycle_graph(4).edges())
    assert g.n == 1 and g.edge_count() == 0


def test_contract_two_adjacent_edges_of_k4():
    # Components of the restriction: {0,1,2} and {3}; cross edges survive.
    g, _ = contract_edges(complete_graph(4), [(0, 1), (1, 2)])
    assert are_isomorphic(g, complete_graph(2))


def _sequential_contract(g: Graph, edges):
    remaining = list(edges)
    comp = list(range(g.n))
    cur = g
    while remaining:
        (u, v) = remaining.pop()
        cu, cv = comp[u], comp[v]
        if cu == cv:
            continue
        cur, cmap = contract_edges(cur, [(min(cu, cv), max(cu, cv))])
        comp = [cmap[c] for c in comp]
    return cur


def _all_graphs(n):
    slots = list(itertools.combinations(range(n), 2))
    for picks in range(1 << len(slots)):
        yield Graph(n, [slots[i] for i in range(len(slots)) if picks >> i & 1])


@functools.lru_cache(maxsize=1)
def _all_unlabelled_graphs_to_6():
    from blockerlab.isomorphism import dedup_isomorphic

    graphs = []
    for n in range(1, 7):
        graphs.extend(dedup_isomorphic(_all_graphs(n)))
    return graphs


def test_simultaneous_contraction_equals_sequential_exhaustive():
    # Every unlabelled graph with up to 6 vertices, every edge set of size
    # at most 3.
    graphs = _all_unlabelled_graphs_to_6()
    assert len(graphs) == 208
    for g in graphs:
        edges = g.edges()
        for size in range(0, min(3, len(edges)) + 1):
            for s in itertools.combinations(edges, size):
                simultaneous, _ = contract_edges(g, s)
                assert are_isomorphic(simultaneous, _sequential_contract(g, s))


def test_simultaneous_contraction_equals_sequential_random_n7():
    rng = random.Random(7)
    for _ in range(120):
        g = Graph(7, [e for e in itertools.combinations(range(7), 2) if rng.random() < 0.5])
        edges = g.edges()
        if not edges:
            continue
        s = rng.sample(edges, min(3, len(edges)))
        simultaneous, _ = contract_edges(g, s)
        assert are_isomorphic(simultaneous, _sequential_contract(g, s))


def test_contract_rejects_non_edge():
    with pytest.raises(InvalidEdgeError):
        contract_edges(path_graph(3), [(0, 2)])


# validate_edge_set on the paw (edges 0-1, 0-2, 1-2, 2-3): the normalised
# set, or the exception type and message.
VALIDATE_EDGE_SET_CASES = [
    ([], frozenset()),
    ([(1, 0), (3, 2)], frozenset({(0, 1), (2, 3)})),
    ([(0, 1), (1, 0), (0, 1)], frozenset({(0, 1)})),
    ([[2, 1], [0, 2]], frozenset({(1, 2), (0, 2)})),
    (iter([(2, 0)]), frozenset({(0, 2)})),
    ([(1, 1)], (InvalidEdgeError, "self-loop 1-1 is not a valid edge")),
    ([(7, 7)], (InvalidEdgeError, "self-loop 7-7 is not a valid edge")),
    ([(0, 1), (0, 3)], (InvalidEdgeError, "(0, 3) is not an edge of the host graph")),
    ([(3, 0)], (InvalidEdgeError, "(0, 3) is not an edge of the host graph")),
    ([(2, 4)], (InvalidEdgeError, "(2, 4) is not an edge of the host graph")),
    ([(4, 2)], (InvalidEdgeError, "(2, 4) is not an edge of the host graph")),
    ([(4, 5)], (InvalidEdgeError, "(4, 5) is not an edge of the host graph")),
    ([(-1, 2)], (InvalidEdgeError, "(-1, 2) is not an edge of the host graph")),
    ([(2, -1)], (InvalidEdgeError, "(-1, 2) is not an edge of the host graph")),
    ([(-4, 0)], (InvalidEdgeError, "(-4, 0) is not an edge of the host graph")),
    ([(-2, -1)], (InvalidEdgeError, "(-2, -1) is not an edge of the host graph")),
    ([(0, 1, 2)], (ValueError, "too many values to unpack (expected 2)")),
]


@pytest.mark.parametrize("pairs, expected", VALIDATE_EDGE_SET_CASES)
def test_validate_edge_set_pinned(paw, pairs, expected):
    if isinstance(expected, frozenset):
        out = validate_edge_set(paw, pairs)
        assert out == expected and type(out) is frozenset
        assert all(type(e) is tuple for e in out)
    else:
        kind, message = expected
        with pytest.raises(kind) as info:
            validate_edge_set(paw, pairs)
        assert type(info.value) is kind and str(info.value) == message


def test_delete_vertex_of_k4():
    g, remap = delete_vertices(complete_graph(4), [1])
    assert are_isomorphic(g, complete_graph(3))
    assert set(remap) == {0, 2, 3}


def test_delete_pendant_of_paw_gives_triangle(paw):
    # The vertex outside the triangle is the pendant.
    g, _ = delete_vertices(paw, [3])
    assert are_isomorphic(g, complete_graph(3))


def test_delete_nothing_is_identity(paw):
    g, remap = delete_vertices(paw, [])
    assert g == paw and remap == {v: v for v in range(4)}


def test_delete_vertices_rejects_out_of_range():
    for bad in ([5], [-1, 0], [0, 3]):
        with pytest.raises(InvalidVertexError):
            delete_vertices(path_graph(3), bad)


def test_delete_vertices_repeated_and_out_of_range():
    # C5 less 1 and 3 keeps 0, 2, 4 and the edge 4-0.
    g, remap = delete_vertices(cycle_graph(5), [3, 1, 3])
    assert remap == {0: 0, 2: 1, 4: 2}
    assert g == Graph(3, [(0, 2)])
    for bad, named in (([1, 1, 5], 5), ([-1, 3, 3], -1)):
        with pytest.raises(InvalidVertexError, match=f"vertex {named} out of range for n=5"):
            delete_vertices(cycle_graph(5), bad)


def test_simplicial_deletion_matches_contraction():
    # If N(v) is a clique, deleting v is contracting any edge at v; checked
    # on every unlabelled graph with up to 6 vertices.
    for g in _all_unlabelled_graphs_to_6():
        for v in range(g.n):
            nb = g.neighbours(v)
            if not nb:
                continue
            if all(g.has_edge(a, b) for a in nb for b in nb if a < b):
                deleted, _ = delete_vertices(g, [v])
                for u in nb:
                    contracted, _ = contract_edges(g, [(min(u, v), max(u, v))])
                    assert are_isomorphic(deleted, contracted)


def test_delete_edges_examples():
    assert are_isomorphic(delete_edges(complete_graph(3), [(0, 1)]), path_graph(3))
    assert are_isomorphic(delete_edges(cycle_graph(4), [(0, 1)]), path_graph(4))
    assert delete_edges(path_graph(4), []) == path_graph(4)


def test_forest():
    assert forest(path_graph(4), path_graph(4).edges())
    assert not forest(complete_graph(3), complete_graph(3).edges())
    assert forest(complete_graph(5), [(0, 1), (2, 3)])


def test_contains_induced_examples(paw):
    assert contains_induced(cycle_graph(4), path_graph(4)) is None
    hit = contains_induced(paw, complete_graph(3))
    assert hit is not None and len(set(hit)) == 3
    k3_plus_k1 = disjoint_union(complete_graph(3), Graph(1))
    c3_plus_p1 = disjoint_union(complete_graph(3), Graph(1))
    assert contains_induced(k3_plus_k1, c3_plus_p1) is not None


def test_contains_induced_witness_is_induced(rng):
    patterns = [path_graph(4), cycle_graph(4), complete_graph(3)]
    for _ in range(60):
        n = rng.randint(4, 8)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        for h in patterns:
            hit = contains_induced(g, h)
            if hit is not None:
                for a in range(h.n):
                    for b in range(a + 1, h.n):
                        assert g.has_edge(hit[a], hit[b]) == h.has_edge(a, b)


@given(
    n=st.integers(2, 8),
    picks=st.integers(0, 2**28),
    sub=st.integers(0, 2**28),
)
@settings(max_examples=80, deadline=None)
def test_contraction_component_map_properties(n, picks, sub):
    slots = list(itertools.combinations(range(n), 2))
    g = Graph(n, [slots[i] for i in range(len(slots)) if picks >> i & 1])
    edges = g.edges()
    s = [edges[i] for i in range(len(edges)) if sub >> i & 1]
    contracted, comp = contract_edges(g, s)
    assert sorted(set(comp)) == list(range(contracted.n))
    # Adjacency between component ids iff some original cross edge exists.
    for a in range(contracted.n):
        for b in range(a + 1, contracted.n):
            expect = any(
                comp[u] == a and comp[v] == b or comp[u] == b and comp[v] == a
                for u, v in edges
            )
            assert contracted.has_edge(a, b) == expect


def test_complement_and_equality():
    g = path_graph(4)
    assert g.complement().complement() == g
    assert complete_graph(3).complement() == Graph(3)
    assert complete_multipartite_graph((1, 3)).degree(0) == 3


def test_complete_multipartite_graph_is_its_definition():
    # Every size tuple of up to 4 parts with up to 2 vertices each, empty
    # parts and the empty tuple included; vertices are numbered part by part.
    for r in range(5):
        for sizes in itertools.product(range(3), repeat=r):
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            pairs = itertools.combinations(range(len(part)), 2)
            expect = Graph(len(part), [(u, v) for u, v in pairs if part[u] != part[v]])
            assert complete_multipartite_graph(sizes) == expect


def test_component_search_matches_complement_components():
    assert Graph(0).connected_components() == []
    assert disjoint_union(path_graph(2), Graph(1)).connected_components() == [[0, 1], [2]]
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        full = (1 << n) - 1
        for co, host in ((False, g), (True, g.complement())):
            parts = [sorted(bits(p)) for p in components(g.adj, full, co)]
            assert parts == host.connected_components()
            for part in parts:
                # Closed (no host edge leaves it) and connected (plain BFS).
                assert all(w in part for v in part for w in host.neighbours(v))
                seen, todo = {part[0]}, [part[0]]
                while todo:
                    fresh = set(host.neighbours(todo.pop())) - seen
                    seen |= fresh
                    todo.extend(fresh)
                assert seen == set(part)


def _textbook_contraction(g: Graph, s):
    """Components of (V, s) numbered by least vertex, then one edge per pair
    of components joined by an edge of g."""
    comp = [-1] * g.n
    count = 0
    for root in range(g.n):
        if comp[root] >= 0:
            continue
        comp[root], todo = count, [root]
        while todo:
            u = todo.pop()
            for a, b in s:
                for x, y in ((a, b), (b, a)):
                    if x == u and comp[y] < 0:
                        comp[y] = count
                        todo.append(y)
        count += 1
    edges = {(comp[u], comp[v]) for u, v in g.edges() if comp[u] != comp[v]}
    return Graph(count, [(min(e), max(e)) for e in edges]), tuple(comp)


def _textbook_vertex_deletion(g: Graph, u):
    keep = [v for v in range(g.n) if v not in u]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [(remap[a], remap[b]) for a, b in g.edges() if a in remap and b in remap]
    return Graph(len(keep), edges), remap


def _assert_simple(g: Graph):
    for v in range(g.n):
        assert not g.adj[v] >> v & 1 and g.adj[v] >> g.n == 0
        assert all(g.adj[w] >> v & 1 for w in bits(g.adj[v]))


def _operation_inputs():
    """(graph, edge sets, vertex sets): every catalogue graph with n <= 6 with
    every set of size <= 2, then seeded random graphs and larger sets."""
    seen = set()
    for clazz in ("bipartite", "chordal", "cograph", "c3-free", "complete-multipartite"):
        for g in graph_catalogue(clazz, 6):
            if g in seen:
                continue
            seen.add(g)
            edge_sets = [s for r in range(3) for s in itertools.combinations(g.edges(), r)]
            vertex_sets = [u for r in range(3) for u in itertools.combinations(range(g.n), r)]
            yield g, edge_sets, vertex_sets
    rng = random.Random(1209)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        edges = g.edges()
        edge_sets = [rng.sample(edges, rng.randint(0, len(edges))) for _ in range(8)]
        vertex_sets = [rng.sample(range(n), rng.randint(0, n)) for _ in range(8)]
        yield g, edge_sets, vertex_sets


def test_graph_operations_equal_their_definitions():
    for g, edge_sets, vertex_sets in _operation_inputs():
        for s in edge_sets:
            contracted, comp = contract_edges(g, s)
            assert (contracted, comp) == _textbook_contraction(g, s)
            pruned = delete_edges(g, s)
            assert pruned == Graph(g.n, [e for e in g.edges() if e not in set(s)])
            _assert_simple(contracted)
            _assert_simple(pruned)
        for u in vertex_sets:
            assert delete_vertices(g, u) == _textbook_vertex_deletion(g, set(u))
            _assert_simple(delete_vertices(g, u)[0])


def _contraction_inputs():
    """(graph, edge set): every connected catalogue graph with n <= 6 with
    every edge set of size <= 3, then seeded connected graphs with 8 to 10
    vertices and edge sets of every size."""
    seen = set()
    for clazz in CATALOGUE_CLASSES:
        for g in graph_catalogue(clazz, 6):
            if g in seen or not g.is_connected():
                continue
            seen.add(g)
            for r in range(4):
                for s in itertools.combinations(g.edges(), r):
                    yield g, s
    rng = random.Random(1931)
    for i in range(30):
        g = random_connected_graph(rng, 8 + i % 3, 0.4)
        edges = g.edges()
        for _ in range(20):
            yield g, rng.sample(edges, rng.randint(0, len(edges)))


def test_merge_keeps_indices_and_renumbers_to_the_contraction():
    for g, s in _contraction_inputs():
        expected = _textbook_contraction(g, s)
        assert contract_edges(g, s) == expected
        masks, universe, into = _merge(g.adj, validate_edge_set(g, s))
        live = list(bits(universe))
        for v in live:
            assert not masks[v] & ~universe and not masks[v] >> v & 1
            assert all(masks[w] >> v & 1 for w in bits(masks[v]))
        # The test's own renumbering over universe; a vertex that left
        # follows ``into`` to a live vertex, which is less than it.
        new = {v: i for i, v in enumerate(live)}
        root = list(range(g.n))
        for v in sorted(into):
            assert into[v] < v and not universe >> v & 1
            root[v] = root[into[v]]
        renumbered = Graph(len(live), [(new[u], new[w]) for u in live for w in bits(masks[u]) if u < w])
        assert (renumbered, tuple(new[r] for r in root)) == expected
