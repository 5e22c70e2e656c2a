import random

import pytest

from blockerlab.catalogue import graph_catalogue
from blockerlab.cotree import (
    CotreeInner,
    CotreeLeaf,
    build_cotree,
    cotree_sexpr,
    parse_cotree_sexpr,
    proper_colouring,
    realize_cotree,
)
from blockerlab.errors import NotACographError
from blockerlab.graph import Graph, complete_graph, cycle_graph, graph_join, path_graph
from blockerlab.isomorphism import are_isomorphic
from blockerlab.parameters import chi_exact


def test_build_k2_is_join_of_leaves():
    t = build_cotree(complete_graph(2))
    assert isinstance(t.root, CotreeInner) and t.root.label == 1
    assert isinstance(t.root.left, CotreeLeaf) and isinstance(t.root.right, CotreeLeaf)


def test_build_two_isolated_vertices_is_union():
    t = build_cotree(Graph(2))
    assert isinstance(t.root, CotreeInner) and t.root.label == 0


def test_build_c4_is_join_of_two_pairs():
    t = build_cotree(cycle_graph(4))
    root = t.root
    assert root.label == 1
    assert {root.left.label, root.right.label} == {0}
    assert realize_cotree(t) == cycle_graph(4)


def test_not_a_cograph_raises_with_p4_witness():
    with pytest.raises(NotACographError) as err:
        build_cotree(path_graph(4))
    assert len(set(err.value.witness)) == 4


def test_every_inner_node_binary_and_leaves_biject():
    for g in graph_catalogue("cograph", 7):
        t = build_cotree(g)
        leaves = [n for n in t.postorder if isinstance(n, CotreeLeaf)]
        inners = [n for n in t.postorder if isinstance(n, CotreeInner)]
        assert sorted(leaf.vertex for leaf in leaves) == list(range(g.n))
        assert len(inners) == len(leaves) - 1
        for node in inners:
            assert node.label in (0, 1)


def test_realize_build_roundtrip_exhaustive():
    for g in graph_catalogue("cograph", 8):
        t = build_cotree(g)
        assert realize_cotree(t) == g  # same labels, not just isomorphic


def test_roundtrip_under_relabelling():
    rng = random.Random(4)
    for g in list(graph_catalogue("cograph", 7))[::7]:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        t = build_cotree(h)
        assert are_isomorphic(realize_cotree(t), g)
        assert t.chi == build_cotree(g).chi


def test_node_stats_examples():
    t = build_cotree(cycle_graph(4))
    stats = t.stats()
    assert stats.chi[t.root.index] == 2
    assert stats.size[t.root.index] == 4
    t = build_cotree(complete_graph(4))
    assert t.chi == 4


def test_chi_matches_exact_on_random_cographs():
    rng = random.Random(12)
    graphs = list(graph_catalogue("cograph", 9))
    for g in rng.sample(graphs, 200):
        t = build_cotree(g)
        assert t.chi == chi_exact(g).value


def test_proper_colouring_uses_chi_colours():
    for g in list(graph_catalogue("cograph", 7))[::5]:
        t = build_cotree(g)
        col = proper_colouring(t)
        assert all(col[u] != col[v] for u, v in g.edges())
        assert len(set(col)) == t.chi


def test_sexpr_roundtrip():
    src = build_cotree(graph_join(cycle_graph(4), Graph(1)))
    text = cotree_sexpr(src)
    parsed = parse_cotree_sexpr(text)
    assert realize_cotree(parsed) == realize_cotree(src)
    assert cotree_sexpr(parsed) == text
    for bad in ("(0 1", "(", "", "(1 0 1 2)", "(0 1))"):
        with pytest.raises(ValueError):
            parse_cotree_sexpr(bad)


def test_sexpr_format():
    t = build_cotree(complete_graph(2))
    assert cotree_sexpr(t) == "(1 0 1)"
