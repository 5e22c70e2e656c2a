import hashlib
import random
import sys
import tracemalloc
from operator import add

import pytest

from blockerlab.catalogue import graph_catalogue
from blockerlab.cotree import (
    Cotree,
    CotreeInner,
    CotreeLeaf,
    build_cotree,
    cotree_sexpr,
    fold,
    parse_cotree_sexpr,
    proper_colouring,
    realize_cotree,
)
from blockerlab.errors import NotACographError
from blockerlab.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from blockerlab.isomorphism import are_isomorphic
from blockerlab.monochromatic import min_mono_edges_fixed_h
from blockerlab.parameters import chi_exact, cograph_pair
from blockerlab.recognizers import CotreeCertificate
from helpers import join


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


def test_proper_colouring_memory_is_linear():
    # Colour classes kept at every node of this 2000-leaf union chain would
    # take about 16 MB; a colour per vertex and a stack of pending nodes take
    # tens of kB.
    t = build_cotree(Graph(2000))
    tracemalloc.start()
    try:
        col = proper_colouring(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col == (1,) * 2000
    assert peak < 1_000_000


def test_a_cotree_node_belongs_to_one_tree():
    # A tree over nodes that another tree owns is refused before any index
    # is written, whether its leaves pass the leaf check (K2 on 0, 1) or
    # not (K3 on 2, 3, 4), so the first tree answers as before.
    leaf = [CotreeLeaf(v) for v in range(5)]
    k2 = CotreeInner(1, leaf[0], leaf[1])
    k3 = CotreeInner(1, CotreeInner(1, leaf[2], leaf[3]), leaf[4])
    t = Cotree(CotreeInner(0, k3, k2))

    def answers():
        return realize_cotree(t), fold(t, lambda v: [v], add, add), min_mono_edges_fixed_h(t, 2)

    before = answers()
    assert before[0] == Graph(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    for owned in (k2, k3):
        with pytest.raises(ValueError, match="a cotree node belongs to one tree only"):
            Cotree(owned)
        assert answers() == before


def test_sexpr_roundtrip():
    src = build_cotree(join(cycle_graph(4), Graph(1)))
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


def _random_cograph(rng, n):
    # Join or union random pairs of parts, then relabel the vertices.
    parts = [Graph(1) for _ in range(n)]
    while len(parts) > 1:
        a = parts.pop(rng.randrange(len(parts)))
        b = parts.pop(rng.randrange(len(parts)))
        parts.append(join(a, b) if rng.random() < 0.5 else disjoint_union(a, b))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in parts[0].edges()])


def _threshold_chain(n, rng=None):
    # Vertex i joins all earlier vertices when i is odd: the deepest cotree.
    label = list(range(n))
    if rng is not None:
        rng.shuffle(label)
    return Graph(n, [(label[i], label[j]) for i in range(1, n, 2) for j in range(i)])


def _assert_induced_p4(g, witness):
    a, b, c, d = witness
    assert len(set(witness)) == 4
    for u, v in ((a, b), (b, c), (c, d)):
        assert g.has_edge(u, v)
    for u, v in ((a, c), (a, d), (b, d)):
        assert not g.has_edge(u, v)


def test_roundtrip_on_random_cographs_up_to_60():
    rng = random.Random(31)
    for n in list(range(1, 61)) * 2:
        g = _random_cograph(rng, n)
        assert realize_cotree(build_cotree(g)) == g


def test_threshold_chains_build_without_recursion():
    # Depth n - 1 trees, under the interpreter's default recursion limit.
    assert sys.getrecursionlimit() <= 1000
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5, 300, 1200):
        g = _threshold_chain(n, rng)
        t = build_cotree(g)
        assert realize_cotree(t) == g
        assert t.chi == n // 2 + 1  # vertex 0 and every odd vertex


def test_sexpr_roundtrip_on_the_1200_chain():
    g = _threshold_chain(1200, random.Random(6))
    text = cotree_sexpr(build_cotree(g))
    parsed = parse_cotree_sexpr(text)
    assert cotree_sexpr(parsed) == text
    assert realize_cotree(parsed) == g


def test_non_cograph_witness_is_an_induced_p4():
    rng = random.Random(17)
    seen = 0
    for _ in range(300):
        n = rng.randrange(4, 14)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        try:
            build_cotree(g)
        except NotACographError as err:
            _assert_induced_p4(g, err.witness)
            seen += 1
    assert seen > 100


def test_witness_on_chains_with_a_defect():
    chain = _threshold_chain(400)
    # A pendant vertex on the middle of the chain.
    pendant = Graph(401, chain.edges() + [(200, 400)])
    # A P4 on the first four vertices, buried at depth about 400.
    deep = Graph(400, [e for e in chain.edges() if e[1] >= 4] + [(0, 1), (1, 2), (2, 3)])
    for g in (pendant, deep):
        with pytest.raises(NotACographError) as err:
            build_cotree(g)
        _assert_induced_p4(g, err.value.witness)


# sha256 prefixes of every cotree-derived output over the cograph catalogue
# up to n vertices: the graph, per-node statistics, chi, the proper
# colouring, both cograph_pair witnesses and the realised graph.
COTREE_OUTPUTS = {8: "59446f0dad5e20c2", 9: "ada1e7d2717e1c19"}


@pytest.mark.parametrize("n_max", [8, pytest.param(9, marks=pytest.mark.slow)])
def test_cotree_outputs_are_pinned(n_max):
    h = hashlib.sha256()
    for g in graph_catalogue("cograph", n_max):
        t = build_cotree(g)
        omega, chi = cograph_pair(g, CotreeCertificate(t))
        h.update(repr((g.adj, t.stats(), t.chi, proper_colouring(t), sorted(omega.witness),
                       chi.witness, realize_cotree(t).adj)).encode())
    assert h.hexdigest()[:16] == COTREE_OUTPUTS[n_max]
