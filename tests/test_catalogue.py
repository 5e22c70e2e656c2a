import itertools
import random

import pytest

from blockerlab.catalogue import (
    CATALOGUE_CLASSES,
    graph_catalogue,
    random_chordal,
    random_connected_bipartite,
    random_connected_graph,
    random_graph,
)
from blockerlab.graph import Graph, complete_multipartite_graph, cycle_graph, disjoint_union
from blockerlab.isomorphism import are_isomorphic, invariant_key

# Connected graphs by vertex count, n = 1..9: bipartite OEIS A005142,
# chordal A048193, triangle-free A024607.  n <= 8 is pinned in tier-1 by
# test_oracle.py; n = 9 runs under the slow marker.
COUNTS = {
    "bipartite": [1, 1, 1, 3, 5, 17, 44, 182, 730],
    "chordal": [1, 1, 2, 5, 15, 58, 272, 1614, 11911],
    "c3-free": [1, 1, 1, 3, 6, 19, 59, 267, 1380],
}

# The benchmark builds its instances from these generators, so a seed must
# keep giving the same graph: these edge lists are byte-for-byte what
# Random(seed) produced when they were pinned.
PINNED = {
    1: (
        [(0, 8), (1, 6), (1, 8), (1, 9), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (3, 9), (4, 9)],
        [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (3, 4), (3, 10), (4, 7), (4, 8),
         (7, 8), (7, 9), (9, 11)],
        [(0, 1), (0, 4), (0, 9), (1, 2), (1, 6), (1, 9), (2, 5), (2, 6), (2, 9), (3, 4), (3, 6),
         (3, 7), (4, 5), (4, 6), (4, 7), (4, 9), (5, 6), (6, 7), (7, 8), (7, 9)],
    ),
    2: (
        [(0, 5), (0, 6), (1, 5), (1, 7), (1, 9), (2, 6), (2, 8), (2, 9), (3, 6), (3, 7), (4, 5),
         (4, 7), (4, 8)],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 10), (1, 8), (2, 4), (2, 5), (2, 6), (2, 7),
         (4, 10), (4, 11), (5, 6), (5, 9), (6, 9)],
        [(0, 3), (0, 4), (0, 8), (1, 4), (1, 6), (2, 5), (2, 6), (2, 7), (2, 9), (3, 4), (3, 8),
         (3, 9), (4, 5), (4, 6), (5, 6), (7, 8)],
    ),
    3: (
        [(0, 7), (0, 8), (0, 9), (1, 6), (1, 9), (2, 5), (2, 7), (2, 8), (3, 4), (3, 6), (3, 7)],
        [(0, 1), (0, 4), (0, 10), (0, 11), (1, 2), (1, 4), (1, 5), (1, 10), (2, 3), (2, 5),
         (4, 10), (5, 6), (5, 7), (6, 7), (6, 9), (7, 8)],
        [(0, 1), (0, 3), (0, 6), (0, 7), (0, 9), (1, 2), (1, 8), (2, 7), (3, 4), (3, 5), (4, 7),
         (5, 8), (5, 9), (6, 7), (7, 9)],
    ),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_seeded_generators_are_pinned(seed):
    bipartite, chordal, general = PINNED[seed]
    assert random_connected_bipartite(random.Random(seed), 10, 0.3).edges() == bipartite
    assert random_chordal(random.Random(seed), 12).edges() == chordal
    assert random_connected_graph(random.Random(seed), 10, 0.4).edges() == general


@pytest.mark.slow
@pytest.mark.parametrize("clazz", sorted(COUNTS))
def test_grown_catalogue_counts_at_9(clazz):
    by_n = [0] * 9
    for g in graph_catalogue(clazz, 9):
        by_n[g.n - 1] += 1
    assert by_n == COUNTS[clazz]


# -- independent brute force: labelled graphs, one per orbit of relabellings --


def _bipartite(g):
    side = {}
    for start in range(g.n):
        if start in side:
            continue
        side[start], stack = 0, [start]
        while stack:
            u = stack.pop()
            for v in g.neighbours(u):
                if v not in side:
                    side[v] = 1 - side[u]
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def _chordal(g):
    # Repeatedly remove a vertex whose remaining neighbours form a clique.
    alive = set(range(g.n))
    while alive:
        for v in alive:
            nb = [u for u in g.neighbours(v) if u in alive]
            if all(g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)):
                alive.remove(v)
                break
        else:
            return False
    return True


def _triangle_free(g):
    return not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
    )


MEMBER = {"bipartite": _bipartite, "chordal": _chordal, "c3-free": _triangle_free}


def _least_relabelling(n, edges):
    """The permutation-minimal sorted edge tuple, and every relabelled tuple."""
    images = {
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in itertools.permutations(range(n))
    }
    return min(images), images


def _brute_force_classes(clazz, n):
    slots = list(itertools.combinations(range(n), 2))
    seen, forms = set(), set()
    for picks in range(1 << len(slots)):
        edges = tuple(slots[i] for i in range(len(slots)) if picks >> i & 1)
        if edges in seen:
            continue
        g = Graph(n, edges)
        if g.is_connected() and MEMBER[clazz](g):
            form, images = _least_relabelling(n, edges)
            seen |= images
            forms.add(form)
    return forms


@pytest.mark.parametrize("clazz", sorted(COUNTS))
def test_grown_catalogue_matches_labelled_brute_force(clazz):
    by_n = {}
    for g in graph_catalogue(clazz, 6):
        by_n.setdefault(g.n, []).append(_least_relabelling(g.n, g.edges())[0])
    for n in range(1, 7):
        forms = by_n[n]
        assert len(set(forms)) == len(forms), "catalogue lists isomorphic graphs twice"
        assert set(forms) == _brute_force_classes(clazz, n)


# -- the canonical key ---------------------------------------------------------


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_key_is_invariant_under_relabelling():
    rng = random.Random(11)
    for clazz in CATALOGUE_CLASSES:
        for g in graph_catalogue(clazz, 7):
            key = invariant_key(g)
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert invariant_key(_relabel(g, perm)) == key


def _brute_isomorphism(g, h):
    target = set(h.edges())
    for perm in itertools.permutations(range(g.n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in target for u, v in g.edges()):
            return perm
    return None


def test_equal_keys_mean_isomorphic():
    rng = random.Random(12)
    for n in (4, 5, 6):
        groups = {}
        for _ in range(150):
            g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            groups.setdefault(invariant_key(g), []).append(g)
        assert any(len(same) > 1 for same in groups.values())
        for same in groups.values():
            for h in same[1:]:
                assert h.edge_count() == same[0].edge_count()
                assert _brute_isomorphism(same[0], h) is not None


@pytest.mark.parametrize(
    "g, h",
    [
        # Regular pairs: colour refinement alone gives every vertex one colour.
        (cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3))),
        (complete_multipartite_graph((3, 3)),
         Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])),
        (cycle_graph(8), disjoint_union(cycle_graph(4), cycle_graph(4))),
    ],
)
def test_refinement_equivalent_pairs_get_different_keys(g, h):
    assert _brute_isomorphism(g, h) is None
    assert not are_isomorphic(g, h)
